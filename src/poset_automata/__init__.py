"""Toolkit for partially ordered NFAs: class detection, class-specialized
universality deciders, and generators for the hardness constructions.

The DTM and reduction names (``Dtm``, ``RunRecord``, ``parse_dtm``,
``simulate_dtm``, ``PairAlphabet``, ``ReductionArtifact``, ``encode_run``,
``reduce``) resolve on first use through ``__getattr__`` (PEP 562), so a
process that only decides or classifies never runs ``dtm`` or
``reduction``.  Both sit in ``sys.modules`` unexecuted (``LazyLoader``)
for code that looks them up there, such as the benchmark's tracer.
``classify`` stays eager: it shares its name with its submodule, which the
import system binds to the package whenever another module imports it
first, so a lazy ``from poset_automata import classify`` could give the
module.
"""

from .caps import Caps, default_caps
from .classify import (ClassReport, classify, format_report, is_complete,
                       is_confluent, is_partially_ordered, is_saturated,
                       is_self_loop_deterministic, is_ums)
from .core import Nfa, Word, accepts, format_word, parse_automaton, print_automaton
from .errors import InputError, ResourceLimitError, SimulationError
from .hardness import (Dag, build_aknn, dag_gadget, dag_reachable, parse_dag,
                       sigma_alphabet, trim_aknn, w_word)
from .universality import (UniversalityResult, format_result, universal,
                           universal_antichain, universal_brute,
                           universal_sponfa, universal_subset,
                           universal_unary_po)


def _unexecuted(name: str):
    """Submodule ``name`` in ``sys.modules``, run on its first attribute
    access."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dtm = _unexecuted("dtm")
reduction = _unexecuted("reduction")

_LAZY = {"Dtm": "dtm", "RunRecord": "dtm", "parse_dtm": "dtm", "simulate_dtm": "dtm",
         "PairAlphabet": "reduction", "ReductionArtifact": "reduction",
         "encode_run": "reduction", "reduce": "reduction"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
