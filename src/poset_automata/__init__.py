"""Toolkit for partially ordered NFAs: class detection, class-specialized
universality deciders, and generators for the hardness constructions."""

from .caps import Caps, default_caps
from .classify import (ClassReport, classify, format_report, is_complete,
                       is_confluent, is_partially_ordered, is_saturated,
                       is_self_loop_deterministic, is_ums)
from .core import Nfa, Word, accepts, format_word, parse_automaton, print_automaton
from .dtm import Dtm, RunRecord, parse_dtm, simulate_dtm
from .errors import InputError, ResourceLimitError, SimulationError
from .hardness import (Dag, build_aknn, dag_gadget, dag_reachable, parse_dag,
                       sigma_alphabet, trim_aknn, w_word)
from .reduction import PairAlphabet, ReductionArtifact, encode_run, reduce
from .universality import (UniversalityResult, format_result, universal,
                           universal_antichain, universal_brute,
                           universal_sponfa, universal_subset,
                           universal_unary_po)
