"""Resource caps for the potentially exponential operations.

Every cap can be overridden through the environment variable
POSET_AUTOMATA_CAPS, a comma-separated list of key=value pairs, e.g.

    POSET_AUTOMATA_CAPS="antichain_nodes=200000,enum_nodes=50000"

Every function that runs under a cap reads ``default_caps()`` at the check
it guards; the variable is the only way to set a cap.

Memory of the antichain decider: its packed columns hold at most
|Sigma|*|Q|^2 bits, as many as the automaton's step table, plus |Q| masks
of |Sigma| bits for the letters that lead into a universal state; its
domination index holds |Q| bits per kept set, and its queue one OR of
(|Q|+1)*|Sigma| bits per queued set.  Kept sets are keys of the search's
parent map, which holds at most |Sigma| sets per explored node, so
``antichain_nodes`` bounds all three, and none needs a cap of its own.

The confluence search holds unordered pairs of distinct states, one set of
pairs known to meet per pair of letters: at most |Sigma|(|Sigma|+1)/2 *
|Q|(|Q|-1)/2, about |Sigma|^2*|Q|^2/4, in all; ``confluence_nodes`` bounds
them.  The reductions of the micro machines in
``scripts/antichain_scaling.py`` at space bound 6 hold about 210,000 pairs
(roughly 50 bytes each); the default leaves nine times that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import InputError

ENV_VAR = "POSET_AUTOMATA_CAPS"


@dataclass(frozen=True)
class Caps:
    antichain_nodes: int = 10**6  # explored nodes in the antichain/subset deciders
    enum_nodes: int = 10**6      # words checked by brute-force enumeration
    word_len: int = 10**7        # maximum |W_{k,n}| the word generator will build
    reduce_n: int = 16           # largest k and n of the TM reduction's backbone A_{k,n}
    dag_nodes: int = 10**6       # nodes a DAG, built or parsed, may have
    aknn_arcs: int = 10**6       # transitions of an A_{k,n} that build_aknn will build
    confluence_nodes: int = 2 * 10**6  # state pairs held by the confluence search

    def with_overrides(self, spec: str) -> "Caps":
        """Apply a ``key=value,key=value`` override string; each value is a
        nonnegative integer."""
        if not spec.strip():
            return self
        known = {f.name for f in fields(self)}
        updates: dict[str, int] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise InputError(f"unknown resource cap {key!r} in {ENV_VAR}")
            try:
                updates[key] = int(value.strip())
            except ValueError:
                raise InputError(f"cap {key} needs an integer value, got {value!r}") from None
            if updates[key] < 0:
                raise InputError(f"cap {key} must be nonnegative, got {value.strip()}")
        return replace(self, **updates)


_DEFAULTS = Caps()


def default_caps() -> Caps:
    return _DEFAULTS.with_overrides(os.environ.get(ENV_VAR, ""))
