"""Incremental construction of named-state NFAs."""

from __future__ import annotations

from .core import Letter, Nfa
from .errors import InputError


class NfaBuilder:
    def __init__(self, alphabet: tuple[Letter, ...]):
        self.alphabet = alphabet
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._initial: set[int] = set()
        self._accepting: set[int] = set()
        self._arcs: set[tuple[int, int, int]] = set()

    def state(self, name: str, *, initial: bool = False, accepting: bool = False) -> int:
        """Fetch-or-create a state; initial/accepting flags accumulate."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        if initial:
            self._initial.add(idx)
        if accepting:
            self._accepting.add(idx)
        return idx

    @property
    def n_states(self) -> int:
        return len(self._names)

    def arc(self, src: str, letter: int, dst: str) -> None:
        for name in (src, dst):
            if name not in self._index:
                raise InputError(f"arc references undeclared state {name!r}")
        self._arcs.add((self._index[src], letter, self._index[dst]))

    def build(self) -> Nfa:
        return Nfa(len(self._names), self.alphabet, tuple(sorted(self._arcs)),
                   tuple(sorted(self._initial)), tuple(sorted(self._accepting)),
                   tuple(self._names))
