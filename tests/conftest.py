"""Shared fixtures: corpus instances and heavy objects built once per session."""

from __future__ import annotations

import pytest

from fusionloc.constructions import nontrivial
from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, Instance, build_instance
from fusionloc.locality import locality_from_group


class CorpusCache:
    def __init__(self) -> None:
        self._instances: dict[str, Instance] = {}
        self._localities = {}

    def instance(self, name: str, prime: int) -> Instance:
        key = f"{name}@p{prime}"
        if key not in self._instances:
            entry = next(
                (e for e in DEFAULT_CORPUS if e.name == name and e.prime == prime),
                CorpusEntry(name, prime),
            )
            self._instances[key] = build_instance(entry)
        return self._instances[key]

    def locality_all(self, name: str, prime: int):
        key = f"{name}@p{prime}"
        if key not in self._localities:
            inst = self.instance(name, prime)
            base = inst.s_real.group
            gamma = nontrivial(frozenset(base.subgroup_masks()))
            self._localities[key] = locality_from_group(
                inst.group, inst.sylow, gamma, prime,
                label=f"L_all({name})", s_real=inst.s_real,
            )
        return self._localities[key]

    def deltas(self, name: str, prime: int):
        return self.instance(name, prime).deltas

    def theta(self, name: str, prime: int):
        return self.instance(name, prime).theta


@pytest.fixture(scope="session")
def corpus() -> CorpusCache:
    return CorpusCache()
