"""Shared fixtures: corpus instances and heavy objects built once per session."""

from __future__ import annotations

import pytest

from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, Instance, build_instance


class CorpusCache:
    def __init__(self) -> None:
        self._instances: dict[str, Instance] = {}

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
        return self.instance(name, prime).locality("all")

    def deltas(self, name: str, prime: int):
        return self.instance(name, prime).deltas

    def theta(self, name: str, prime: int):
        return self.instance(name, prime).theta


@pytest.fixture(scope="session")
def corpus() -> CorpusCache:
    return CorpusCache()
