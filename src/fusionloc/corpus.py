"""Builtin group presets, the default verification corpus, and ``Instance``,
the one owner of every fact derived from a group at a prime, its object sets
and their localities included.

Builtins are stored as permutation generator presets (1-based cycles); the
multiplication tables are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .constructions import DeltaSets, ThetaData, delta_sets, nontrivial, theta_quotient
from .errors import CorpusLoadError, ParseError
from .fusion import FusionSystem, Subsystem, fusion_from_group, subsystem_from_normal_subgroup
from .groups import (
    FiniteGroup,
    RealizedSubgroup,
    Subgroup,
    group_from_permutations,
    p_part,
    sylow_p,
)
from .locality import Locality, locality_from_group

# name -> (degree, generators as cycle lists)
BUILTINS: dict[str, tuple[int, list]] = {
    "C1": (1, []),
    "C2": (2, [[[1, 2]]]),
    "C3": (3, [[[1, 2, 3]]]),
    "C4": (4, [[[1, 2, 3, 4]]]),
    "V4": (4, [[[1, 2], [3, 4]], [[1, 3], [2, 4]]]),
    "S3": (3, [[[1, 2, 3]], [[1, 2]]]),
    "S4": (4, [[[1, 2, 3, 4]], [[1, 2]]]),
    "A4": (4, [[[1, 2, 3]], [[2, 3, 4]]]),
    "A5": (5, [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]),
    "D8": (4, [[[1, 2, 3, 4]], [[1, 3]]]),
    "Q8": (8, [[[1, 3, 2, 4], [5, 7, 6, 8]], [[1, 5, 2, 6], [3, 8, 4, 7]]]),
    "SL23": (8, [[[3, 4, 5], [6, 8, 7]], [[1, 3, 2, 6], [4, 5, 8, 7]]]),
    "C2xS4": (6, [[[1, 2]], [[3, 4, 5, 6]], [[3, 4]]]),
    "C2xA5": (7, [[[1, 2]], [[3, 4, 5, 6, 7]], [[3, 4, 5]]]),
    "C2xD8": (6, [[[1, 2]], [[3, 4, 5, 6]], [[3, 5]]]),
    "C2^3": (6, [[[1, 2]], [[3, 4]], [[5, 6]]]),
}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    prime: int
    notes: str = ""


DEFAULT_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("S4", 2, notes="characteristic 2-type"),
    CorpusEntry("S4", 3),
    CorpusEntry("A4", 2),
    CorpusEntry("A4", 3),
    CorpusEntry("A5", 2),
    CorpusEntry("A5", 3),
    CorpusEntry("A5", 5),
    CorpusEntry("SL23", 2),
    CorpusEntry("SL23", 3, notes="nontrivial Theta at the Sylow 3-normalizer"),
    CorpusEntry("S3", 2),
    CorpusEntry("S3", 3),
    CorpusEntry("C2xA5", 2, notes="central C2 subcentric but outside Delta*"),
    CorpusEntry("C2xS4", 2, notes="central C2 in Delta but not quasicentric"),
    CorpusEntry("D8", 2),
    CorpusEntry("Q8", 2),
)


def builtin_group(name: str) -> FiniteGroup:
    preset = BUILTINS.get(name)
    if preset is None:
        raise CorpusLoadError(f"unknown builtin group {name!r}")
    degree, gens = preset
    return group_from_permutations(degree, gens, label=name)


# the object sets ``Instance.objects`` and ``Instance.locality`` take
OBJECT_KINDS = ("all", "delta", "delta-star", "centric", "subcentric")


@dataclass
class Instance:
    """A group G at a prime p dividing |G| (else ``CorpusLoadError``) and the
    facts derived from them: the Sylow subgroup S, realized, F_S(G),
    Delta/Delta*, the Theta quotient and the subsystems F_T(N) of the normal
    subgroups N of G.  Each is computed once, when first read, and so is the
    locality of each distinct object set."""

    entry: CorpusEntry
    group: FiniteGroup
    _localities: dict[frozenset[int], Locality] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if p_part(self.group.order, self.prime) == 1:
            raise CorpusLoadError(
                f"{self.prime} does not divide |{self.entry.name}| = {self.group.order}"
            )

    @property
    def prime(self) -> int:
        return self.entry.prime

    @property
    def instance_id(self) -> str:
        return f"{self.entry.name}@p{self.prime}"

    @cached_property
    def sylow(self) -> Subgroup:
        return sylow_p(self.group, self.prime)

    @cached_property
    def s_real(self) -> RealizedSubgroup:
        return self.group.as_group(self.sylow.mask)

    @cached_property
    def fusion(self) -> FusionSystem:
        return fusion_from_group(self.group, self.sylow, self.prime)

    @cached_property
    def deltas(self) -> DeltaSets:
        return delta_sets(self.fusion, self.group, self.s_real)

    @cached_property
    def theta(self) -> ThetaData:
        return theta_quotient(self.deltas, self.locality("delta-star"), self.s_real)

    @cached_property
    def normal_subsystems(self) -> dict[int, Subsystem]:
        """E = F_T(N), T = N cap S, for each N normal in G, keyed by the mask of N."""
        F, G, real = self.fusion, self.group, self.s_real
        return {n: subsystem_from_normal_subgroup(F, G, real, n) for n in G.normal_subgroup_masks()}

    def objects(self, kind: str) -> frozenset[int]:
        """The object set ``kind`` (one of ``OBJECT_KINDS``) as masks over the
        realized S, computed from what it needs: "all" reads no F_S(G)."""
        if kind == "all":
            return nontrivial(frozenset(self.s_real.group.subgroup_masks()))
        if kind in ("delta", "delta-star"):
            ds = self.deltas
            return nontrivial(ds.delta if kind == "delta" else ds.delta_star)
        if kind in ("centric", "subcentric"):
            table = self.fusion.classification_table()
            return frozenset(P for P in self.fusion.subgroups() if getattr(table[P], kind))
        raise ParseError(f"unknown object set {kind!r}")

    def locality(self, kind: str) -> Locality:
        """The locality of G on ``objects(kind)``, one per distinct object set."""
        gamma = self.objects(kind)
        L = self._localities.get(gamma)
        if L is None:
            L = self._localities[gamma] = locality_from_group(
                self.group, self.sylow, gamma, self.prime
            )
        return L


def build_instance(entry: CorpusEntry) -> Instance:
    return Instance(entry, builtin_group(entry.name))
