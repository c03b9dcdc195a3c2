"""Localities built from a finite group: the Delta / Delta* object sets and
the Theta quotient that yields a linking locality over the group's fusion
system.

Delta is the set of subgroups of S whose normalizer in G has characteristic
p; Delta* those whose normalizer is almost of characteristic p (the quotient
by the p'-core has characteristic p).  Theta is the union of the p'-cores of
the object normalizers inside the Delta* locality; quotienting by it yields a
locality of objective characteristic p whose fusion system is the fusion
system of G.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import NotPartialNormal, NotSaturated, VerificationFailed
from .fusion import FusionSystem, maps_equal_under_index_map
from .groups import FiniteGroup, RealizedSubgroup, bits, cores, o_p_prime_mask
from .locality import Locality, QuotientData, quotient

# seed of the sample of class members whose Delta flags delta_sets recomputes
SPOT_CHECK_SEED = 7


@dataclass(frozen=True)
class DeltaSets:
    """The object sets of F = F_S(G), as masks over the realized S."""

    delta: frozenset[int]
    delta_star: frozenset[int]
    subcentric: frozenset[int]
    fusion: FusionSystem

    def gap(self) -> tuple[int, ...]:
        """Subcentric subgroups missing from Delta*, sorted."""
        return tuple(sorted(self.subcentric - self.delta_star))

    @property
    def characteristic_p_type(self) -> bool:
        """Every nontrivial subgroup of S lies in Delta."""
        return all(P in self.delta for P in self.fusion.subgroups() if P != 1)


def delta_sets(F: FusionSystem, G: FiniteGroup, real: RealizedSubgroup) -> DeltaSets:
    """Delta, Delta* and the subcentric set of F = F_S(G), S realized as
    ``real``, with invariant checks.

    Membership is decided on fusion-class representatives and propagated along
    the class; a seeded spot check recomputes it directly on random members
    that are not representatives.
    """
    p = F.p
    base = real.group

    def flags(mask: int) -> tuple[bool, bool]:
        parent = real.mask_to_parent(mask)
        nreal = G.as_group(G.normalizer_mask(parent))
        rep = cores(nreal.group, p)
        return rep.is_char_p, rep.is_almost_char_p

    delta = set()
    delta_star = set()
    for data in F.classes():
        char_p, almost = flags(data.representative)
        for P in data.members:
            if char_p:
                delta.add(P)
            if almost:
                delta_star.add(P)
    # spot check: direct recomputation on random members other than the
    # representatives, whose flags were computed, not propagated
    rng = random.Random(SPOT_CHECK_SEED)
    members = [P for data in F.classes() for P in data.members if P != data.representative]
    for P in rng.sample(members, min(5, len(members))):
        char_p, almost = flags(P)
        if (P in delta) != char_p or (P in delta_star) != almost:
            raise VerificationFailed(
                f"class propagation mismatch at {base.subgroup_label(P)}"
            )

    table = F.classification_table()
    subc = frozenset(P for P in F.subgroups() if table[P].subcentric)
    delta = frozenset(delta)
    delta_star = frozenset(delta_star)
    if not delta <= delta_star or not delta_star <= subc:
        raise VerificationFailed("Delta <= Delta* <= F^s violated")
    quasi = {P for P in F.subgroups() if table[P].quasicentric}
    if not quasi <= delta_star:
        raise VerificationFailed("F^q <= Delta* violated")
    return DeltaSets(delta=delta, delta_star=delta_star, subcentric=subc, fusion=F)


def nontrivial(masks) -> frozenset[int]:
    return frozenset(masks) - {1}


@dataclass(frozen=True)
class ThetaData:
    """The Delta* locality, its Theta partial normal subset, and the quotient.

    ``theta`` is Theta as carrier ids of ``locality``, and ``object_kernels``
    maps each object P to Theta(N_G(P)) likewise (ids of elements outside the
    carrier are left out and reported in ``findings``, which holds
    (``theta-*`` check id, text) pairs).  A trivial or not partial normal
    Theta leaves ``quotient`` = ``locality``.
    """

    deltas: DeltaSets
    locality: Locality
    theta: frozenset[int]
    quotient_data: Optional[QuotientData]
    quotient: Locality
    findings: tuple[tuple[str, str], ...]
    object_kernels: dict[int, frozenset[int]]


def theta_quotient(ds: DeltaSets, L: Locality, real: RealizedSubgroup) -> ThetaData:
    """The quotient by Theta of L, the locality of G on the Delta* of the
    object sets ``ds`` of F_S(G), S realized as ``real``.

    Structural assertions (Theta is partial normal, meets S trivially, the
    quotient has objective characteristic p and the same fusion system) are
    recorded as findings under their check ids rather than raised, except
    where construction is impossible.
    """
    G, p, gamma = L.source_group, ds.fusion.p, L.delta
    findings: list[tuple[str, str]] = []
    note = findings.append

    # Theta(N_G(P)) per object, as elements of G
    object_theta: dict[int, frozenset[int]] = {}
    for P in sorted(gamma):
        nreal = G.as_group(G.normalizer_mask(real.mask_to_parent(P)))
        theta_mask = nreal.mask_to_parent(o_p_prime_mask(nreal.group, p))
        object_theta[P] = frozenset(bits(theta_mask))
    src_pos = {g: i for i, g in enumerate(L.source_ids)}
    object_kernels = {
        P: frozenset(src_pos[g] for g in ts if g in src_pos)
        for P, ts in object_theta.items()
    }
    # Theta = union of the p'-cores of the object normalizers.  Neither
    # carrier-escape finding below can fire on this Delta* locality: g in
    # N_G(P) has P <= S cap S^g, and Delta* is closed under overgroups, so g
    # lies in the carrier; they guard the construction, not the theory
    for g in sorted(frozenset().union(*object_theta.values()) - src_pos.keys()):
        note(("theta-object-kernels", f"Theta element {G.element_label(g)} outside carrier"))
    theta = frozenset({0}).union(*object_kernels.values())

    if (theta & set(L.s_ids)) != {0}:
        note(("theta-meets-s-trivially", "Theta meets S nontrivially"))

    qd = None
    if theta != frozenset({0}):
        try:
            qd = quotient(L, theta)
        except NotPartialNormal:
            note(("theta-partial-normal", "Theta is not a partial normal subgroup"))
        # per-object kernels: preimage of N_{L/Theta}(P-bar) inside N_L(P)
        for P in sorted(gamma):
            if not object_theta[P] <= src_pos.keys():
                what = "object kernel outside carrier at"
            elif theta.intersection(L.normalizer_ids(P)) != object_kernels[P]:
                what = "kernel mismatch at object"
            else:
                continue
            note(("theta-object-kernels", f"{what} {real.group.subgroup_label(P)}"))
    quot = L if qd is None else qd.quotient
    if not quot.is_objective_char_p():
        note(("theta-quotient-objective", "quotient not of objective characteristic p"))
    if not quot.is_linking_locality():
        note(("theta-quotient-linking", "quotient is not a linking locality"))
    # fusion match under the identification of S with its image
    FQ = quot.fusion_system()
    if qd is None:
        if FQ.maps_from != ds.fusion.maps_from:
            note(("theta-fusion-match", "fusion system mismatch"))
    elif not maps_equal_under_index_map(ds.fusion, FQ, qd.s_index):
        note(("theta-fusion-match", "fusion system mismatch after Theta quotient"))
    return ThetaData(
        deltas=ds,
        locality=L,
        theta=theta,
        quotient_data=qd,
        quotient=quot,
        findings=tuple(findings),
        object_kernels=object_kernels,
    )


def is_characteristic_p_type_fusion(F: FusionSystem) -> bool:
    """Every nontrivial subgroup of S is subcentric."""
    if not F.is_saturated():
        raise NotSaturated(F.label)
    table = F.classification_table()
    return all(table[P].subcentric for P in F.subgroups() if P != 1)
