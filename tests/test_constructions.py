"""Delta / Delta* object sets, Theta quotients, characteristic p-type."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from fusionloc.constructions import (
    delta_sets,
    is_characteristic_p_type_fusion,
    nontrivial,
)
from fusionloc.corpus import BUILTINS, CorpusEntry, Instance, builtin_group
from fusionloc.errors import NotClosed, NotSylow, VerificationFailed
from fusionloc.fusion import fusion_from_group
from fusionloc.groups import (
    bits,
    cores,
    group_from_permutations,
    is_prime,
    p_part,
    popcount,
)
from fusionloc.locality import locality_from_group, verify_locality
from fusionloc.verifier import run_group_checks
from test_groups import small_perm_groups


def test_delta_sets_s4(corpus):
    ds = corpus.deltas("S4", 2)
    nontriv = {m for m in ds.fusion.subgroups() if m != 1}
    assert {m for m in ds.delta if m != 1} == nontriv
    assert 1 in ds.delta  # N_G(1) = S4 is of characteristic 2
    assert ds.delta == ds.delta_star == ds.subcentric
    assert ds.gap() == ()


def test_delta_sets_inclusions(corpus):
    for name, prime in (
        ("S4", 2), ("A4", 2), ("A5", 2), ("SL23", 2), ("SL23", 3),
        ("C2xA5", 2), ("C2xS4", 2), ("S3", 2), ("S3", 3),
    ):
        ds = corpus.deltas(name, prime)
        assert ds.delta <= ds.delta_star <= ds.subcentric
        table = ds.fusion.classification_table()
        quasi = {P for P in ds.fusion.subgroups() if table[P].quasicentric}
        assert quasi <= ds.delta_star


def test_c2xa5_gap(corpus):
    # the fact driving the construction: the central C2 is
    # subcentric but its normalizer (the whole group) is not almost of
    # characteristic 2, so it is missing from Delta*
    ds = corpus.deltas("C2xA5", 2)
    inst = corpus.instance("C2xA5", 2)
    zc = inst.s_real.mask_from_parent(inst.group.center_mask())
    assert zc not in ds.delta_star
    assert zc in ds.subcentric
    assert zc in ds.gap()


def test_delta_spot_check_catches_a_forged_class():
    # one forged class merges the central C2 (outside Delta*) into the class
    # of a subgroup in Delta; every other class is split into singletons, so
    # the central C2 is the one member whose flags are propagated, not
    # computed, and the spot check must draw it
    inst = Instance(CorpusEntry("C2xA5", 2), builtin_group("C2xA5"))
    F = inst.fusion
    zc = inst.s_real.mask_from_parent(inst.group.center_mask())
    host = next(
        d for d in F.classes() if len(d.members) == 1 and d.representative not in (1, zc)
    )
    forged = [
        replace(d, representative=P, members=(P,))
        for d in F.classes()
        for P in d.members
        if P not in (host.representative, zc)
    ]
    forged.append(replace(host, members=tuple(sorted((host.representative, zc)))))
    F.classification_table()
    F._classes = tuple(forged)
    with pytest.raises(VerificationFailed, match="class propagation mismatch"):
        delta_sets(F, inst.group, inst.s_real)


def test_c2xs4_central_in_delta_not_quasicentric(corpus):
    ds = corpus.deltas("C2xS4", 2)
    inst = corpus.instance("C2xS4", 2)
    zc = inst.s_real.mask_from_parent(inst.group.center_mask())
    assert zc in ds.delta
    table = ds.fusion.classification_table()
    assert not table[zc].quasicentric


def test_characteristic_p_type(corpus):
    assert corpus.deltas("S4", 2).characteristic_p_type
    assert is_characteristic_p_type_fusion(corpus.instance("S4", 2).fusion)

    assert not corpus.deltas("C2xA5", 2).characteristic_p_type
    assert is_characteristic_p_type_fusion(corpus.instance("C2xA5", 2).fusion)

    assert corpus.deltas("D8", 2).characteristic_p_type


def ref_is_characteristic_p_type(G, S, p) -> bool:
    """Every normalizer of a nontrivial subgroup of S has characteristic p.

    One cores(N_G(P)) per G-class of nontrivial subgroups of S, independent of
    the fusion classes and of Delta.
    """
    if popcount(S) != p_part(G.order, p):
        raise NotSylow(f"{G.subgroup_label(S)} is not Sylow in {G.label}")
    real = G.as_group(S)
    base = real.group
    seen_classes = set()
    for mask in base.subgroup_masks():
        if mask == 1:
            continue
        parent = real.mask_to_parent(mask)
        canon = G.canonical_conjugate(parent)
        if canon in seen_classes:
            continue
        seen_classes.add(canon)
        nreal = G.as_group(G.normalizer_mask(parent))
        if not cores(nreal.group, p).is_char_p:
            return False
    return True


def ref_first_class_masks(G, S) -> list[int]:
    """The least mask of each G-class of nontrivial subgroups of S, in the
    order an ascending walk over the subgroups of S first meets them."""
    real = G.as_group(S)
    seen, out = set(), []
    for mask in real.group.subgroup_masks():
        canon = G.canonical_conjugate(real.mask_to_parent(mask))
        if mask != 1 and canon not in seen:
            seen.add(canon)
            out.append(mask)
    return out


def group_prime_pairs(G):
    """(S, p) for each prime p dividing |G|."""
    for p in range(2, G.order + 1):
        if G.order % p == 0 and is_prime(p):
            yield G.sylow_mask(p), p


def assert_cpt_matches_class_walk(G):
    for S, p in group_prime_pairs(G):
        ref = ref_is_characteristic_p_type(G, S, p)
        ds = delta_sets(fusion_from_group(G, S, p), G, G.as_group(S))
        assert ds.characteristic_p_type == ref, (G.label, p)


def assert_group_checks_walk_classes(G):
    # run_group_checks visits the nontrivial F-classes in the walk's order,
    # at the walk's masks, and reads N_G(P) almost characteristic p from Delta*
    for S, p in group_prime_pairs(G):
        inst = Instance(CorpusEntry(G.label, p), G)
        ds = inst.deltas
        real = inst.s_real
        walk = ref_first_class_masks(G, S)
        reps = [d.representative for d in ds.fusion.classes() if d.representative != 1]
        assert reps == walk, (G.label, p)
        flipped = walk[1::2] or walk
        moved = {
            P for d in ds.fusion.classes() if d.representative in flipped for P in d.members
        }
        inst.deltas = replace(ds, delta_star=ds.delta_star ^ moved)
        rows = {r.check_id: r for r in run_group_checks(inst)}
        row = rows["norm-cent-characteristic-agree"]
        assert row.status == "fail", (G.label, p)
        parent = real.mask_to_parent(flipped[0])
        assert row.witness == f"subgroup {G.subgroup_label(parent)}", (G.label, p)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_characteristic_p_type_reads_delta(name):
    assert_cpt_matches_class_walk(builtin_group(name))


@given(small_perm_groups())
@settings(max_examples=20, deadline=None)
def test_characteristic_p_type_reads_delta_random(data):
    degree, gens = data
    assert_cpt_matches_class_walk(group_from_permutations(degree, gens, bound=200))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_group_checks_walk_fusion_classes(name):
    assert_group_checks_walk_classes(builtin_group(name))


@given(small_perm_groups())
@settings(max_examples=20, deadline=None)
def test_group_checks_walk_fusion_classes_random(data):
    degree, gens = data
    assert_group_checks_walk_classes(group_from_permutations(degree, gens, bound=200))


def test_theta_trivial_cases(corpus):
    for name, prime, carrier in (("S4", 2, 24), ("S3", 2, 2)):
        td = corpus.theta(name, prime)
        assert td.theta == frozenset({0})
        assert td.findings == ()
        assert td.locality.size == carrier
        assert td.quotient is td.locality  # bypass when Theta is forced trivial


def test_theta_nontrivial_sl23_at_3(corpus):
    td = corpus.theta("SL23", 3)
    assert td.locality.size == 6  # N_G(Sylow-3) = C6
    assert len(td.theta) == 2  # the central involution
    assert td.findings == ()
    assert td.quotient.size == 3
    assert td.quotient.is_linking_locality()
    assert verify_locality(td.quotient).ok
    # per-object kernels match Theta(N_G(P))
    gamma = nontrivial(td.deltas.delta_star)
    for P in gamma:
        kern = td.object_kernels[P]
        norm = set(td.locality.normalizer_ids(P))
        assert kern == norm & td.theta


def test_theta_c2xa5(corpus):
    td = corpus.theta("C2xA5", 2)
    assert td.findings == ()
    assert td.locality.size == 24  # the Delta* carrier avoids the center
    assert td.quotient.is_linking_locality()


def test_example_char_p_type_end_to_end(corpus):
    # a characteristic-2-type group: the all-nontrivial-objects locality is a
    # linking locality whose fusion system is the group fusion system, and the
    # nontrivial subcentric collection is the whole object set
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    assert verify_locality(L).ok
    assert L.is_objective_char_p()
    assert L.is_linking_locality()
    assert L.fusion_system().maps_from == inst.fusion.maps_from
    table = inst.fusion.classification_table()
    subc = {P for P in inst.fusion.subgroups() if P != 1 and table[P].subcentric}
    assert set(L.delta) == subc


def test_locality_from_group_not_closed():
    G = builtin_group("S4")
    S = G.sylow_mask(2)
    real = G.as_group(S)
    smallest = min(m for m in real.group.subgroup_masks() if m != 1)
    with pytest.raises(NotClosed):
        locality_from_group(G, S, frozenset([smallest]), 2, s_real=real)
