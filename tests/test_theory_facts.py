"""Group-level and fusion-level structural facts beyond the main check matrix.

These are instance-level confirmations of the algebraic statements the
machinery relies on: p'-core identities at local subgroups, central quotient
equivalences for the characteristic-p condition, inheritance of
constrainedness by subsystems, and agreement between local subsystems and the
fusion systems of the corresponding local subgroups.  It also runs the check
matrix on non-constrained systems, the paper's main case, where the subcentric
linking locality is not a group; no corpus instance is of this kind.
"""

from __future__ import annotations

from collections import Counter

import pytest

from fusionloc.corpus import CorpusEntry, Instance, builtin_group
from fusionloc.fusion import fusion_isomorphic, is_constrained, subsystem_from_normal_subgroup
from fusionloc.groups import (
    bits,
    cores,
    group_from_permutations,
    o_p_prime_mask,
    p_part,
    popcount,
    quotient_group,
)
from fusionloc.verifier import run_instance_checks

# groups whose fusion systems at p = 2 are not constrained:
# name -> (degree, generators as 1-based cycles)
NON_CONSTRAINED = {
    "PSL27": (7, [[[1, 2, 3, 4, 5, 6, 7]], [[1, 2], [3, 6]]]),
    "A6": (6, [[[1, 2, 3]], [[1, 2, 3, 4, 5]], [[4, 5, 6]]]),
    "A7": (7, [[[1, 2, 3]], [[1, 2, 3, 4, 5, 6, 7]]]),
}


def non_constrained_group(name):
    degree, gens = NON_CONSTRAINED[name]
    return group_from_permutations(degree, gens, label=name)


CASES = (("S4", 2), ("A5", 2), ("SL23", 2), ("SL23", 3), ("C2xA5", 2), ("C2xS4", 2))


def _p_subgroup_reps(G, S_mask, p):
    """Conjugacy class representatives of nontrivial subgroups of S."""
    real = G.as_group(S_mask)
    seen = set()
    out = []
    for m in real.group.subgroup_masks():
        if m == 1:
            continue
        parent = real.mask_to_parent(m)
        canon = min(G.conjugate_mask(parent, g) for g in range(G.order))
        if canon not in seen:
            seen.add(canon)
            out.append(parent)
    return out


@pytest.mark.parametrize("name,p", CASES)
def test_theta_of_normalizer_equals_theta_of_centralizer(name, p):
    G = builtin_group(name)
    S = G.sylow_mask(p)
    for parent in _p_subgroup_reps(G, S, p):
        nreal = G.as_group(G.normalizer_mask(parent))
        creal = G.as_group(G.centralizer_mask(parent))
        theta_n = nreal.mask_to_parent(o_p_prime_mask(nreal.group, p))
        theta_c = creal.mask_to_parent(o_p_prime_mask(creal.group, p))
        assert theta_n == theta_c


@pytest.mark.parametrize("name,p", (("S3", 2), ("SL23", 3), ("C2xA5", 2)))
def test_local_structure_descends_to_theta_quotient(name, p):
    # with G-bar = G/Theta(G): the normalizer and centralizer of the image of
    # a p-subgroup are the images of the normalizer and centralizer
    G = builtin_group(name)
    theta = o_p_prime_mask(G, p)
    q = quotient_group(G, theta)
    S = G.sylow_mask(p)
    for parent in _p_subgroup_reps(G, S, p):
        img = 0
        for x in bits(parent):
            img |= 1 << q.projection[x]
        n_img = 0
        for x in bits(G.normalizer_mask(parent)):
            n_img |= 1 << q.projection[x]
        assert n_img == q.group.normalizer_mask(img)
        c_img = 0
        for x in bits(G.centralizer_mask(parent)):
            c_img |= 1 << q.projection[x]
        assert c_img == q.group.centralizer_mask(img)


@pytest.mark.parametrize("name", ("SL23", "Q8", "D8", "C2xS4"))
def test_characteristic_p_central_quotient_equivalence(name):
    # for Z central and inside O_p: G has characteristic p iff G/Z does
    G = builtin_group(name)
    rep = cores(G, 2)
    zreal = G.as_group(G.center_mask() & rep.o_p)
    for zm in zreal.group.subgroup_masks():
        Z = zreal.mask_to_parent(zm)
        q = quotient_group(G, Z)
        assert cores(q.group, 2).is_char_p == rep.is_char_p


def test_constrained_inherited_by_normal_subsystems(corpus):
    # F constrained and E = F_T(N) for N normal in G: E is constrained,
    # and O_2(E) is normal in F
    for name in ("S4", "SL23", "C2xS4"):
        inst = corpus.instance(name, 2)
        F = inst.fusion
        assert is_constrained(F)
        for n_mask in inst.group.normal_subgroup_masks():
            t_parent = n_mask & inst.s_real.mask
            if p_part(popcount(n_mask), 2) != popcount(t_parent):
                continue
            E = subsystem_from_normal_subgroup(F, inst.group, inst.s_real, n_mask).fusion
            if not E.is_saturated():
                continue
            assert is_constrained(E)
            assert F.is_normal_in_fusion(E.o_p_of_fusion())


def test_local_subsystem_matches_local_subgroup_model(corpus):
    # for G of characteristic p and P fully normalized: the conjugation
    # fusion of N_G(P) on N_S(P) is exactly N_F(P)
    for name in ("S4", "SL23"):
        inst = corpus.instance(name, 2)
        G, F, real = inst.group, inst.fusion, inst.s_real
        assert cores(G, 2).is_char_p
        base = real.group
        for P in F.subgroups():
            if P == 1 or not F.is_fully_normalized(P):
                continue
            n_parent = G.normalizer_mask(real.mask_to_parent(P))
            ns_mask = base.normalizer_mask(P)
            maps = {m: set() for m in base.subgroups_of(ns_mask)}
            for g in bits(n_parent):
                partial = {}
                dom = 0
                for i in bits(ns_mask):
                    j = real.index_of.get(G.conj(real.to_parent[i], g))
                    if j is not None and (ns_mask >> j) & 1:
                        partial[i] = j
                        dom |= 1 << i
                for A in base.subgroups_of(dom):
                    maps[A].add(tuple(partial[i] for i in base.mask_elements(A)))
            NF = F.normalizer_subsystem(P)
            assert {m: frozenset(s) for m, s in maps.items()} == NF.maps_from
            # the local subgroup is a model: characteristic p with Sylow N_S(P)
            nreal = G.as_group(n_parent)
            assert cores(nreal.group, 2).is_char_p
            assert p_part(popcount(n_parent), 2) == popcount(ns_mask)


@pytest.mark.parametrize(
    "name, passed, skipped, delta_star_size, theta_size",
    [("PSL27", 68, 6, 104, 1), ("A6", 68, 6, 104, 1), ("A7", 65, 24, 408, 7)],
    ids=["PSL27", "A6", "A7"],
)
def test_non_constrained_system_passes_the_matrix(
    name, passed, skipped, delta_star_size, theta_size
):
    inst = Instance(CorpusEntry(name, 2), non_constrained_group(name))
    statuses = Counter(r.status for r in run_instance_checks(inst))
    assert statuses == {"pass": passed, "skipped": skipped}
    F, ds, td = inst.fusion, inst.deltas, inst.theta
    # not constrained, so F has no model; 1 is not subcentric, and Delta* is F^s
    assert not is_constrained(F)
    assert 1 not in ds.subcentric
    assert ds.delta_star == ds.subcentric and len(ds.delta_star) == 9
    assert td.locality.size == delta_star_size and len(td.theta) == theta_size
    assert (td.quotient_data is None) == (theta_size == 1)
    # the Theta-quotient is a linking locality with a properly partial product
    Q = td.quotient
    assert Q.size == 104 and Q.size**2 - len(Q.prod2) == 5120
    assert Q.is_linking_locality()


def test_psl27_a6_a7_share_their_fusion_system_at_2():
    F = Instance(CorpusEntry("PSL27", 2), non_constrained_group("PSL27")).fusion
    for name in ("A6", "A7"):
        other = Instance(CorpusEntry(name, 2), non_constrained_group(name)).fusion
        assert fusion_isomorphic(F, other) is not None, name
