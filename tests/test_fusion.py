"""Fusion systems: construction, saturation, classification, subsystems."""

from __future__ import annotations

import gc
import weakref

import pytest

import fusionloc.fusion as fu
from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, build_instance, builtin_group
from fusionloc.errors import NotASubgroup, NotCentral, NotFullyKNormalized, NotSaturated, NotSylow
from fusionloc.fusion import (
    abstract_fusion,
    centralizer_in_S_of_subsystem,
    fusion_from_group,
    fusion_isomorphic,
    full_aut_kset,
    is_constrained,
    maps_equal_under_index_map,
    normal_ksets,
    quotient_mod_central,
    subsystem_from_normal_subgroup,
    trivial_kset,
)
from fusionloc.groups import (
    bits,
    perm_from_cycles,
    popcount,
    quotient_group,
    translate_mask,
)
from fusionloc.locality import locality_from_group
from fusionloc.verifier import run_fusion_checks


def F_of(corpus, name, prime):
    return corpus.instance(name, prime).fusion


def center_in_s(inst):
    """Z(G) as a mask over the realized S (Z(G) <= S in the cases used)."""
    return inst.s_real.mask_from_parent(inst.group.center_mask())


def ref_saturated_alternative(F) -> bool:
    """Reference oracle: saturation in the Sylow + extension axiom formulation,
    kept independent of ``FusionSystem._has_receptive``."""
    for data in F.classes():
        for P in data.fully_normalized_members:
            if P not in data.fully_centralized_members:
                return False
            if not F._fully_automized(P):
                return False
    base = F.base
    for data in F.classes():
        for P in data.fully_centralized_members:
            aut_s = set(F.inner_auts(P))
            pelems = base.mask_elements(P)
            for Q in data.members:
                qelems = base.mask_elements(Q)
                qpos = {x: i for i, x in enumerate(qelems)}
                for phi in F.isos(Q, P):
                    inv_of = {y: x for x, y in zip(qelems, phi)}
                    n_phi = 0
                    for g in base.mask_elements(base.normalizer_mask(Q) & F.carrier):
                        tup = tuple(phi[qpos[base.conj(inv_of[y], g)]] for y in pelems)
                        if tup in aut_s:
                            n_phi |= 1 << g
                    if fu._find_extension(F, n_phi, Q, phi) is None:
                        return False
    return True


def test_not_sylow_rejected():
    S4 = builtin_group("S4")
    V = next(m for m in S4.normal_subgroup_masks() if popcount(m) == 4)
    with pytest.raises(NotSylow):
        fusion_from_group(S4, V, 2)
    t = next(g for g in range(24) if S4.perm_rep[1][g] == perm_from_cycles([[1, 2, 3, 4]], 4))
    with pytest.raises(NotSylow) as exc:
        fusion_from_group(S4, S4.closure_mask(1 << t), 2)
    assert str(exc.value) == "<(1 2 3 4)> is not a Sylow 2-subgroup of S4"


@pytest.mark.parametrize(
    "build",
    [
        lambda G, m: fusion_from_group(G, m, 2),
        lambda G, m: locality_from_group(G, m, (), 2),
        quotient_group,
    ],
    ids=["fusion_from_group", "locality_from_group", "quotient_group"],
)
def test_mask_that_is_not_a_subgroup_is_refused(build):
    # elements 0..7 of S4: of Sylow 2-order, but not closed under products
    S4 = builtin_group("S4")
    with pytest.raises(NotASubgroup, match="^mask 255 is not a subgroup of S4$"):
        build(S4, (1 << 8) - 1)


def test_klein_class_structure_s4(corpus):
    # oracle: direct enumeration of conjugation maps inside S4
    inst = corpus.instance("S4", 2)
    F = inst.fusion
    base = F.base
    kleins = [
        m
        for m in F.subgroups()
        if popcount(m) == 4 and base.as_group(m).group.exponent() == 2
    ]
    assert len(kleins) == 2
    reps = {F.class_of(m).representative for m in kleins}
    assert len(reps) == 2  # the two Klein fours are not F-isomorphic
    for m in kleins:
        assert F.class_of(m).members == (m,)


def test_inner_fusion_of_p_group(corpus):
    F = F_of(corpus, "D8", 2)
    assert F.is_saturated()
    assert fu._is_inner_system(F)


def test_aut_f_v4_in_a5(corpus):
    inst = corpus.instance("A5", 2)
    F = inst.fusion
    # independent oracle: N_{A5}(V4)/C_{A5}(V4) has order 12/4 = 3
    G = inst.group
    parent = inst.s_real.mask
    n = popcount(G.normalizer_mask(parent))
    c = popcount(G.centralizer_mask(parent))
    assert n // c == 3
    assert len(F.auts(F.base.full_mask)) == 3


def test_saturation_corpus(corpus):
    for name, prime in (("S4", 2), ("A5", 2), ("SL23", 2), ("C2xS4", 2), ("Q8", 2)):
        F = F_of(corpus, name, prime)
        assert F.is_saturated()
        assert ref_saturated_alternative(F)


def test_unsaturated_abstract_example():
    # order-3 automorphism adjoined on a proper Klein subgroup of C2^3:
    # receptivity fails, since the map never extends to the abelian S
    E8 = builtin_group("C2^3")
    perms = E8.perm_rep[1]
    a = perms.index(perm_from_cycles([[1, 2]], 6))
    b = perms.index(perm_from_cycles([[3, 4]], 6))
    ab = E8.mul(a, b)
    V = E8.closure_mask((1 << a) | (1 << b))
    mapping = {0: 0, a: b, b: ab, ab: a}
    images = tuple(mapping[x] for x in E8.mask_elements(V))
    F = abstract_fusion(E8, 2, [(V, images)])
    assert not F.is_saturated()
    assert not ref_saturated_alternative(F)
    with pytest.raises(NotSaturated):
        F.classification_table()


def test_classification_s4(corpus):
    F = F_of(corpus, "S4", 2)
    table = F.classification_table()
    base = F.base
    cr = F.centric_radical_masks()
    # frozen expectation: the normal Klein four and S itself
    assert {popcount(m) for m in cr} == {4, 8}
    assert len(cr) == 2
    assert all(table[q].subcentric for q in F.subgroups())
    # chain and flag consistency
    for q in F.subgroups():
        c = table[q]
        assert c.centric_radical == (c.centric and c.radical)
        if c.central:
            assert c.normal
        if c.centric_radical:
            assert c.centric
        if c.centric:
            assert c.quasicentric
        if c.quasicentric:
            assert c.subcentric


def test_subcentric_s_always(corpus):
    for name, prime in (("S4", 2), ("A5", 2), ("C2xA5", 2), ("SL23", 3)):
        F = F_of(corpus, name, prime)
        assert F.classification_table()[F.base.full_mask].subcentric


def test_six_way_examples(corpus):
    F = F_of(corpus, "S4", 2)
    base = F.base
    # the class of <(1 2)(3 4)> has Z(D8) as fully normalized member
    t = next(
        m
        for m in F.subgroups()
        if popcount(m) == 2 and len(F.class_of(m).members) == 3
    )
    six = F.subcentric_equivalences(t)
    assert six.agree() and six.all_normalizers_constrained
    assert F.subcentric_equivalences(base.full_mask).agree()

    FF = F_of(corpus, "C2xA5", 2)
    zc = center_in_s(corpus.instance("C2xA5", 2))
    sixc = FF.subcentric_equivalences(zc)
    assert sixc.agree() and sixc.all_normalizers_core_centric


def test_local_subsystem_examples(corpus):
    # N_F(V4) in F_{V4}(A5) is the whole system
    FA = F_of(corpus, "A5", 2)
    NV = FA.normalizer_subsystem(FA.base.full_mask)
    assert NV.is_saturated() and NV.maps_from == FA.maps_from

    # C_F(Z) = F for Z <= Z(F): central C2 of C2xS4
    FB = F_of(corpus, "C2xS4", 2)
    zc = center_in_s(corpus.instance("C2xS4", 2))
    CF = FB.centralizer_subsystem(zc)
    assert CF.is_saturated() and CF.maps_from == FB.maps_from

    # N_F(Z(D8)) in F_{D8}(S4) is the inner system of D8
    FS = F_of(corpus, "S4", 2)
    zd8 = FS.base.centralizer_mask(FS.base.full_mask)
    NZ = FS.normalizer_subsystem(zd8)
    assert NZ.is_saturated() and popcount(NZ.carrier) == 8
    assert fu._is_inner_system(NZ)


def test_not_fully_k_normalized(corpus):
    F = F_of(corpus, "S4", 2)
    # a non-fully-normalized conjugate of Z(D8) with the full automorphism set
    t = next(
        m
        for m in F.subgroups()
        if popcount(m) == 2
        and len(F.class_of(m).members) == 3
        and not F.classification_table()[m].fully_normalized
    )
    with pytest.raises(NotFullyKNormalized):
        F.local_subsystem(t, full_aut_kset(F, t))


def test_is_constrained_examples(corpus):
    FS = F_of(corpus, "S4", 2)
    assert is_constrained(FS) and popcount(FS.o_p_of_fusion()) == 4

    FA = F_of(corpus, "A5", 2)
    assert is_constrained(FA) and popcount(FA.o_p_of_fusion()) == 4

    FD = F_of(corpus, "D8", 2)
    assert is_constrained(FD) and FD.o_p_of_fusion() == FD.base.full_mask


def test_quotient_mod_central(corpus):
    FB = F_of(corpus, "C2xS4", 2)
    zc = center_in_s(corpus.instance("C2xS4", 2))
    cq = quotient_mod_central(FB, zc)
    FS = F_of(corpus, "S4", 2)
    assert fusion_isomorphic(cq.quotient, FS) is not None
    # trivial quotient is the system itself (under the identity index map)
    cqt = quotient_mod_central(FB, 1)
    assert maps_equal_under_index_map(
        FB, cqt.quotient, list(range(FB.base.order))
    )
    # non-central subgroups are rejected
    noncentral = next(
        m for m in FB.subgroups() if popcount(m) == 2 and m & FB.center_mask() != m
    )
    with pytest.raises(NotCentral):
        quotient_mod_central(FB, noncentral)


def test_subcentric_quotient_correspondence(corpus):
    FB = F_of(corpus, "C2xS4", 2)
    zc = center_in_s(corpus.instance("C2xS4", 2))
    cq = quotient_mod_central(FB, zc)
    t = FB.classification_table()
    tq = cq.quotient.classification_table()
    for P in FB.subgroups():
        assert t[P].subcentric == tq[cq.image_of_mask(P)].subcentric


def test_subsystem_from_normal_subgroup(corpus):
    inst = corpus.instance("S4", 2)
    F = inst.fusion
    G = inst.group
    a4 = next(m for m in G.normal_subgroup_masks() if popcount(m) == 12)
    sub = subsystem_from_normal_subgroup(F, G, inst.s_real, a4)
    assert popcount(sub.fusion.carrier) == 4
    assert sub.embedding_ok
    assert len(sub.fusion.auts(sub.fusion.carrier)) == 3
    # E = F itself for N = G, interned as one object
    subF = subsystem_from_normal_subgroup(F, G, inst.s_real, G.full_mask)
    assert subF.fusion is F

    instA = corpus.instance("C2xA5", 2)
    a5 = next(
        m for m in instA.group.normal_subgroup_masks() if popcount(m) == 60
    )
    subA = subsystem_from_normal_subgroup(instA.fusion, instA.group, instA.s_real, a5)
    assert popcount(subA.fusion.carrier) == 4
    assert subA.fusion.is_saturated()


def test_centralizer_in_s_of_subsystem(corpus):
    inst = corpus.instance("S4", 2)
    F = inst.fusion
    G = inst.group
    a4 = next(m for m in G.normal_subgroup_masks() if popcount(m) == 12)
    sub = subsystem_from_normal_subgroup(F, G, inst.s_real, a4)
    # descending-search oracle: only the trivial subgroup centralizes F_V(A4),
    # since the order-3 automorphism moves every involution of V
    assert centralizer_in_S_of_subsystem(F, sub.fusion) == 1

    subF = subsystem_from_normal_subgroup(F, G, inst.s_real, G.full_mask)
    assert centralizer_in_S_of_subsystem(F, subF.fusion) == F.center_mask()

    instA = corpus.instance("C2xA5", 2)
    a5 = next(m for m in instA.group.normal_subgroup_masks() if popcount(m) == 60)
    subA = subsystem_from_normal_subgroup(instA.fusion, instA.group, instA.s_real, a5)
    zc = instA.s_real.mask_from_parent(instA.group.center_mask())
    assert centralizer_in_S_of_subsystem(instA.fusion, subA.fusion) == zc


def test_normality_criterion_matches_direct_definition(corpus):
    for name, prime in (("S4", 2), ("A5", 2), ("Q8", 2), ("S3", 3)):
        F = F_of(corpus, name, prime)
        assert F.is_saturated()
        for Q in F.subgroups():
            assert F.is_normal_in_fusion(Q) == F._normal_direct(Q)


def test_k_transport_rule(corpus):
    # K^phi = phi^-1 K phi: the transported normalizer size matches a direct scan
    F = F_of(corpus, "S4", 2)
    base = F.base
    for Q in F.subgroups():
        if popcount(Q) != 2:
            continue
        for kset in normal_ksets(F, Q):
            for phi in F.maps_from[Q]:
                img = fu.image_mask(phi)
                kphi = F.transported_k(Q, kset, phi)
                direct = 0
                for t in base.mask_elements(base.normalizer_mask(img)):
                    if fu.conj_map(base, img, t) in kphi:
                        direct |= 1 << t
                assert direct == F.k_normalizer_mask(img, kphi)


def test_class_counts_known_values(corpus):
    # D8 inside S4: the three central-type involution subgroups fuse, the two
    # reflection subgroups are S-conjugate, everything else is alone
    F = F_of(corpus, "S4", 2)
    sizes = sorted(len(d.members) for d in F.classes())
    assert sizes == [1, 1, 1, 1, 1, 2, 3]
    # Q8 inside SL(2,3): the three cyclic order-4 subgroups fuse
    FQ = F_of(corpus, "SL23", 2)
    sizesq = sorted(len(d.members) for d in FQ.classes())
    assert sizesq == [1, 1, 1, 3]
    # the induced automorphism group of Q8 has order 12 (an A4 image)
    assert len(FQ.auts(FQ.base.full_mask)) == 12


def test_local_subsystem_of_full_aut_set(corpus):
    F = F_of(corpus, "S4", 2)
    base = F.base
    NS = F.local_subsystem(base.full_mask, frozenset(F.auts(base.full_mask)))
    assert NS.is_saturated() and popcount(NS.carrier) == 8


def test_fusion_hom_filter(corpus):
    F = F_of(corpus, "S4", 2)
    base = F.base
    subs = F.subgroups()
    for P in subs[:6]:
        for Q in subs[:6]:
            for m in F.hom(P, Q):
                assert fu.image_mask(m) & Q == fu.image_mask(m)
            if P & Q == P:
                # the inclusion is present
                assert tuple(base.mask_elements(P)) in set(F.hom(P, Q))


def k_normalizers_of(base):
    """The fusion layer's interned systems over ``base``: F, its K-normalizers
    and whatever else equals one of them."""
    return [E for key, E in fu._SYSTEMS.items() if key[0] is base]


def check_k_normalizer_interning(F):
    """The interning assertions; a function, so none of its locals outlives it."""
    table = k_normalizers_of(F.base)
    assert any(E is F for E in table)

    def content(E):
        return (E.carrier, frozenset(E.maps_from.items()))

    # one object per (carrier, morphism sets)
    assert len({content(E) for E in table}) == len(table)

    # (Q, K) pairs with equal K-normalizer morphism sets share one object
    by_content: dict = {}
    for Q in F.subgroups():
        for K in fu.normal_ksets(F, Q):
            if F.is_fully_k_normalized(Q, K):
                E = F.local_subsystem(Q, K)
                by_content.setdefault(content(E), []).append(E)
    assert any(len(systems) > 1 for systems in by_content.values())
    for systems in by_content.values():
        assert all(E is systems[0] for E in systems)

    # cached saturation agrees with the independent Sylow + extension oracle
    for E in table:
        assert E.is_saturated() == ref_saturated_alternative(E)


@pytest.mark.parametrize("name", ["S4", "A5", "SL23"])
def test_k_normalizers_interned_per_base(name):
    # a fresh instance: the session corpus would keep its systems alive
    inst = build_instance(CorpusEntry(name, 2))
    run_fusion_checks(inst.fusion, inst.instance_id)
    base = inst.fusion.base
    check_k_normalizer_interning(inst.fusion)
    # the table holds its systems weakly, and no cycle keeps one alive, so
    # dropping the ambient system empties it without the cyclic collector
    gc.disable()
    try:
        del inst
        assert not k_normalizers_of(base)
    finally:
        gc.enable()


def test_fusion_freed_after_normal_subsystems_without_collector():
    # every F_T(N) is interned before F's classification, which then caches
    # those equal to a K-normalizer in F's local subsystems; a rebuild of
    # F_T(N) that held F would close a cycle F -> F_T(N) -> rebuild -> F
    unfreed = []
    for entry in DEFAULT_CORPUS:
        gc.collect()
        gc.disable()
        try:
            inst = build_instance(entry)
            inst.normal_subsystems
            inst.fusion.classification_table()
            ref = weakref.ref(inst.fusion)
            del inst
            if ref() is not None:
                unfreed.append(f"{entry.name}@p{entry.prime}")
        finally:
            gc.enable()
    assert unfreed == []


def ref_conj_fusion_maps(L, ids, carrier):
    """Reference: fusion maps on the subgroups of a carrier generated by
    conjugation with ids, each subgroup tested letter by letter."""
    base = L.s_group
    maps = {m: set() for m in base.subgroups_of(carrier)}
    for f in ids:
        cmap = L.conj_s[f]
        for A in maps:
            tup = []
            ok = True
            for i in bits(A):
                j = cmap.get(i)
                if j is None or not (carrier >> j) & 1:
                    ok = False
                    break
                tup.append(j)
            if ok:
                maps[A].add(tuple(tup))
    return {m: frozenset(s) for m, s in maps.items()}


@pytest.mark.parametrize("name,prime", [("S4", 2), ("A5", 2), ("SL23", 3)])
def test_maps_from_partials_matches_reference(corpus, name, prime):
    L = corpus.locality_all(name, prime)
    base = L.s_group
    for P in sorted(L.delta):
        for ids, carrier in (
            (L.normalizer_ids(P), base.normalizer_mask(P)),
            (L.centralizer_ids(P), base.centralizer_mask(P)),
        ):
            got = fu.maps_from_partials(base, carrier, [L.conj_s[f] for f in ids])
            assert got == ref_conj_fusion_maps(L, ids, carrier)


def ref_induced_map(base, qbase, proj, dom, images):
    """Reference: the map on the image of dom through the first lift of each
    image point, or None when another lift disagrees."""
    elems = base.mask_elements(dom)
    lifts = {}
    for x in elems:
        lifts.setdefault(proj[x], x)
    pos = {x: k for k, x in enumerate(elems)}
    q_elems = qbase.mask_elements(translate_mask(dom, proj))
    induced = tuple(proj[images[pos[lifts[q]]]] for q in q_elems)
    consistent = all(proj[images[pos[x]]] == induced[q_elems.index(proj[x])] for x in elems)
    return induced if consistent else None


def test_induced_map_matches_reference(corpus):
    FB = F_of(corpus, "C2xS4", 2)
    zc = center_in_s(corpus.instance("C2xS4", 2))
    qg = quotient_mod_central(FB, zc).quotient_group
    cases = [
        (FB, qg.group, qg.projection, A)
        for A in FB.subgroups()
        if A & zc == zc
    ]
    qd = corpus.theta("SL23", 3).quotient_data
    FL = qd.source.fusion_system()
    cases += [(FL, qd.quotient.s_group, qd.s_index, P) for P in FL.subgroups()]
    for F, qbase, proj, A in cases:
        for m in F.maps_from[A]:
            got = fu.induced_map(F.base, qbase, proj, A, m)
            assert got is not None
            assert got == ref_induced_map(F.base, qbase, proj, A, m)

    # an automorphism of V4 that moves the kernel of the projection
    V4 = builtin_group("V4")
    a, b = 1, 2
    qv = quotient_group(V4, 1 | 1 << a)
    swap = {0: 0, a: b, b: a, V4.mul(a, b): V4.mul(a, b)}
    images = tuple(swap[x] for x in V4.mask_elements(V4.full_mask))
    args = (V4, qv.group, qv.projection, V4.full_mask, images)
    assert qv.projection[0] == qv.projection[a] != qv.projection[b]
    assert fu.induced_map(*args) is None and ref_induced_map(*args) is None
