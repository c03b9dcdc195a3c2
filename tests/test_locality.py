"""Localities: construction, axioms, quotients, restrictions, transporter."""

from __future__ import annotations

import gc
import random
import weakref
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from fusionloc.constructions import nontrivial
from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, Instance, build_instance, builtin_group
from fusionloc.errors import (
    NotAnObject,
    NotClosed,
    NotInDomain,
    NotPartialNormal,
    VerificationFailed,
)
from fusionloc.fusion import (
    conjugation_partials,
    fusion_from_group,
    image_mask,
    locality_fusion,
)
from fusionloc.groups import (
    bits,
    cores,
    draws,
    group_from_permutations,
    perm_from_cycles,
    popcount,
    translate_mask,
)
from fusionloc.locality import (
    Locality,
    is_partial_normal,
    _validate_gamma,
    locality_from_group,
    object_set_gap,
    quotient,
    restriction,
    transporter_category,
    transporter_to_dot,
    transporter_to_json,
    verify_locality,
)
from fusionloc.verifier import mutate_locality, regenerate
from test_groups import small_perm_groups
from test_theory_facts import non_constrained_group


def g_elem(G, cycles):
    return G.perm_rep[1].index(perm_from_cycles(cycles, G.perm_rep[0]))


def reference_locality_fields(G, real, gamma):
    """The per-element definition of the locality on {g : S cap S^g in Gamma}.

    S_g and S_(a,b) are found by conjugating every element of S, which is
    independent of the per-element table that ``locality_from_group`` reads.
    Returns (source_ids, inv, s_ids, prod2, conj_s as item lists).
    """
    carrier = []
    for g in range(G.order):
        inv_dom = 0
        for i, x in enumerate(real.to_parent):
            if real.index_of.get(G.conj(x, G.inv(g))) is not None:
                inv_dom |= 1 << i
        if inv_dom in gamma:
            carrier.append(g)
    pos = {g: i for i, g in enumerate(carrier)}
    prod2 = {}
    for ia, ga in enumerate(carrier):
        for ib, gb in enumerate(carrier):
            gab = G.mul(ga, gb)
            m = 0
            for i, x in enumerate(real.to_parent):
                if (
                    real.index_of.get(G.conj(x, ga)) is not None
                    and real.index_of.get(G.conj(x, gab)) is not None
                ):
                    m |= 1 << i
            if m in gamma:
                prod2[(ia, ib)] = pos[gab]
    conj_s = []
    for g in carrier:
        cmap = []
        for i, x in enumerate(real.to_parent):
            j = real.index_of.get(G.conj(x, g))
            if j is not None:
                cmap.append((i, j))
        conj_s.append(cmap)
    inv = tuple(pos[G.inv(g)] for g in carrier)
    s_ids = tuple(pos[x] for x in real.to_parent)
    return tuple(carrier), inv, s_ids, prod2, conj_s


def locality_fields(L):
    return (
        L.source_ids, L.inv, L.s_ids, L.prod2, [list(c.items()) for c in L.conj_s]
    )


def assert_matches_reference(L, G, real, gamma):
    expected = reference_locality_fields(G, real, gamma)
    assert locality_fields(L) == expected
    # the dense table reads -1 exactly at the pairs outside the domain
    ref_prod2 = expected[3]
    assert len(L.prod2) == len(ref_prod2)
    assert [list(row) for row in L.rows] == [
        [ref_prod2.get((a, b), -1) for b in range(L.size)] for a in range(L.size)
    ]


@pytest.mark.parametrize(
    "name,prime",
    [("S4", 2), ("A5", 2), ("SL23", 3), ("D8", 2), ("C2xS4", 2)],
)
def test_locality_from_group_matches_reference(corpus, name, prime):
    inst = corpus.instance(name, prime)
    for kind in ("all", "centric", "delta-star"):
        gamma = inst.objects(kind)
        L = locality_from_group(inst.group, inst.sylow, gamma, prime)
        assert_matches_reference(L, inst.group, inst.s_real, gamma)


def test_partial_product_matches_reference():
    # S5 at p = 2 on all nontrivial objects: 56 elements, and about half of
    # the pairs lie outside the domain, unlike on every corpus instance
    G = group_from_permutations(5, [[[1, 2, 3, 4, 5]], [[1, 2]]])
    S = G.sylow_mask(2)
    real = G.as_group(S)
    gamma = nontrivial(frozenset(real.group.subgroup_masks()))
    L = locality_from_group(G, S, gamma, 2, s_real=real)
    assert L.size == 56 and len(L.prod2) == 1600
    assert_matches_reference(L, G, real, gamma)
    assert verify_locality(L).ok


@given(small_perm_groups())
@settings(max_examples=15, deadline=None)
def test_locality_from_group_matches_reference_random(data):
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    for prime in range(2, G.order + 1):
        if G.order % prime or any(prime % r == 0 for r in range(2, prime)):
            continue
        S = G.sylow_mask(prime)
        real = G.as_group(S)
        gamma = nontrivial(frozenset(real.group.subgroup_masks()))
        L = locality_from_group(G, S, gamma, prime, s_real=real)
        assert_matches_reference(L, G, real, gamma)


def reference_s_of_word(L, word):
    """S_w by carrying the pairs (a, image of a so far) through w left to right.

    Independent of the right-to-left preimage kernel and its memo.
    """
    pairs = [(i, i) for i in range(len(L.s_ids))]
    for g in word:
        cmap = L.conj_s[g]
        pairs = [(a, cmap[b]) for a, b in pairs if b in cmap]
    out = 0
    for a, _ in pairs:
        out |= 1 << a
    return out


def check_word_kernel(L, raw_words):
    """s_of_word against the reference, as the memo fills and once it is warm;
    normalizer_ids against a scan of the carrier for every subgroup of S."""
    words = [tuple(x % L.size for x in w) for w in raw_words]
    expected = [reference_s_of_word(L, w) for w in words]
    assert [L.s_of_word(w) for w in words] == expected
    assert [L.s_of_word(w) for w in words] == expected
    for P in L.s_group.subgroup_masks():
        scan = tuple(f for f in range(L.size) if L.conj_mask(P, f) == P)
        assert L.normalizer_ids(P) == scan
        assert L.normalizer_ids(P) == scan


word_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=5),
    min_size=1,
    max_size=30,
)


@given(small_perm_groups(), word_lists)
@settings(max_examples=20, deadline=None)
def test_s_of_word_matches_reference_random(data, raw_words):
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    for prime in range(2, G.order + 1):
        if G.order % prime or any(prime % r == 0 for r in range(2, prime)):
            continue
        S = G.sylow_mask(prime)
        real = G.as_group(S)
        F = fusion_from_group(G, S, prime)
        table = F.classification_table()
        object_sets = (
            nontrivial(frozenset(real.group.subgroup_masks())),
            frozenset(P for P in F.subgroups() if table[P].centric),
        )
        for gamma in object_sets:
            L = locality_from_group(G, S, gamma, prime, s_real=real)
            check_word_kernel(L, raw_words)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_s_of_word_matches_reference_corpus(corpus, name):
    inst = corpus.instance(name, 2)
    L = locality_from_group(inst.group, inst.sylow, inst.objects("all"), 2)

    @given(word_lists)
    @settings(max_examples=40, deadline=None)
    def run(raw_words):
        check_word_kernel(L, raw_words)

    run()


def test_locality_freed_without_collector():
    # F_S(L) records L's generators, not L, so L and its cached fusion
    # system form no reference cycle.  The fresh instance's F_S(G) is never
    # read, so F_S(L) is the first of the two equal systems built, and
    # regeneration rebuilds it from L's generators
    inst = build_instance(CorpusEntry("S4", 2))
    gc.disable()
    try:
        L = locality_from_group(inst.group, inst.sylow, inst.objects("all"), 2)
        F = L.fusion_system()
        assert verify_locality(L).ok
        ref = weakref.ref(L)
        del L
        assert ref() is None
    finally:
        gc.enable()
    assert F.rebuild.func is locality_fusion
    assert regenerate(F).maps_from == F.maps_from


def test_carrier_oracle_s4(corpus):
    # independent Sylow-intersection oracle: {g : S cap S^g != 1}
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    G, real = inst.group, inst.s_real
    expected = []
    for g in range(G.order):
        inter = [
            x for x in bits(real.mask) if real.index_of.get(G.conj(x, g)) is not None
        ]
        if len(inter) > 1:
            expected.append(g)
    assert list(L.source_ids) == expected
    assert L.size == 24  # every pair of Sylow 2-subgroups of S4 meets above V


def test_carrier_oracle_a5(corpus):
    inst = corpus.instance("A5", 2)
    L = corpus.locality_all("A5", 2)
    G, real = inst.group, inst.s_real
    expected = [
        g
        for g in range(G.order)
        if sum(
            1
            for x in bits(real.mask)
            if real.index_of.get(G.conj(x, g)) is not None
        )
        > 1
    ]
    assert list(L.source_ids) == expected
    assert L.size == 12  # carrier is the alternating group on 4 letters


def test_verify_locality_corpus(corpus):
    for name, prime in (("S4", 2), ("A5", 2), ("Q8", 2), ("SL23", 2)):
        L = corpus.locality_all(name, prime)
        rep = verify_locality(L)
        assert rep.ok, rep.failures()


def with_entries(L, entries, label="broken"):
    """A copy of L whose product table holds ``entries`` {(a, b): value};
    only the rows it changes are copied."""
    rows = list(L.rows)
    for (a, b), value in entries.items():
        if rows[a] is L.rows[a]:
            rows[a] = array("i", rows[a])
        rows[a][b] = value
    return Locality(
        size=L.size, inv=L.inv, rows=rows, s_ids=L.s_ids, s_group=L.s_group,
        delta=L.delta, p=L.p, label=label, elt_names=L.elt_names, conj_s=L.conj_s,
    )


def retarget(L, seed):
    """A copy of L with one defined product ab sent to another carrier id."""
    rng = random.Random(seed)
    pool = list(L.prod2)
    a, b = pool[rng.randrange(len(pool))]
    target = rng.choice([x for x in range(L.size) if x != L.rows[a][b]])
    return with_entries(L, {(a, b): target}, label="retargeted")


def test_mutation_breaks_axioms(corpus):
    L = corpus.locality_all("S4", 2)
    key = sorted(L.prod2)[41]
    broken = with_entries(L, {key: -1})
    assert key not in broken.prod2 and len(broken.prod2) == len(L.prod2) - 1
    rep = verify_locality(broken)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_retargeted_product_detected(corpus, name):
    L = corpus.locality_all(name, 2)
    for seed in range(20):
        rep = verify_locality(retarget(L, seed))
        assert not rep.ok, seed
        assert all(c.witness for c in rep.failures())


def test_table_outside_carrier_refused(corpus):
    L = corpus.locality_all("S4", 2)
    n = L.size
    # n would raise IndexError on a read and -2 would wrap to row n - 2
    for value in (n, -2, n + 7, -n):
        with pytest.raises(VerificationFailed, match="outside"):
            with_entries(L, {(3, 5): value})
    with pytest.raises(VerificationFailed, match="length"):
        Locality(
            size=n, inv=L.inv, rows=L.rows[:-1] + (L.rows[-1][:-1],),
            s_ids=L.s_ids, s_group=L.s_group, delta=L.delta, p=L.p, conj_s=L.conj_s,
        )
    with pytest.raises(VerificationFailed, match="rows"):
        Locality(
            size=n, inv=L.inv, rows=L.rows[:-1], s_ids=L.s_ids,
            s_group=L.s_group, delta=L.delta, p=L.p, conj_s=L.conj_s,
        )
    with pytest.raises(VerificationFailed, match="inversion"):
        Locality(
            size=n, inv=L.inv[:-1] + (-1,), rows=L.rows, s_ids=L.s_ids,
            s_group=L.s_group, delta=L.delta, p=L.p, conj_s=L.conj_s,
        )


def test_prod2_view_reads_rows(corpus):
    L = corpus.locality_all("S4", 2)
    M = with_entries(L, {(2, 7): -1, (0, 4): -1})
    keys = list(M.prod2)
    assert keys == sorted(keys) and len(keys) == len(M.prod2) == L.size**2 - 2
    assert M.prod2 == {(a, b): M.rows[a][b] for a, b in keys}
    assert (2, 7) not in M.prod2 and M.prod2.get((0, 4)) is None
    assert M.prod2[(2, 8)] == L.rows[2][8]
    for key in ((2, 7), (-1, 0), (0, L.size)):
        with pytest.raises(KeyError):
            M.prod2[key]


def test_word_letters_outside_carrier(corpus):
    L = corpus.locality_all("S4", 2)
    n = L.size
    for word in ((-1,), (n,), (0, -1), (n + 3, 0), (1, 2, -5)):
        with pytest.raises(NotInDomain):
            L.s_of_word(word)
        with pytest.raises(NotInDomain):
            L.product(word)
        assert not L.word_in_domain(word)
    for x, f in ((0, n), (0, -1), (n, 0), (-1, 0), (-1, -1)):
        assert L.conj_elem(x, f) is None
    assert L.conj_elem(0, 1) == 0


def test_s_of_examples(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    G = inst.group
    f = list(L.source_ids).index(g_elem(G, [[1, 2, 3]]))
    sf = L.s_of(f)
    V = next(
        m
        for m in L.s_group.subgroup_masks()
        if popcount(m) == 4 and G.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    assert sf & V == V
    assert L.s_of(0) == L.s_group.full_mask

    LA = corpus.locality_all("A5", 2)
    GA = corpus.instance("A5", 2).group
    f3 = list(LA.source_ids).index(g_elem(GA, [[3, 4, 5]]))
    assert LA.s_of(f3) == LA.s_group.full_mask  # V4 is normal in the carrier


def test_product_and_domain(corpus):
    L = corpus.locality_all("S4", 2)
    assert L.product(()) == 0
    # total product in the S4 locality: every word is in the domain
    for a in range(0, L.size, 5):
        for b in range(0, L.size, 7):
            assert L.word_in_domain((a, b))
    LA = corpus.locality_all("A5", 2)
    with pytest.raises(NotInDomain):
        LA.product((1, LA.size + 40))  # not a carrier element


def test_normalizer_groups(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    base = L.s_group
    V = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    grp, _ = L.normalizer_group(V)
    assert grp.order == 24
    zd8 = base.centralizer_mask(base.full_mask)
    grp2, _ = L.normalizer_group(zd8)
    assert grp2.order == 8
    with pytest.raises(NotAnObject):
        L.normalizer_group(1)

    LA = corpus.locality_all("A5", 2)
    grpA, _ = LA.normalizer_group(LA.s_group.full_mask)
    assert grpA.order == 12


def test_fusion_of_matches_group_fusion(corpus):
    for name in ("S4", "A5", "SL23"):
        inst = corpus.instance(name, 2)
        L = corpus.locality_all(name, 2)
        assert L.fusion_system().maps_from == inst.fusion.maps_from


def test_objective_and_linking_predicates(corpus):
    L = corpus.locality_all("S4", 2)
    assert L.is_objective_char_p() and L.is_linking_locality()
    LA = corpus.locality_all("C2xA5", 2)
    # N_L(central C2) = G is not of characteristic 2
    assert not LA.is_objective_char_p()
    assert not LA.is_linking_locality()


def test_objective_char_p_computed_once(corpus, monkeypatch):
    import fusionloc.locality as locality

    calls = []

    def counting_cores(H, p):
        calls.append(H)
        return cores(H, p)

    inst = corpus.instance("S4", 2)
    L = locality_from_group(inst.group, inst.sylow, inst.objects("all"), 2)
    monkeypatch.setattr(locality, "cores", counting_cores)
    assert L.is_objective_char_p() and L.is_objective_char_p()
    assert L.is_linking_locality()
    assert len(calls) == len(L.delta)


def test_l_radical(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    base = L.s_group
    V = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    C4 = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4 and base.as_group(m).group.exponent() == 4
    )
    assert L.is_l_radical(V)
    assert not L.is_l_radical(C4)
    lrad = {P for P in L.objects_sorted() if L.is_l_radical(P)}
    cr = set(inst.fusion.centric_radical_masks())
    assert lrad == {P for P in L.delta if P in cr}


def test_quotient_by_klein_four(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    V = next(
        m
        for m in L.s_group.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    vids = tuple(L.s_ids[i] for i in bits(V))
    assert is_partial_normal(L, vids)
    qd = quotient(L, vids)
    assert qd.quotient.size == 6
    assert len(qd.quotient.s_ids) == 2
    assert verify_locality(qd.quotient).ok
    # quotient by the trivial subgroup is an isomorphic copy
    qt = quotient(L, (0,))
    assert qt.quotient.size == L.size
    with pytest.raises(NotPartialNormal):
        quotient(L, (0, 1))  # an arbitrary pair is not partial normal


def test_restriction(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    table = inst.fusion.classification_table()
    centric = frozenset(P for P in inst.fusion.subgroups() if table[P].centric)
    Lr = restriction(L, centric)
    assert Lr.size == L.size  # every element keeps a centric subgroup in S_f
    assert verify_locality(Lr).ok
    assert restriction(L, L.delta).size == L.size

    LA = corpus.locality_all("A5", 2)
    LAr = restriction(LA, frozenset([LA.s_group.full_mask]))
    assert LAr.size == LA.size
    assert verify_locality(LAr).ok

    with pytest.raises(NotClosed):
        restriction(L, frozenset([min(L.delta)]))  # not overgroup-closed


def test_restriction_inclusion_homomorphism(corpus):
    # products of restricted-domain words agree with the parent locality
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    table = inst.fusion.classification_table()
    centric = frozenset(P for P in inst.fusion.subgroups() if table[P].centric)
    Lr = restriction(L, centric)
    import random

    rng = random.Random(5)
    for _ in range(300):
        w = tuple(rng.randrange(Lr.size) for _ in range(rng.randint(1, 3)))
        if Lr.word_in_domain(w):
            assert L.word_in_domain(w)
            assert L.product(w) == Lr.product(w)


def test_restriction_equals_locality_built_from_g(corpus):
    # restricting the all-objects locality to Gamma gives, field by field, the
    # locality that locality_from_group builds from G on Gamma; C2xA5@p2 is
    # the corpus instance whose carrier shrinks, and PSL(2,7)@p2 restricts a
    # locality that is not a group
    psl = Instance(CorpusEntry("PSL27", 2), non_constrained_group("PSL27"))
    instances = [corpus.instance(e.name, e.prime) for e in DEFAULT_CORPUS] + [psl]
    pairs = 0
    for inst in instances:
        L = inst.locality("all")
        for kind in ("centric", "delta-star", "delta"):
            gamma = inst.objects(kind)
            if not gamma or not gamma <= L.delta:
                continue
            Lr, M = restriction(L, gamma), inst.locality(kind)
            where = (inst.instance_id, kind)
            for field in ("size", "inv", "rows", "s_ids", "delta", "source_ids"):
                assert getattr(Lr, field) == getattr(M, field), (where, field)
            assert [list(c.items()) for c in Lr.conj_s] == [
                list(c.items()) for c in M.conj_s
            ], where
            assert [Lr.element_label(f) for f in range(Lr.size)] == [
                M.element_label(f) for f in range(M.size)
            ], where
            assert Lr.s_group is L.s_group and Lr.label == f"{L.label}|restricted"
            pairs += 1
    assert pairs == 47
    assert corpus.locality_all("C2xA5", 2).size == 120
    assert corpus.instance("C2xA5", 2).locality("centric").size == 24


def test_centralizer_group(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    base = L.s_group
    V = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    grp, _ = L.centralizer_group(V)
    assert grp.order == 4  # V is self-centralizing in the ambient group
    with pytest.raises(NotAnObject):
        L.centralizer_group(1)


def test_restriction_to_overgroups_of_v(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    base = L.s_group
    V = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    over = frozenset(m for m in base.subgroup_masks() if m & V == V)
    Lr = restriction(L, over)
    assert Lr.size == L.size  # every element has V inside S_f
    assert verify_locality(Lr).ok


def test_transporter_category(corpus):
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    tc = transporter_category(L)
    base = L.s_group
    V = next(
        m
        for m in base.subgroup_masks()
        if popcount(m) == 4
        and inst.group.is_normal_mask(inst.s_real.mask_to_parent(m))
    )
    assert tc.aut_orders[tc.objects.index(V)] == 24
    # composition closure on a sample
    import random

    rng = random.Random(3)
    msets = {}
    for (f, a, b) in tc.morphisms:
        msets.setdefault((a, b), set()).add(f)
    for _ in range(300):
        f, a, b = tc.morphisms[rng.randrange(len(tc.morphisms))]
        g, b2, c = tc.morphisms[rng.randrange(len(tc.morphisms))]
        if b != b2:
            continue
        fg = L.rows[f][g]
        assert fg >= 0
        assert fg in msets[(a, c)]

    tcA = transporter_category(corpus.locality_all("A5", 2))
    assert tcA.aut_orders[tcA.objects.index(tcA.locality.s_group.full_mask)] == 12

    dot = transporter_to_dot(tc, collapse=True)
    assert dot.startswith("digraph transporter") and dot.endswith("}\n")
    js = transporter_to_json(tc)
    assert len(js["objects"]) == len(tc.objects)
    assert all({"f", "src", "dst"} <= set(m) for m in js["morphisms"])


def test_word_invariants_random(corpus):
    from hypothesis import given, settings, strategies as st

    L = corpus.locality_all("S4", 2)
    LA = corpus.locality_all("A5", 2)

    @given(
        st.sampled_from([L, LA]),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def run(loc, word):
        word = tuple(x % loc.size for x in word)
        sw = loc.s_of_word(word)
        assert loc.s_group.is_subgroup_mask(sw)
        if sw in loc.delta:
            prod = loc.product(word)
            # S_w sits inside the domain of conjugation by the product
            assert sw & ~loc.s_of(prod) == 0
            # the product of the reversed inverses is the inverse
            rev = tuple(loc.inv[x] for x in reversed(word))
            assert loc.word_in_domain(rev)
            assert loc.product(rev) == loc.inv[prod]

    run()


def test_one_object_degenerate_locality():
    # a characteristic-p group with Delta = {S}: the transporter category of
    # N_G(S) on one object
    G = builtin_group("S4")
    S = G.sylow_mask(2)
    real = G.as_group(S)
    L = locality_from_group(G, S, frozenset([real.group.full_mask]), 2, s_real=real)
    assert L.size == popcount(G.normalizer_mask(S))
    tc = transporter_category(L)
    assert len(tc.objects) == 1
    assert tc.aut_orders[0] == L.size


def test_draws_equal_randrange():
    # every carrier size up to |L| = 2224 (S7 at p = 2, all objects) covers
    # each corpus and beyond-build locality, and n = 1, which still uses bits
    for n in range(1, 2225):
        fast, slow = random.Random(n), random.Random(n)
        assert list(islice(draws(fast, n), 30)) == [slow.randrange(n) for _ in range(30)]
        assert fast.getstate() == slow.getstate(), n
    # a long run at one size, and the stream draws nothing ahead of its reader
    fast, slow = random.Random(0), random.Random(0)
    letters = draws(fast, 56)
    assert [next(letters) for _ in range(50_000)] == [slow.randrange(56) for _ in range(50_000)]
    assert fast.getstate() == slow.getstate()
    # the pair and triple forms of FiniteGroup's table checks draw each tuple
    # left to right, as a tuple of randrange calls does
    for n in (1, 2, 3, 5, 7, 8, 24, 60, 100, 120, 720, 5040):
        fast, slow = random.Random(n), random.Random(n)
        letters = draws(fast, n)
        assert list(islice(zip(letters, letters), 400)) == [
            (slow.randrange(n), slow.randrange(n)) for _ in range(400)
        ]
        assert list(islice(zip(letters, letters, letters), 200)) == [
            (slow.randrange(n), slow.randrange(n), slow.randrange(n)) for _ in range(200)
        ]
        assert fast.getstate() == slow.getstate(), n


# ---------------------------------------------------------------------------
# reference oracles for the closure owners: the loops each caller ran before
# Locality.subgroup_gap and object_set_gap owned the tests


def old_object_normalizers_witness(L):
    """verify_locality's former object-normalizers-are-groups loop."""
    rows = L.rows
    bad = None
    for P in L.objects_sorted():
        ids = L.normalizer_ids(P)
        idset = set(ids)
        for a in ids:
            if L.inv[a] not in idset:
                bad = (P, a, "inverse escapes")
                break
            row = rows[a]
            for b in ids:
                c = row[b]
                if c < 0 or c not in idset:
                    bad = (P, (a, b), "product escapes or undefined")
                    break
            if bad:
                break
        if bad:
            break
    return bad


def old_partial_subgroups_witness(L):
    """run_locality_checks' former normalizer-centralizer-partial-subgroups loop."""
    rows = L.rows
    bad = None
    for R in L.s_group.subgroup_masks():
        for ids in (L.normalizer_ids(R), L.centralizer_ids(R)):
            idset = set(ids)
            for a in ids:
                if L.inv[a] not in idset:
                    bad = (R, a, "inverse escapes")
                    break
                row = rows[a]
                for b in ids:
                    c = row[b]
                    if c >= 0 and c not in idset:
                        bad = (R, (a, b), "product escapes")
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    return bad


def old_partial_normal_products(L, mem):
    """The former inverse and product part of is_partial_normal."""
    if 0 not in mem:
        return False
    for x in mem:
        if L.inv[x] not in mem:
            return False
    for a in mem:
        row = L.rows[a]
        for b in mem:
            c = row[b]
            if c >= 0 and c not in mem:
                return False
    return True


def first_gap(L, id_sets, total):
    """(R, *gap) for the first id set of (R, ids) pairs that subgroup_gap rejects."""
    for R, ids in id_sets:
        gap = L.subgroup_gap(ids, total=total)
        if gap is not None:
            return (R, *gap)
    return None


def corpus_all_localities(corpus):
    for e in DEFAULT_CORPUS:
        yield e, corpus.locality_all(e.name, e.prime)


def forged_localities(L, seed, count):
    """Copies of L with one defined product moved to another element, or the
    inverses of two elements swapped, so that products and inverses escape;
    ``mutate_locality`` only drops products."""
    rng = random.Random(seed)
    pairs = list(L.prod2)
    for k in range(count):
        rows, inv = L.rows, list(L.inv)
        if k % 2 and L.size > 2:
            x, y = rng.sample(range(1, L.size), 2)
            inv[x], inv[y] = inv[y], inv[x]
        else:
            a, b = pairs[rng.randrange(len(pairs))]
            row = array("i", rows[a])
            row[b] = (row[b] + 1) % L.size
            rows = rows[:a] + (row,) + rows[a + 1 :]
        yield f"forged {k}", Locality(
            size=L.size, inv=tuple(inv), rows=rows, s_ids=L.s_ids, s_group=L.s_group,
            delta=L.delta, p=L.p, conj_s=L.conj_s,
        )


def test_subgroup_gap_matches_old_loops(corpus):
    kinds = set()
    for e, L in corpus_all_localities(corpus):
        subjects = [(L, "unmutated")] + [
            (M, desc) for desc, M in mutate_locality(L, seed=18, count=20)
        ] + [(M, desc) for desc, M in forged_localities(L, seed=18, count=10)]
        for M, desc in subjects:
            objects = [(P, M.normalizer_ids(P)) for P in M.objects_sorted()]
            both = [
                (R, ids)
                for R in M.s_group.subgroup_masks()
                for ids in (M.normalizer_ids(R), M.centralizer_ids(R))
            ]
            expected = old_object_normalizers_witness(M)
            assert first_gap(M, objects, total=True) == expected, (e, desc)
            expected_both = old_partial_subgroups_witness(M)
            assert first_gap(M, both, total=False) == expected_both, (e, desc)
            kinds.update(w[-1] for w in (expected, expected_both) if w is not None)
            for _, ids in both:
                mem = frozenset(ids)
                new = 0 in mem and M.subgroup_gap(mem, total=False) is None
                assert new == old_partial_normal_products(M, mem), (e, desc)
    # every kind of witness occurred
    assert kinds == {"inverse escapes", "product escapes", "product escapes or undefined"}


def old_validate_gamma_closed(base, gamma, conjugations):
    """The former _validate_gamma, as a verdict: True when Gamma passes."""
    if not gamma:
        return False
    subgroups = set(base.subgroup_masks())
    for P in gamma:
        if P not in subgroups:
            return False
    for P in gamma:
        for Q in subgroups:
            if P & Q == P and Q not in gamma:
                return False
    for dom, cmap in conjugations:
        for P in gamma:
            if P & dom == P and translate_mask(P, cmap) not in gamma:
                return False
    return True


def old_l3_witness(L, delta):
    """verify_locality's former L3 loop, over the object set ``delta``."""
    bad = None
    subgroups = set(L.s_group.subgroup_masks())
    for P in sorted(delta):
        for Q in subgroups:
            if P & Q == P and Q not in delta:
                bad = (P, Q, "overgroup missing")
                break
        if bad:
            break
        for f in range(L.size):
            if L.s_of(f) & P == P:
                img = L.conj_mask(P, f)
                if img is not None and img not in delta:
                    bad = (P, f, "conjugate missing")
                    break
        if bad:
            break
    return bad


def test_object_set_gap_matches_old_loops(corpus):
    kinds = set()
    for e, L in corpus_all_localities(corpus):
        inst = corpus.instance(e.name, e.prime)
        base = L.s_group
        cmaps = conjugation_partials(inst.group, inst.s_real, range(inst.group.order))
        s_masks = [image_mask(cmap.keys()) for cmap in cmaps]
        sets = {inst.objects(kind) for kind in ("all", "centric", "delta-star", "delta")}
        candidates = set(sets) | {gamma - {P} for gamma in sets for P in gamma}
        verdicts = set()
        for gamma in candidates:
            closed = old_validate_gamma_closed(base, gamma, zip(s_masks, cmaps))
            verdicts.add(closed)
            try:
                _validate_gamma(base, gamma, s_masks, cmaps)
                assert closed, (e, sorted(gamma))
            except NotClosed:
                assert not closed, (e, sorted(gamma))
            if gamma:
                assert (object_set_gap(base, gamma, s_masks, cmaps) is None) == closed
            # L3 over the all-objects locality's conjugation maps
            old = old_l3_witness(L, gamma)
            assert object_set_gap(base, gamma, L._s_of, L.conj_s) == old, (e, sorted(gamma))
            kinds.add(old and old[-1])
        assert verdicts == {True, False}, e
    assert kinds == {None, "overgroup missing", "conjugate missing"}
