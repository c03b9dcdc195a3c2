"""Group core: closures, Sylow machinery, cores, quotients."""

from __future__ import annotations

import gc
import os
import random
import resource
import subprocess
import sys
import time
import weakref
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import fusionloc
from fusionloc.errors import (
    FusionlocError,
    InvalidPermutation,
    NotASubgroup,
    NotNormal,
    OrderBoundExceeded,
    ParseError,
)
from fusionloc.corpus import builtin_group
from fusionloc import groups
from fusionloc.groups import (
    FiniteGroup,
    _entries_below,
    bits,
    cores,
    group_from_permutations,
    group_from_table,
    is_prime,
    load_group_json,
    o_p_mask,
    o_p_prime_mask,
    order_bound,
    p_part,
    perm_compose,
    perm_from_cycles,
    popcount,
    quotient_group,
)


# ---------------------------------------------------------------------------
# reference oracles: the all-elements definitions the generator forms replace


def ref_normal_closure_mask(G, mask):
    conjs = 0
    for g in range(G.order):
        conjs |= G.conjugate_mask(mask, g)
    return G.closure_mask(conjs)


def ref_is_normal_mask(G, mask):
    return all(G.conjugate_mask(mask, g) == mask for g in range(G.order))


def ref_normalizer_mask(G, mask):
    out = 0
    for g in range(G.order):
        if G.conjugate_mask(mask, g) == mask:
            out |= 1 << g
    return out


def ref_centralizer_mask(G, mask):
    out = 0
    elems = G.mask_elements(mask)
    for g in range(G.order):
        if all(G.conj(x, g) == x for x in elems):
            out |= 1 << g
    return out


def ref_o_p_mask(H, p):
    """O_p(H) as the intersection of all Sylow p-subgroups."""
    syl = H.sylow_mask(p)
    out = syl
    for g in range(H.order):
        out &= H.conjugate_mask(syl, g)
        if out == 1:
            break
    return out


def ref_o_p_prime_mask(H, p):
    """Join of the normal closures of single elements with p'-order closure."""
    theta = 1
    for x in range(1, H.order):
        if (theta >> x) & 1:
            continue
        ncl = ref_normal_closure_mask(H, 1 << x)
        if popcount(ncl) % p != 0:
            cand = H.closure_mask(theta | ncl)
            if popcount(cand) % p != 0:
                theta = cand
    return theta


def ref_normal_subgroup_masks(G):
    atoms = {ref_normal_closure_mask(G, 1 << x) for x in range(1, G.order)}
    found = {1, G.full_mask}
    frontier = [1]
    while frontier:
        nxt = []
        for m in frontier:
            for a in atoms:
                j = G.closure_mask(m | a)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return tuple(sorted(found))


def assert_matches_references(G):
    """Every generator-form routine equals its reference on every subgroup."""
    assert G.normal_subgroup_masks() == ref_normal_subgroup_masks(G)
    assert G.is_abelian == all(
        G.mul(a, b) == G.mul(b, a) for a in range(G.order) for b in range(G.order)
    )
    classes = {frozenset(G.conj(x, g) for g in range(G.order)) for x in range(G.order)}
    assert G.class_representatives() == tuple(sorted(min(c) for c in classes))
    primes = [p for p in range(2, G.order + 1) if is_prime(p) and G.order % p == 0]
    for m in G.subgroup_masks():
        assert G.canonical_conjugate(m) == min(G.conjugate_mask(m, g) for g in range(G.order))
        assert G.normal_closure_mask(m) == ref_normal_closure_mask(G, m)
        assert G.is_normal_mask(m) == ref_is_normal_mask(G, m)
        assert G.normalizer_mask(m) == ref_normalizer_mask(G, m)
        assert G.centralizer_mask(m) == ref_centralizer_mask(G, m)
        H = G.as_group(m).group
        for p in primes:
            syl = H.sylow_mask(p)
            assert syl == min(H.conjugate_mask(syl, g) for g in range(H.order))
            assert o_p_mask(H, p) == ref_o_p_mask(H, p)
            assert o_p_prime_mask(H, p) == ref_o_p_prime_mask(H, p)


def assert_table_matches_permutations(G):
    perms = G.perm_rep[1]
    index = {perm: i for i, perm in enumerate(perms)}
    expected = array("i", [index[perm_compose(a, b)] for a in perms for b in perms])
    assert G._flat == expected


def test_closure_orders():
    assert group_from_permutations(4, [[[1, 2, 3, 4]], [[1, 2]]]).order == 24
    assert group_from_permutations(5, [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]).order == 60
    assert group_from_permutations(1, []).order == 1


def test_p_part_rejects_non_primes():
    assert p_part(24, 2) == 8 and p_part(24, 5) == 1
    for p in (1, 0, 4, 9):
        with pytest.raises(FusionlocError, match="not prime"):
            p_part(24, p)


def test_identity_is_index_zero():
    G = builtin_group("S4")
    assert all(G.mul(0, x) == x == G.mul(x, 0) for x in range(G.order))
    assert G.perm_rep[1][0] == tuple(range(4))


def test_invalid_permutation():
    with pytest.raises(InvalidPermutation):
        group_from_permutations(3, [[[1, 1, 2]]])
    with pytest.raises(InvalidPermutation):
        group_from_permutations(3, [[[1, 5]]])


def test_order_bound():
    with pytest.raises(OrderBoundExceeded):
        group_from_permutations(5, [[[1, 2, 3, 4, 5]], [[1, 2, 3]]], bound=30)


def test_order_bound_env(monkeypatch):
    monkeypatch.setenv("FUSIONLOC_ORDER_BOUND", "10")
    with pytest.raises(OrderBoundExceeded):
        group_from_permutations(4, [[[1, 2, 3, 4]], [[1, 2]]])
    monkeypatch.setenv("FUSIONLOC_ORDER_BOUND", "not-a-number")
    with pytest.raises(ParseError):
        group_from_permutations(4, [[[1, 2, 3, 4]], [[1, 2]]])


def test_sylow_examples():
    S4 = builtin_group("S4")
    P = S4.sylow_mask(2)
    assert popcount(P) == 8
    D8 = S4.as_group(P).group
    assert D8.order == 8 and not D8.is_abelian
    assert sum(D8.element_order(a) == 2 for a in range(8)) == 5
    C3 = builtin_group("C3")
    assert popcount(C3.sylow_mask(2)) == 1
    A5 = builtin_group("A5")
    V = A5.sylow_mask(2)
    assert popcount(V) == 4
    H = A5.as_group(V).group
    assert H.is_abelian and H.exponent() == 2  # Klein four


def test_sylow_deterministic_and_minimal():
    S4 = builtin_group("S4")
    mask = S4.sylow_mask(2)
    conjugates = {S4.conjugate_mask(mask, g) for g in range(S4.order)}
    assert mask == min(conjugates)


def test_normalizer_centralizer_examples():
    S4 = builtin_group("S4")
    V = next(
        m
        for m in S4.normal_subgroup_masks()
        if popcount(m) == 4
    )
    assert S4.normalizer_mask(V) == S4.full_mask

    A5 = builtin_group("A5")
    # centralizer of <(1 2)(3 4)> is a Klein four: independent element scan
    t = next(
        g
        for g in range(A5.order)
        if A5.perm_rep[1][g] == perm_from_cycles([[1, 2], [3, 4]], 5)
    )
    cent = [g for g in range(A5.order) if A5.mul(g, t) == A5.mul(t, g)]
    C = A5.centralizer_mask(A5.closure_mask(1 << t))
    assert popcount(C) == 4 == len(cent)
    assert A5.as_group(C).group.exponent() == 2

    # everything centralizes the identity
    assert S4.centralizer_mask(1) == S4.full_mask


def test_centralizer_inside_normalizer_corpus():
    for name in ("S4", "A5", "Q8", "SL23"):
        G = builtin_group(name)
        S = G.sylow_mask(2)
        real = G.as_group(S)
        for m in real.group.subgroup_masks():
            parent = real.mask_to_parent(m)
            c = G.centralizer_mask(parent)
            n = G.normalizer_mask(parent)
            assert c & n == c


def test_cores_examples():
    S4 = builtin_group("S4")
    rep = cores(S4, 2)
    assert popcount(rep.o_p) == 4 and popcount(rep.o_p_prime) == 1
    assert rep.is_char_p and rep.is_almost_char_p

    S3 = builtin_group("S3")
    rep3 = cores(S3, 2)
    assert popcount(rep3.o_p) == 1 and popcount(rep3.o_p_prime) == 3
    assert not rep3.is_char_p and rep3.is_almost_char_p

    D8 = builtin_group("D8")
    repd = cores(D8, 2)
    assert popcount(repd.o_p) == 8 and repd.is_char_p

    # SL(2,3) at p=3: almost characteristic 3 via Theta = Q8
    SL = builtin_group("SL23")
    repq = cores(SL, 3)
    assert popcount(repq.o_p_prime) == 8
    assert not repq.is_char_p and repq.is_almost_char_p


def test_cores_intersection_trivial():
    for name in ("S4", "S3", "A4", "A5", "SL23", "C2xS4"):
        G = builtin_group(name)
        for p in (2, 3):
            rep = cores(G, p)
            assert rep.o_p & rep.o_p_prime == 1
            # O_p contains every normal p-subgroup; Theta every normal p'-one
            for n in G.normal_subgroup_masks():
                size = popcount(n)
                if size == p_part(size, p):
                    assert n & rep.o_p == n
                if size % p != 0:
                    assert n & rep.o_p_prime == n


def test_quotient_examples():
    S4 = builtin_group("S4")
    V = next(m for m in S4.normal_subgroup_masks() if popcount(m) == 4)
    q = quotient_group(S4, V)
    assert q.group.order == 6 and not q.group.is_abelian
    assert all(
        q.projection[S4.mul(a, b)]
        == q.group.mul(q.projection[a], q.projection[b])
        for a in range(24)
        for b in range(24)
    )

    # quotient by the trivial subgroup is an isomorphic copy
    qt = quotient_group(S4, 1)
    assert qt.group.order == 24

    C2A5 = builtin_group("C2xA5")
    z = C2A5.center_mask()
    assert quotient_group(C2A5, z).group.order == 60

    with pytest.raises(NotNormal):
        quotient_group(S4, S4.closure_mask(1 << 1))


def test_group_json_io():
    G = load_group_json(
        {"name": "S3", "degree": 3, "generators": [[[1, 2, 3]], [[1, 2]]]}
    )
    assert G.order == 6
    table = [[G.mul(a, b) for b in range(6)] for a in range(6)]
    H = load_group_json({"name": "S3t", "table": table})
    assert H.order == 6 and not H.is_abelian
    with pytest.raises(ParseError):
        load_group_json({"name": "bad"})
    broken = [row[:] for row in table]
    broken[3][4] = broken[3][3]
    with pytest.raises(ParseError):
        load_group_json({"name": "broken", "table": broken})


def test_characteristic_p_inherited_locally():
    # characteristic p passes to normalizers and centralizers of p-subgroups
    for name in ("S4", "SL23", "C2xS4", "D8", "Q8"):
        G = builtin_group(name)
        if not cores(G, 2).is_char_p:
            continue
        S = G.sylow_mask(2)
        real = G.as_group(S)
        for m in real.group.subgroup_masks():
            if m == 1:
                continue
            parent = real.mask_to_parent(m)
            nreal = G.as_group(G.normalizer_mask(parent))
            creal = G.as_group(G.centralizer_mask(parent))
            assert cores(nreal.group, 2).is_char_p
            assert cores(creal.group, 2).is_char_p


def test_central_quotient_characteristic():
    # G of characteristic p and Z central: Z <= O_p(G), G/Z of characteristic p
    for name in ("SL23", "Q8", "C2xS4", "D8"):
        G = builtin_group(name)
        rep = cores(G, 2)
        if not rep.is_char_p:
            continue
        for Z in G.subgroups_of(G.center_mask()):
            assert Z & rep.o_p == Z
            q = quotient_group(G, Z)
            assert cores(q.group, 2).is_char_p


def test_norm_cent_agree_on_characteristic():
    for name in ("S4", "A5", "C2xA5", "SL23"):
        G = builtin_group(name)
        for p in (2, 3):
            if p_part(G.order, p) == 1:
                continue
            S = G.sylow_mask(p)
            real = G.as_group(S)
            for m in real.group.subgroup_masks():
                if m == 1:
                    continue
                parent = real.mask_to_parent(m)
                nrep = cores(G.as_group(G.normalizer_mask(parent)).group, p)
                crep = cores(G.as_group(G.centralizer_mask(parent)).group, p)
                assert nrep.is_char_p == crep.is_char_p
                assert nrep.is_almost_char_p == crep.is_almost_char_p


@st.composite
def small_perm_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    n_gens = draw(st.integers(min_value=1, max_value=2))
    gens = []
    for _ in range(n_gens):
        perm = draw(st.permutations(list(range(1, degree + 1))))
        # convert one-line notation to cycles
        seen = set()
        cycles = []
        for start in range(1, degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = perm[start - 1]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = perm[x - 1]
            if len(cyc) > 1:
                cycles.append(cyc)
        gens.append(cycles)
    return degree, gens


@given(small_perm_groups())
@settings(max_examples=30, deadline=None)
def test_closure_is_a_group(data):
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    n = G.order
    assert 120 % n == 0 or n <= 120  # |G| divides 5! here
    for a in range(n):
        assert G.mul(a, G.inv(a)) == 0
    # Lagrange for cyclic subgroups
    for a in range(n):
        assert n % G.element_order(a) == 0


@given(small_perm_groups(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_subgroup_closure_properties(data, salt):
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    seed = 1 | ((salt % (1 << G.order)) & ((1 << G.order) - 1))
    H = G.closure_mask(seed)
    assert G.is_subgroup_mask(H)
    assert G.closure_mask(H) == H
    g = salt % G.order
    K = G.conjugate_mask(H, g)
    assert popcount(K) == popcount(H)
    assert G.is_subgroup_mask(K)


@given(small_perm_groups())
@settings(max_examples=30, deadline=None)
def test_normal_subgroup_meets_sylow_in_a_sylow(data):
    # N cap S is Sylow in N for every N normal in G: the normal-subsystem
    # checks of the verifier take every normal subgroup without testing it
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)):
        S = G.sylow_mask(p)
        for n_mask in G.normal_subgroup_masks():
            assert popcount(n_mask & S) == p_part(popcount(n_mask), p), (G.label, p)


@pytest.mark.parametrize("name", ["D8", "Q8", "A4"])
def test_subgroup_memo_matches_closure(name):
    # oracle: a mask is a subgroup iff it holds the identity and is its own closure
    G = builtin_group(name)
    masks = range(1 << G.order)
    expected = {m: bool(m & 1) and G.closure_mask(m) == m for m in masks}
    assert [G.is_subgroup_mask(m) for m in masks] == [expected[m] for m in masks]
    assert [G.is_subgroup_mask(m) for m in masks] == [expected[m] for m in masks]


@pytest.mark.parametrize("name", ["S4", "SL23", "C2xD8", "A5"])
def test_generator_forms_match_references(name):
    assert_matches_references(builtin_group(name))


@given(small_perm_groups())
@settings(max_examples=30, deadline=None)
def test_generator_forms_match_references_random(data):
    degree, gens = data
    G = group_from_permutations(degree, gens, bound=200)
    assert_table_matches_permutations(G)
    assert_matches_references(G)


def test_cayley_table_matches_permutations_s5():
    assert_table_matches_permutations(
        group_from_permutations(5, [[[1, 2, 3, 4, 5]], [[1, 2]]])
    )


def test_mask_generators_rejects_non_subgroups():
    # oracle: a mask is a subgroup iff it holds the identity and is its own closure
    G = builtin_group("S4")
    for m in range(1 << 8):  # every mask over the first eight elements
        if not (m & 1 and G.closure_mask(m) == m):
            with pytest.raises(NotASubgroup):
                G.mask_generators(m)
    for m in G.subgroup_masks():
        assert G.span(G.mask_generators(m)) == m


def cyclic_table_with(n, value):
    """The flat Cayley table of C_n with its last entry set to ``value``."""
    flat = array("i", [(a + b) % n for a in range(n) for b in range(n)])
    flat[-1] = value
    return flat


# a loop of order 5 with identity 0 and two-sided inverses that is not a group
NON_ASSOCIATIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1]], "not square"),
        (array("i", [0, 1, 1]), "not square"),
        ([[0, 1], [1, 2]], "0..n-1"),
        ([[0, 1], [1, -1]], "0..n-1"),
        ([[0, 1], [1, 2**40]], "0..n-1"),
        ([[0, "a"], ["a", 0]], "must be integers"),
        ([[0, 1.0], [1.0, 0]], "must be integers"),
        ([[0, None], [None, 0]], "must be integers"),
        ([[0, True], [True, False]], "must be integers"),
        ([[1, 0], [0, 1]], "identity"),
        ([[0, 1], [1, 1]], "has no inverse"),
        ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], "no two-sided inverse"),
        (NON_ASSOCIATIVE, "not associative"),
        # past 256 the range check reads the high byte of the low half, and
        # past 65535 the bytes above it
        (cyclic_table_with(300, 300), "0..n-1"),
        (cyclic_table_with(300, 65536 + 1), "0..n-1"),
        (cyclic_table_with(256, 256), "0..n-1"),
    ],
)
def test_table_validation_rejects(table, message):
    with pytest.raises(ParseError, match=message):
        FiniteGroup(table, check="auto")


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300, 511, 512, 5040, 8192, 65535, 65536])
def test_range_check_matches_entrywise(n):
    rng = random.Random(n)
    edges = [0, n - 1, n, n + 1, -1, -n, 255, 256, 65535, 65536, 65537, 2**31 - 1, -(2**31)]
    for trial in range(100):
        flat = array("i", (rng.randrange(n) for _ in range(rng.choice([1, 7, 300]))))
        if trial % 2:
            flat[rng.randrange(len(flat))] = rng.choice(edges + [256 * rng.randrange(300) + 255])
        assert _entries_below(flat, n) == all(0 <= x < n for x in flat), (n, flat)
    # more entries than one pass of the byte check reads, the bad one last
    flat = array("i", range(n)) * (2**17 // n + 1)
    assert _entries_below(flat, n)
    flat[-1] = n
    assert not _entries_below(flat, n)


def test_table_over_the_byte_maximum_refused(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 8 * array("i").itemsize)
    with pytest.raises(ParseError, match="MiB maximum"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    FiniteGroup([[0, 1], [1, 0]])


def test_group_freed_without_cyclic_collector():
    # no cache of a group refers back to it, so dropping it frees it at once
    gc.disable()
    try:
        G = builtin_group("S4")
        G.as_group(G.sylow_mask(2))
        cores(G, 2)
        # G is realized as itself: no table copy, and no memo entry that
        # would hold G
        whole = G.as_group(G.full_mask)
        assert whole.group is G and whole.to_parent == tuple(range(G.order))
        assert G.full_mask not in G._realized
        del whole
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


def test_order_bound_maximum(monkeypatch, tmp_path):
    monkeypatch.setenv("FUSIONLOC_ORDER_BOUND", "5040")
    assert order_bound() == 5040
    monkeypatch.setenv("FUSIONLOC_ORDER_BOUND", "40320")
    with pytest.raises(ParseError, match="maximum"):
        order_bound()
    # S8 with that override exits 3 before any enumeration; the address-space
    # limit keeps a regression from reaching the 6.5 GB table
    s8 = tmp_path / "S8.json"
    s8.write_text(
        '{"name": "S8", "degree": 8, "generators": [[[1, 2, 3, 4, 5, 6, 7, 8]], [[1, 2]]]}'
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusionloc.__file__)))
    env = dict(os.environ, PYTHONPATH=src, FUSIONLOC_ORDER_BOUND="40320")
    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fusionloc", "classify", "--file", str(s8), "--prime", "2"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr.startswith("error:") and "FUSIONLOC_ORDER_BOUND" in proc.stderr
    assert time.perf_counter() - start < 30
