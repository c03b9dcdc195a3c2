"""The per-group memos of the morphism algebra against their definitions.

``FiniteGroup`` computes conjugation maps, restriction gatherers,
normalizers, centralizers, p-cores and Aut_F(P) groups once each, and
``FusionSystem._k_normalizer_subsystem`` selects Hom_F(AQ) once per AQ.
These tests keep the direct definitions as oracles, over every corpus base
group and PSL(2,7) at p = 2.
"""

from __future__ import annotations

import pytest

from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, Instance, build_instance
from fusionloc.errors import VerificationFailed
from fusionloc.fusion import (
    FusionSystem,
    conj_map,
    fusion_from_group,
    morphism_label,
    normal_ksets,
    restrict_map,
    trivial_kset,
)
from fusionloc.groups import cores, group_from_permutations, perm_from_cycles
from fusionloc.verifier import run_fusion_checks
from test_theory_facts import non_constrained_group

CASES = [(e.name, e.prime) for e in DEFAULT_CORPUS] + [("PSL27", 2)]
IDS = [f"{name}@p{prime}" for name, prime in CASES]


def fresh_instance(name, prime):
    """A new instance, so that no system of it has a cached local subsystem."""
    if name == "PSL27":
        return Instance(CorpusEntry(name, prime), non_constrained_group(name))
    return build_instance(next(e for e in DEFAULT_CORPUS if (e.name, e.prime) == (name, prime)))


def ref_image(images):
    out = 0
    for y in images:
        out |= 1 << y
    return out


def ref_restrict(base, dom, images, sub):
    return tuple(images[i] for i, x in enumerate(base.mask_elements(dom)) if (sub >> x) & 1)


def ref_conj(base, dom, t):
    return tuple(base.conj(x, t) for x in base.mask_elements(dom))


def ref_normalizer(base, mask):
    elems = base.mask_elements(mask)
    out = 0
    for g in range(base.order):
        if all((mask >> base.conj(x, g)) & 1 for x in elems):
            out |= 1 << g
    return out


def ref_centralizer(base, mask):
    elems = base.mask_elements(mask)
    out = 0
    for g in range(base.order):
        if all(base.mul(g, x) == base.mul(x, g) for x in elems):
            out |= 1 << g
    return out


def ref_k_normalizer_maps(F, Q, kset):
    """The K-normalizer's carrier and morphism sets, selecting Hom_F(AQ)
    again for every A, with the check of every restriction."""
    base = F.base
    new_carrier = F.k_normalizer_mask(Q, kset)
    maps = {m: set() for m in base.subgroups_of(new_carrier)}
    for A in maps:
        AQ = base.closure_mask(A | Q)
        for psi in F.maps_from[AQ]:
            qimg = ref_restrict(base, AQ, psi, Q)
            if ref_image(qimg) != Q or qimg not in kset:
                continue
            phi = ref_restrict(base, AQ, psi, A)
            if ref_image(phi) & new_carrier != ref_image(phi):
                raise VerificationFailed(
                    "K-normalizer morphism leaves N_S^K(Q): " + morphism_label(base, A, phi)
                )
            maps[A].add(phi)
    return new_carrier, {m: frozenset(s) for m, s in maps.items()}


@pytest.mark.parametrize("name,prime", CASES, ids=IDS)
def test_memoised_morphism_facts_equal_their_definitions(corpus, name, prime):
    inst = fresh_instance(name, prime) if name == "PSL27" else corpus.instance(name, prime)
    F = inst.fusion
    base = F.base
    subgroups = base.subgroup_masks()
    for _ in range(2):  # the first round fills the memos, the second reads them
        for dom in subgroups:
            assert base.normalizer_mask(dom) == ref_normalizer(base, dom)
            assert base.centralizer_mask(dom) == ref_centralizer(base, dom)
            for t in range(base.order):
                assert conj_map(base, dom, t) == ref_conj(base, dom, t)
            for images in F.maps_from[dom]:
                assert restrict_map(base, dom, images, 0) == ()
                for sub in subgroups:
                    got = restrict_map(base, dom, images, sub)
                    assert type(got) is tuple
                    assert got == ref_restrict(base, dom, images, sub)
    for p in (prime, 3 if prime == 2 else 2):
        assert cores(base, p) is cores(base, p)
        assert cores(inst.group, p) is cores(inst.group, p)


@pytest.mark.parametrize("name,prime", CASES, ids=IDS)
def test_k_normalizer_per_aq_equals_per_a_reference(monkeypatch, name, prime):
    inst = fresh_instance(name, prime)
    F = inst.fusion
    original = FusionSystem._k_normalizer_subsystem
    requests = []

    def checked(self, Q, kset):
        out = original(self, Q, kset)
        assert (out.carrier, out.maps_from) == ref_k_normalizer_maps(self, Q, kset)
        requests.append((Q, kset))
        return out

    monkeypatch.setattr(FusionSystem, "_k_normalizer_subsystem", checked)
    F.classification_table()
    for Q in F.subgroups():
        F.subcentric_equivalences(Q)
    run_fusion_checks(F, inst.instance_id)  # knorm-join and knorm-restrict rows
    for R in F.normal_masks():  # the normal-knorm-subcentric-set row
        for kset in normal_ksets(F, R):
            F.local_subsystem(R, kset).is_saturated()
    assert len(requests) >= len(F.classes())


def test_forged_morphism_leaving_the_k_normalizer_raises_as_before():
    # D8 = <(1 2 3 4), (1 3)>, Q = <(1 3)>, K trivial, so N_S^K(Q) = C_S(Q) =
    # <(1 3), (1 3)(2 4)>; two forged morphisms on that V4 fix Q and send the
    # rest outside it, so their restrictions to <(1 3)(2 4)> leave N_S^K(Q)
    G = group_from_permutations(4, [[[1, 2, 3, 4]], [[1, 3]]], label="D8")
    F = fusion_from_group(G, G.full_mask, 2)
    base = F.base
    index = {perm: i for i, perm in enumerate(base.perm_rep[1])}

    def elem(*cycles):
        return index[perm_from_cycles(cycles, 4)]

    s, z, r, r3 = elem([1, 3]), elem([1, 3], [2, 4]), elem([1, 2, 3, 4]), elem([1, 4, 3, 2])
    Q = (1 << 0) | (1 << s)
    V = base.closure_mask(Q | (1 << z))
    kset = trivial_kset(base, Q)
    assert F.k_normalizer_mask(Q, kset) == V
    forged_images = []
    for outside in ((r, r3), (r3, r)):
        image = dict(zip([x for x in base.mask_elements(V) if not (Q >> x) & 1], outside))
        forged_images.append(tuple(image.get(x, x) for x in base.mask_elements(V)))
    maps = dict(F.maps_from)
    maps[V] = F.maps_from[V] | frozenset(forged_images)
    forged = FusionSystem(base, F.carrier, 2, maps, None, "forged")
    with pytest.raises(VerificationFailed) as want:
        ref_k_normalizer_maps(forged, Q, kset)
    assert str(want.value).startswith("K-normalizer morphism leaves N_S^K(Q): {")
    with pytest.raises(VerificationFailed) as got:
        forged.local_subsystem(Q, kset)
    assert str(got.value) == str(want.value)


def test_equal_aut_f_is_one_group(corpus):
    # N_F(P) of a fully normalized P has Aut_F(P) as its automorphisms of P,
    # so it reads the same group from the base; a smaller set is another group
    shared = 0
    for name, prime in CASES:
        inst = fresh_instance(name, prime) if name == "PSL27" else corpus.instance(name, prime)
        F = inst.fusion
        base = F.base
        for data in F.classes():
            P = data.fully_normalized_members[0]
            NF = F.normalizer_subsystem(P)
            assert NF.auts(P) == F.auts(P)
            assert NF.aut_group(P)[0] is F.aut_group(P)[0]
            shared += NF is not F
            inner = tuple(sorted(F.inner_auts(P)))
            if inner != F.auts(P):
                grp = base.automorphism_group(P, inner)
                assert grp is not F.aut_group(P)[0] and grp.order == len(inner)
                assert grp is base.automorphism_group(P, inner)
    assert shared == 38  # pairs of distinct systems sharing one Aut_F(P)
