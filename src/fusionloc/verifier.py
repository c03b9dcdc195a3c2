"""Batch verification of the structural claims on a corpus of small groups.

Every check is a pure function producing CheckResult records.  Failing checks
carry a witness (minimal by subgroup order, then by canonical mask order);
skipped checks carry a reason.  Reports are sorted by (check_id, subject) so
repeated runs are byte-identical.
"""

from __future__ import annotations

import fnmatch
import random
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .constructions import ThetaData, is_characteristic_p_type_fusion
from .corpus import DEFAULT_CORPUS, CorpusEntry, Instance, build_instance
from .errors import NotPartialNormal, VerificationFailed
from .fusion import (
    FusionSystem,
    _interned,
    _is_inner_system,
    centralizer_in_S_of_subsystem,
    close_morphism_sets,
    image_mask,
    induced_map,
    is_constrained,
    maps_from_partials,
    normal_ksets,
    quotient_mod_central,
    restrict_map,
)
from .groups import (
    FiniteGroup,
    bits,
    cores,
    draws,
    is_char_p_group,
    o_p_prime_mask,
    p_part,
    popcount,
    quotient_group,
    translate_mask,
)
from .locality import (
    Locality,
    QuotientData,
    _gatherer,
    _s_classes,
    is_partial_normal,
    quotient,
    verify_locality,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    subject: str
    status: str  # "pass" | "fail" | "skipped"
    witness: Optional[str] = None
    reason: Optional[str] = None

    def as_json(self) -> dict:
        out = {
            "check_id": self.check_id,
            "instance": self.subject,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _passfail(check_id: str, subject: str, ok: bool, witness: Optional[str]) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        subject=subject,
        status="pass" if ok else "fail",
        witness=None if ok else (witness or "unspecified"),
    )


def _skip(check_id: str, subject: str, reason: str) -> CheckResult:
    return CheckResult(check_id=check_id, subject=subject, status="skipped", reason=reason)


def _min_witness(base: FiniteGroup, masks: Iterable[int]) -> Optional[str]:
    masks = sorted(masks, key=lambda m: (popcount(m), m))
    if not masks:
        return None
    return f"subgroup {base.subgroup_label(masks[0])} (order {popcount(masks[0])})"


# ---------------------------------------------------------------------------
# check ids: one tuple per kind of stage of the check matrix (see STAGES)

GROUP_IDS = (
    "group-local-characteristic", "central-quotient-characteristic",
    "norm-cent-characteristic-agree",
)
FUSION_IDS = (
    "fusion-wellformed", "inclusion-chain", "subcentric-six-equivalent", "subcentric-closed",
    "normal-product-subcentric", "central-quotient-subcentric", "knorm-join-subcentric",
    "knorm-restrict-subcentric", "norm-cent-constrained-agree", "self-radical-subcentric-frc",
)
AMBIENT_IDS = (
    "centralizer-fusion-frobenius", "normal-subsystem-embeds",
    "normal-subsystem-subcentric-conj-invariant", "subcentric-restricts-to-normal-subsystem",
    "normal-subsystem-subcentric-lift", "normal-knorm-subcentric-set",
    "p-prime-index-subcentric-set", "p-power-index-subcentric-set",
)
THETA_IDS = (
    "theta-partial-normal", "theta-meets-s-trivially", "theta-object-kernels",
    "theta-quotient-objective", "theta-quotient-linking", "theta-fusion-match",
)
CHAR_P_TYPE_IDS = ("char-p-type-group-implies-fusion", "char-p-type-locality")
# LOCALITY_IDS is read off the table LOCALITY_CHECKS
QUOTIENT_IDS = ("quotient-fusion-epimorphism-forward", "quotient-fusion-epimorphism-lift")
CENSUBSYSTEM_IDS = ("subsystem-centralizer-match",)


# ---------------------------------------------------------------------------
# fusion-system wellformedness


def fusion_wellformed_witness(F: FusionSystem) -> Optional[str]:
    """Closure properties plus regeneration from its inputs; None when clean."""
    base = F.base
    expected_keys = set(base.subgroups_of(F.carrier))
    if set(F.maps_from) != expected_keys:
        return "domain keys do not match the subgroup list"
    for P in sorted(F.maps_from):
        elems = base.mask_elements(P)
        ident = tuple(elems)
        if ident not in F.maps_from[P]:
            return f"identity missing on {base.subgroup_label(P)}"
        for m in F.maps_from[P]:
            if len(set(m)) != len(m):
                return f"non-injective morphism on {base.subgroup_label(P)}"
            im = image_mask(m)
            if im & F.carrier != im:
                return f"image escapes the carrier from {base.subgroup_label(P)}"
            if not base.is_subgroup_mask(im):
                return f"image not a subgroup from {base.subgroup_label(P)}"
        # restriction closure (maximal subgroups suffice inductively)
        for sub in base.maximal_subgroups(P):
            if sub & F.carrier != sub:
                continue
            for m in F.maps_from[P]:
                if restrict_map(base, P, m, sub) not in F.maps_from[sub]:
                    return f"restriction escapes from {base.subgroup_label(P)}"
        # composition and inversion closure
        for m in F.maps_from[P]:
            im = image_mask(m)
            impos = {x: i for i, x in enumerate(base.mask_elements(im))}
            for m2 in F.maps_from[im]:
                comp = tuple(m2[impos[y]] for y in m)
                if comp not in F.maps_from[P]:
                    return f"composition escapes from {base.subgroup_label(P)}"
            inverse = tuple(x for _, x in sorted(zip(m, elems)))
            if inverse not in F.maps_from[im]:
                return f"inverse missing from {base.subgroup_label(P)}"
    # the inner fusion of the carrier is contained in F
    for t in base.mask_elements(F.carrier):
        inner = tuple(base.conj(x, t) for x in base.mask_elements(F.carrier))
        if inner not in F.maps_from[F.carrier]:
            return "inner conjugation missing on the carrier"
    regen = regenerate(F)
    if regen is not None and regen.maps_from != F.maps_from:
        diff = [
            P
            for P in F.maps_from
            if F.maps_from[P] != regen.maps_from.get(P, frozenset())
        ]
        return "regeneration mismatch at " + _min_witness(base, diff)
    return None


def regenerate(F: FusionSystem) -> Optional[FusionSystem]:
    """F built again from the inputs it was first built from; None if unrecorded."""
    return None if F.rebuild is None else F.rebuild()


# ---------------------------------------------------------------------------
# fusion checks


def run_fusion_checks(F: FusionSystem, subject: str) -> list[CheckResult]:
    """The checks of any fusion system F, read from F alone."""
    out: list[CheckResult] = []
    base = F.base

    witness = fusion_wellformed_witness(F)
    out.append(_passfail("fusion-wellformed", subject, witness is None, witness))

    if not F.is_saturated():
        return out + [_skip(cid, subject, "fusion system not saturated") for cid in FUSION_IDS[1:]]

    table = F.classification_table()
    subgroups = F.subgroups()

    # inclusion chain cr => c => q => s
    bad = [
        Q
        for Q in subgroups
        if (table[Q].centric_radical and not table[Q].centric)
        or (table[Q].centric and not table[Q].quasicentric)
        or (table[Q].quasicentric and not table[Q].subcentric)
    ]
    out.append(_passfail("inclusion-chain", subject, not bad, _min_witness(base, bad)))

    # six-way equivalence of the subcentric condition
    bad = []
    for data in F.classes():
        P = data.representative
        six = F.subcentric_equivalences(P)
        if not six.agree() or six.all_normalizers_core_centric != table[P].subcentric:
            bad.append(P)
    out.append(
        _passfail("subcentric-six-equivalent", subject, not bad, _min_witness(base, bad))
    )

    # F^s closed under conjugation and overgroups
    bad = []
    for Q in subgroups:
        if not table[Q].subcentric:
            continue
        for m in F.maps_from[Q]:
            if not table[image_mask(m)].subcentric:
                bad.append(Q)
                break
        else:
            for R in subgroups:
                if Q & R == Q and not table[R].subcentric:
                    bad.append(Q)
                    break
    out.append(_passfail("subcentric-closed", subject, not bad, _min_witness(base, bad)))

    # PR subcentric iff P subcentric, for every R normal in F
    bad = []
    for R in F.normal_masks():
        for P in subgroups:
            PR = base.closure_mask(P | R)
            if table[PR].subcentric != table[P].subcentric:
                bad.append(P)
    out.append(
        _passfail("normal-product-subcentric", subject, not bad, _min_witness(base, bad))
    )

    # quotient by central subgroups preserves the subcentric flag
    if F.carrier == base.full_mask:
        bad = []
        for Z in base.subgroups_of(F.center_mask()):
            if Z == 1:
                continue
            cq = quotient_mod_central(F, Z)
            tq = cq.quotient.classification_table()
            for P in subgroups:
                if table[P].subcentric != tq[cq.image_of_mask(P)].subcentric:
                    bad.append(P)
        out.append(
            _passfail(
                "central-quotient-subcentric", subject, not bad, _min_witness(base, bad)
            )
        )
    else:
        out.append(
            _skip("central-quotient-subcentric", subject, "system not over its base")
        )

    # K-normalizer joins and restrictions of the subcentric collection
    bad_join = []
    bad_restrict = []
    for Q in subgroups:
        for kset in normal_ksets(F, Q):
            if not F.is_fully_k_normalized(Q, kset):
                continue
            NK = F.local_subsystem(Q, kset)
            if not NK.is_saturated():
                bad_join.append(Q)
                continue
            tk = NK.classification_table()
            for P in NK.subgroups():
                if tk[P].subcentric:
                    PQ = base.closure_mask(P | Q)
                    if not table[PQ].subcentric:
                        bad_join.append(P)
                if table[P].subcentric and not tk[P].subcentric:
                    bad_restrict.append(P)
    out.append(
        _passfail("knorm-join-subcentric", subject, not bad_join, _min_witness(base, bad_join))
    )
    out.append(
        _passfail(
            "knorm-restrict-subcentric",
            subject,
            not bad_restrict,
            _min_witness(base, bad_restrict),
        )
    )

    # N_F(Q) constrained iff C_F(Q) constrained, for fully normalized Q
    bad = []
    for Q in subgroups:
        if not table[Q].fully_normalized:
            continue
        nq = F.normalizer_subsystem(Q)
        cq = F.centralizer_subsystem(Q)
        if is_constrained(nq) != is_constrained(cq):
            bad.append(Q)
    out.append(
        _passfail("norm-cent-constrained-agree", subject, not bad, _min_witness(base, bad))
    )

    # subcentric + fully normalized + self-normalizing core => frc
    bad = []
    for Q in subgroups:
        if not (table[Q].subcentric and table[Q].fully_normalized):
            continue
        nq = F.normalizer_subsystem(Q)
        if nq.o_p_of_fusion() != Q:
            continue
        if not (table[Q].radical and table[Q].centric):
            bad.append(Q)
    out.append(
        _passfail("self-radical-subcentric-frc", subject, not bad, _min_witness(base, bad))
    )
    return out


def _ambient_fusion_checks(
    inst: Instance, supplied_subsystems: Sequence[tuple[int, str]]
) -> list[CheckResult]:
    """The fusion checks that read G: ``supplied_subsystems`` are (normal
    subgroup mask of G, kind) pairs for the index-prime-to-p / p-power-index
    set comparisons, which are only checkable against a supplied subsystem."""
    out: list[CheckResult] = []
    F = inst.fusion
    subject = inst.instance_id
    base = F.base
    G = inst.group
    real = inst.s_real
    table = F.classification_table()
    subgroups = F.subgroups()
    p = F.p

    # trivial centralizer fusion forces C_G(P) = C_S(P) Theta(C_G(P))
    bad = []
    for P in subgroups:
        parent = real.mask_to_parent(P)
        if not G.is_normal_mask(parent):
            continue
        c_parent = G.centralizer_mask(parent)
        cs_parent = c_parent & real.mask
        creal = G.as_group(c_parent)
        cf = F.centralizer_subsystem(P)
        if not _is_inner_system(cf):
            continue
        theta = creal.mask_to_parent(o_p_prime_mask(creal.group, p))
        prod = set()
        for a in bits(cs_parent):
            for b in bits(theta):
                prod.add(G.mul(a, b))
        if prod != set(bits(c_parent)):
            bad.append(P)
    out.append(
        _passfail(
            "centralizer-fusion-frobenius", subject, not bad, _min_witness(base, bad)
        )
    )

    # subsystems from normal subgroups of G (N cap S is Sylow in N)
    for n_mask, sub in inst.normal_subsystems.items():
        label = f"{subject}/N={G.subgroup_label(n_mask)}"
        E = sub.fusion
        if not sub.embedding_ok:
            out.append(
                _passfail("normal-subsystem-embeds", label, False, "morphism escapes F")
            )
            continue
        out.append(_passfail("normal-subsystem-embeds", label, True, None))
        if not E.is_saturated():
            out.append(
                _skip("normal-subsystem-subcentric-conj-invariant", label, "E not saturated")
            )
            continue
        te = E.classification_table()
        # E^s invariant under F-conjugation
        bad = []
        for P in E.subgroups():
            if not te[P].subcentric:
                continue
            for m in F.maps_from[P]:
                img = image_mask(m)
                if img & E.carrier != img or not te[img].subcentric:
                    bad.append(P)
                    break
        out.append(
            _passfail(
                "normal-subsystem-subcentric-conj-invariant",
                label,
                not bad,
                _min_witness(base, bad),
            )
        )
        # P in F^s with P <= T implies P in E^s
        bad = [
            P
            for P in E.subgroups()
            if table[P].subcentric and not te[P].subcentric
        ]
        out.append(
            _passfail(
                "subcentric-restricts-to-normal-subsystem",
                label,
                not bad,
                _min_witness(base, bad),
            )
        )
        # P in E^s implies P C_S(E) in F^s
        cs = centralizer_in_S_of_subsystem(F, E)
        bad = []
        for P in E.subgroups():
            if te[P].subcentric:
                PC = base.closure_mask(P | cs)
                if not table[PC].subcentric:
                    bad.append(P)
        out.append(
            _passfail(
                "normal-subsystem-subcentric-lift", label, not bad, _min_witness(base, bad)
            )
        )

    # K-normalizers of F-normal subgroups: N_F^K(R)^s = {P in F^s : P <= N_S^K(R)}
    bad = []
    for R in F.normal_masks():
        for kset in normal_ksets(F, R):
            NK = F.local_subsystem(R, kset)
            if not NK.is_saturated():
                bad.append(R)
                continue
            tk = NK.classification_table()
            for P in NK.subgroups():
                if tk[P].subcentric != table[P].subcentric:
                    bad.append(P)
    out.append(
        _passfail("normal-knorm-subcentric-set", subject, not bad, _min_witness(base, bad))
    )
    for kind in ("p-prime", "p-power"):
        supplied = [n for (n, k) in supplied_subsystems if k == kind]
        if not supplied:
            cid = f"{kind}-index-subcentric-set"
            out.append(_skip(cid, subject, "subsystem not constructible in scope"))
        for n_mask in supplied:
            out.append(check_index_subsystem(inst, n_mask, kind))
    return out


def check_index_subsystem(inst: Instance, n_mask: int, kind: str) -> CheckResult:
    """Subcentric-set comparison for a supplied normal subgroup N of G and its
    subsystem E = F_T(N).

    kind = "p-prime": E of index prime to p has E^s = F^s.
    kind = "p-power": E of p-power index has E^s = {P in F^s : P <= T}.
    The row's subject is ``<instance>/N=<N>``, as for the normal-subsystem rows.
    """
    cid = f"{kind}-index-subcentric-set"
    F, G = inst.fusion, inst.group
    label = f"{inst.instance_id}/N={G.subgroup_label(n_mask)}"
    index = G.order // popcount(n_mask)
    if kind == "p-prime" and index % F.p == 0:
        return _skip(cid, label, "index not prime to p")
    if kind == "p-power" and p_part(index, F.p) != index:
        return _skip(cid, label, "index not a power of p")
    E = inst.normal_subsystems[n_mask].fusion
    te = E.classification_table()
    table = F.classification_table()
    if kind == "p-prime":
        bad = [
            P
            for P in F.subgroups()
            if (P & E.carrier == P and te[P].subcentric) != table[P].subcentric
        ]
    else:
        bad = [
            P
            for P in E.subgroups()
            if te[P].subcentric != table[P].subcentric
        ]
    return _passfail(cid, label, not bad, _min_witness(F.base, bad))


# ---------------------------------------------------------------------------
# group-side checks


def run_group_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    G = inst.group
    p = inst.prime
    real = inst.s_real
    ds = inst.deltas
    subject = inst.instance_id
    rep_g = cores(G, p)

    # (P, P in Delta, P in Delta*, cores(C_G(P))) per G-class of nontrivial
    # P <= S, that is per F_S(G)-class, each led by its least mask
    reps = []
    for data in inst.fusion.classes():
        P = data.representative
        if P == 1:
            continue
        parent = real.mask_to_parent(P)
        crep = cores(G.as_group(G.centralizer_mask(parent)).group, p)
        reps.append((parent, P in ds.delta, P in ds.delta_star, crep))

    # characteristic p is inherited by local subgroups
    if rep_g.is_char_p:
        bad = [
            parent
            for parent, char_p, _, crep in reps
            if not char_p or not crep.is_char_p
        ]
        out.append(
            _passfail(
                "group-local-characteristic",
                subject,
                not bad,
                f"subgroup {G.subgroup_label(bad[0])}" if bad else None,
            )
        )
    else:
        out.append(_skip("group-local-characteristic", subject, "group not of characteristic p"))

    # central quotients of characteristic-p groups; the center is realized as
    # its own group so the full lattice of G is never enumerated
    if rep_g.is_char_p:
        bad = None
        zreal = G.as_group(G.center_mask())
        for Zsub in zreal.group.subgroup_masks():
            Z = zreal.mask_to_parent(Zsub)
            if Z & rep_g.o_p != Z:
                bad = f"central {G.subgroup_label(Z)} not inside O_p"
                break
            q = quotient_group(G, Z)
            if not is_char_p_group(q.group, p):
                bad = f"quotient by {G.subgroup_label(Z)} not characteristic p"
                break
        out.append(_passfail("central-quotient-characteristic", subject, bad is None, bad))
    else:
        out.append(
            _skip("central-quotient-characteristic", subject, "group not of characteristic p")
        )

    # N_G(P) and C_G(P) agree on (almost) characteristic p
    bad = [
        parent
        for parent, char_p, almost, crep in reps
        if char_p != crep.is_char_p or almost != crep.is_almost_char_p
    ]
    out.append(
        _passfail(
            "norm-cent-characteristic-agree",
            subject,
            not bad,
            f"subgroup {G.subgroup_label(bad[0])}" if bad else None,
        )
    )
    return out


# ---------------------------------------------------------------------------
# locality checks: verify_locality is the prerequisite of every row of
# LOCALITY_CHECKS; a body returns a witness (None on a pass), a precondition
# a skip reason (None when the body applies)


def _sampled_pairs(L: Locality, rng: random.Random) -> list[tuple[int, int]]:
    """The pairs (object P, g) with P inside S_g, or 400 of them drawn from rng."""
    pairs = [(P, g) for P in L.objects_sorted() for g in range(L.size) if L.s_of(g) & P == P]
    return sorted(rng.sample(pairs, 400) if len(pairs) > 400 else pairs)


def _sampled_words(L: Locality, rng: random.Random) -> Iterator[tuple[int, int, int]]:
    """Every word of length 3 in order if there are at most 40,000, else
    4,000 drawn from rng; lazily, so the draws happen as the words are read."""
    n = L.size
    if n**3 <= 40_000:
        return product(range(n), repeat=3)
    letters = draws(rng, n)
    return islice(zip(letters, letters, letters), 4000)


def _sampling_rng(L: Locality, check_id: str) -> random.Random:
    """The generator the conjugation row ``check_id`` draws from.  The three
    rows draw in row order from one Random(0xC0FFEE), so the samples of the
    rows before ``check_id`` are drawn again here."""
    rng = random.Random(0xC0FFEE)
    if check_id != "conjugation-isomorphisms":
        _sampled_pairs(L, rng)
    if check_id == "conjugation-inverse-bijection":
        deque(_sampled_words(L, rng), maxlen=0)
    return rng


def _conjugation_isomorphisms(L: Locality) -> Optional[str]:
    """Conjugation induces isomorphisms N_L(P) -> N_L(P^g)."""
    for P, g in _sampled_pairs(L, _sampling_rng(L, "conjugation-isomorphisms")):
        conj_images = set()
        for f in L.normalizer_ids(P):
            y = L.conj_elem(f, g)
            if y is None:
                return str((P, g, "normalizer element not conjugable"))
            conj_images.add(y)
        if conj_images != set(L.normalizer_ids(L.conj_mask(P, g))):
            return str((P, g, "conjugation not onto the target normalizer"))
    return None


def _conjugation_word_coherence(L: Locality) -> Optional[str]:
    """Chains of conjugation maps agree with the conjugation by the product."""
    if L.size**3 <= 40_000 and _coherence_holds(L):
        return None
    rng = _sampling_rng(L, "conjugation-word-coherence")
    return _first_bad_coherence(L, _sampled_words(L, rng))


def _coherence_holds(L: Locality) -> bool:
    """Whether every length-3 domain word w has its product defined and
    c_w = c_c c_b c_a on S_w, decided per (a, b) and per class of c with
    equal S_c over gathered columns ``cols[i][f]`` = c_f(i), or -1."""
    rows, conj_s, pre, delta = L.rows, L.conj_s, L.preimage, L.delta
    cols = [tuple(cmap.get(i, -1) for cmap in conj_s) for i in range(L.s_group.order)]
    for m, _, get in _s_classes(L):
        for b in range(L.size):
            m_b = pre(b, m)  # S_(b,c) for every c in the class
            c_b = conj_s[b]
            # c_c(c_b(x)) for c in the class, by x in S_(b,c)
            chains = {x: get(cols[c_b[x]]) for x in bits(m_b)}
            for a in range(L.size):
                sw = pre(a, m_b)
                if sw not in delta:
                    continue
                ab = rows[a][b]
                if ab < 0:
                    return False
                prods = get(rows[ab])
                if -1 in prods:
                    return False
                read_prod, c_a = _gatherer(prods), conj_s[a]
                for i in bits(sw):
                    if read_prod(cols[i]) != chains[c_a[i]]:
                        return False
    return True


def _first_bad_coherence(L: Locality, words: Iterable[tuple[int, int, int]]) -> Optional[str]:
    """The witness of the first of ``words`` whose conjugation chain differs
    from the conjugation by its product; a domain word whose fold is
    undefined raises ``VerificationFailed``."""
    rows = L.rows
    for w in words:
        a, b, c = w
        sw = L.preimage(a, L.preimage(b, L.s_of(c)))
        if sw not in L.delta:
            continue
        ab = rows[a][b]
        prod = rows[ab][c] if ab >= 0 else -1
        if prod < 0:
            raise VerificationFailed(f"fold undefined on domain word {w}")
        cmap = L.conj_s[prod]
        for i in bits(sw):
            j = i
            for g in w:
                j = L.conj_s[g][j]
            if cmap.get(i) != j:
                return str((w, L.s_group.element_label(i)))
    return None


def _conjugation_inverse_bijection(L: Locality) -> Optional[str]:
    """c_g is a bijection D(g) -> D(g^-1) inverted by c_{g^-1}."""
    n = L.size
    sample_g = range(n)
    if n > 60:
        sample_g = sorted(_sampling_rng(L, "conjugation-inverse-bijection").sample(sample_g, 60))
    for g in sample_g:
        images = [L.conj_elem(x, g) for x in range(n)]
        back = [L.conj_elem(x, L.inv[g]) for x in range(n)]
        for x, y in enumerate(images):
            if y is not None and back[y] != x:
                return str((g, x, "not inverted"))
        if {y for y in images if y is not None} != {x for x, y in enumerate(back) if y is not None}:
            return str((g, "image of D(g) is not D(g^-1)"))
    return None


def _normalizer_centralizer_partial_subgroups(L: Locality) -> Optional[str]:
    """N_L(R) and C_L(R) are partial subgroups for every R <= S."""
    for R in L.s_group.subgroup_masks():
        for ids in (L.normalizer_ids(R), L.centralizer_ids(R)):
            gap = L.subgroup_gap(ids, total=False)
            if gap is not None:
                return str((R, *gap))
    return None


def _fullynorm_sylow_normalizer(L: Locality) -> Optional[str]:
    """Fully normalized objects are those with N_S(P) Sylow in N_L(P), and
    there N_F(P) and C_F(P) are the fusion of N_L(P) and C_L(P)."""
    base, F = L.s_group, L.fusion_system()
    for P in L.objects_sorted():
        ns_mask = base.normalizer_mask(P)
        fully = F.is_fully_normalized(P)
        if fully != (popcount(ns_mask) == p_part(len(L.normalizer_ids(P)), L.p)):
            return str((P, "fully-normalized mismatch with Sylow condition"))
        if not fully:
            continue
        NF = F.normalizer_subsystem(P)
        partials = [L.conj_s[f] for f in L.normalizer_ids(P)]
        loc_maps = maps_from_partials(base, ns_mask, partials)
        if loc_maps != {m: NF.maps_from[m] for m in loc_maps}:
            return str((P, "N_F(P) differs from the normalizer-group fusion"))
        CF = F.centralizer_subsystem(P)
        partials = [L.conj_s[f] for f in L.centralizer_ids(P)]
        loc_cmaps = maps_from_partials(base, base.centralizer_mask(P), partials)
        if loc_cmaps != {m: CF.maps_from[m] for m in loc_cmaps}:
            return str((P, "C_F(P) differs from the centralizer fusion"))
    return None


def _normal_iff_fixed(L: Locality) -> Optional[str]:
    """Q is normal in F iff L = N_L(Q)."""
    F, full = L.fusion_system(), tuple(range(L.size))
    masks = L.s_group.subgroup_masks()
    bad = [Q for Q in masks if F.is_normal_in_fusion(Q) != (L.normalizer_ids(Q) == full)]
    return _min_witness(L.s_group, bad)


def _central_iff_centralized(L: Locality) -> Optional[str]:
    """Q is central in F iff L = C_L(Q)."""
    zmask, full = L.fusion_system().center_mask(), tuple(range(L.size))
    masks = L.s_group.subgroup_masks()
    bad = [Q for Q in masks if (Q & zmask == Q) != (L.centralizer_ids(Q) == full)]
    return _min_witness(L.s_group, bad)


def _lradical_matches_centric_radical(L: Locality) -> Optional[str]:
    """The L-radical objects are exactly the centric radical ones."""
    cr = set(L.fusion_system().centric_radical_masks())
    bad = [P for P in L.objects_sorted() if L.is_l_radical(P) != (P in cr)]
    return _min_witness(L.s_group, bad)


def _local_normalizer_is_model(L: Locality) -> Optional[str]:
    """N_L(P) is a model at fully normalized P: N_S(P) is Sylow in it
    (objective characteristic p already holds at every object)."""
    base, F = L.s_group, L.fusion_system()
    bad = [
        P
        for P in L.objects_sorted()
        if F.is_fully_normalized(P)
        and p_part(len(L.normalizer_ids(P)), L.p) != popcount(base.normalizer_mask(P))
    ]
    return _min_witness(base, bad)


def _delta_subcentric(L: Locality) -> Optional[str]:
    """Delta <= F^s."""
    table = L.fusion_system().classification_table()
    return _min_witness(L.s_group, [P for P in L.objects_sorted() if not table[P].subcentric])


def _quasicentric_centralizer_factorization(L: Locality) -> Optional[str]:
    """C_L(P) = C_S(P) O_p'(C_L(P)) at fully normalized quasicentric P."""
    base, F = L.s_group, L.fusion_system()
    bad = []
    for P in L.objects_sorted():
        if not F.is_fully_normalized(P):
            continue
        grp, ordered = L.centralizer_group(P)
        cs_ids = [L.s_ids[i] for i in bits(base.centralizer_mask(P))]
        theta = [ordered[a] for a in bits(o_p_prime_mask(grp, L.p))]
        # the products s t, s in C_S(P) and t in O_p'(C_L(P)), that are defined
        if {L.rows[s][t] for t in theta for s in cs_ids} - {-1} != set(ordered):
            bad.append(P)
    return _min_witness(base, bad)


def _centric_centralizer_inside(L: Locality) -> Optional[str]:
    """C_L(P) <= P for centric objects P."""
    objs = L.objects_sorted()
    bad = [P for P in objs if not set(L.centralizer_ids(P)) <= {L.s_ids[i] for i in bits(P)}]
    return _min_witness(L.s_group, bad)


def _objective(L: Locality) -> Optional[str]:
    return None if L.is_objective_char_p() else "locality not of objective characteristic p"


def _saturated(L: Locality) -> Optional[str]:
    return None if L.fusion_system().is_saturated() else "fusion system not saturated"


def _objective_saturated(L: Locality) -> Optional[str]:
    return _objective(L) or _saturated(L)


def _inside(L: Locality, flag: str) -> bool:
    """Whether every object has the classification ``flag`` in F_S(L)."""
    table = L.fusion_system().classification_table()
    return all(getattr(table[P], flag) for P in L.delta)


def _in_fq(L: Locality) -> Optional[str]:
    return _saturated(L) or (None if _inside(L, "quasicentric") else "object set not inside F^q")


def _in_fc(L: Locality) -> Optional[str]:
    reason = "object set not inside F^c (or not objective characteristic p)"
    return _saturated(L) or (None if L.is_objective_char_p() and _inside(L, "centric") else reason)


# The locality rows after locality-axioms, in row order: (check id, skip
# precondition or None, body).
LOCALITY_CHECKS: tuple[tuple[str, Optional[Callable], Callable], ...] = (
    ("conjugation-isomorphisms", None, _conjugation_isomorphisms),
    ("conjugation-word-coherence", None, _conjugation_word_coherence),
    ("conjugation-inverse-bijection", None, _conjugation_inverse_bijection),
    ("normalizer-centralizer-partial-subgroups", None, _normalizer_centralizer_partial_subgroups),
    ("fullynorm-sylow-normalizer", None, _fullynorm_sylow_normalizer),
    ("normal-iff-fixed-by-locality", _objective, _normal_iff_fixed),
    ("central-iff-centralized-by-locality", _objective, _central_iff_centralized),
    ("lradical-matches-centric-radical", _objective, _lradical_matches_centric_radical),
    ("local-normalizer-is-model", _objective_saturated, _local_normalizer_is_model),
    ("delta-subcentric", _objective_saturated, _delta_subcentric),
    ("quasicentric-centralizer-factorization", _in_fq, _quasicentric_centralizer_factorization),
    ("centric-centralizer-inside", _in_fc, _centric_centralizer_inside),
)
LOCALITY_IDS = ("locality-axioms", *(cid for cid, _, _ in LOCALITY_CHECKS))


def run_locality_checks(L: Locality, subject: str, only: Optional[str] = None) -> list[CheckResult]:
    """The locality-axioms row and the LOCALITY_CHECKS rows that ``only``
    selects, in row order, each computed only if selected.  Failed axioms
    leave only their fail row, emitted also when ``only`` selects just the
    rows they block."""
    selected = [row for row in LOCALITY_CHECKS if only is None or fnmatch.fnmatch(row[0], only)]
    axioms_selected = only is None or fnmatch.fnmatch("locality-axioms", only)
    if not (selected or axioms_selected):
        return []
    rep = verify_locality(L)
    if not rep.ok:
        first = next(iter(rep.failures()), None)
        witness = f"{first.name}: {first.witness}" if first else None
        return [_passfail("locality-axioms", subject, False, witness)]
    out = [_passfail("locality-axioms", subject, True, None)] if axioms_selected else []
    for cid, precondition, body in selected:
        reason = precondition(L) if precondition else None
        if reason is not None:
            out.append(_skip(cid, subject, reason))
        else:
            witness = body(L)
            out.append(_passfail(cid, subject, witness is None, witness))
    return out


# ---------------------------------------------------------------------------
# quotient and theta checks


def run_quotient_checks(qd: QuotientData, subject: str) -> list[CheckResult]:
    """The projection induces a fusion-system epimorphism with kernel T."""
    out: list[CheckResult] = []
    L = qd.source
    Q = qd.quotient
    FL = L.fusion_system()
    FQ = Q.fusion_system()
    base = L.s_group
    qbase = Q.s_group
    idx = qd.s_index

    bad = None
    for P in FL.subgroups():
        P2 = translate_mask(P, idx)
        for m in FL.maps_from[P]:
            induced = induced_map(base, qbase, idx, P, m)
            if induced is None:
                bad = (P, "induced map ill-defined")
                break
            if induced not in FQ.maps_from[P2]:
                bad = (P, "induced map missing in the quotient fusion system")
                break
        if bad:
            break
    out.append(
        _passfail("quotient-fusion-epimorphism-forward", subject, bad is None, str(bad))
    )

    t_mask = 0
    for i, x in enumerate(L.s_ids):
        if x in qd.normal_subgroup:
            t_mask |= 1 << i
    bad = None
    for P in FL.subgroups():
        if P & t_mask != t_mask:
            continue
        lifted = {induced_map(base, qbase, idx, P, m) for m in FL.maps_from[P]}
        for psi in FQ.maps_from[translate_mask(P, idx)]:
            if psi not in lifted:
                bad = (P, "quotient morphism has no lift")
                break
        if bad:
            break
    out.append(
        _passfail("quotient-fusion-epimorphism-lift", subject, bad is None, str(bad))
    )
    return out


def run_theta_checks(td: ThetaData, subject: str) -> list[CheckResult]:
    """One row per check id; its witness is the first finding under that id."""
    out = []
    for cid in THETA_IDS:
        hit = next((text for fid, text in td.findings if fid == cid), None)
        out.append(_passfail(cid, subject, hit is None, hit))
    return out


def run_censubsystem_checks(inst: Instance) -> list[CheckResult]:
    """Centralizer-of-subsystem agreement between fusion and locality sides."""
    out: list[CheckResult] = []
    G = inst.group
    F = inst.fusion
    td = inst.theta
    subject = inst.instance_id
    LQ = td.quotient
    if not LQ.is_linking_locality():
        return [_skip("subsystem-centralizer-match", subject, "no linking locality")]
    qbase = LQ.s_group

    # identification of S with its image in the quotient
    src = td.locality
    if td.quotient_data is None:
        idx = range(len(src.s_ids))
        proj = range(src.size)
    else:
        idx = td.quotient_data.s_index
        proj = td.quotient_data.projection

    for n_mask in G.normal_subgroup_masks():
        label = f"{subject}/N={G.subgroup_label(n_mask)}"
        # induced subset of the quotient locality
        src_members = [
            i for i, g in enumerate(src.source_ids) if (n_mask >> g) & 1
        ]
        nbar = frozenset(proj[i] for i in src_members)
        if not is_partial_normal(LQ, nbar):
            out.append(
                _passfail(
                    "subsystem-centralizer-match",
                    label,
                    False,
                    "induced subset not partial normal",
                )
            )
            continue
        # T-bar and the fusion system of N-bar on it
        t_mask_q = 0
        for i, x in enumerate(LQ.s_ids):
            if x in nbar:
                t_mask_q |= 1 << i
        gens = LQ.conj_generators(sorted(nbar), t_mask_q)
        emaps = close_morphism_sets(qbase, t_mask_q, gens)
        E_loc = _interned(qbase, t_mask_q, F.p, emaps, None, "E_loc")
        FQ = LQ.fusion_system()
        cs_fusion = centralizer_in_S_of_subsystem(FQ, E_loc)
        # set-level centralizer of N-bar in S-bar
        cs_set = 0
        for i, s in enumerate(LQ.s_ids):
            if all(LQ.conj_elem(x, s) == x for x in nbar):
                cs_set |= 1 << i
        ok = cs_fusion == cs_set
        # cross-check with the group-side subsystem
        cs_group = centralizer_in_S_of_subsystem(F, inst.normal_subsystems[n_mask].fusion)
        ok = ok and translate_mask(cs_group, idx) == cs_fusion
        witness = None
        if not ok:
            fusion_side, set_side = map(qbase.subgroup_label, (cs_fusion, cs_set))
            witness = f"fusion side {fusion_side} vs set side {set_side}"
        out.append(_passfail("subsystem-centralizer-match", label, ok, witness))
    return out


# ---------------------------------------------------------------------------
# mutation sensitivity


def mutate_fusion(F: FusionSystem, seed: int, count: int):
    """Yield (description, mutated system) with one morphism deleted each."""
    rng = random.Random(seed)
    pool = [
        (P, m)
        for P in sorted(F.maps_from)
        for m in sorted(F.maps_from[P])
    ]
    for _ in range(count):
        P, m = pool[rng.randrange(len(pool))]
        maps = dict(F.maps_from)
        maps[P] = frozenset(x for x in maps[P] if x != m)
        mutated = FusionSystem(
            F.base, F.carrier, F.p, maps, F.rebuild, label=F.label + "*"
        )
        yield (
            f"drop morphism on {F.base.subgroup_label(P)}",
            mutated,
        )


def mutate_locality(L: Locality, seed: int, count: int):
    """Yield (description, mutated locality) with one product entry deleted.

    A mutant copies the one row it changes and shares the others with L.
    """
    rng = random.Random(seed)
    pool = list(L.prod2)
    for _ in range(count):
        key = pool[rng.randrange(len(pool))]
        a, b = key
        row = array("i", L.rows[a])
        row[b] = -1
        mutated = Locality(
            size=L.size,
            inv=L.inv,
            rows=L.rows[:a] + (row,) + L.rows[a + 1 :],
            s_ids=L.s_ids,
            s_group=L.s_group,
            delta=L.delta,
            p=L.p,
            label=L.label + "*",
            elt_names=L.elt_names,
            conj_s=L.conj_s,
            source_group=L.source_group,
            source_ids=L.source_ids,
        )
        yield (f"drop product entry {key}", mutated)


def mutation_detected_fusion(F: FusionSystem) -> bool:
    return fusion_wellformed_witness(F) is not None


def mutation_detected_locality(L: Locality) -> bool:
    return not verify_locality(L).ok


# ---------------------------------------------------------------------------
# corpus runner


@dataclass
class CorpusReport:
    results: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    def to_json_dict(self) -> dict:
        return {
            "results": [r.as_json() for r in self.results],
            "failures": len(self.failures),
            "checks": len(self.results),
        }

    def to_table(self) -> str:
        if not self.results:
            return "(empty corpus: no checks)\n"
        wid = max(len(r.check_id) for r in self.results)
        wsub = max(len(r.subject) for r in self.results)
        lines = []
        for r in self.results:
            line = f"{r.check_id:<{wid}}  {r.subject:<{wsub}}  {r.status}"
            if r.status == "fail" and r.witness:
                line += f"  [{r.witness}]"
            if r.status == "skipped" and r.reason:
                line += f"  ({r.reason})"
            lines.append(line)
        lines.append(f"-- {len(self.results)} checks, {len(self.failures)} failures")
        return "\n".join(lines) + "\n"


def _char_p_type_checks(inst: Instance) -> list[CheckResult]:
    """The group version of characteristic p-type implies the fusion version,
    and then the all-objects locality is a linking locality over F."""
    subject = inst.instance_id
    group_cpt = inst.deltas.characteristic_p_type
    fusion_cpt = is_characteristic_p_type_fusion(inst.fusion)
    ok = not group_cpt or fusion_cpt
    witness = "group is of characteristic p-type but its fusion system is not"
    out = [_passfail("char-p-type-group-implies-fusion", subject, ok, witness)]
    if not group_cpt:
        return out + [_skip("char-p-type-locality", subject, "group not of characteristic p-type")]
    L_all = inst.locality("all")
    ok = fusion_cpt and L_all.is_linking_locality()
    ok = ok and L_all.fusion_system().maps_from == inst.fusion.maps_from
    witness = "all-objects locality is not a subcentric linking locality"
    return out + [_passfail("char-p-type-locality", subject, ok, witness)]


def _theta_quotient(inst: Instance) -> Optional[Locality]:
    """The quotient by Theta; None when Theta is trivial or not partial normal."""
    qd = inst.theta.quotient_data
    return None if qd is None else qd.quotient


def _theta_quotient_checks(inst: Instance) -> list[CheckResult]:
    qd = inst.theta.quotient_data
    return [] if qd is None else run_quotient_checks(qd, inst.instance_id + "/L-theta-quot")


def _normal_quotient_checks(inst: Instance) -> list[CheckResult]:
    """Quotients of the all-objects locality by the partial normal subgroups
    induced from normal subgroups of G."""
    out: list[CheckResult] = []
    G = inst.group
    L_all = inst.locality("all")
    for n_mask in G.normal_subgroup_masks():
        if n_mask in (1, G.full_mask):
            continue
        members = frozenset(i for i, g in enumerate(L_all.source_ids) if (n_mask >> g) & 1)
        try:
            qd = quotient(L_all, members)
        except NotPartialNormal:
            continue
        subject = f"{inst.instance_id}/L-all/N={G.subgroup_label(n_mask)}"
        out.extend(run_quotient_checks(qd, subject))
    return out


@dataclass
class _Run:
    """One instance's pass through the stages: the instance, the index
    subsystems supplied for it, the ``only`` glob and each checked locality's rows."""

    inst: Instance
    supplied: Sequence[tuple[int, str]]
    only: Optional[str] = None
    checked: dict[Locality, list[CheckResult]] = field(default_factory=dict)

    def locality_rows(self, suffix: str, L: Optional[Locality]) -> list[CheckResult]:
        """The selected rows of L (none if L is None) under
        ``<instance><suffix>``; a locality checked before is not checked again."""
        if L is None:
            return []
        subject = self.inst.instance_id
        if L not in self.checked:
            self.checked[L] = run_locality_checks(L, subject, self.only)
        return [replace(r, subject=subject + suffix) for r in self.checked[L]]


# The check matrix in row order: the check ids each stage emits, and its body.
# Bodies call the runners by their module-global names, so a runner wrapped or
# patched in this module is the one that runs.
STAGES: tuple[tuple[tuple[str, ...], Callable[[_Run], list[CheckResult]]], ...] = (
    (GROUP_IDS, lambda run: run_group_checks(run.inst)),
    (FUSION_IDS, lambda run: run_fusion_checks(run.inst.fusion, run.inst.instance_id)),
    (AMBIENT_IDS, lambda run: _ambient_fusion_checks(run.inst, run.supplied)),
    (THETA_IDS, lambda run: run_theta_checks(run.inst.theta, run.inst.instance_id)),
    (CHAR_P_TYPE_IDS, lambda run: _char_p_type_checks(run.inst)),
    (LOCALITY_IDS, lambda run: run.locality_rows("/L-all", run.inst.locality("all"))),
    # the centric-objects locality exercises the Delta <= F^c checks
    (LOCALITY_IDS, lambda run: run.locality_rows("/L-centric", run.inst.locality("centric"))),
    (LOCALITY_IDS, lambda run: run.locality_rows("/L-delta*", run.inst.locality("delta-star"))),
    (LOCALITY_IDS, lambda run: run.locality_rows("/L-theta-quot", _theta_quotient(run.inst))),
    (QUOTIENT_IDS, lambda run: _theta_quotient_checks(run.inst)),
    (CENSUBSYSTEM_IDS, lambda run: run_censubsystem_checks(run.inst)),
    (QUOTIENT_IDS, lambda run: _normal_quotient_checks(run.inst)),
)

# every check id, in stage order
CHECK_IDS = tuple(dict.fromkeys(cid for ids, _ in STAGES for cid in ids))


def run_instance_checks(
    inst: Instance,
    only: Optional[str] = None,
    fail_fast: bool = False,
    supplied_subsystems: Sequence[tuple[int, str]] = (),
) -> list[CheckResult]:
    """The rows of the stages whose ids ``only`` selects, in stage order, each
    computed only if selected; ``fail_fast`` stops after the first stage that
    emits a failure.  An unselected row is dropped, except the failed
    locality-axioms row that run_locality_checks emits in place of the
    selected rows it blocks."""
    run = _Run(inst, supplied_subsystems, only)
    out: list[CheckResult] = []
    for ids, body in STAGES:
        if only is not None and not fnmatch.filter(ids, only):
            continue
        rows = [
            r
            for r in body(run)
            if only is None or fnmatch.fnmatch(r.check_id, only) or r.check_id == "locality-axioms"
        ]
        out.extend(rows)
        if fail_fast and any(r.status == "fail" for r in rows):
            break
    return out


def run_corpus(
    entries: Sequence[CorpusEntry] = DEFAULT_CORPUS,
    only: Optional[str] = None,
    fail_fast: bool = False,
    supplied_subsystems: Optional[dict] = None,
) -> CorpusReport:
    """Run every check over the corpus; results sorted for determinism."""
    results: list[CheckResult] = []
    supplied_subsystems = supplied_subsystems or {}
    for entry in entries:
        inst = build_instance(entry)
        supplied = supplied_subsystems.get(inst.instance_id, ())
        results.extend(
            run_instance_checks(
                inst, only=only, fail_fast=fail_fast, supplied_subsystems=supplied
            )
        )
        if fail_fast and any(r.status == "fail" for r in results):
            break
    results.sort(key=lambda r: (r.check_id, r.subject))
    return CorpusReport(results=tuple(results))
