"""Theory verifier: check matrix, mutation sensitivity, determinism."""

from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from itertools import islice, product
from pathlib import Path

import pytest

from fusionloc import cli, constructions, fusion, groups, verifier
from fusionloc.constructions import nontrivial, theta_quotient
from fusionloc.corpus import DEFAULT_CORPUS, CorpusEntry, build_instance, builtin_group
from fusionloc.errors import VerificationFailed
from fusionloc.fusion import (
    FusionSystem,
    abstract_fusion,
    close_morphism_sets,
    quotient_mod_central,
    subsystem_from_normal_subgroup,
)
from fusionloc.groups import draws, p_part, popcount
from fusionloc.locality import (
    AxiomCheck,
    Locality,
    LocalityAxiomReport,
    locality_from_group,
    verify_locality,
)
from fusionloc.verifier import (
    LOCALITY_CHECKS,
    LOCALITY_IDS,
    STAGES,
    CheckResult,
    CorpusReport,
    check_index_subsystem,
    fusion_wellformed_witness,
    mutate_fusion,
    mutate_locality,
    mutation_detected_fusion,
    mutation_detected_locality,
    run_censubsystem_checks,
    run_corpus,
    run_fusion_checks,
    run_instance_checks,
    run_locality_checks,
    run_theta_checks,
    _coherence_holds,
    _conjugation_inverse_bijection,
    _conjugation_word_coherence,
    _first_bad_coherence,
)
from test_locality import kernel_subjects


def test_fusion_checks_pass_s4(corpus):
    inst = corpus.instance("S4", 2)
    res = run_fusion_checks(inst.fusion, inst.instance_id)
    assert all(r.status != "fail" for r in res)
    assert any(r.check_id == "inclusion-chain" for r in res)


def test_fusion_checks_trivial_p_group(corpus):
    inst = corpus.instance("D8", 2)
    res = run_fusion_checks(inst.fusion, inst.instance_id)
    assert all(r.status != "fail" for r in res)


def test_locality_checks_pass(corpus):
    L = corpus.locality_all("S4", 2)
    res = run_locality_checks(L, "S4@p2/L-all")
    fails = [r for r in res if r.status == "fail"]
    assert not fails, fails


def test_fail_carries_witness_and_skip_carries_reason(corpus):
    inst = corpus.instance("S4", 2)
    res = run_fusion_checks(inst.fusion, inst.instance_id)
    for r in res:
        if r.status == "fail":
            assert r.witness
        if r.status == "skipped":
            assert r.reason


def test_broken_fusion_detected(corpus):
    inst = corpus.instance("S4", 2)
    F = inst.fusion
    # remove one non-identity morphism
    P = max(F.maps_from)
    victim = next(m for m in sorted(F.maps_from[P]) if m != F.base.mask_elements(P))
    maps = dict(F.maps_from)
    maps[P] = frozenset(x for x in maps[P] if x != victim)
    broken = FusionSystem(F.base, F.carrier, F.p, maps, F.rebuild, label="broken")
    assert fusion_wellformed_witness(broken) is not None
    res = run_fusion_checks(broken, "broken")
    fails = [r for r in res if r.status == "fail"]
    assert fails and all(r.witness for r in fails)


def test_mutation_sensitivity_sample(corpus):
    # fixed seed, 20 mutations per instance, 100% detection
    for name, prime in (("S4", 2), ("A5", 2), ("Q8", 2)):
        inst = corpus.instance(name, prime)
        L = corpus.locality_all(name, prime)
        for desc, mutated in mutate_fusion(inst.fusion, seed=99, count=10):
            assert mutation_detected_fusion(mutated), desc
        for desc, mutated in mutate_locality(L, seed=99, count=10):
            assert mutation_detected_locality(mutated), desc
    # systems regenerated from a locality, a normal subgroup and generators;
    # a fresh instance builds F_S(L) first, so the interned F_S(G) is that
    # object and records how L generated it
    for name, prime in (("S4", 2), ("A5", 2), ("SL23", 2)):
        inst = build_instance(CorpusEntry(name, prime))
        FL = inst.locality("all").fusion_system()
        assert FL.rebuild.func is fusion.locality_fusion
        F = inst.fusion
        n_mask = min(
            (
                m
                for m in inst.group.normal_subgroup_masks()
                if m & inst.s_real.mask != 1
                and p_part(popcount(m), prime) == popcount(m & inst.s_real.mask)
            ),
            key=popcount,
        )
        generators = [(P, m) for P in sorted(F.maps_from) for m in sorted(F.maps_from[P])]
        systems = (
            FL,
            subsystem_from_normal_subgroup(F, inst.group, inst.s_real, n_mask).fusion,
            abstract_fusion(F.base, prime, generators),
        )
        for E in systems:
            assert fusion_wellformed_witness(E) is None, E.label
            for desc, mutated in mutate_fusion(E, seed=99, count=10):
                assert mutation_detected_fusion(mutated), (E.label, desc)


def test_regeneration_catches_a_closed_wrong_system(monkeypatch):
    # the inner fusion system of a carrier passes every closure clause at
    # S4@p2; given the rebuild of each kind, regeneration alone tells it apart
    first_l = build_instance(CorpusEntry("S4", 2))
    FL = first_l.locality("all").fusion_system()  # F_S(L) before F_S(G)
    inst = build_instance(CorpusEntry("S4", 2))
    F, G = inst.fusion, inst.group
    a4 = next(m for m in G.normal_subgroup_masks() if popcount(m) == 12)
    generators = [(P, m) for P in sorted(F.maps_from) for m in sorted(F.maps_from[P])]
    donors = (
        (fusion.fusion_from_group, F),
        (fusion.locality_fusion, FL),
        (fusion._normal_subgroup_fusion, inst.normal_subsystems[a4].fusion),
        (fusion.abstract_fusion, abstract_fusion(F.base, 2, generators)),
    )
    for func, donor in donors:
        assert donor.rebuild.func is func
        base, carrier = donor.base, donor.carrier
        maps = close_morphism_sets(base, carrier, [])
        inner = FusionSystem(base, carrier, 2, maps, donor.rebuild, label="inner")
        assert fusion_wellformed_witness(inner) == (
            "regeneration mismatch at subgroup <(1 3)(2 4)> (order 2)"
        ), func.__name__

    # K-normalizers, central quotients and E_loc record no inputs to rebuild from
    zd8 = F.base.centralizer_mask(F.base.full_mask)
    assert F.normalizer_subsystem(zd8).rebuild is None
    d8 = build_instance(CorpusEntry("D8", 2)).fusion
    assert quotient_mod_central(d8, d8.center_mask()).quotient.rebuild is None
    calls = []

    def recording(*args):
        calls.append(args)
        return fusion._interned(*args)

    monkeypatch.setattr(verifier, "_interned", recording)
    run_censubsystem_checks(inst)
    assert calls and all(label == "E_loc" and rebuild is None for *_, rebuild, label in calls)


def rebuilt_stage_rows(inst):
    """The locality-stage rows with each stage's locality built afresh and
    checked on its own, as before equal localities were shared."""
    subject = inst.instance_id
    table = inst.fusion.classification_table()
    stages = (
        ("/L-all", nontrivial(frozenset(inst.s_real.group.subgroup_masks()))),
        ("/L-centric", frozenset(P for P in inst.fusion.subgroups() if table[P].centric)),
        ("/L-delta*", nontrivial(inst.deltas.delta_star)),
    )
    rows = []
    for suffix, gamma in stages:
        L = locality_from_group(inst.group, inst.sylow, gamma, inst.prime, s_real=inst.s_real)
        rows += run_locality_checks(L, subject + suffix)
    # L is the Delta* locality, the last one built
    td = theta_quotient(inst.deltas, L, inst.s_real)
    if td.quotient is not td.locality:
        rows += run_locality_checks(td.quotient, subject + "/L-theta-quot")
    return rows


# SL23@p3: the all, centric and Delta* sets agree and Theta is nontrivial;
# S4@p2: the centric set differs from the other two
@pytest.mark.parametrize("name, prime", [("SL23", 3), ("S4", 2)])
def test_equal_localities_checked_once(monkeypatch, name, prime):
    import fusionloc.verifier as verifier

    checked = []

    def counting_locality_checks(L, subject, only=None):
        checked.append(L)
        return run_locality_checks(L, subject, only)

    monkeypatch.setattr(verifier, "run_locality_checks", counting_locality_checks)
    inst = build_instance(CorpusEntry(name, prime))
    rows = run_instance_checks(inst)
    assert len(checked) == 2
    monkeypatch.undo()
    expected = rebuilt_stage_rows(inst)
    start = [r.check_id for r in rows].index("char-p-type-locality") + 1
    assert rows[start : start + len(expected)] == expected
    stage_keys = {(r.check_id, r.subject) for r in expected}
    rest = rows[:start] + rows[start + len(expected) :]
    assert not any((r.check_id, r.subject) in stage_keys for r in rest)


def test_locality_ids_are_the_table():
    assert LOCALITY_IDS == ("locality-axioms", *(cid for cid, _, _ in LOCALITY_CHECKS))
    assert len(set(LOCALITY_IDS)) == 13


def single_generator_states(L):
    """The generator state at each conjugation row that draws, as the rows
    drew in row order from one Random(0xC0FFEE) when one function computed
    every locality row."""
    rng = random.Random(0xC0FFEE)
    states = {}
    objs = L.objects_sorted()
    pairs = [(P, g) for P in objs for g in range(L.size) if L.s_of(g) & P == P]
    if len(pairs) > 400:
        states["conjugation-isomorphisms"] = rng.getstate()
        rng.sample(pairs, 400)
    n = L.size
    if n**3 > 40_000:
        states["conjugation-word-coherence"] = rng.getstate()
        letters = draws(rng, n)
        list(islice(zip(letters, letters, letters), 4000))
    if n > 60:
        states["conjugation-inverse-bijection"] = rng.getstate()
    return states


def test_sampled_rows_see_the_single_generator_states(corpus, monkeypatch):
    import fusionloc.verifier as verifier

    seen = {}
    real = verifier._sampling_rng

    def recording_rng(L, check_id):
        rng = real(L, check_id)
        seen[check_id] = rng.getstate()
        return rng

    monkeypatch.setattr(verifier, "_sampling_rng", recording_rng)
    localities = {}
    for e in DEFAULT_CORPUS:
        inst = corpus.instance(e.name, e.prime)
        kinds = [inst.locality(k) for k in ("all", "centric", "delta-star")]
        for L in kinds + [verifier._theta_quotient(inst)]:
            if L is not None:
                localities[id(L)] = L
    sampling = Counter()
    for L in localities.values():
        expected = single_generator_states(L)
        seen.clear()
        for cid, _, body in LOCALITY_CHECKS[:3]:
            assert body(L) is None, (L.label, cid)
        for cid, state in expected.items():
            assert seen.get(cid) == state, (L.label, cid)
        sampling.update(expected.keys())
    # 25 distinct localities; the corpus reaches each of the three samples
    assert len(localities) == 25
    assert sampling == {
        "conjugation-isomorphisms": 2,
        "conjugation-word-coherence": 3,
        "conjugation-inverse-bijection": 1,
    }


def test_gated_locality_bodies_are_live(corpus):
    # on S4@p2 the all-objects set holds non-centric objects and the
    # subcentric set non-quasicentric ones, so both rows are skipped there,
    # yet their bodies find the failure the precondition guards against
    import fusionloc.verifier as verifier

    inst = corpus.instance("S4", 2)
    cases = (
        ("all", "centric-centralizer-inside", verifier._centric_centralizer_inside),
        (
            "subcentric",
            "quasicentric-centralizer-factorization",
            verifier._quasicentric_centralizer_factorization,
        ),
    )
    for kind, cid, body in cases:
        L = inst.locality(kind)
        assert body(L) is not None, cid
        (row,) = run_locality_checks(L, "S4@p2", only=cid)
        assert row.status == "skipped" and row.reason.startswith("object set not inside"), row
        # the centric locality meets both preconditions, and both rows pass
        (row,) = run_locality_checks(inst.locality("centric"), "S4@p2", only=cid)
        assert row.status == "pass", row


def test_failed_axioms_shown_when_they_block_selected_rows(monkeypatch):
    # a selected locality row blocked by failed axioms is reported as the
    # locality-axioms failure, selected or not, so the run does not pass
    import fusionloc.verifier as verifier

    forged = LocalityAxiomReport((AxiomCheck("inverse-involution", False, "forged"),))
    monkeypatch.setattr(verifier, "verify_locality", lambda L: forged)
    inst = build_instance(CorpusEntry("S4", 2))
    for only in ("conjugation-isomorphisms", "*locality*", "locality-axioms"):
        rows = run_instance_checks(inst, only=only)
        axioms = [r for r in rows if r.check_id == "locality-axioms"]
        assert axioms and all(r.status == "fail" for r in axioms), only
        assert {r.witness for r in axioms} == {"inverse-involution: forged"}
        assert not any(r.check_id in LOCALITY_IDS[1:] for r in rows), only
    # fail_fast stops the instance at the first blocked locality stage
    rows = run_instance_checks(inst, only="conjugation-isomorphisms", fail_fast=True)
    assert [(r.check_id, r.subject) for r in rows] == [("locality-axioms", "S4@p2/L-all")]
    # a glob that selects no locality id runs no locality stage
    assert [r.check_id for r in run_instance_checks(inst, only="inclusion-chain")] == [
        "inclusion-chain"
    ]


def test_axiom_report_kept_on_locality(corpus):
    L = corpus.locality_all("S4", 2)
    report = verify_locality(L)
    assert report.ok and verify_locality(L) is report
    # mutated copies are new localities and are verified from scratch
    for desc, mutated in mutate_locality(L, seed=99, count=10):
        assert mutation_detected_locality(mutated), desc


# For each all-objects locality: the entry mutate_locality(L, seed=99,
# count=10) drops and the (check, witness) pairs verify_locality then fails,
# recorded from the dict-backed product store that preceded the dense rows
MUTATION_WITNESSES = json.loads(
    (Path(__file__).parent / "mutation_witnesses.json").read_text()
)


@pytest.mark.parametrize("key", sorted(MUTATION_WITNESSES))
def test_mutation_keys_and_witnesses_pinned(corpus, key):
    name, prime = key.split("@p")
    L = corpus.locality_all(name, int(prime))
    got = []
    for desc, mutated in mutate_locality(L, seed=99, count=10):
        a, b = map(int, re.findall(r"\d+", desc))
        assert mutated.rows[a][b] == -1 and (a, b) not in mutated.prod2
        assert len(mutated.prod2) == len(L.prod2) - 1
        # only the changed row is copied
        assert sum(r is not s for r, s in zip(mutated.rows, L.rows)) == 1
        failures = [[c.name, c.witness] for c in verify_locality(mutated).failures()]
        got.append({"dropped": [a, b], "failures": failures})
    assert got == MUTATION_WITNESSES[key]


def test_supplied_index_subsystems(corpus):
    # p-power index: A4 inside S4 at p = 2
    inst = corpus.instance("S4", 2)
    a4 = next(
        m for m in inst.group.normal_subgroup_masks() if popcount(m) == 12
    )
    r = check_index_subsystem(inst, a4, "p-power")
    assert r.status == "pass"
    # index prime to p: Q8 inside SL(2,3) at p = 2
    inst2 = corpus.instance("SL23", 2)
    q8 = next(
        m for m in inst2.group.normal_subgroup_masks() if popcount(m) == 8
    )
    r2 = check_index_subsystem(inst2, q8, "p-prime")
    assert r2.status == "pass"
    # wrong kind is skipped with a reason
    r3 = check_index_subsystem(inst, a4, "p-prime")
    assert r3.status == "skipped" and r3.reason


def test_empty_corpus():
    report = run_corpus(entries=())
    assert report.results == ()
    assert not report.failures
    assert "empty corpus" in report.to_table()


def test_single_instance_deterministic(corpus):
    inst = build_instance(CorpusEntry("A4", 2))
    res1 = run_instance_checks(inst)
    inst2 = build_instance(CorpusEntry("A4", 2))
    res2 = run_instance_checks(inst2)
    assert [
        (r.check_id, r.subject, r.status, r.witness, r.reason) for r in res1
    ] == [(r.check_id, r.subject, r.status, r.witness, r.reason) for r in res2]


def test_only_filter():
    report = run_corpus(entries=(CorpusEntry("S3", 2),), only="inclusion-*")
    assert report.results
    assert all(r.check_id.startswith("inclusion-") for r in report.results)


def test_fail_fast_ignores_unselected_failures(monkeypatch):
    # a failure outside the --only selection must not stop the instance
    # before the selected checks run
    import fusionloc.verifier as verifier

    def failing_group_checks(inst):
        return [
            CheckResult(
                "group-local-characteristic", inst.instance_id, "fail", witness="forced"
            )
        ]

    monkeypatch.setattr(verifier, "run_group_checks", failing_group_checks)
    entries = (CorpusEntry("S3", 2),)
    plain = run_corpus(entries=entries, only="inclusion-*")
    fast = run_corpus(entries=entries, only="inclusion-*", fail_fast=True)
    assert [r.check_id for r in plain.results] == ["inclusion-chain"]
    assert fast.results == plain.results


@pytest.mark.parametrize("name, prime", [("S4", 2), ("SL23", 3), ("C2xS4", 2)])
def test_each_stage_emits_only_its_ids(corpus, name, prime):
    import fusionloc.verifier as verifier

    run = verifier._Run(corpus.instance(name, prime), ())
    for ids, body in STAGES:
        emitted = {r.check_id for r in body(run)}
        assert emitted <= set(ids), (ids, emitted)


def test_unselected_stages_compute_nothing():
    inst = build_instance(CorpusEntry("S4", 2))
    rows = run_instance_checks(inst, only="fusion-wellformed")
    assert [r.check_id for r in rows] == ["fusion-wellformed"]
    assert "theta" not in inst.__dict__ and "normal_subsystems" not in inst.__dict__
    assert not inst._localities
    # Theta quotients the instance's Delta* locality; no other object set is built
    inst = build_instance(CorpusEntry("S4", 2))
    rows = run_instance_checks(inst, only="theta-*")
    assert {r.check_id for r in rows} == set(THETA_IDS)
    assert inst.theta.locality is inst.locality("delta-star")
    assert list(inst._localities.values()) == [inst.theta.locality]
    # the all-objects locality of a characteristic p-type group needs no Theta
    inst = build_instance(CorpusEntry("S4", 2))
    rows = run_instance_checks(inst, only="char-p-type-*")
    assert [r.status for r in rows] == ["pass", "pass"]
    assert "theta" not in inst.__dict__


def test_equal_systems_are_one_object(monkeypatch):
    # equal systems are one object: none is built, saturation-tested or
    # classified twice.  On C2xS4@p2, F_S(L) of the all-objects locality, F_T(N)
    # for N = G and F_S(G) are equal; C2xA5@p2 has a central quotient; SL23@p3
    # has a nontrivial Theta, so its E_loc systems live over the quotient's S
    def content(F):
        return (F.base, F.carrier, F.p, frozenset(F.maps_from.items()))

    built = []
    computed = {"_saturated": [], "_table": []}
    read = {"_saturated": set(), "_table": set()}
    init = FusionSystem.__init__

    def counted_init(F, *args, **kwargs):
        init(F, *args, **kwargs)
        built.append(content(F))

    monkeypatch.setattr(FusionSystem, "__init__", counted_init)
    for method, memo in (("is_saturated", "_saturated"), ("classification_table", "_table")):

        def counted(F, real=getattr(FusionSystem, method), memo=memo):
            read[memo].add(content(F))
            if getattr(F, memo) is None:
                computed[memo].append(content(F))
            return real(F)

        monkeypatch.setattr(FusionSystem, method, counted)
    for name, prime in (("C2xS4", 2), ("C2xA5", 2), ("SL23", 3)):
        inst = build_instance(CorpusEntry(name, prime))
        run_instance_checks(inst)
        assert inst.locality("all").fusion_system() is inst.fusion
        assert inst.normal_subsystems[inst.group.full_mask].fusion is inst.fusion
    assert len(built) == len(set(built))
    for memo in computed:
        assert len(computed[memo]) == len(read[memo]), memo
    # a mutant is built directly, so it stays out of the table, and its
    # regeneration is the interned system, which differs from it
    _, mutant = next(mutate_fusion(inst.fusion, seed=1, count=1))
    assert all(E is not mutant for E in fusion._SYSTEMS.values())
    assert fusion_wellformed_witness(mutant) is not None


def test_p_cores_computed_once_per_group_and_prime(monkeypatch):
    counts = Counter()
    for name in ("_o_p", "_o_p_prime"):

        def counted(H, p, name=name, compute=getattr(groups, name)):
            counts[name, H, p] += 1
            return compute(H, p)

        monkeypatch.setattr(groups, name, counted)
    inst = build_instance(CorpusEntry("C2xS4", 2))
    run_instance_checks(inst)
    assert counts and max(counts.values()) == 1


def test_one_subsystem_per_normal_subgroup(monkeypatch):
    real = fusion.subsystem_from_normal_subgroup
    calls = []

    def counted(F, G, s_real, n_mask):
        calls.append(n_mask)
        return real(F, G, s_real, n_mask)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "fusionloc" and vars(mod).get(real.__name__) is real:
            monkeypatch.setattr(mod, real.__name__, counted)
    inst = build_instance(CorpusEntry("C2xS4", 2))
    run_instance_checks(inst)
    assert sorted(calls) == sorted(inst.group.normal_subgroup_masks())


def test_report_serialization_shape():
    report = run_corpus(entries=(CorpusEntry("S3", 3),))
    data = report.to_json_dict()
    assert set(data) == {"results", "failures", "checks"}
    for rec in data["results"]:
        assert {"check_id", "instance", "status"} <= set(rec)
        if rec["status"] == "fail":
            assert "witness" in rec
        if rec["status"] == "skipped":
            assert "reason" in rec
    text = report.to_table()
    assert "failures" in text


THETA_IDS = (
    "theta-partial-normal",
    "theta-meets-s-trivially",
    "theta-object-kernels",
    "theta-quotient-objective",
    "theta-quotient-linking",
    "theta-fusion-match",
)


@pytest.mark.parametrize("cid", THETA_IDS)
def test_theta_finding_fails_its_own_row(corpus, cid):
    # a finding is read by its check id, not by its text: the carrier-escape
    # text names no kernel, yet fails theta-object-kernels
    text = "Theta element (1,2) outside carrier"
    td = replace(corpus.theta("S4", 2), findings=((cid, text),))
    rows = run_theta_checks(td, "S4@p2")
    assert [r.check_id for r in rows] == list(THETA_IDS)
    assert [(r.check_id, r.witness) for r in rows if r.status == "fail"] == [(cid, text)]


def first_p_prime_subgroup(H, p):
    """The subgroup generated by the least p'-element of H other than 1."""
    x = next((x for x in range(1, H.order) if H.element_order(x) % p), None)
    return 1 if x is None else H.span([x])


def test_theta_not_partial_normal_fails_its_row(monkeypatch, capsys):
    # S3 at p = 3 with Theta(N_G(S)) generated by a transposition, not normal in S3
    monkeypatch.setattr(constructions, "o_p_prime_mask", first_p_prime_subgroup)
    finding = "Theta is not a partial normal subgroup"
    inst = build_instance(CorpusEntry("S3", 3))
    td = inst.theta
    assert td.findings == (("theta-partial-normal", finding),)
    assert td.quotient is td.locality and td.quotient_data is None
    rows = run_instance_checks(inst)
    fails = [(r.check_id, r.subject, r.witness) for r in rows if r.status == "fail"]
    assert fails == [("theta-partial-normal", "S3@p3", finding)]
    assert not any(r.subject.endswith("/L-theta-quot") for r in rows)
    args = ["build", "--builtin", "S3", "--prime", "3", "--objects", "delta-star"]
    assert cli.main(args + ["--quotient-theta"]) == 2
    err = capsys.readouterr().err
    assert err == finding + "\n"


# ---------------------------------------------------------------------------
# conjugation-word-coherence: the S-class kernel's verdict against the scalar
# loop that gives its witness


def with_conj_entry(L, f, i, j):
    """A copy of L whose c_f sends S-index i to j."""
    conj_s = list(L.conj_s)
    conj_s[f] = {**conj_s[f], i: j}
    return Locality(
        size=L.size, inv=L.inv, rows=L.rows, s_ids=L.s_ids, s_group=L.s_group,
        delta=L.delta, p=L.p, label="forged", conj_s=tuple(conj_s),
    )


def wrong_conj_entries(L, seed, count):
    """Copies of L with one c_f value moved to another index of S."""
    rng = random.Random(seed)
    order = L.s_group.order
    for _ in range(count):
        f = rng.randrange(L.size)
        i = rng.choice(sorted(L.conj_s[f]))
        j = rng.choice([k for k in range(order) if k != L.conj_s[f][i]] or [i])
        yield f"c_{f}({i}) = {j}", with_conj_entry(L, f, i, j)


def scalar_coherence(L):
    """The scalar loop over every word of length 3: its witness, None, or
    the fold error it raises."""
    try:
        return _first_bad_coherence(L, product(range(L.size), repeat=3))
    except VerificationFailed as exc:
        return f"raised {exc}"


def test_coherence_kernel_matches_scalar_loop(corpus):
    verdicts = Counter()
    for label, M in kernel_subjects(corpus):
        if M.size**3 > 40_000:
            continue
        subjects = [(label, M)]
        if "seed" not in label:  # a product table as built: forge c_f too
            subjects += [(f"{label} {d}", W) for d, W in wrong_conj_entries(M, 7, 4)]
        for desc, W in subjects:
            scalar = scalar_coherence(W)
            holds = _coherence_holds(W)
            assert holds == (scalar is None), desc
            kind = "pass" if holds else "raised" if scalar.startswith("raised") else "witness"
            verdicts[kind] += 1
    # every kind of outcome occurred
    assert set(verdicts) == {"pass", "witness", "raised"}, verdicts


def test_wrong_conjugation_entry_fails_with_the_scalar_witness(corpus):
    L = corpus.locality_all("S4", 2)
    assert L.size**3 <= 40_000 and len({L.s_of(f) for f in range(L.size)}) == 2
    # c_f of the first f != 1 with |S_f| > 1 sends its second index where
    # it sends the first
    f = next(f for f in range(1, L.size) if len(L.conj_s[f]) > 1)
    i, j = sorted(L.conj_s[f])[1], L.conj_s[f][sorted(L.conj_s[f])[0]]
    M = with_conj_entry(L, f, i, j)
    witness = _first_bad_coherence(M, product(range(M.size), repeat=3))
    assert witness is not None and not _coherence_holds(M)
    assert _conjugation_word_coherence(M) == witness


def old_inverse_bijection_witness(L, sample_g):
    """conjugation-inverse-bijection as it was, conjugating each x twice."""
    n = L.size
    for g in sample_g:
        dom = [x for x in range(n) if L.conj_elem(x, g) is not None]
        target = {x for x in range(n) if L.conj_elem(x, L.inv[g]) is not None}
        images = set()
        for x in dom:
            y = L.conj_elem(x, g)
            images.add(y)
            if L.conj_elem(y, L.inv[g]) != x:
                return str((g, x, "not inverted"))
        if images != target:
            return str((g, "image of D(g) is not D(g^-1)"))
    return None


def test_inverse_bijection_matches_the_old_loop(corpus):
    witnesses = set()
    for label, M in kernel_subjects(corpus, seeds=(0,), count=5):
        subjects = [(label, M)]
        if "seed" not in label:
            subjects += [(f"{label} {d}", W) for d, W in wrong_conj_entries(M, 7, 2)]
        for desc, W in subjects:
            sample_g = range(W.size)
            if W.size > 60:
                rng = verifier._sampling_rng(W, "conjugation-inverse-bijection")
                sample_g = sorted(rng.sample(sample_g, 60))
            old = old_inverse_bijection_witness(W, sample_g)
            assert _conjugation_inverse_bijection(W) == old, desc
            witnesses.add(old if old is None else old.split(", ")[-1])
    assert len(witnesses) > 1, witnesses
