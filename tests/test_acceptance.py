"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or the full suite); the
module-scoped fixture performs one complete corpus verification run shared by
the criteria that read the check matrix.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from fusionloc.constructions import nontrivial
from fusionloc.corpus import DEFAULT_CORPUS, build_instance
from fusionloc.fusion import (
    centralizer_in_S_of_subsystem,
    quotient_mod_central,
    subsystem_from_normal_subgroup,
)
from fusionloc.groups import bits, p_part, popcount
from fusionloc.locality import verify_locality
from fusionloc.verifier import (
    CHECK_IDS,
    mutate_fusion,
    mutate_locality,
    mutation_detected_fusion,
    mutation_detected_locality,
    run_corpus,
)


@pytest.fixture(scope="module")
def full_run():
    start = time.time()
    report = run_corpus()
    duration = time.time() - start
    return report, duration


def _status(report, check_id, expect_present=True):
    rows = [r for r in report.results if r.check_id == check_id]
    if expect_present:
        assert rows, f"no results for {check_id}"
    bad = [r for r in rows if r.status == "fail"]
    return rows, bad


def _announce(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_stage_ids_are_the_report_ids(full_run):
    # the ids --only is matched against are exactly those the corpus reports
    report, _ = full_run
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 45
    assert set(CHECK_IDS) == {r.check_id for r in report.results}


def test_criterion_01_inclusion_chain(full_run):
    report, duration = full_run
    rows, bad = _status(report, "inclusion-chain")
    ok = not bad and duration < 300
    _announce(
        1,
        ok,
        f"inclusion chain cr=>c=>q=>s on {len(rows)} systems, corpus run "
        f"{duration:.1f}s < 300s",
    )


def test_criterion_02_sixway_agreement(corpus):
    # evaluate the six conditions on every subgroup of every saturated system
    # arising from the corpus (ambient, normal subsystems, central quotients)
    count = 0
    disagreements = []
    for entry in DEFAULT_CORPUS:
        inst = build_instance(entry)
        systems = [inst.fusion]
        G = inst.group
        for n_mask in G.normal_subgroup_masks():
            if p_part(popcount(n_mask), entry.prime) != popcount(
                n_mask & inst.s_real.mask
            ):
                continue
            sub = subsystem_from_normal_subgroup(inst.fusion, G, inst.s_real, n_mask)
            if sub.fusion.is_saturated():
                systems.append(sub.fusion)
        for Z in inst.fusion.base.subgroups_of(inst.fusion.center_mask()):
            if Z != 1:
                systems.append(quotient_mod_central(inst.fusion, Z).quotient)
        for F in systems:
            if not F.is_saturated():
                continue
            table = F.classification_table()
            for Q in F.subgroups():
                six = F.subcentric_equivalences(Q)
                count += 1
                if not six.agree() or six.as_tuple()[0] != table[Q].subcentric:
                    disagreements.append((F.label, Q))
    ok = not disagreements and count >= 200
    _announce(
        2,
        ok,
        f"six-way subcentric agreement on {count} subgroup instances "
        f"(>= 200 required), {len(disagreements)} disagreements",
    )


def test_criterion_03_section9_examples(corpus):
    dsA = corpus.deltas("C2xA5", 2)
    instA = corpus.instance("C2xA5", 2)
    zA = instA.s_real.mask_from_parent(instA.group.center_mask())
    okA = zA in dsA.subcentric and zA not in dsA.delta_star

    dsB = corpus.deltas("C2xS4", 2)
    instB = corpus.instance("C2xS4", 2)
    zB = instB.s_real.mask_from_parent(instB.group.center_mask())
    tB = dsB.fusion.classification_table()
    okB = zB in dsB.delta and not tB[zB].quasicentric

    _announce(
        3,
        okA and okB,
        "C2xA5 central C2 subcentric but outside Delta*; "
        "C2xS4 central C2 in Delta but not quasicentric",
    )


def test_criterion_04_char_2_type_end_to_end(corpus):
    inst = corpus.instance("S4", 2)
    ok = inst.deltas.characteristic_p_type
    L = corpus.locality_all("S4", 2)
    ok = ok and verify_locality(L).ok
    ok = ok and L.is_objective_char_p()
    ok = ok and L.fusion_system().maps_from == inst.fusion.maps_from

    # independent Sylow-intersection oracle for both carriers
    for name, expected in (("S4", 24), ("A5", 12)):
        inst2 = corpus.instance(name, 2)
        G, real = inst2.group, inst2.s_real
        oracle = [
            g
            for g in range(G.order)
            if sum(
                1
                for x in bits(real.mask)
                if real.index_of.get(G.conj(x, g)) is not None
            )
            > 1
        ]
        L2 = corpus.locality_all(name, 2)
        ok = ok and list(L2.source_ids) == oracle and L2.size == expected
    _announce(
        4,
        ok,
        "S4 is of characteristic 2-type; its all-objects locality verifies, is "
        "objective characteristic 2 with the right fusion system; carriers "
        "match the Sylow-intersection oracle (S4: 24, A5: 12)",
    )


def test_criterion_05_normal_and_radical_in_localities(full_run, corpus):
    report, _ = full_run
    _, bad_n = _status(report, "normal-iff-fixed-by-locality")
    _, bad_c = _status(report, "central-iff-centralized-by-locality")
    _, bad_r = _status(report, "lradical-matches-centric-radical")
    inst = corpus.instance("S4", 2)
    L = corpus.locality_all("S4", 2)
    lrad = sorted(
        (P for P in L.objects_sorted() if L.is_l_radical(P)),
        key=popcount,
    )
    ok = (
        not bad_n
        and not bad_c
        and not bad_r
        and [popcount(m) for m in lrad] == [4, 8]
    )
    _announce(
        5,
        ok,
        "Q normal in F iff fixed by the locality; L-radical set equals "
        "Delta cap F^cr on every objective-characteristic-p corpus locality "
        "(S4: exactly the order-4 and order-8 objects)",
    )


def test_criterion_06_theta_machinery(full_run, corpus):
    report, _ = full_run
    all_bad = []
    for cid in (
        "theta-partial-normal",
        "theta-meets-s-trivially",
        "theta-object-kernels",
        "theta-quotient-objective",
        "theta-quotient-linking",
        "theta-fusion-match",
    ):
        rows, bad = _status(report, cid)
        assert len(rows) == len(DEFAULT_CORPUS)
        all_bad.extend(bad)
    # direct confirmation on the nontrivial-Theta instance
    td = corpus.theta("SL23", 3)
    ok = (
        not all_bad
        and len(td.theta) == 2
        and td.theta & set(td.locality.s_ids) == {0}
    )
    _announce(
        6,
        ok,
        "Theta is partial normal with trivial intersection with S, the "
        "quotient is a linking locality over F_S(G) with the per-object "
        "kernels equal to Theta(N_G(P)), for every corpus group",
    )


def test_criterion_07_quotient_correspondence(corpus):
    inst = corpus.instance("C2xS4", 2)
    F = inst.fusion
    z = inst.s_real.mask_from_parent(inst.group.center_mask())
    cq = quotient_mod_central(F, z)
    t = F.classification_table()
    tq = cq.quotient.classification_table()
    mismatches = [
        P
        for P in F.subgroups()
        if t[P].subcentric != tq[cq.image_of_mask(P)].subcentric
    ]
    _announce(
        7,
        not mismatches,
        f"subcentric flag of P equals that of PZ/Z over all "
        f"{len(F.subgroups())} subgroups of C2xD8 (zero tolerance)",
    )


def test_criterion_08_subsystem_centralizers(full_run):
    report, _ = full_run
    rows_c, bad_c = _status(report, "subsystem-centralizer-match")
    rows_l, bad_l = _status(report, "normal-subsystem-subcentric-lift")
    ok = not bad_c and not bad_l and rows_c and rows_l
    _announce(
        8,
        ok,
        f"C_S of the subsystem agrees between the fusion and locality sides "
        f"({len(rows_c)} cases) and P in E^s implies P*C_S(E) in F^s "
        f"({len(rows_l)} cases), zero tolerance",
    )


def test_criterion_09_mutation_sensitivity(corpus):
    total = 0
    undetected = []
    for entry in DEFAULT_CORPUS:
        inst = corpus.instance(entry.name, entry.prime)
        L = corpus.locality_all(entry.name, entry.prime)
        for desc, mutated in mutate_fusion(inst.fusion, seed=2024, count=10):
            total += 1
            if not mutation_detected_fusion(mutated):
                undetected.append((inst.instance_id, desc))
        for desc, mutated in mutate_locality(L, seed=2024, count=10):
            total += 1
            if not mutation_detected_locality(mutated):
                undetected.append((inst.instance_id, desc))
    _announce(
        9,
        not undetected,
        f"{total} single-entry mutations (20 per corpus instance, fixed seed) "
        f"all caused a verifier failure; undetected: {undetected}",
    )


def test_criterion_10_determinism(full_run):
    report, _ = full_run
    blob1 = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    report2 = run_corpus()
    blob2 = json.dumps(report2.to_json_dict(), indent=2, sort_keys=True)
    _announce(
        10,
        blob1 == blob2,
        "two consecutive full corpus runs produce byte-identical JSON reports",
    )
    # `verify --json` writes blob + "\n"; its hash is the benchmark's reference
    references = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    expected = json.loads(references.read_text())["verify/corpus"]
    assert hashlib.sha256((blob1 + "\n").encode("utf-8")).hexdigest() == expected
