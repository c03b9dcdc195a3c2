"""Smoke test of the benchmark on tiny inputs (S3@p2 and A4@p2).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from fusionloc.corpus import BUILTINS, builtin_group  # noqa: E402
from fusionloc.groups import is_prime  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_benchmark(
        workloads.ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for line in ("wall_s", "peak_rss_mb", "setup_s", "fail_ratio"):
        assert any(row.startswith(line + " ") for row in out.stdout.splitlines())


def test_benchmark_file_matches_the_harness():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert BENCHMARK["per_layer"] == spans.per_layer_metrics()


def test_classify_sweep_covers_every_builtin_at_every_prime():
    expected = []
    for name in sorted(BUILTINS):
        order = builtin_group(name).order
        primes = tuple(p for p in range(2, order + 1) if order % p == 0 and is_prime(p))
        if primes:
            expected.append((name, primes))
    assert tuple(expected) == workloads.CLASSIFY_BUILTINS


def test_gate_trips_when_output_or_reference_is_one_byte_off():
    references = workloads.load_references()
    key = "classify/S3-p2"
    code, text = workloads.run_cli(["classify", "--builtin", "S3", "--prime", "2"])
    assert workloads.judge(references, key, code, text).failed == 0

    flipped = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1:]
    assert workloads.judge(references, key, code, flipped).failed == 1

    ref = references[key]
    off = dict(references, **{key: ref[:-1] + ("1" if ref[-1] == "0" else "0")})
    assert workloads.judge(off, key, code, text).failed == 1

    assert workloads.judge(references, key, 2, text).failed == 1


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark(
        tmp_path, "--workload", "classify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert out.returncode != 0
    assert out.stdout == ""
