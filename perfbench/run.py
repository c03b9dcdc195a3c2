"""Run one workload of the fusionloc benchmark and print its metrics.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

One client issues the workload's operations in a closed loop, one pass after
another, while another whole pass still fits in ``--seconds`` (at least one
pass).  Every output is checked against its recorded reference.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones of BENCHMARK.json:
  wall_s       median seconds of one pass (time to a verified answer)
  peak_rss_mb  peak resident memory of this process
  setup_s      median over fresh processes of the time from start until
               fusionloc is imported and the workload's inputs are loaded
With ``--trace 1`` the same untraced passes run, then one traced pass whose
per-layer spans and counts are reported (see spans.py), together with its
wall time and the tracing overhead against the untraced median.

``--tiny`` replaces the inputs by S3@p2 and A4@p2 for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
SETUP_SAMPLES = 7
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def read_steal_s() -> float | None:
    """Seconds of steal time summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks the host's speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median over fresh processes of start -> inputs loaded."""
    samples = []
    cmd = [sys.executable, PROBE, workload, str(seed), "1" if tiny else "0"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {child.returncode}")
    return statistics.median(samples)


class Tally:
    """Operations judged and failed, plus counts the operations report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()

    def add(self, outcome: workloads.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.counts.update(outcome.counts)


def run_pass(ops, tally: Tally, op_s: dict | None = None) -> float:
    """Issue every operation once, in order; returns the pass's seconds."""
    gc.collect()
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            outcome = op.run()
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            outcome = workloads.Outcome(1, 1)
        tally.add(outcome)
        if op_s is not None:
            op_s[op.name] += perf_counter() - t0
    return perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="S3@p2 and A4@p2 only")
    args = parser.parse_args(argv)

    steal0 = read_steal_s()
    calib = [calibrate()]
    setup_s = measure_setup(args.workload, args.seed, args.tiny)

    tally = Tally()
    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench-") as workdir:
        ops = workloads.load(
            args.workload, args.seed, workdir, workloads.load_references(), tiny=args.tiny
        )
        start = perf_counter()
        passes = [run_pass(ops, tally)]
        while perf_counter() - start + statistics.median(passes) <= args.seconds:
            passes.append(run_pass(ops, tally))
        end_to_end = {
            "wall_s": statistics.median(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        if args.trace:
            tracer = spans.Tracer()
            traced = Tally()
            tracer.install()
            try:
                traced_s = run_pass(ops, traced, tracer.op_s)
            finally:
                tracer.uninstall()
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tracer.counts.update(traced.counts)
            missing = tracer.missing(args.workload)
            if missing and not args.tiny:
                print(f"traced run recorded no calls of: {', '.join(missing)}", file=sys.stderr)
                return 1

    calib.append(calibrate())
    steal1 = read_steal_s()

    if args.trace:
        values = tracer.metrics(traced_s, end_to_end["wall_s"])
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spans.per_layer_metrics()
        }
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in end_to_end.items()}

    fail_ratio = tally.failed / tally.attempted
    steal = "n/a" if steal0 is None or steal1 is None else f"{steal1 - steal0:.3f}"
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations/pass {len(ops)}  pass_s {' '.join(f'{t:.3f}' for t in passes)}")
    for name, value in end_to_end.items():
        print(f"{name} {value:.4f} {UNITS[name]}")
    print(f"fail_ratio {fail_ratio:.4f} ratio  ({tally.failed} failed of {tally.attempted})")
    print(f"host steal_s {steal}  calib_s {statistics.mean(calib):.4f}  cpus {os.cpu_count()}  "
          f"python {sys.version.split()[0]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
