"""Workload inputs, operations and the output gate of the fusionloc benchmark.

Every workload is a fixed list of operations that one client issues in order,
each only after the previous one has finished (a closed loop).  An operation
drives fusionloc from outside, through ``fusionloc.cli.main`` or the public
functions of its modules, and returns how many results it judged and how many
of those were wrong.  CLI output is wrong when the exit code is not 0 or its
sha256 differs from the reference recorded in ``references.json``.

Importing this module imports fusionloc from ``<checkout>/src``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
REFERENCES = os.path.join(HERE, "references.json")

if not os.path.isfile(os.path.join(SRC, "fusionloc", "__init__.py")):
    raise SystemExit(f"fusionloc sources not found under {SRC}")
sys.path.insert(0, SRC)

from fusionloc import cli, constructions, corpus, locality, verifier  # noqa: E402

WORKLOADS = ("corpus-verify", "beyond-build", "classify-sweep", "mutation-detect")

# Every builtin at every prime dividing its order (C1 has none).
CLASSIFY_BUILTINS = (
    ("A4", (2, 3)),
    ("A5", (2, 3, 5)),
    ("C2", (2,)),
    ("C2^3", (2,)),
    ("C2xA5", (2, 3, 5)),
    ("C2xD8", (2,)),
    ("C2xS4", (2, 3)),
    ("C3", (3,)),
    ("C4", (2,)),
    ("D8", (2,)),
    ("Q8", (2,)),
    ("S3", (2, 3)),
    ("S4", (2, 3)),
    ("SL23", (2, 3)),
    ("V4", (2,)),
)
# Groups beyond the corpus, given as generator JSON files in inputs/.
BEYOND_FILES = ("S5", "S6")
BEYOND_PRIMES = (2, 3)
FILE_CLASSIFY_PRIMES = (2, 3, 5)
# Tiny inputs for the smoke test.
TINY = (("S3", 2), ("A4", 2))

# Single-entry mutations of each kind per corpus instance and pass.
MUTATIONS_PER_KIND = 20

BUILD_MODES = {
    "all": ["--objects", "all", "--export", "json"],
    "theta": ["--objects", "delta-star", "--quotient-theta"],
}


def metric_safe(text: str) -> str:
    """Instance ids as metric names: ``C2^3@p2`` -> ``C2_3-p2``."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text.replace("@", "-"))


def instance_name(group: str, p: int) -> str:
    return metric_safe(f"{group}@p{p}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)
    digest: str = ""  # sha256 of a CLI result that exited 0


def judge(references: dict, key: str, exit_code: int, text: str) -> Outcome:
    """One CLI result: wrong unless it exited 0 and matches its reference."""
    digest = sha256(text) if exit_code == 0 else ""
    return Outcome(1, int(not digest or references.get(key) != digest), digest=digest)


@dataclass(frozen=True)
class Op:
    name: str  # metric-safe, used in op.<name>.s
    ref_key: str  # key into references.json ("" for non-CLI operations)
    run: Callable[[], Outcome]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``fusionloc <argv>`` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(name: str, ref_key: str, argv: list[str], references: dict) -> Op:
    def run() -> Outcome:
        return judge(references, ref_key, *run_cli(argv))

    return Op(name, ref_key, run)


def _verify_op(entries, ref_key: str, references: dict, workdir: str) -> Op:
    report = os.path.join(workdir, "report.json")

    def run() -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        # The CLI always verifies DEFAULT_CORPUS; the smoke test narrows the
        # corpus by rebinding the name cli.cmd_verify looks up.
        narrowed = entries is not corpus.DEFAULT_CORPUS
        if narrowed:
            cli.run_corpus = functools.partial(verifier.run_corpus, entries)
        try:
            code, _table = run_cli(["verify", "--json", report])
        finally:
            if narrowed:
                cli.run_corpus = verifier.run_corpus
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
        return judge(references, ref_key, code, text)

    return Op("corpus", ref_key, run)


def _group_args(group: str) -> list[str]:
    if group in BEYOND_FILES:
        return ["--file", os.path.join(INPUTS, group + ".json")]
    return ["--builtin", group]


def _mutation_op(entry: corpus.CorpusEntry, seed: int, count: int) -> Op:
    """Judge the unmutated fusion system and all-objects locality of one
    instance (both must be accepted), then ``count`` single-entry mutations
    of each (each must be detected)."""

    def run() -> Outcome:
        inst = corpus.build_instance(entry)
        base = inst.s_real.group
        objects = constructions.nontrivial(frozenset(base.subgroup_masks()))
        L = locality.locality_from_group(
            inst.group, inst.sylow, objects, inst.prime, s_real=inst.s_real
        )
        wrong = int(verifier.mutation_detected_fusion(inst.fusion))
        wrong += int(verifier.mutation_detected_locality(L))
        detected = 0
        for _, mutated in verifier.mutate_fusion(inst.fusion, seed, count):
            detected += verifier.mutation_detected_fusion(mutated)
        for _, mutated in verifier.mutate_locality(L, seed, count):
            detected += verifier.mutation_detected_locality(mutated)
        attempted = 2 * count
        return Outcome(
            2 + attempted,
            wrong + attempted - detected,
            {"verifier.mutations.attempted": attempted, "verifier.mutations.detected": detected},
        )

    return Op(instance_name(entry.name, entry.prime), "", run)


def load(
    workload: str, seed: int, workdir: str, references: dict, tiny: bool = False
) -> list[Op]:
    """The operations of one pass over ``workload``.

    ``seed`` picks the mutations of ``mutation-detect``.  The CLI workloads
    have fixed inputs in a fixed order, so peak memory does not depend on the
    seed.  ``workdir`` receives files the CLI writes.  ``references`` maps
    each ``ref_key`` to the sha256 of its reference output.  ``tiny``
    swaps the inputs for S3@p2 and A4@p2.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    if workload == "corpus-verify":
        if tiny:
            entries = tuple(corpus.CorpusEntry(g, p) for g, p in TINY)
            ops.append(_verify_op(entries, "verify/tiny", references, workdir))
        else:
            ops.append(_verify_op(corpus.DEFAULT_CORPUS, "verify/corpus", references, workdir))
    elif workload == "beyond-build":
        pairs = TINY if tiny else [(g, p) for g in BEYOND_FILES for p in BEYOND_PRIMES]
        for g, p in pairs:
            for mode, extra in BUILD_MODES.items():
                name = instance_name(g, p) + "-" + mode
                argv = ["build", *_group_args(g), "--prime", str(p), *extra]
                ops.append(_cli_op(name, "build/" + name, argv, references))
    elif workload == "classify-sweep":
        pairs = list(TINY) if tiny else [
            (g, p) for g, primes in CLASSIFY_BUILTINS for p in primes
        ] + [(g, p) for g in BEYOND_FILES for p in FILE_CLASSIFY_PRIMES]
        for g, p in pairs:
            name = instance_name(g, p)
            argv = ["classify", *_group_args(g), "--prime", str(p)]
            ops.append(_cli_op(name, "classify/" + name, argv, references))
    elif workload == "mutation-detect":
        entries = (
            [corpus.CorpusEntry(g, p) for g, p in TINY] if tiny else corpus.DEFAULT_CORPUS
        )
        for entry in entries:
            ops.append(_mutation_op(entry, rng.randrange(2**31), MUTATIONS_PER_KIND))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops
