"""Command-line interface: reports, exports, exit codes, determinism."""

from __future__ import annotations

import fnmatch
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from argparse import ArgumentParser

import pytest

from fusionloc import cli
from fusionloc.corpus import (
    DEFAULT_CORPUS,
    OBJECT_KINDS,
    CorpusEntry,
    Instance,
    build_instance,
    builtin_group,
)
from fusionloc.errors import CorpusLoadError
from fusionloc.fusion import FusionSystem, fusion_from_group
from fusionloc.groups import FiniteGroup, RealizedSubgroup
from fusionloc.locality import Locality, locality_to_json, transporter_to_json
from fusionloc.verifier import CheckResult, run_instance_checks


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "fusionloc", "list-builtins"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "S4: degree 4" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly(unbuffered):
    # a reader that is gone before the first write: whether the first failed
    # write is one of many small ones or the flush at exit, the command stops
    # with EXIT_CLOSED_OUTPUT and writes nothing to stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    for args in (
        ["classify", "--builtin", "S3", "--prime", "3"],
        ["build", "--builtin", "S4", "--prime", "2"],
        ["list-builtins"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fusionloc", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_OUTPUT, ""), args


def test_verify_json_written_when_stdout_closed(tmp_path):
    # the --json report is written before the table, so a reader that is gone
    # ends the command with EXIT_CLOSED_OUTPUT but leaves the report whole
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fusionloc", "verify", "--only", "fusion-wellformed",
             "--json", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_OUTPUT, "")
    got = json.loads(report.read_text())
    assert got["checks"] == len(DEFAULT_CORPUS) and got["failures"] == 0


def test_unwritable_output_is_an_input_error(tmp_path):
    # a path in a missing directory exits 3 with one error line, no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    missing = str(tmp_path / "missing" / "x")
    for args in (
        ["verify", "--only", "fusion-wellformed", "--json", missing],
        ["classify", "--builtin", "S3", "--prime", "2", "--out", missing],
        ["build", "--builtin", "S3", "--prime", "2", "--out", missing],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "fusionloc", *args],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == cli.EXIT_INPUT, (args, proc.stderr)
        assert proc.stderr.startswith("error: cannot write " + missing), (args, proc.stderr)
        assert proc.stderr.count("\n") == 1, (args, proc.stderr)


def test_unwritable_output_fails_before_the_work(monkeypatch, capsys, tmp_path):
    # the output paths are opened before the corpus or the group is touched
    def refuse(*_args, **_kwargs):
        raise AssertionError("the work ran before the output was opened")

    monkeypatch.setattr(cli, "run_corpus", refuse)
    monkeypatch.setattr(cli, "_load_instance", refuse)
    missing = str(tmp_path / "missing" / "x")
    (tmp_path / "d.transporter.dot").mkdir()
    dot_prefix = str(tmp_path / "d")
    for args, path in (
        (["verify", "--json", missing], missing),
        (["classify", "--builtin", "A5", "--prime", "2", "--out", missing], missing),
        (["build", "--builtin", "A5", "--prime", "2", "--out", missing], missing + ".locality.json"),
        (
            ["build", "--builtin", "A5", "--prime", "2", "--export", "dot", "--out", dot_prefix],
            dot_prefix + ".transporter.dot",
        ),
    ):
        code, _, err = run_cli(capsys, args)
        assert code == cli.EXIT_INPUT, args
        assert err.startswith("error: cannot write " + path), (args, err)
    # the locality file checked before the DOT file is not left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.transporter.dot"]


def test_failed_command_leaves_its_outputs_as_they_were(capsys, tmp_path):
    # the outputs pass the early check, then the input fails: a file the
    # check created is gone and an existing one keeps its bytes
    (tmp_path / "old.json").write_text("old")
    for args in (
        ["classify", "--file", str(tmp_path / "no-group.json"), "--prime", "2",
         "--out", str(tmp_path / "c.json")],
        ["classify", "--file", str(tmp_path / "no-group.json"), "--prime", "2",
         "--out", str(tmp_path / "old.json")],
        ["build", "--builtin", "S4", "--prime", "2", "--quotient-theta",
         "--export", "dot", "--out", str(tmp_path / "b")],
        ["verify", "--subsystems", str(tmp_path / "no-subs.json"),
         "--json", str(tmp_path / "r.json")],
    ):
        code, _, err = run_cli(capsys, args)
        assert code == cli.EXIT_INPUT and err.startswith("error: "), (args, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert (tmp_path / "old.json").read_text() == "old"


def test_non_utf8_input_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"name": "x"}')
    for args, kind in (
        (["classify", "--file", str(bad), "--prime", "2"], "group"),
        (["verify", "--subsystems", str(bad)], "subsystem"),
    ):
        code, _, err = run_cli(capsys, args)
        assert code == cli.EXIT_INPUT, args
        assert err.startswith(f"error: cannot read {kind} file {bad}: "), err


def test_classify_s4(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--builtin", "S4", "--prime", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "S4" and data["sylow_order"] == 8
    assert data["saturated"] is True
    cr = [r for r in data["subgroups"] if r["centric_radical"]]
    assert sorted(r["order"] for r in cr) == [4, 8]
    assert all(r["subcentric"] for r in data["subgroups"])
    orders = [r["order"] for r in data["subgroups"]]
    assert orders == sorted(orders, reverse=True)


def test_classify_c2xa5_central(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--builtin", "C2xA5", "--prime", "2"])
    assert code == 0
    data = json.loads(out)
    central = [r for r in data["subgroups"] if r["central"] and r["order"] == 2]
    assert len(central) == 1
    assert central[0]["subcentric"] and not central[0]["quasicentric"]
    assert not central[0]["in_delta_star"]


def test_classify_p_group_all_subcentric(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--builtin", "D8", "--prime", "2"])
    assert code == 0
    data = json.loads(out)
    assert all(r["subcentric"] for r in data["subgroups"])


def test_classify_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["classify", "--builtin", "S4", "--prime", "2", "--out", str(f1)]) == 0
    assert cli.main(["classify", "--builtin", "S4", "--prime", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    capsys.readouterr()


def test_build_a5_dot(capsys, tmp_path):
    out = tmp_path / "a5"
    code = cli.main(
        [
            "build", "--builtin", "A5", "--prime", "2",
            "--objects", "all", "--export", "dot", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads((tmp_path / "a5.locality.json").read_text())
    assert payload["locality"]["carrier_size"] == 12
    assert all(a["passed"] for a in payload["axioms"])
    dot = (tmp_path / "a5.transporter.dot").read_text()
    assert dot.startswith("digraph transporter")


def test_build_theta_quotient(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "build", "--builtin", "S4", "--prime", "2",
            "--objects", "delta-star", "--quotient-theta",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["locality"]["carrier_size"] == 24  # Theta trivial: unchanged


def test_build_degenerate_c1(capsys):
    # no prime divides |C1| = 1, so C1 is refused at every prime
    code, out, err = run_cli(capsys, ["build", "--builtin", "C1", "--prime", "2"])
    assert code == cli.EXIT_INPUT and out == ""
    assert err == "error: 2 does not divide |C1| = 1\n"


def test_empty_delta_is_an_input_error_naming_the_instance(capsys):
    # Delta of SL(2,3) at 3 is empty: the input is valid but has no locality
    code, out, err = run_cli(
        capsys, ["build", "--builtin", "SL23", "--prime", "3", "--objects", "delta"]
    )
    assert code == cli.EXIT_INPUT and out == ""
    assert err.startswith("error: ") and "SL23@p3" in err and "delta" in err, err


def test_prime_not_dividing_the_order_is_an_input_error(capsys, tmp_path):
    # Instance refuses p not dividing |G|, whichever way G arrives
    group = tmp_path / "s3.json"
    group.write_text(json.dumps({"name": "S3", "degree": 3, "generators": [[[1, 2, 3]], [[1, 2]]]}))
    for args in (
        ["classify", "--builtin", "S3", "--prime", "5"],
        ["build", "--builtin", "S3", "--prime", "5"],
        ["classify", "--file", str(group), "--prime", "5"],
    ):
        code, out, err = run_cli(capsys, args)
        assert code == cli.EXIT_INPUT and out == "", args
        assert err == "error: 5 does not divide |S3| = 6\n", (args, err)
    with pytest.raises(CorpusLoadError, match="5 does not divide"):
        Instance(CorpusEntry("A4", 5), builtin_group("A4"))


def test_build_deterministic(capsys, tmp_path):
    for sub in ("x", "y"):
        code = cli.main(
            [
                "build", "--builtin", "S4", "--prime", "2",
                "--objects", "all", "--export", "dot",
                "--out", str(tmp_path / sub),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert (tmp_path / "x.locality.json").read_bytes() == (
        tmp_path / "y.locality.json"
    ).read_bytes()
    assert (tmp_path / "x.transporter.dot").read_bytes() == (
        tmp_path / "y.transporter.dot"
    ).read_bytes()


ODD_NAME = 'S3 "quoted" \\ back\nslash \u00e9\u00fc\u4e09 \U0001d53e'


@pytest.mark.parametrize(
    "args",
    [
        ["--builtin", "C2", "--prime", "2"],
        ["--builtin", "S4", "--prime", "2", "--export", "json"],
        ["--builtin", "A5", "--prime", "2", "--export", "dot"],
        ["--builtin", "S4", "--prime", "2", "--objects", "delta-star", "--quotient-theta"],
        ["--file", "ODD", "--prime", "2", "--export", "json"],
        ["--builtin", "S3", "--prime", "3", "--export", "json", "--fail"],
    ],
    ids=["C2", "S4-json", "A5-dot", "S4-theta", "odd-name", "failing"],
)
def test_build_writer_matches_dumps_oracle(capsys, tmp_path, monkeypatch, args):
    # the streamed JSON of build equals json.dumps of the payload built from
    # the dict forms locality_to_json and transporter_to_json, byte for byte
    args = list(args)
    odd = "ODD" in args
    if odd:
        group = tmp_path / "odd.json"
        group.write_text(
            json.dumps({"name": ODD_NAME, "degree": 3, "generators": [[[1, 2, 3]], [[1, 2]]]})
        )
        args[args.index("ODD")] = str(group)
    expected_code = 0
    if "--fail" in args:
        args.remove("--fail")
        expected_code = 2
        forged = CheckResult("locality-axioms", "X@p3", "fail", witness='forged "w" \\ \n')
        real_checks = cli.run_locality_checks
        monkeypatch.setattr(
            cli, "run_locality_checks", lambda L, subject: real_checks(L, subject) + [forged]
        )
    seen = []
    real_tc = cli.transporter_category
    monkeypatch.setattr(cli, "transporter_category", lambda L: seen.append(real_tc(L)) or seen[-1])

    code, out, _ = run_cli(capsys, ["build", *args])
    assert code == expected_code
    data = json.loads(out)
    tc = seen[-1]
    oracle = {
        "locality": locality_to_json(tc.locality),
        "axioms": data["axioms"],
        "checks": data["checks"],
    }
    if "--quotient-theta" in args:
        # Theta is trivial: build prints the Delta* locality, named L*(S4)
        assert oracle["locality"]["label"] == "L(S4)"
        oracle["locality"]["label"] = "L*(S4)"
    if "--export" in args and args[args.index("--export") + 1] == "json":
        oracle["transporter"] = transporter_to_json(tc)
    if "dot" in args:
        oracle["transporter_dot"] = cli.transporter_to_dot(tc)
    assert out == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    if odd:
        assert data["locality"]["label"] == f"L({ODD_NAME})"

    # --out writes the same bytes (without the DOT text, which goes to its own file)
    prefix = tmp_path / "out"
    code = cli.main(["build", *args, "--out", str(prefix)])
    capsys.readouterr()
    assert code == expected_code
    written = (tmp_path / "out.locality.json").read_text(encoding="utf-8")
    if "dot" not in args:
        assert written == out
    oracle.pop("transporter_dot", None)
    assert written == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    witnesses = tmp_path / "out.witnesses.json"
    assert witnesses.exists() == (expected_code == 2)
    if expected_code == 2:
        assert json.loads(witnesses.read_text())["checks"] == [forged.as_json()]


def test_write_json_edge_cases():
    # an empty stream, an empty dict, and a newline inside a nested string
    parts = []
    obj = {"b": cli._Stream(lambda indent: iter(())), "a": {}, "c": [1, {"d": "x\ny"}]}
    cli._write_json(parts.append, obj)
    plain = {"b": [], "a": {}, "c": [1, {"d": "x\ny"}]}
    assert "".join(parts) == json.dumps(plain, indent=2, sort_keys=True)


class HashSink:
    """A text stream that keeps only the sha256 and length of what it gets."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        self.length += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_build_writer_streams(tmp_path, monkeypatch):
    # S6 at p = 2 with all objects: 5 MB of JSON, of which the writer holds
    # only a row at a time (json.dumps of the whole payload peaked at 42 MB)
    group = tmp_path / "S6.json"
    group.write_text(
        json.dumps({"name": "S6", "degree": 6, "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]})
    )
    peaks = []
    write_json = cli._write_json

    def traced(write, obj, indent=""):
        if indent:
            return write_json(write, obj, indent)
        tracemalloc.start()
        try:
            write_json(write, obj, indent)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_json", traced)
    sink = HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(["build", "--file", str(group), "--prime", "2", "--objects", "all"])
    monkeypatch.undo()
    assert code == 0
    assert sink.digest.hexdigest() == (
        "1f67308c32510718de31d4978e727ea2a645208c33729e04275eb9a45c603dd0"
    )
    assert len(peaks) == 1 and peaks[0] < sink.length / 4, (peaks, sink.length)


def test_input_errors(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, ["classify", "--builtin", "NoSuch", "--prime", "2"])
    assert code == 3 and "error" in err
    code, _, _ = run_cli(capsys, ["classify", "--prime", "2"])
    assert code == 3
    code, _, _ = run_cli(
        capsys,
        ["build", "--builtin", "S4", "--prime", "2", "--objects", "all", "--quotient-theta"],
    )
    assert code == 3
    # --builtin and --file together: neither is silently ignored
    for command in ("classify", "build"):
        args = [command, "--builtin", "S4", "--file", str(tmp_path / "missing.json")]
        code, out, err = run_cli(capsys, args + ["--prime", "2"])
        assert code == 3 and "not both" in err and out == "", (command, code, err)
    # a --prime that is not prime
    for command in ("classify", "build"):
        for prime in ("0", "4", "9"):
            code, _, err = run_cli(capsys, [command, "--builtin", "S4", "--prime", prime])
            assert code == 3 and "not prime" in err, (command, prime, code, err)
    # malformed subsystem files and group files
    a4_spec = {"normal": [[[1, 2, 3]], [[2, 3, 4]]], "kind": "p-power"}
    malformed = [
        ("verify", "--subsystems", [{"normal": [], "kind": "p-power"}]),
        # a valid A4 spec under a key that names no corpus instance
        ("verify", "--subsystems", {"S4@2": [a4_spec]}),
        ("verify", "--subsystems", {"S4@p2": [{"kind": "p-power"}]}),
        ("verify", "--subsystems", {"S4@p2": [{"normal": [[[1, 2, 3]]], "kind": "index-2"}]}),
        # a subgroup that is not normal in G, rejected before any check runs
        ("verify", "--subsystems", {"SL23@p2": [{"normal": [[[3, 4, 5], [6, 8, 7]]], "kind": "p-power"}]}),
        ("classify", "--file", {"name": "X", "table": [1, 2]}),
        # table entries that are not integers, a JSON boolean included
        ("classify", "--file", {"name": "X", "table": [[0, "a"], ["a", 0]]}),
        ("classify", "--file", {"name": "X", "table": [[0, 1.0], [1.0, 0]]}),
        ("classify", "--file", {"name": "X", "table": [[0, None], [None, 0]]}),
        ("classify", "--file", {"name": "X", "table": [[0, True], [True, False]]}),
        ("classify", "--file", {"name": "X", "degree": 3, "generators": [[1, 2]]}),
        # a JSON boolean as a cycle point, as a degree, and in a subsystem generator
        ("classify", "--file", {"name": "X", "degree": 3, "generators": [[[True, 2, 3]]]}),
        ("classify", "--file", {"name": "X", "degree": True, "generators": []}),
        # a group name that is not a string
        ("classify", "--file", {"name": ["X"], "degree": 2, "generators": [[[1, 2]]]}),
        ("classify", "--file", {"name": {"a": 1}, "degree": 2, "generators": [[[1, 2]]]}),
        ("verify", "--subsystems", {"S4@p2": [{"normal": [[[True, 2], [3, 4]], [[1, 3], [2, 4]]], "kind": "p-power"}]}),
    ]
    # a malformed subsystem file is rejected while loading, before any check runs
    def no_checks(**kwargs):
        raise AssertionError("checks ran on a malformed subsystem file")

    monkeypatch.setattr(cli, "run_corpus", no_checks)
    for i, (command, flag, content) in enumerate(malformed):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(content))
        args = [command, flag, str(path)] + (["--prime", "2"] if command == "classify" else [])
        code, _, err = run_cli(capsys, args)
        assert code == 3 and "error:" in err, (content, code, err)
    # a degree whose permutations would overrun the table budget exits 3 before
    # any of them is built; the address-space limit turns a regression into a
    # MemoryError instead of gigabytes
    huge = tmp_path / "huge.json"
    huge.write_text('{"name": "X", "degree": 50000000, "generators": [[[1, 2]]]}')
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "fusionloc", "classify", "--file", str(huge), "--prime", "2"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr.startswith("error:") and "degree 50000000" in proc.stderr


@pytest.fixture
def small_corpus(monkeypatch):
    # patch the corpus to two small instances to keep the CLI tests fast
    import fusionloc.verifier as verifier

    small = (CorpusEntry("S3", 2), CorpusEntry("S3", 3))
    monkeypatch.setattr(verifier, "DEFAULT_CORPUS", small)
    monkeypatch.setattr(
        cli, "run_corpus",
        lambda **kw: verifier.run_corpus(entries=small, **kw),
    )


def test_verify_only_subset(capsys, tmp_path, small_corpus):
    def report(*args):
        out_json = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, ["verify", *args, "--json", str(out_json)])
        assert code == 0
        return json.loads(out_json.read_text())

    full = report()
    assert full["failures"] == 0
    assert full["checks"] == len(full["results"]) > 0
    globs = ("theta-*", "fusion-wellformed", "*locality*", "conjugation-*")
    cases = [(glob, ()) for glob in globs] + [("*locality*", ("--fail-fast",))]
    for glob, extra in cases:
        # --only selects the rows of the full report, in the same order
        rows = [r for r in full["results"] if fnmatch.fnmatch(r["check_id"], glob)]
        assert rows, glob
        got = report("--only", glob, *extra)
        assert got == {"results": rows, "failures": 0, "checks": len(rows)}


def test_verify_only_without_match(capsys, small_corpus):
    # a glob that selects no check is an input error, not an empty success
    code, out, err = run_cli(capsys, ["verify", "--only", "no-such-check"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "no-such-check" in err


def test_verify_unknown_check_builds_no_instance(capsys, monkeypatch):
    # --only is matched against the stage table's ids before any instance is built
    import fusionloc.verifier as verifier

    built = []
    real = verifier.build_instance
    monkeypatch.setattr(verifier, "build_instance", lambda e: built.append(e) or real(e))
    code, out, err = run_cli(capsys, ["verify", "--only", "no-such-check"])
    assert (code, out, built) == (3, "", [])
    assert "no-such-check" in err


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from fusionloc.verifier import CheckResult, CorpusReport

    fake = CorpusReport(
        results=(
            CheckResult("inclusion-chain", "X@p2", "fail", witness="subgroup <1>"),
        )
    )
    monkeypatch.setattr(cli, "run_corpus", lambda **kw: fake)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 2
    assert "fail" in out


def test_supplied_subsystem_file(capsys, tmp_path):
    spec = {
        # A4 and S4 itself, both of p-power index
        "S4@p2": [
            {"normal": [[[1, 2, 3]], [[2, 3, 4]]], "kind": "p-power"},
            {"normal": [[[1, 2, 3, 4]], [[1, 2]]], "kind": "p-power"},
        ],
        "SL23@p2": [
            {
                "normal": [[[1, 3, 2, 6], [4, 5, 8, 7]], [[1, 4, 2, 8], [3, 7, 6, 5]]],
                "kind": "p-prime",
            }
        ],
    }
    path = tmp_path / "subs.json"
    path.write_text(json.dumps(spec))
    import fusionloc.verifier as verifier

    loaded = cli._load_supplied_subsystems(str(path))
    assert set(loaded) == {"S4@p2", "SL23@p2"}
    report = verifier.run_corpus(
        entries=(CorpusEntry("S4", 2),),
        only="p-power-index-*",
        supplied_subsystems=loaded,
    )
    # one row per spec, each naming its subgroup
    s4 = builtin_group("S4")
    assert sorted((r.subject, r.status) for r in report.results) == sorted(
        (f"S4@p2/N={s4.subgroup_label(n)}", "pass") for n, _ in loaded["S4@p2"]
    )


@pytest.mark.parametrize(
    "run",
    [
        *(
            pytest.param(
                lambda e=e: run_instance_checks(build_instance(e)), id=f"{e.name}@p{e.prime}"
            )
            for e in DEFAULT_CORPUS
        ),
        pytest.param(
            lambda: cli.main(["classify", "--builtin", "S4", "--prime", "2"]), id="classify"
        ),
        pytest.param(
            lambda: cli.main(["build", "--builtin", "S4", "--prime", "2", "--objects", "all"]),
            id="build-all",
        ),
        pytest.param(
            lambda: cli.main(
                [
                    "build", "--builtin", "SL23", "--prime", "3",
                    "--objects", "delta-star", "--quotient-theta",
                ]
            ),
            id="build-theta",
        ),
        pytest.param(lambda: cli.main(["verify", "--json", os.devnull]), id="verify-json"),
    ],
)
def test_no_reference_cycles(capsys, run):
    # every fusionloc object, the CLI's argument parser and the JSON encoder
    # are freed by reference counting: no cache holds its owner, so none
    # waits for the cyclic collector
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        left = [
            type(o).__name__
            for o in gc.garbage
            if isinstance(
                o,
                (
                    FiniteGroup,
                    RealizedSubgroup,
                    FusionSystem,
                    Locality,
                    ArgumentParser,
                    json.JSONEncoder,
                ),
            )
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert left == []


def counting(monkeypatch, name):
    """Count the calls ``fusionloc.corpus``, where ``Instance`` derives its
    facts, makes to its global ``name``."""
    import fusionloc.corpus as corpus_module

    calls = []
    real = getattr(corpus_module, name)
    monkeypatch.setattr(corpus_module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_build_all_objects_builds_no_group_fusion_system(monkeypatch, capsys):
    rebuilds = []
    init = FusionSystem.__init__

    def counted(F, *args, **kwargs):
        init(F, *args, **kwargs)
        rebuilds.append(F.rebuild)

    monkeypatch.setattr(FusionSystem, "__init__", counted)
    code = cli.main(["build", "--builtin", "S4", "--prime", "2", "--objects", "all"])
    capsys.readouterr()
    assert code == 0
    assert rebuilds  # the locality's own fusion system is built
    assert not any(r.func is fusion_from_group for r in rebuilds if r is not None)


def test_classify_derives_delta_once_and_no_theta(monkeypatch, capsys):
    deltas = counting(monkeypatch, "delta_sets")
    thetas = counting(monkeypatch, "theta_quotient")
    assert cli.main(["classify", "--builtin", "SL23", "--prime", "3"]) == 0
    capsys.readouterr()
    assert len(deltas) == 1
    assert thetas == []


def test_instance_derives_each_fact_once():
    inst = build_instance(CorpusEntry("SL23", 3))
    assert inst.theta.deltas is inst.deltas
    assert inst.deltas.fusion is inst.fusion
    assert inst.fusion.rebuild.args == (inst.group, inst.sylow, inst.prime)


def test_object_sets_and_localities_on_s4(capsys):
    # at S4@p2 Delta = Delta* = every nontrivial subgroup of S
    build = ["build", "--builtin", "S4", "--prime", "2", "--objects"]
    for kind in OBJECT_KINDS:
        code, out, _ = run_cli(capsys, build + [kind])
        assert code == 0 and json.loads(out)["locality"]["label"] == "L(S4)", kind
    code, out, _ = run_cli(capsys, build + ["delta-star", "--quotient-theta"])
    assert code == 0 and json.loads(out)["locality"]["label"] == "L*(S4)"

    inst = build_instance(CorpusEntry("S4", 2))
    assert len(inst.objects("all")) == 9  # the nontrivial subgroups of D8
    assert "fusion" not in inst.__dict__  # "all" reads no F_S(G)
    L = inst.locality("all")
    assert inst.locality("delta-star") is L and inst.locality("centric") is not L
    # Theta quotients that same locality
    td = inst.theta
    assert inst.locality("all") is td.locality
    assert inst.locality("delta") is td.locality


@pytest.mark.parametrize("name, prime", [("S4", 2), ("C2xA5", 2), ("C2", 2)])
def test_classify_writes_dumps_bytes(capsys, name, prime):
    assert cli.main(["classify", "--builtin", name, "--prime", str(prime)]) == 0
    out = capsys.readouterr().out
    inst = Instance(CorpusEntry(name, prime), builtin_group(name))
    report = cli._classification_report(inst)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_json_writes_dumps_bytes(capsys, tmp_path, small_corpus):
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--json", str(path)]) == 0
    capsys.readouterr()
    report = cli.run_corpus().to_json_dict()
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
