"""Command-line interface.

Commands:
  classify       per-subgroup classification report for a group's fusion system
  build          build a locality, verify it, export locality/transporter data
  verify         run the whole check matrix over the corpus
  list-builtins  show available builtin groups

Exit codes: 0 success, 2 verification failure, 3 input error, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .corpus import BUILTINS, DEFAULT_CORPUS, OBJECT_KINDS, CorpusEntry, Instance, builtin_group
from .errors import FusionlocError, ParseError, VerificationFailed
from .groups import load_group_file, perm_from_cycles, popcount, read_json_file
from .locality import (
    Locality,
    TransporterCategory,
    locality_head_json,
    transporter_category,
    transporter_head_json,
    transporter_to_dot,
    verify_locality,
)
from .verifier import CHECK_IDS, run_corpus, run_locality_checks

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3
EXIT_CLOSED_OUTPUT = 141


@dataclass(frozen=True)
class _Stream:
    """A JSON array that ``_write_json`` writes chunk by chunk.

    ``chunks(indent)`` yields nonempty runs of items, each item laid out as
    ``json.dumps(..., indent=2)`` lays out an array item at ``indent`` and
    the items of one run joined by ``",\n"``.
    """

    chunks: Callable[[str], Iterator[str]]


def _write_json(write: Callable[[str], object], obj, indent: str = "") -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` through ``write``,
    with every ``_Stream`` in ``obj`` written as the array of its chunks.

    Dicts are walked key by key in sorted order (their keys are strings),
    lists and tuples item by item; ``json.dumps`` sees only keys and scalars,
    so its pure-Python indenting encoder, which leaves a reference cycle
    behind on every call, never runs.
    """
    inner = indent + "  "
    if isinstance(obj, _Stream):
        sep = "[\n"
        for chunk in obj.chunks(inner):
            write(sep)
            write(chunk)
            sep = ",\n"
        write("[]" if sep == "[\n" else "\n" + indent + "]")
    elif isinstance(obj, dict) and obj:
        sep = "{\n"
        for key in sorted(obj):
            write(sep + inner + json.dumps(key) + ": ")
            _write_json(write, obj[key], inner)
            sep = ",\n"
        write("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        # one write per list: with a write per item (thousands for the head
        # of an order-720 locality), a one-pass in-process build of S6 at
        # p = 2 into a StringIO peaked at 44 instead of 39 MB RSS
        parts = []
        for item in obj:
            parts.append(",\n" + inner)
            _write_json(parts.append, item, inner)
        parts[0] = "[\n" + inner
        parts.append("\n" + indent + "]")
        write("".join(parts))
    else:
        write(json.dumps(obj))


def _open_out(path: str, mode: str = "w"):
    """``path`` opened for writing; a path that cannot be is an input error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(*paths: Optional[str]) -> None:
    """Fail before the work on an output path that cannot be opened for
    writing.  Appending leaves an existing file as it was and a file this
    creates is removed again, so a command that fails later leaves none."""
    for path in paths:
        if path is not None:
            existed = os.path.lexists(path)
            _open_out(path, "a").close()
            if not existed:
                os.remove(path)


def _dump(obj, path: Optional[str] = None) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, written to
    ``path`` or else to stdout."""
    if path is None:
        _write_json(sys.stdout.write, obj)
        sys.stdout.write("\n")
        return
    with _open_out(path) as fh:
        _write_json(fh.write, obj)
        fh.write("\n")


def _product_rows(L: Locality) -> _Stream:
    """``locality_to_json(L)["products"]``, one chunk per row of ``L.rows``."""

    def chunks(indent: str) -> Iterator[str]:
        inner = "\n" + indent + "  "
        # item (a, b, c) is head(a) + second[b] + third[c]
        second = [f"{x},{inner}" for x in range(L.size)]
        third = [f"{x}\n{indent}]" for x in range(L.size)]
        for a, row in enumerate(L.rows):
            head = f"{indent}[{inner}{a},{inner}"
            items = [second[b] + third[c] for b, c in enumerate(row) if c >= 0]
            if items:
                yield head + (",\n" + head).join(items)

    return _Stream(chunks)


def _morphism_blocks(tc: TransporterCategory) -> _Stream:
    """``transporter_to_json(tc)["morphisms"]``, 4096 items per chunk."""

    def chunks(indent: str) -> Iterator[str]:
        inner = "\n" + indent + "  "
        head = f'{indent}{{{inner}"dst": '
        f_key = f',{inner}"f": '
        src_key = f',{inner}"src": '
        tail = f"\n{indent}}}"
        ms, block = tc.morphisms, 4096
        for start in range(0, len(ms), block):
            yield ",\n".join(
                [
                    f"{head}{b}{f_key}{f}{src_key}{a}{tail}"
                    for f, a, b in ms[start : start + block]
                ]
            )

    return _Stream(chunks)


def _load_instance(args) -> Instance:
    if args.builtin is not None and args.file is not None:
        raise ParseError("give either --builtin or --file, not both")
    if args.builtin is not None:
        G = builtin_group(args.builtin)
    elif args.file is not None:
        G = load_group_file(args.file)
    else:
        raise ParseError("either --builtin or --file is required")
    return Instance(CorpusEntry(G.label, args.prime), G)


def _classification_report(inst: Instance) -> dict:
    F = inst.fusion
    base = inst.s_real.group
    table = F.classification_table()
    ds = inst.deltas
    class_id = {}
    classes_json = []
    for i, data in enumerate(F.classes()):
        for P in data.members:
            class_id[P] = i
        classes_json.append(
            {
                "id": i,
                "representative": base.subgroup_label(data.representative),
                "size": len(data.members),
                "member_orders": sorted(popcount(P) for P in data.members),
            }
        )
    records = []
    for P in sorted(F.subgroups(), key=lambda m: (-popcount(m), m)):
        c = table[P]
        records.append(
            {
                "order": popcount(P),
                "mask": P,
                "generators": [
                    base.element_label(g) for g in base.mask_generators(P)
                ],
                "class": class_id[P],
                "centric": c.centric,
                "quasicentric": c.quasicentric,
                "subcentric": c.subcentric,
                "radical": c.radical,
                "centric_radical": c.centric_radical,
                "normal": c.normal,
                "central": c.central,
                "fully_normalized": c.fully_normalized,
                "fully_centralized": c.fully_centralized,
                "in_delta": P in ds.delta,
                "in_delta_star": P in ds.delta_star,
            }
        )
    return {
        "group": inst.group.label,
        "order": inst.group.order,
        "prime": inst.prime,
        "sylow_order": popcount(inst.sylow),
        "saturated": F.is_saturated(),
        "classes": classes_json,
        "subgroups": records,
    }


def cmd_classify(args) -> int:
    _check_writable(args.out)
    _dump(_classification_report(_load_instance(args)), args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    if args.out:
        dot_path = args.out + ".transporter.dot" if args.export == "dot" else None
        _check_writable(args.out + ".locality.json", dot_path)
    inst = _load_instance(args)
    if args.quotient_theta and args.objects != "delta-star":
        raise ParseError("--quotient-theta requires --objects delta-star")
    if args.quotient_theta:
        td = inst.theta
        if td.findings:
            sys.stderr.write("".join(text + "\n" for _, text in td.findings))
            return EXIT_VERIFICATION
        L = td.quotient
        # printed as L*(G), over N if Theta is nontrivial; L(G) without the flag
        label = f"L*({inst.group.label})" + ("" if td.quotient_data is None else "/N")
    else:
        L = inst.locality(args.objects)
        label = L.label

    axioms = verify_locality(L)
    checks = run_locality_checks(L, subject=inst.instance_id)
    failures = [c for c in checks if c.status == "fail"]
    payload = {
        "locality": {**locality_head_json(L), "label": label, "products": _product_rows(L)},
        "axioms": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in axioms.checks
        ],
        "checks": [r.as_json() for r in checks],
    }
    tc = transporter_category(L)
    if args.export == "json":
        payload["transporter"] = {**transporter_head_json(tc), "morphisms": _morphism_blocks(tc)}
    dot = transporter_to_dot(tc, collapse=args.collapse) if args.export == "dot" else None

    if args.out:
        _dump(payload, args.out + ".locality.json")
        if dot is not None:
            with _open_out(args.out + ".transporter.dot") as fh:
                fh.write(dot)
        if not axioms.ok or failures:
            witnesses = {
                "axioms": [{"name": c.name, "witness": c.witness} for c in axioms.failures()],
                "checks": [r.as_json() for r in failures],
            }
            _dump(witnesses, args.out + ".witnesses.json")
    else:
        if dot is not None:
            payload["transporter_dot"] = dot
        _dump(payload)
    if not axioms.ok or failures:
        return EXIT_VERIFICATION
    return EXIT_OK


def _load_supplied_subsystems(path: str) -> dict:
    raw = read_json_file(path, "subsystem")
    if not isinstance(raw, dict):
        raise ParseError("subsystem file must map instance ids to lists of specs")
    names = {f"{e.name}@p{e.prime}": e.name for e in DEFAULT_CORPUS}
    out: dict[str, list[tuple[int, str]]] = {}
    for instance_id, entries in raw.items():
        if instance_id not in names:
            raise ParseError(f"{instance_id!r} is not a corpus instance id")
        G = builtin_group(names[instance_id])
        degree, perms = G.perm_rep
        index = {perm: i for i, perm in enumerate(perms)}
        if not isinstance(entries, list):
            raise ParseError(f"{instance_id}: expected a list of subsystem specs")
        lst = []
        for spec in entries:
            if not isinstance(spec, dict) or not isinstance(spec.get("normal"), list):
                raise ParseError(f"{instance_id}: each spec needs a 'normal' generator list")
            if spec.get("kind") not in ("p-power", "p-prime"):
                raise ParseError(
                    f"{instance_id}: 'kind' must be 'p-power' or 'p-prime', "
                    f"got {spec.get('kind')!r}"
                )
            gens = 0
            for cycles in spec["normal"]:
                perm = perm_from_cycles(cycles, degree)
                if perm not in index:
                    raise ParseError("generator not an element of the group")
                gens |= 1 << index[perm]
            n_mask = G.closure_mask(gens | 1)
            if not G.is_normal_mask(n_mask):
                raise ParseError(f"{instance_id}: 'normal' is not a normal subgroup")
            lst.append((n_mask, spec["kind"]))
        out[instance_id] = lst
    return out


def cmd_verify(args) -> int:
    if args.only is not None and not fnmatch.filter(CHECK_IDS, args.only):
        raise ParseError(f"--only {args.only!r} matches no check id")
    _check_writable(args.json)
    supplied = _load_supplied_subsystems(args.subsystems) if args.subsystems else None
    report = run_corpus(
        only=args.only,
        fail_fast=args.fail_fast,
        supplied_subsystems=supplied,
    )
    if args.json:  # before the table, which a closed stdout cuts short
        _dump(report.to_json_dict(), args.json)
    sys.stdout.write(report.to_table())
    return EXIT_VERIFICATION if report.failures else EXIT_OK


def cmd_list_builtins(_args) -> int:
    for name in sorted(BUILTINS):
        degree, gens = BUILTINS[name]
        sys.stdout.write(f"{name}: degree {degree}, {len(gens)} generators\n")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionloc",
        description="Fusion systems and localities over finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("--builtin", help="builtin group name")
        p.add_argument("--file", help="group JSON file")
        p.add_argument("--prime", type=int, required=True)

    c = sub.add_parser("classify", help="classification report for F_S(G)")
    add_group_args(c)
    c.add_argument("--out", help="write the JSON report to a file")
    c.set_defaults(func=cmd_classify)

    b = sub.add_parser("build", help="build and verify a locality")
    add_group_args(b)
    b.add_argument(
        "--objects",
        choices=OBJECT_KINDS,
        default="all",
    )
    b.add_argument("--quotient-theta", action="store_true")
    b.add_argument("--export", choices=["dot", "json"])
    b.add_argument("--collapse", action="store_true", help="collapse parallel edges in DOT")
    b.add_argument("--out", help="output path prefix")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the corpus check matrix")
    v.add_argument("--json", help="write the JSON report to a file")
    v.add_argument("--only", help="glob filter on check ids")
    v.add_argument("--fail-fast", action="store_true")
    v.add_argument("--subsystems", help="JSON file of supplied index subsystems")
    v.set_defaults(func=cmd_verify)

    lb = sub.add_parser("list-builtins", help="list builtin groups")
    lb.set_defaults(func=cmd_list_builtins)
    return parser


# built once: argparse's objects form cycles, so a parser per call waits for gc
PARSER = make_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at the exit flush
        return code
    except BrokenPipeError:
        # stdout on devnull: the exit flush drops the unwritten rest quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except (ParseError, FusionlocError) as exc:
        if isinstance(exc, VerificationFailed):
            sys.stderr.write(f"verification failed: {exc}\n")
            return EXIT_VERIFICATION
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
