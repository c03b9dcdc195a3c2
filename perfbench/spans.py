"""Per-layer spans and counts, recorded from outside fusionloc.

A traced pass wraps each layer's public entry points.  A function is wrapped
in every fusionloc module namespace that holds it by name (``cli``,
``verifier``, ``constructions`` and ``corpus`` import entry points of other
layers with ``from .x import y``); a method is wrapped on its class.  Spans
nest on one stack: a span's self time is its duration minus the time of the
spans it encloses.  Time spent in the tracer's own bookkeeping is charged to
no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import workloads

# (span name, fusionloc module, attribute path in that module)
SPANS = (
    ("fusion.fusion_from_group", "fusion", "fusion_from_group"),
    ("fusion.is_saturated", "fusion", "FusionSystem.is_saturated"),
    ("fusion.classification_table", "fusion", "FusionSystem.classification_table"),
    ("fusion.local_subsystem", "fusion", "FusionSystem.local_subsystem"),
    ("locality.locality_from_group", "locality", "locality_from_group"),
    ("locality.verify_locality", "locality", "verify_locality"),
    ("locality.is_partial_normal", "locality", "is_partial_normal"),
    ("locality.quotient", "locality", "quotient"),
    ("locality.transporter_category", "locality", "transporter_category"),
    ("groups.group_from_permutations", "groups", "group_from_permutations"),
    ("groups.cores", "groups", "cores"),
    ("groups.FiniteGroup.__init__", "groups", "FiniteGroup.__init__"),
    ("constructions.delta_sets", "constructions", "delta_sets"),
    ("constructions.theta_quotient", "constructions", "theta_quotient"),
    ("verifier.run_instance_checks", "verifier", "run_instance_checks"),
    ("verifier.run_group_checks", "verifier", "run_group_checks"),
    ("verifier.run_fusion_checks", "verifier", "run_fusion_checks"),
    ("verifier.run_locality_checks", "verifier", "run_locality_checks"),
    ("verifier.run_theta_checks", "verifier", "run_theta_checks"),
    ("verifier.run_censubsystem_checks", "verifier", "run_censubsystem_checks"),
    ("verifier.run_quotient_checks", "verifier", "run_quotient_checks"),
    ("corpus.build_instance", "corpus", "build_instance"),
    ("cli.main", "cli", "main"),
)

COUNTS = (
    "fusion.FusionSystem.built",
    "fusion.FusionSystem.distinct",
    "fusion.is_saturated.distinct",
    "locality.size.sum",
    "locality.prod2.sum",
    "verifier.checks",
    "verifier.checks_failed",
    "verifier.mutations.attempted",
    "verifier.mutations.detected",
)

# Spans that must record calls on the workload where their layer dominates;
# a traced run without them fails, because the tracer no longer sees the layer.
REQUIRED = {
    "corpus-verify": [
        name for name, module, _ in SPANS if module in ("fusion", "verifier", "corpus", "cli")
    ],
    "beyond-build": [
        name for name, module, _ in SPANS if module == "locality"
    ] + ["constructions.theta_quotient", "cli.main"],
    "classify-sweep": [
        name for name, module, _ in SPANS if module == "groups"
    ] + ["constructions.delta_sets", "cli.main"],
    "mutation-detect": ["corpus.build_instance", "locality.verify_locality"],
}

HIGHER_IS_BETTER = {"verifier.checks", "verifier.mutations.attempted", "verifier.mutations.detected"}


def op_names() -> list[str]:
    """Operation names over all full workloads, plus the corpus instances
    that ``corpus-verify`` times through ``run_instance_checks``."""
    names = {workloads.instance_name(e.name, e.prime) for e in workloads.corpus.DEFAULT_CORPUS}
    for workload in workloads.WORKLOADS:
        names.update(op.name for op in workloads.load(workload, 0, "", {}))
    names.discard("corpus")  # one verify call; its time is trace.wall_s
    return sorted(names)


def per_layer_metrics() -> list[dict]:
    """The per-layer metrics a traced run reports, as in BENCHMARK.json."""
    out = []
    for name, _, _ in SPANS:
        out.append({"name": name + ".self_s", "unit": "s", "better": "lower"})
        out.append({"name": name + ".calls", "unit": "count", "better": "lower"})
    for name in COUNTS:
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        out.append({"name": name, "unit": "count", "better": better})
    out.append({"name": "trace.wall_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    for name in op_names():
        out.append({"name": f"op.{name}.s", "unit": "s", "better": "lower"})
    return out


def _fusion_key(F) -> tuple:
    return (id(F.base), F.carrier, frozenset(F.maps_from.items()))


class Tracer:
    """Spans and counts of one traced pass; ``install`` wraps, ``uninstall``
    restores the originals."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, seconds covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self._fusion_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._bases: dict[int, object] = {}  # keeps the ids in fusion keys unique
        self._distinct_built: set = set()
        self._distinct_saturated: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        hooks = {name: self._on_checks for name, _, _ in SPANS if name.startswith("verifier.run_")}
        hooks["verifier.run_instance_checks"] = self._on_instance_checks
        hooks["fusion.is_saturated"] = self._on_saturated
        for name, module, attr in SPANS:
            owner, leaf, original = self._resolve(module, attr)
            wrapper = self._span(name, original, hooks.get(name))
            self._patch_everywhere(owner, leaf, original, wrapper)
        for module, attr, hook in (
            ("fusion", "FusionSystem.__init__", self._on_fusion_built),
            ("locality", "Locality.__init__", self._on_locality_built),
        ):
            owner, leaf, original = self._resolve(module, attr)
            self._patch(owner, leaf, self._counted(original, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module: str, attr: str):
        owner = importlib.import_module("fusionloc." + module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf, vars(owner)[leaf]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, owner, leaf: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patch(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "fusionloc" and vars(mod).get(leaf) is original:
                self._patch(mod, leaf, wrapper)

    def _span(self, name: str, fn, hook):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[name] += t1 - t0 - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(args, result, t1 - t0)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return traced

    def _counted(self, init, hook):
        stack = self.stack

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            t0 = perf_counter()
            hook(obj)
            if stack:
                stack[-1][1] += perf_counter() - t0

        return counted

    # -- counts ---------------------------------------------------------------

    def _key_of(self, F) -> tuple:
        key = self._fusion_keys.get(F)
        if key is None:
            key = self._fusion_keys[F] = _fusion_key(F)
            self._bases[id(F.base)] = F.base
        return key

    def _on_fusion_built(self, F) -> None:
        self.counts["fusion.FusionSystem.built"] += 1
        self._distinct_built.add(self._key_of(F))

    def _on_locality_built(self, L) -> None:
        self.counts["locality.size.sum"] += L.size
        self.counts["locality.prod2.sum"] += len(L.prod2)

    def _on_saturated(self, args, _result, _seconds) -> None:
        self._distinct_saturated.add(self._key_of(args[0]))

    def _on_checks(self, _args, results, _seconds) -> None:
        # count each result once: at the outermost check runner only
        if any(frame[0].startswith("verifier.run_") for frame in self.stack):
            return
        self.counts["verifier.checks"] += len(results)
        self.counts["verifier.checks_failed"] += sum(r.status == "fail" for r in results)

    def _on_instance_checks(self, args, results, seconds) -> None:
        inst = args[0]
        self.op_s[workloads.instance_name(inst.entry.name, inst.prime)] += seconds
        self._on_checks(args, results, seconds)

    # -- report ---------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric, given the traced pass's seconds and the
        untraced median pass."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".calls"] = self.calls[name]
        counts = dict(self.counts)
        counts["fusion.FusionSystem.distinct"] = len(self._distinct_built)
        counts["fusion.is_saturated.distinct"] = len(self._distinct_saturated)
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        out["trace.wall_s"] = traced_s
        out["trace.overhead_s"] = traced_s - untraced_s
        for name in op_names():
            out[f"op.{name}.s"] = self.op_s.get(name, 0.0)
        return out

    def missing(self, workload: str) -> list[str]:
        """Required spans that recorded no call on ``workload``."""
        return [name for name in REQUIRED.get(workload, ()) if not self.calls[name]]
