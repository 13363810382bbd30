"""Spans around the public functions of every kolbounds module.

The traced run patches each target under every name its callers look it up
by: the attribute on its own module or class, and any module global that
holds the same function object (bounds imports gradient and apply_L_power by
name, so bounds.gradient is patched as well as chaos.gradient). Nothing under
src/ changes; uninstall() puts every original back.

A span records its name, start, end, parent span and a run id (pass/job).
Spans stay in memory until the run writes them out. Monte Carlo chunks drawn
in worker threads take the enclosing chunked_draws span as their parent, so
self times stay attributed across threads. A span's self time is its
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    extra: dict | None


def _copies(G, n: int) -> int:
    """Copies of template G in K_n: n!/(n-k)! over its automorphism count."""
    edges = set(G.edges)
    aut = sum(
        1
        for perm in itertools.permutations(range(G.n_vertices))
        if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
    )
    return math.perm(n, G.n_vertices) // aut


def _simulate_extra(b) -> dict:
    G, n = b.arguments["G"], b.arguments["n"]
    size = b.arguments["size"]
    draws = 1 if size is None else int(size)
    batch = min(b.arguments["batch"], draws)
    kind = G.kind
    # Bytes of one batch array, computed from shapes: batch x copies x edges
    # for the generic gather, batch x n x n for the closed-form counters.
    width = _copies(G, n) * G.n_edges if kind == "generic" else n * n
    return {"kind": kind, "draws": draws, "batch_bytes": 8 * batch * width}


def _chunk_extra(b) -> dict:
    from kolbounds import mc

    total, chunk = b.arguments["total"], b.arguments["chunk"]
    return {"chunks": math.ceil(total / chunk), "workers": mc.worker_count()}


# (module, attribute path, extra-fields function of the bound arguments)
TARGETS = [
    ("hoeffding", "scale_grades", lambda b: {"points": b.arguments["X"].space.size}),
    ("hoeffding", "project", None),
    ("bounds", "master_bound", None),
    ("bounds", "fourth_moment_check", None),
    ("bounds", "single_order_bounds", None),
    ("chaos", "apply_L_power", None),
    ("chaos", "gradient", None),
    ("chaos", "multiply", None),
    ("chaos", "decompose", None),
    ("space", "OutcomeSpace.__init__", None),
    ("space", "RandomFunctional.moment", None),
    ("qform", "analyze", None),
    ("qform", "largest_abs_eigenvalue", None),
    ("qform", "trace_chain", None),
    ("qform", "q_functional", None),
    ("qform", "q_samples", lambda b: {"draws": b.arguments["size"]}),
    ("ustat", "ustat_sample", lambda b: {"draws": b.arguments["size"]}),
    ("ustat", "ustat_functional", None),
    ("ustat", "ustat_rate", None),
    ("graphweigh", "simulate_weight", _simulate_extra),
    ("graphweigh", "GraphSpec.copies_in", lambda b: {"key": repr((b.arguments["self"], b.arguments["n"]))}),
    ("dist", "Distribution.sample", lambda b: {"draws": b.arguments["size"] or 1}),
    ("dist", "Distribution.moments", None),
    ("mc", "exact_kdist", None),
    ("mc", "empirical_kdist", None),
    ("mc", "normal_cdf", None),
    ("mc", "chunked_draws", _chunk_extra),
    ("verify", "run_suite", None),
    ("cli", "main", None),
]

MODULES = sorted({m for m, _, _ in TARGETS})
DRAW_SPAN = "mc.chunked_draws.draw"
SAMPLERS = ("qform.q_samples", "graphweigh.simulate_weight", "ustat.ustat_sample", "dist.Distribution.sample")
KINDS = ("triangle", "four_cycle", "generic")


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, extra=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.run, extra))

    def _wrap(self, name: str, fn, extra_of):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if extra_of is None:
                return self._call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "mc.chunked_draws":
                return self._chunked(fn, bound, extra_of(bound))
            return self._call(name, fn, args, kwargs, extra_of(bound))

        return functools.wraps(fn)(traced)

    def _chunked(self, fn, bound, extra):
        draw = bound.arguments["draw"]

        def body():
            # The draw callback may run in a worker thread whose stack is
            # empty, so its span names this chunked_draws span as parent.
            parent = self._stack()[-1]

            def traced_draw(rng, size):
                return self._call(DRAW_SPAN, draw, (rng, size), {}, parent=parent)

            bound.arguments["draw"] = traced_draw
            return fn(*bound.args, **bound.kwargs)

        return self._call("mc.chunked_draws", body, (), {}, extra)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"kolbounds.{m}") for m in MODULES}
        for module, path, extra_of in TARGETS:
            owner = modules[module]
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self._wrap(_span_name(module, path), orig, extra_of)
            self._patch(owner, attr, orig, wrapped)
            if not owners:
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            self._patch(other, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(path: Path, spans: list[Span]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# name -> (unit, better); the traced run prints exactly these, in this order.
PER_LAYER = {
    "hoeffding.scale_grades.calls": ("count", "lower"),
    "hoeffding.scale_grades.self_s": ("s", "lower"),
    "hoeffding.scale_grades.points": ("count", "lower"),
    "hoeffding.project.self_s": ("s", "lower"),
    "bounds.master_bound.calls": ("count", "lower"),
    "bounds.master_bound.self_s": ("s", "lower"),
    "bounds.fourth_moment_check.self_s": ("s", "lower"),
    "bounds.single_order_bounds.self_s": ("s", "lower"),
    "chaos.apply_L_power.self_s": ("s", "lower"),
    "chaos.gradient.self_s": ("s", "lower"),
    "chaos.multiply.self_s": ("s", "lower"),
    "chaos.decompose.self_s": ("s", "lower"),
    "space.OutcomeSpace.calls": ("count", "lower"),
    "space.RandomFunctional.moment.calls": ("count", "lower"),
    "space.RandomFunctional.moment.self_s": ("s", "lower"),
    "qform.analyze.self_s": ("s", "lower"),
    "qform.largest_abs_eigenvalue.calls": ("count", "lower"),
    "qform.largest_abs_eigenvalue.self_s": ("s", "lower"),
    "qform.largest_abs_eigenvalue.calls_per_analyze": ("ratio", "lower"),
    "qform.trace_chain.self_s": ("s", "lower"),
    "qform.q_functional.self_s": ("s", "lower"),
    "qform.q_samples.self_s": ("s", "lower"),
    "qform.q_samples.draws": ("count", "higher"),
    "ustat.ustat_sample.self_s": ("s", "lower"),
    "ustat.ustat_sample.draws": ("count", "higher"),
    "ustat.ustat_functional.self_s": ("s", "lower"),
    "ustat.ustat_rate.self_s": ("s", "lower"),
    **{f"graphweigh.simulate_weight.{k}.{q}": u for k in KINDS
       for q, u in (("self_s", ("s", "lower")), ("draws", ("count", "higher")))},
    "graphweigh.simulate_weight.batch_bytes": ("B", "lower"),
    "graphweigh.GraphSpec.copies_in.calls": ("count", "lower"),
    "graphweigh.GraphSpec.copies_in.calls_per_key": ("ratio", "lower"),
    "dist.Distribution.sample.self_s": ("s", "lower"),
    "dist.Distribution.sample.draws": ("count", "higher"),
    "dist.Distribution.moments.calls": ("count", "lower"),
    "mc.exact_kdist.self_s": ("s", "lower"),
    "mc.empirical_kdist.self_s": ("s", "lower"),
    "mc.normal_cdf.self_s": ("s", "lower"),
    "mc.chunked_draws.chunks": ("count", "lower"),
    "mc.chunked_draws.wall_s": ("s", "lower"),
    "mc.chunked_draws.utilisation": ("fraction", "higher"),
    "verify.run_suite.calls": ("count", "lower"),
    "verify.run_suite.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.main.errors": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "failed_frac": ("fraction", "lower"),
}


def pass_metrics(spans: list[Span], cli_errors: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the trace.* and
    failed_frac entries, which need the untraced pass and the gate)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall: dict[str, float] = {}
    extra_sum: dict[str, float] = {}
    copies_keys: set[str] = set()
    batch_bytes = 0
    draw_time = 0.0
    busy_capacity = 0.0
    for s in spans:
        name = s.name
        if name == "graphweigh.simulate_weight":
            name = f"{name}.{s.extra['kind']}"
            batch_bytes = max(batch_bytes, s.extra["batch_bytes"])
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[s.id]
        wall[name] = wall.get(name, 0.0) + (s.end - s.start)
        for k, v in (s.extra or {}).items():
            if isinstance(v, (int, float)):
                extra_sum[f"{name}.{k}"] = extra_sum.get(f"{name}.{k}", 0) + v
        if s.name == "graphweigh.GraphSpec.copies_in":
            copies_keys.add(s.extra["key"])
        if s.name == DRAW_SPAN:
            draw_time += s.end - s.start
        if s.name == "mc.chunked_draws":
            busy_capacity += (s.end - s.start) * s.extra["workers"]

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        fn, _, q = metric.rpartition(".")
        if q == "calls":
            out[metric] = float(calls.get(fn, 0))
        elif q == "self_s":
            out[metric] = self_s.get(fn, 0.0)
        elif q in ("draws", "points", "chunks"):
            out[metric] = float(extra_sum.get(metric, 0))
    out["graphweigh.simulate_weight.batch_bytes"] = float(batch_bytes)
    analyze = calls.get("qform.analyze", 0)
    out["qform.largest_abs_eigenvalue.calls_per_analyze"] = (
        calls.get("qform.largest_abs_eigenvalue", 0) / analyze if analyze else 0.0
    )
    copies = calls.get("graphweigh.GraphSpec.copies_in", 0)
    out["graphweigh.GraphSpec.copies_in.calls_per_key"] = copies / len(copies_keys) if copies_keys else 0.0
    out["mc.chunked_draws.wall_s"] = wall.get("mc.chunked_draws", 0.0)
    out["mc.chunked_draws.utilisation"] = draw_time / busy_capacity if busy_capacity else 0.0
    out["cli.main.errors"] = float(cli_errors)
    return out


def shares(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Self time per span name as a share of the pass's wall time."""
    selfs = self_times(spans)
    acc: dict[str, float] = {}
    for s in spans:
        acc[s.name] = acc.get(s.name, 0.0) + selfs[s.id]
    return {k: v / wall_s for k, v in sorted(acc.items(), key=lambda kv: -kv[1])}


def design_check(workload: str, share: dict[str, float], spans: list[Span]) -> dict:
    """Does the traced pass confirm the workload's stated design?"""
    top = next(iter(share), None)
    if workload == "exact-large":
        claim = "hoeffding.scale_grades holds the largest self-time share"
        holds = top == "hoeffding.scale_grades"
    elif workload == "mc-sweep":
        sampler = sum(v for k, v in share.items() if k in SAMPLERS)
        rest = max((v for k, v in share.items() if k not in SAMPLERS), default=0.0)
        claim = "the samplers together hold more self time than any other function"
        holds = sampler > rest
    else:
        group = share.get("qform.largest_abs_eigenvalue", 0.0) + share.get("cli.main", 0.0)
        rest = max((v for k, v in share.items() if k not in ("qform.largest_abs_eigenvalue", "cli.main")),
                   default=0.0)
        claim = "largest_abs_eigenvalue plus cli self time lead, and no sampler runs"
        holds = group > rest and not any(s.name in SAMPLERS for s in spans)
    return {"claim": claim, "holds": holds, "top": {k: round(v, 4) for k, v in list(share.items())[:6]}}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
