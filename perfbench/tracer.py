"""Span tracing around the calls into mgp's modules, from outside ``src/``.

``Tracer.install`` replaces each traced public function at the name its
caller looks it up (``mgp.pipeline.ransac_attitude``, ``mgp.cli.read_cloud``,
...) with a wrapper that records one span per call. Generator functions get
one span per item they yield, so their cost lands inside the span of the
consumer (``simulate`` items nest in ``write_epochs``, ``read_scan`` items in
``georeference_stream``). Spans stay in memory until ``dump``.

``layer_metrics`` turns one chain's spans into the per-layer metrics of
BENCHMARK.json. A layer that did not run reads 0.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_FUNC, _GEN = "func", "gen"


def _ransac_attrs(result: Any, args: tuple) -> dict[str, Any]:
    return {
        "candidates": sum(1 for o in args[0] if o.fixed),
        "inliers": len(result.inlier_pairs),
        "iterations": result.iterations_used,
        "available": result.solution.available,
    }


# (module, attribute, span name, kind, attrs(result or item, args) -> dict | None)
TARGETS: list[tuple[str, str, str, str, Callable[[Any, tuple], dict] | None]] = [
    ("mgp.cli", "simulate", "simulator.simulate", _GEN, None),
    ("mgp.cli", "scan_stream", "simulator.scan_stream", _GEN,
     lambda frame, _: {"n": len(frame.pulses)}),
    ("mgp.streams", "write_epochs", "streams.write_epochs", _FUNC, lambda n, _: {"n": n}),
    ("mgp.streams", "read_epochs", "streams.read_epochs", _GEN, None),
    ("mgp.streams", "write_scan", "streams.write_scan", _FUNC, None),
    ("mgp.streams", "read_scan", "streams.read_scan", _GEN,
     lambda frame, _: {"n": len(frame.pulses)}),
    ("mgp.streams", "write_poses", "streams.write_poses", _FUNC, None),
    ("mgp.streams", "read_poses", "streams.read_poses", _FUNC, None),
    ("mgp.pipeline", "run", "pipeline.run", _FUNC,
     lambda r, _: {"epochs": r.metrics.epochs, "skipped": r.metrics.skipped}),
    ("mgp.pipeline", "process_epoch", "pipeline.process_epoch", _FUNC, None),
    ("mgp.pipeline", "detect_multipath", "multipath.detect_multipath", _FUNC,
     lambda rep, _: {"excluded": len(rep.excluded_sats)}),
    ("mgp.pipeline", "requery_epoch", "simulator.requery_epoch", _FUNC, None),
    ("mgp.pipeline", "ransac_attitude", "robust.ransac_attitude", _FUNC, _ransac_attrs),
    ("mgp.robust", "estimate_attitude", "attitude.estimate_attitude", _FUNC, None),
    ("mgp.pipeline", "hybrid_position", "positioning.hybrid_position", _FUNC, None),
    ("mgp.cli", "georeference_stream", "mapping.georeference_stream", _FUNC,
     lambda r, _: {"points": len(r[0]), "dropped": r[1]}),
    ("mgp.cli", "write_cloud", "mapping.write_cloud", _FUNC,
     lambda _, args: {"n": len(args[1])}),
    ("mgp.cli", "read_cloud", "mapping.read_cloud", _FUNC, lambda r, _: {"n": len(r)}),
    ("mgp.cli", "evaluate_reflectors", "mapping.evaluate_reflectors", _FUNC, None),
]


class Tracer:
    """In-memory span recorder. A span is [name, start_ns, end_ns, parent,
    attrs], where parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap_func(self, fn: Callable, name: str, attrs: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, {"raised": True})
                raise
            self._close(idx, attrs(result, args) if attrs else None)
            return result

        return traced

    def _wrap_gen(self, fn: Callable, name: str, attrs: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx, {"end": True})
                    return
                except BaseException:
                    self._close(idx, {"raised": True})
                    raise
                self._close(idx, attrs(item, args) if attrs else None)
                yield item

        return traced

    def install(self) -> None:
        for mod_name, attr, name, kind, attrs in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            wrap = self._wrap_gen if kind == _GEN else self._wrap_func
            setattr(module, attr, wrap(original, name, attrs))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps({
                    "run": run_id, "id": i, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "attrs": attrs,
                }) + "\n")


def load_spans(path: str) -> list[list[Any]]:
    with open(path, encoding="utf-8") as f:
        return [
            [d["name"], d["start_ns"], d["end_ns"], d["parent"], d["attrs"]]
            for d in map(json.loads, f)
        ]


def self_times(spans: list[list[Any]]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns).
    Children never overlap each other, since calls run on one thread."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list[Any]], steps: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced chain (units in BENCHMARK.json)."""
    selfs = self_times(spans)
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    by_name: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(i)

    def attr_sum(name: str, key: str) -> float:
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name.get(name, []))

    def items(name: str) -> int:
        # generator spans: one per yielded item plus the closing one
        return sum(1 for i in by_name.get(name, []) if not (spans[i][4] or {}).get("end"))

    epoch_ns = [spans[i][2] - spans[i][1] for i in by_name.get("pipeline.process_epoch", [])]
    epochs = len(epoch_ns)
    ransac = [spans[i][4] or {} for i in by_name.get("robust.ransac_attitude", [])]
    solved = [a for a in ransac if "iterations" in a]
    detect = by_name.get("multipath.detect_multipath", [])
    scan_pulses = attr_sum("simulator.scan_stream", "n")
    read_pulses = attr_sum("streams.read_scan", "n")
    cloud_points = attr_sum("mapping.georeference_stream", "points")
    p50 = p99 = 0.0
    if epoch_ns:
        ms = sorted(x / 1e6 for x in epoch_ns)
        p50 = statistics.median(ms)
        p99 = ms[min(len(ms) - 1, int(0.99 * len(ms)))]

    m = {
        "robust.ransac_us_per_epoch": _div(own.get("robust.ransac_attitude", 0) / 1e3, epochs),
        "robust.hypotheses_per_epoch": _div(sum(a["iterations"] for a in solved), len(solved)),
        "robust.inlier_ratio": _div(
            sum(a["inliers"] for a in solved), sum(a["candidates"] for a in solved)
        ),
        "robust.unavailable_epochs": float(
            sum(1 for a in ransac if not a.get("available", False))
        ),
        "attitude.refit_us_per_call": _div(
            total.get("attitude.estimate_attitude", 0) / 1e3,
            calls.get("attitude.estimate_attitude", 0),
        ),
        "multipath.detect_us_per_epoch": _div(
            total.get("multipath.detect_multipath", 0) / 1e3, epochs
        ),
        "multipath.excluded_sats_per_epoch": _div(
            attr_sum("multipath.detect_multipath", "excluded"), len(detect)
        ),
        "simulator.requery_us_per_call": _div(
            total.get("simulator.requery_epoch", 0) / 1e3, calls.get("simulator.requery_epoch", 0)
        ),
        "simulator.requery_calls": float(calls.get("simulator.requery_epoch", 0)),
        "simulator.simulate_us_per_epoch": _div(
            total.get("simulator.simulate", 0) / 1e3, items("simulator.simulate")
        ),
        "simulator.scan_stream_ns_per_pulse": _div(
            total.get("simulator.scan_stream", 0), scan_pulses
        ),
        "positioning.hybrid_position_us_per_epoch": _div(
            total.get("positioning.hybrid_position", 0) / 1e3, epochs
        ),
        "pipeline.epoch_p50_ms": p50,
        "pipeline.epoch_p99_ms": p99,
        "pipeline.self_us_per_epoch": _div(
            (own.get("pipeline.run", 0) + own.get("pipeline.process_epoch", 0)) / 1e3, epochs
        ),
        "pipeline.epochs_skipped": attr_sum("pipeline.run", "skipped"),
        "streams.read_epochs_us_per_epoch": _div(
            total.get("streams.read_epochs", 0) / 1e3, items("streams.read_epochs")
        ),
        "streams.write_epochs_us_per_epoch": _div(
            own.get("streams.write_epochs", 0) / 1e3, attr_sum("streams.write_epochs", "n")
        ),
        "streams.write_scan_ns_per_pulse": _div(own.get("streams.write_scan", 0), scan_pulses),
        "streams.read_scan_ns_per_pulse": _div(total.get("streams.read_scan", 0), read_pulses),
        "mapping.georef_ns_per_pulse": _div(
            own.get("mapping.georeference_stream", 0), read_pulses
        ),
        "mapping.kept_ratio": _div(cloud_points, read_pulses),
        "mapping.write_cloud_ns_per_point": _div(
            total.get("mapping.write_cloud", 0), attr_sum("mapping.write_cloud", "n")
        ),
        "mapping.read_cloud_ns_per_point": _div(
            total.get("mapping.read_cloud", 0), attr_sum("mapping.read_cloud", "n")
        ),
        "mapping.evaluate_ms": total.get("mapping.evaluate_reflectors", 0) / 1e6,
    }
    for step in steps:
        m[f"cli.{step}.self_s"] = own.get(f"cli.{step}", 0) / 1e9
    return m


# Span groups whose share the run prints: the consensus layers within
# `estimate`, and the pulse path within the whole chain.
ESTIMATE_CONSENSUS = ("robust.ransac_attitude", "attitude.estimate_attitude")
PULSE_PATH = (
    "simulator.scan_stream", "streams.write_scan", "streams.read_scan",
    "mapping.georeference_stream", "mapping.write_cloud", "mapping.read_cloud",
    "mapping.evaluate_reflectors",
)


def step_shares(spans: list[list[Any]]) -> dict[str, float]:
    """Self time of each span name over the time of the CLI step it runs in,
    keyed ``<span name>/<step>``; the step's own self time is included."""
    selfs = self_times(spans)
    step_of: list[int] = []
    step_ns: dict[int, int] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        root = step_of[parent] if parent >= 0 else i
        step_of.append(root)
        if root == i:
            step_ns[i] = end - start
    part: dict[tuple[str, int], int] = {}
    for i, s in enumerate(spans):
        key = (s[0], step_of[i])
        part[key] = part.get(key, 0) + selfs[i]
    out: dict[str, float] = {}
    for (name, root), ns in part.items():
        key = f"{name}/{spans[root][0].removeprefix('cli.')}"
        out[key] = out.get(key, 0.0) + _div(ns, step_ns[root])
    return out


def self_share(spans: list[list[Any]], names: tuple[str, ...], of: tuple[str, ...]) -> float:
    """Self time of the spans named ``names`` over the total time of ``of``."""
    selfs = self_times(spans)
    part = sum(selfs[i] for i, s in enumerate(spans) if s[0] in names)
    whole = sum(s[2] - s[1] for s in spans if s[0] in of)
    return _div(part, whole)
