"""mgp benchmark: one workload's CLI chain, timed, traced on request, checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload survey-6ant --seed 1 --seconds 28 --trace 0

Each pass is a fresh child process (chain.py) that calls ``mgp.cli.main``
once per step. A run makes a fixed number of passes, set by ``--seconds``
and the workload's nominal pass length, never by how fast the passes go.
Each end-to-end metric reports its median over the run's untraced passes.
With ``--trace 1`` untraced and traced passes alternate: the traced ones
give the per-layer metrics, the untraced ones the base of
``trace.overhead_pct``. The last line of stdout is the JSON result; the full
record of the run goes to .perfbench_work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracer import (
    ESTIMATE_CONSENSUS, PULSE_PATH, layer_metrics, load_spans, self_share, step_shares,
)
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PASS_TIMEOUT_S = 150.0
# Multipath detection floors. A5 asks 0.9 of both on the bundled seed;
# recall varies by seed (0.82 to 1.0 over seeds 1-60 at 60 s), so the floor
# for recall sits below every seed's value and far above a broken detector's.
MIN_PRECISION = 0.9
MIN_RECALL = 0.7
# Horizontal reflector RMS above the A8 acceptance window means a wrong cloud.
MAX_REFLECTOR_RMS_H_M = 0.08

# Units of the metrics that only some workloads report, printed and
# recorded next to BENCHMARK.json's.
EXTRA_UNITS = {
    "simulate_s": "s",
    "georef_pulses_per_s": "pulses/s",
    "evaluate_s": "s",
    "failed_ops_pct": "%",
    "feedback_fix_rate_pct": "%",
    "reflector_rms_h_cm": "cm",
    "position_err_mm": "mm",
    "chain_wall_s": "s",
    "setup_wall_s": "s",
    "kernel_ms": "ms",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread of work: cap every BLAS/OpenMP pool numpy might start
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, wl: Workload, seed: int, run_dir: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.dir = run_dir
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def child(self, tag: str, steps: list[tuple[str, list[str]]], trace: bool) -> dict | None:
        spec = {
            "workdir": str(self.dir),
            "files": self.wl.files(ROOT),
            "steps": steps,
            "trace": trace,
            "run_id": f"{self.wl.name}-s{self.seed}-{tag}",
            "result": str(self.dir / f"result-{tag}.json"),
            "trace_out": str(self.dir / f"spans-{tag}.jsonl"),
            "eigen_epochs": str(self.dir / self.wl.epochs_file),
            "antennas": [int(a) for a in self.wl.antennas.split(",")] if self.wl.antennas else None,
        }
        spec_path = self.dir / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with open(self.dir / f"log-{tag}.txt", "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            with subprocess.Popen(
                [sys.executable, str(HERE / "chain.py"), str(spec_path), repr(t_spawn)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=str(self.dir),
            ) as proc:
                try:
                    rc = proc.wait(timeout=PASS_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    rc = None
                finally:
                    if proc.poll() is None:
                        proc.kill()
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8")) if rc == 0 else None
        if result is None or any(s["rc"] != 0 for s in result["steps"]):
            tail = (self.dir / f"log-{tag}.txt").read_text(encoding="utf-8").splitlines()[-20:]
            print(f"pass {tag} failed (exit {rc}); end of its log:", *tail, sep="\n", file=sys.stderr)
        return result


def _sha(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _pose_truth(record: dict) -> dict[str, list[float]]:
    return {"position": record["truth"]["position"], "attitude": record["truth"]["attitude"]}


def _read_truth(path: Path) -> dict[float, dict]:
    """Truth pose per epoch time, from an epoch stream written by simulate."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        return {d["t"]: _pose_truth(d) for d in map(json.loads, f)}


def _strip_truth(src: Path, dst: Path) -> dict[float, dict]:
    """Write ``src`` to ``dst`` with every record's truth nulled; return the
    truth pose per epoch time."""
    truth = {}
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        fout.write(fin.readline())
        for line in fin:
            d = json.loads(line)
            truth[d["t"]] = _pose_truth(d)
            d["truth"] = None
            fout.write(json.dumps(d) + "\n")
    return truth


def _record_bytes(path: Path) -> float:
    with open(path, "rb") as f:
        f.readline()
        sizes = [len(line) for line in f]
    return statistics.fmean(sizes)


def _count_pulses(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        f.readline()
        return sum(len(json.loads(line)["pulses"]) for line in f)


def _quat_angle_deg(a: list[float], b: list[float]) -> float:
    dot = abs(sum(x * y for x, y in zip(a, b)))
    norm = math.sqrt(sum(x * x for x in a) * sum(y * y for y in b))
    return math.degrees(2.0 * math.acos(min(1.0, dot / norm)))


def _pose_quality(poses: Path, truth: dict[float, dict]) -> dict[str, float]:
    rows = 0
    att = 0
    att_sq: list[float] = []
    pos_err: list[float] = []
    with open(poses, encoding="utf-8") as f:
        f.readline()
        for line in f:
            c = line.rstrip("\n").split(",")
            rows += 1
            tr = truth[float(c[0])]
            if c[1]:
                p = [float(x) for x in c[1:4]]
                pos_err.append(math.dist(p, tr["position"]))
            if c[9] == "1":
                att += 1
                att_sq.append(_quat_angle_deg([float(x) for x in c[4:8]], tr["attitude"]) ** 2)
    return {
        "rows": rows,
        "attitude_availability_pct": 100.0 * att / rows if rows else 0.0,
        "attitude_err_deg": math.sqrt(statistics.fmean(att_sq)) if att_sq else math.inf,
        "position_err_mm": 1000.0 * math.sqrt(statistics.fmean(e * e for e in pos_err))
        if pos_err else math.inf,
        "position_err_p50_mm": 1000.0 * statistics.median(pos_err) if pos_err else math.inf,
    }


@dataclass
class Pass:
    """Metrics of one pass; ``layers`` and ``shares`` only for a traced one."""

    traced: bool
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)


def run_pass(runner: Runner, index: int, traced: bool, ref: dict[str, Any]) -> Pass:
    wl, d = runner.wl, runner.dir
    p = Pass(traced)
    tag = f"p{index}"
    result = runner.child(tag, [(s, wl.argv(s, runner.seed)) for s in wl.steps], traced)
    steps = {s["name"]: s for s in (result or {}).get("steps", [])}
    all_ok = True
    for s in wl.steps:
        all_ok &= runner.op(f"pass {index}: step {s}", s in steps and steps[s]["rc"] == 0)
    if not all_ok:
        return p

    def op(name: str, ok: bool) -> None:
        runner.op(f"pass {index}: {name}", ok)

    if "simulate" in wl.steps:
        digest = {name: _sha(d / name) for name in ("epochs.jsonl", "scan.jsonl")
                  if (d / name).exists()}
        if "digest" not in ref:
            ref["digest"] = digest
            ref["truth"] = _read_truth(d / "epochs.jsonl")
            if (d / "scan.jsonl").exists():
                ref["pulses"] = _count_pulses(d / "scan.jsonl")
                ref["reflectors"] = json.loads(
                    (d / "reflectors.json").read_text(encoding="utf-8"))["reflectors"]
        op("simulate output identical to the first pass", digest == ref["digest"])
    if "epoch_bytes" not in ref:
        ref["epoch_bytes"] = _record_bytes(d / wl.epochs_file)
    truth = ref["truth"]

    metrics = json.loads((d / "metrics.json").read_text(encoding="utf-8"))
    q = _pose_quality(d / "poses.csv", truth)
    op("every generated epoch processed, none skipped",
       metrics["epochs"] == len(truth) and metrics["skipped"] == 0 and q["rows"] == len(truth))
    op("availability, attitude and position error within limits",
       q["attitude_availability_pct"] >= wl.min_availability_pct
       and q["attitude_err_deg"] <= wl.max_attitude_err_deg
       and q["position_err_mm"] <= wl.max_position_err_mm)

    m = p.metrics
    m.update(q)
    del m["rows"]
    m["setup_s"] = result["setup_s"]
    m["setup_wall_s"] = result["setup_wall_s"]
    m["kernel_ms"] = statistics.median(result["kernel_ms"])
    m["chain_s"] = sum(s["seconds"] for s in steps.values())
    m["chain_wall_s"] = sum(s["wall_s"] for s in steps.values())
    m["peak_rss_mb"] = result["peak_rss_mb"]
    m["estimate_epochs_per_s"] = metrics["epochs"] / steps["estimate"]["seconds"]
    if "simulate" in steps:
        m["simulate_s"] = steps["simulate"]["seconds"]

    raw = metrics["hybrid_fix_rate_pct"]
    fed = metrics["hybrid_fix_rate_multipath_pct"]
    det = metrics["multipath_detection"]
    if wl.feedback_gain:
        op("feedback fix rate above the raw rate", fed is not None and fed > raw)
        if fed is not None:
            m["feedback_fix_rate_pct"] = fed
        op(f"multipath precision >= {MIN_PRECISION} and recall >= {MIN_RECALL}",
           det["precision"] is not None and det["precision"] >= MIN_PRECISION
           and det["recall"] is not None and det["recall"] >= MIN_RECALL)
    if wl.field_stream:
        # without truth no requery can run, so feedback can change no fix
        op("no requery: feedback rate absent or equal to the raw rate",
           fed is None or fed == raw)
    if "georef" in wl.steps:
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        out = steps["georef"]["stdout"]
        points = int(out.split("wrote ")[1].split()[0])
        dropped = int(out.split("(")[1].split()[0])
        with open(d / "cloud.xyz", "rb") as f:
            lines = sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b""))
        op("every reflector resolved",
           len(report["per_reflector"]) == len(ref["reflectors"]) and report["unresolved"] == 0)
        op("cloud points equal pulses minus dropped",
           lines == points == ref["pulses"] - dropped)
        rms_h = report["rms_horizontal_m"]
        op("reflector horizontal RMS within the A8 window",
           rms_h is not None and rms_h <= MAX_REFLECTOR_RMS_H_M)
        m["reflector_rms_h_cm"] = 100.0 * (rms_h or 0.0)
        m["georef_pulses_per_s"] = ref["pulses"] / steps["georef"]["seconds"]
        m["evaluate_s"] = steps["evaluate"]["seconds"]

    if traced:
        spans = load_spans(str(d / f"spans-{tag}.jsonl"))
        p.layers = layer_metrics(spans, ("simulate", "estimate", "georef", "evaluate"))
        p.layers["attitude.solve_max_eigenpair_us"] = result["solve_max_eigenpair_us"]
        p.layers["streams.epoch_bytes"] = ref["epoch_bytes"]
        p.shares = {
            "consensus_self_over_estimate": self_share(spans, ESTIMATE_CONSENSUS, ("cli.estimate",)),
            "pulse_path_over_chain": self_share(
                spans, PULSE_PATH, tuple(f"cli.{s}" for s in wl.steps)
            ) if "georef" in wl.steps else 0.0,
            **step_shares(spans),
        }
        if wl.field_stream:
            op("no requery calls (traced)", p.layers["simulator.requery_calls"] == 0)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        shutil.copy(d / f"spans-{tag}.jsonl", trace_dir / f"{wl.name}-s{runner.seed}-{tag}.jsonl")
    return p


def prepare(runner: Runner, ref: dict[str, Any]) -> bool:
    """Untimed set-up: compile mgp's bytecode and, for a field stream, make
    the truth-free input once for this seed."""
    wl = runner.wl
    steps = []
    if wl.field_stream:
        steps = [("simulate", ["simulate", "--config", "scenario.json", "--seed",
                               str(runner.seed), "--out", "raw.jsonl"])]
    result = runner.child("setup", steps, False)
    ok = runner.op("set-up", result is not None and all(s["rc"] == 0 for s in result["steps"]))
    if ok and wl.field_stream:
        ref["truth"] = _strip_truth(runner.dir / "raw.jsonl", runner.dir / "field.jsonl")
        (runner.dir / "raw.jsonl").unlink()
    return ok


def _summary(values: list[float]) -> dict[str, Any]:
    """A metric's value, the median over passes, with its quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def machine() -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mgp" / "cli.py").is_file():
        print(f"error: no mgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(wl, args.seed, run_dir)
    ref: dict[str, Any] = {}
    passes: list[Pass] = []
    try:
        if prepare(runner, ref):
            for index in range(wl.passes(args.seconds)):
                traced = bool(args.trace) and index % 2 == 1
                passes.append(run_pass(runner, index, traced, ref))
                if runner.failed:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    plain = [p for p in passes if not p.traced and p.metrics]
    traced = [p for p in passes if p.traced and p.layers]
    e2e: dict[str, dict[str, Any]] = {}
    for name in sorted({k for p in plain for k in p.metrics}):
        e2e[name] = _summary([p.metrics[name] for p in plain if name in p.metrics])
    e2e["failed_ops_pct"] = _summary([100.0 * runner.failed / max(1, runner.attempted)])
    # per-layer metrics have no bound; each reads its median over traced passes
    layers: dict[str, dict[str, Any]] = {}
    shares: dict[str, float] = {}
    if traced:
        for name in traced[0].layers:
            layers[name] = _summary([p.layers[name] for p in traced])
        for name in traced[0].shares:
            shares[name] = statistics.median(p.shares[name] for p in traced)
        ratio = statistics.median(p.metrics["chain_s"] for p in traced) / e2e["chain_s"]["value"]
        layers["trace.overhead_pct"] = _summary([100.0 * (ratio - 1.0)])

    correct = runner.failed == 0 and bool(plain) and (not args.trace or bool(traced))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    out_metrics = {}
    if correct:
        out_metrics = {
            m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted
        }

    print(f"{wl.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{runner.attempted} operations, {runner.failed} failed")
    for f in runner.failures:
        print(f"  FAILED: {f}")
    for title, table in (("end to end", e2e), ("per layer", layers)):
        if table:
            print(f"  {title}: median [q1, q3] over n passes")
        for name, s in table.items():
            print(f"    {name:42s} {s['value']:14.6g} {units[name]:8s}"
                  f" [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
    for name, v in shares.items():
        print(f"    share {name:36s} {v:14.4f}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "failures": runner.failures,
        "end_to_end": e2e, "per_layer": layers, "shares": shares,
    }
    res_dir = WORK / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
