"""Run every workload over several seeds and record the baseline.

Usage (from the repository root):
    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For each workload: one untraced run.py run per seed, then one traced run on
the first seed, all at BENCHMARK.json's run_seconds. Prints, for every
end-to-end metric, the median and quartiles of the runs' values and their
spread (quartile distance over median) against the metric's bound in
BENCHMARK.json. Writes the same figures, the traced run's per-layer numbers
and shares, and the machine facts to ``--out``. Exits 1 when any run fails
an output check.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    path = WORK / "results" / f"{workload}-s{seed}-t{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record["exit_code"] = proc.returncode
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--out", default=None, help="baseline JSON to write")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    ok = True
    out: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in args.seeds]
        traced = _run(name, args.seeds[0], seconds, 1)
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced])
        out["machine"] = traced["machine"]
        e2e = {}
        print(f"== {name}: {len(runs)} runs, seeds {args.seeds}")
        for metric in runs[0]["end_to_end"]:
            values = [r["end_to_end"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            e2e[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": values}
            bound = bounds.get(metric)
            flag = "" if bound is None else f"bound {bound:.2f}" + (
                "  SPREAD OVER BOUND/3" if spread > bound / 3 else ""
            )
            print(f"  {metric:30s} {med:12.6g}  [{q1:.6g}, {q3:.6g}] spread {spread:.3f} {flag}")
        out["workloads"][name] = {
            "why": why[name],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["per_layer"].items()},
            "shares": traced["shares"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
