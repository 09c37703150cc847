"""One pass of a workload's CLI chain, in a fresh interpreter.

Usage: python3 chain.py SPEC_JSON SPAWN_MONOTONIC

run.py starts this script once per timed pass. SPEC_JSON names the work
directory, the config files to write there, the CLI steps (argv lists for
``mgp.cli.main``) and whether to trace. SPAWN_MONOTONIC is the parent's
``time.monotonic()`` just before the start, so ``setup_s`` covers interpreter
start, ``import mgp`` and writing the configs. Each time is reported both as
wall time and scaled by the host's speed (``kernel_ms``). The result goes to
the JSON file the spec names.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

# Host speed. The shared host this benchmark was built on runs the same code
# up to twice as fast at one minute as at the next (README, Noise). A fixed
# reference kernel is timed right after set-up and after every step, and each
# time is reported scaled to a host on which the kernel takes REF_KERNEL_MS:
# a step's wall time * REF_KERNEL_MS / the mean kernel time just before and
# just after it; set-up's wall time * REF_KERNEL_MS / the pass's median
# kernel time.
REF_KERNEL_MS = 4.0
KERNEL_REPS = 25
_RECORD = json.dumps({"t": 1.5, "sats": [{"id": f"G{i:02d}", "snr": [40.5, 41.0, 39.5],
                                          "dd": [0.125, -3.5, 7.25]} for i in range(6)]})
_K = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.1


def _kernel() -> float:
    """A fixed mix of the chain's kinds of work: JSON parsing, small Python
    objects and arithmetic, and small numpy eigen solves."""
    acc = 0.0
    for _ in range(80):
        rec = json.loads(_RECORD)
        for sat in rec["sats"]:
            acc += sum(sat["snr"]) / len(sat["snr"]) + max(sat["dd"])
    d: dict[int, float] = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    for _ in range(240):
        acc += float(np.linalg.eigh(_K)[0][-1])
    return acc + sum(d.values())


def kernel_ms() -> float:
    """Mean wall time of the reference kernel over KERNEL_REPS runs, in ms."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPS):
        _kernel()
    return (time.perf_counter() - t0) * 1e3 / KERNEL_REPS


def _solve_max_eigenpair_us(epochs_path: str, antennas: list[int] | None) -> float:
    """Median time of one public eigen solve on the two-baseline Davenport
    matrices of the stream's first epochs (fixed, non-collinear pairs)."""
    import itertools
    import math

    import numpy as np
    from mgp import baseline_weights, davenport_matrix, solve_max_eigenpair
    from mgp.robust import MIN_PAIR_ANGLE_DEG
    from mgp.streams import read_epochs

    keep = set(antennas) if antennas else None
    min_cross = math.sin(math.radians(MIN_PAIR_ANGLE_DEG))
    mats = []
    for epoch in itertools.islice(read_epochs(epochs_path), 20):
        fixed = [
            o for o in epoch.baselines
            if o.fixed and (keep is None or set(o.antenna_pair) <= keep)
        ]
        for a, b in itertools.combinations(fixed, 2):
            cross = np.linalg.norm(np.cross(a.w.as_array(), b.w.as_array()))
            if cross >= min_cross * a.w.norm() * b.w.norm():
                mats.append(davenport_matrix([a, b], baseline_weights([a, b])))
    if not mats:
        return 0.0
    per_call = []
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline or len(per_call) < 5:
        t0 = time.perf_counter_ns()
        for k in mats:
            solve_max_eigenpair(k)
        per_call.append((time.perf_counter_ns() - t0) / 1e3 / len(mats))
    return statistics.median(per_call)


def main() -> int:
    spec_path, t_spawn = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    import mgp.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(spec["workdir"])
    for name, payload in spec["files"].items():
        with open(name, "w", encoding="utf-8") as f:
            json.dump(payload, f)
    setup_wall_s = time.monotonic() - t_spawn
    kernel = [kernel_ms()]

    steps = []
    for name, argv in spec["steps"]:
        out = io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out):
                rc = mgp.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        wall_s = time.perf_counter() - t0
        kernel.append(kernel_ms())
        steps.append({
            "name": name, "rc": rc, "wall_s": wall_s,
            "seconds": wall_s * 2.0 * REF_KERNEL_MS / (kernel[-2] + kernel[-1]),
            "stdout": out.getvalue(),
        })
        if rc != 0:
            break
    result = {
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * REF_KERNEL_MS / statistics.median(kernel),
        "kernel_ms": kernel,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        tracer.dump(spec["trace_out"], spec["run_id"])
        result["solve_max_eigenpair_us"] = _solve_max_eigenpair_us(
            spec["eigen_epochs"], spec.get("antennas")
        )
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
