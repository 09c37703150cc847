"""Command-line interface.

Subcommands: simulate, estimate, georef, evaluate, oracle. Exit status 0 on
success, 1 on fatal I/O or configuration errors, 2 on validation errors; an
epoch line that the reader skips is printed to stderr, and the step goes on.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import pipeline, streams
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InputError,
    InsufficientDataError,
    MgpError,
    ValidationError,
)
from .attitude import baseline_weights
from .mapping import Cloud, evaluate_reflectors, georeference_stream
from .oracles import wahba_svd
from .ordered import ordered_map
# scan_stream is not called here; perfbench/tracer.py wraps mgp.cli.scan_stream
from .simulator import load_scenario, scan_blocks, scan_stream, simulate
from .streams import (
    cloud_blocks,
    cloud_bytes,
    cloud_output,
    cloud_suffix,
    read_cloud,
    write_cloud,  # not called here; perfbench/tracer.py wraps mgp.cli.write_cloud
)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    blocks = None
    if args.scan is not None:
        # both faults before either stream starts
        if config.scanner is None:
            raise ConfigurationError("scenario has no scanner model, cannot write a scan stream")
        blocks = scan_blocks(config, config.scanner)  # checks the trajectory
    # one stream after the other, each writer sharing its blocks with a worker
    print(f"wrote {streams.write_epochs(args.out, simulate(config))} epochs to {args.out}")
    if blocks is not None:
        print(f"wrote {streams.write_scan(args.scan, blocks)} scan frames to {args.scan}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = pipeline.load_pipeline_config(args.config)
    overrides: dict[str, object] = {}
    if args.antennas is not None:
        items = args.antennas.split(",")
        # int() alone would also take "1_0" (10), padding and non-ASCII digits
        for item in items:
            if not (item.isascii() and item.isdigit()):
                raise ConfigurationError(
                    f"bad --antennas item {item!r} in {args.antennas!r}: "
                    "expected comma-separated antenna ids"
                )
        overrides["antenna_subset"] = tuple(map(int, items))
    if args.no_multipath_feedback:
        overrides["multipath_feedback"] = False
    if overrides:
        config = dataclasses.replace(config, **overrides)

    result = pipeline.run(streams.epoch_block_calls(args.epochs, config.layout), config)
    streams.write_poses(args.poses, result.poses)
    streams.write_json(args.metrics, result.metrics.to_json_dict())
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    print(
        f"processed {result.metrics.epochs} epochs "
        f"({result.metrics.skipped} skipped), poses in {args.poses}, "
        f"metrics in {args.metrics}"
    )
    return 0


def _cmd_georef(args: argparse.Namespace) -> int:
    suffix = cloud_suffix(args.cloud)  # an unsupported suffix fails before any input is read
    poses = streams.read_poses(args.poses)
    if not poses.complete.any():
        raise ValidationError(f"{args.poses}: no pose has both a position and an attitude")
    calib = streams.load_calibration(args.calib)

    def georef(chunk: tuple[int, list[str]]) -> tuple[bytes, int, int]:
        cloud, dropped = georeference_stream(poses, streams.scan_frames(args.scan, *chunk), calib)
        return cloud_bytes(cloud, suffix), len(cloud), dropped

    points = dropped = 0
    # a few chunks of scan lines in memory at a time, shared with the
    # worker; the cloud file appears whole or not at all
    with cloud_output(args.cloud) as out:
        for data, n, d in ordered_map(georef, streams.scan_chunks(args.scan)):
            out.write(data)
            points += n
            dropped += d
    print(f"wrote {points} points to {args.cloud} ({dropped} pulses dropped)")
    return 0


def _flagged(path: str, block: tuple[int, list[str] | bytes]) -> Cloud:
    cloud = read_cloud(path, block)
    return cloud.select(cloud.reflector)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    reflectors, radius, min_hits = streams.load_reflectors(args.reflectors)
    # the report reads only the flagged points: keep those of each block,
    # joined after an empty cloud, so that an empty file reads as one; a
    # .bin block costs no more to read than to pickle for the worker
    empty = Cloud(np.empty((0, 3)), np.empty(0, dtype=bool))
    mapped = map if cloud_suffix(args.cloud) == ".bin" else ordered_map
    flagged = mapped(lambda b: _flagged(args.cloud, b), cloud_blocks(args.cloud))
    cloud = Cloud.joined([empty, *flagged])
    report = evaluate_reflectors(cloud, reflectors, radius, min_hits)
    payload = {
        "per_reflector": [
            {
                "truth": [r.truth.x, r.truth.y, r.truth.z],
                "error": None if r.error is None else [r.error.x, r.error.y, r.error.z],
                "n_hits": r.n_hits,
                "resolved": r.resolved,
            }
            for r in report.per_reflector
        ],
        "rms_horizontal_m": report.rms_horizontal_m,
        "rms_vertical_m": report.rms_vertical_m,
        "unresolved": report.unresolved,
    }
    streams.write_json(args.report, payload)
    print(f"evaluated {len(report.per_reflector)} reflectors, report in {args.report}")
    return 0


def _cmd_oracle_wahba(args: argparse.Namespace) -> int:
    print("t,qx,qy,qz,qw")
    for block, skips in streams.read_epoch_blocks(args.epochs):
        for _, message in skips:
            print(message, file=sys.stderr)
        for t, a, b in zip(block.t.tolist(), block.baseline_ends, block.baseline_ends[1:]):
            fixed = block.baselines.select(slice(a, b)).fixed_only()
            try:
                q = wahba_svd(fixed, baseline_weights(fixed))
            except (InsufficientDataError, DegenerateGeometryError):
                continue
            print(f"{t!r},{q.qx!r},{q.qy!r},{q.qz!r},{q.qw!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgp",
        description="Multi-antenna GNSS attitude/position estimation and 3D mapping toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an epoch stream from a scenario")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output epoch JSONL path")
    p.add_argument("--scan", default=None, help="optional output scan JSONL path")
    p.set_defaults(func=_cmd_simulate, outputs=("out", "scan"))

    p = sub.add_parser("estimate", help="run the estimation pipeline over an epoch stream")
    p.add_argument("--epochs", required=True, help="input epoch JSONL path")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--poses", required=True, help="output pose CSV path")
    p.add_argument("--metrics", required=True, help="output metrics JSON path")
    p.add_argument("--antennas", default=None, help="comma-separated antenna ids to use")
    p.add_argument(
        "--no-multipath-feedback",
        action="store_true",
        help="disable satellite exclusion feedback",
    )
    p.set_defaults(func=_cmd_estimate, outputs=("poses", "metrics"))

    p = sub.add_parser("georef", help="georeference a scan stream with a pose trajectory")
    p.add_argument("--poses", required=True, help="pose CSV path")
    p.add_argument("--scan", required=True, help="scan JSONL path")
    p.add_argument("--calib", required=True, help="mount calibration JSON")
    p.add_argument("--cloud", required=True, help="output cloud path (.xyz or .bin)")
    p.set_defaults(func=_cmd_georef, outputs=("cloud",))

    p = sub.add_parser("evaluate", help="evaluate a cloud against surveyed reflectors")
    p.add_argument("--cloud", required=True, help="cloud path (.xyz or .bin)")
    p.add_argument("--reflectors", required=True, help="reflector JSON file")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_evaluate, outputs=("report",))

    p = sub.add_parser("oracle", help="independent reference implementations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    po = osub.add_parser("wahba-svd", help="SVD attitude oracle over an epoch stream")
    po.add_argument("--epochs", required=True, help="input epoch JSONL path")
    po.set_defaults(func=_cmd_oracle_wahba, outputs=())

    return parser


def _glue_antennas(argv: list[str]) -> list[str]:
    """``--antennas X`` as ``--antennas=X``, so that a value such as ``-1,3``
    reaches the id check instead of being read as an option (a value
    starting ``--`` is left to argparse)."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--antennas" and not arg.startswith("--"):
            out[-1] = f"--antennas={arg}"
        else:
            out.append(arg)
    return out


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Raise InputError naming the first output path whose directory does
    not exist, or two output options that name one file, so that a command
    fails before it reads any input rather than after all its work."""
    named: dict[str, str] = {}
    for name in args.outputs:
        path = getattr(args, name)
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"{path}: output directory does not exist")
        for other, seen in named.items():
            if _same_file(seen, path):
                raise InputError(f"--{other} {seen} and --{name} {path} name the same file")
        named[name] = path


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_antennas(argv))
    try:
        _check_output_dirs(args)
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (InputError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
