"""Command line front end.

One subcommand per pipeline stage plus ``pipeline`` to run everything.
Stages communicate only through files in the ``--out`` directory, so any
prefix of the pipeline can be replayed or swapped out by hand.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig, apply_overrides, default_config, load_config
from .errors import ActionTubesError, InputError
from .pipeline import PIPELINE_ORDER, STAGES, run_pipeline

_STAGE_HELP = {
    "synth": "generate a synthetic scenario: ground truth, detections, "
             "proposals, matches, and feature files",
    "fuse": "fuse per-source detections into one stream per frame",
    "track": "link detections into tubes, one file pass per video",
    "score": "attach class scores and temporal profiles to tracked tubes",
    "prune": "drop overlapping duplicates and drifted tubes",
    "localize": "trim each tube to its best-scoring temporal extent",
    "evaluate": "score final tubes against ground truth and write the report",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="read configuration from a file of key = value lines")
    common.add_argument(
        "--out", metavar="DIR", default=".",
        help="directory holding every stage artifact (default: .)")
    common.add_argument(
        "--stage-override", metavar="KEY=VALUE", action="append",
        dest="overrides", default=[],
        help="override one configuration key; may be repeated")
    common.add_argument(
        "--seed", type=int, metavar="N",
        help="scenario seed; wins over synth.seed from other sources")

    parser = argparse.ArgumentParser(
        prog="actiontubes",
        description="Build, prune, and evaluate spatio-temporal action "
                    "tubes from per-frame detections.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINE_ORDER:
        subparsers.add_parser(name, parents=[common], help=_STAGE_HELP[name])
    subparsers.add_parser(
        "pipeline", parents=[common],
        help="run every stage in order: " + " ".join(PIPELINE_ORDER))
    return parser


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else default_config()
    config = apply_overrides(config, args.overrides)
    late = []
    if args.seed is not None:
        late.append(f"synth.seed={args.seed}")
    return apply_overrides(config, late)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        directory = Path(args.out)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"--out {directory} is not a usable "
                             f"directory: {exc.strerror}") from None
        if args.command == "pipeline":
            print(run_pipeline(directory, config).to_text())
        elif args.command == "evaluate":
            print(STAGES["evaluate"](directory, config).to_text())
        else:
            stats = STAGES[args.command](directory, config)
            parts = " ".join(f"{key}={value}"
                             for key, value in sorted(stats.items()))
            print(f"{args.command}: {parts}")
    except ActionTubesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
