#!/usr/bin/env python3
"""Stage-by-stage benchmark of the actiontubes command line.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Each pipeline run is the composed
form a user types: ``actiontubes synth --seed N`` and then ``fuse``,
``track``, ``score``, ``prune``, ``localize`` and ``evaluate`` on the
same ``--out`` directory, each stage its own child process reaped with
``os.wait4`` so that every stage gets its own wall time and peak RSS.
Runs are closed loop and sequential: the next pipeline starts when the
previous one has finished, and pipelines repeat until ``--seconds``
would be exceeded (at least once per scenario untraced, and at least
``TRACED_CYCLES`` cycles traced).  Every run uses a fresh output
directory under ``.perfbench_work/``, removed after it is measured.

Times are reported in *calibrated seconds*.  The CPU speed of a shared
host drifts by 25-50% over seconds to minutes, which moves raw wall
times of the same input by as much.  So the parent times a fixed
pure-Python loop (``calibrate``) right before every stage and after the
last, and each stage's wall time is scaled by ``REFERENCE_CAL_S`` over
the mean of the two loop times around it: the time the stage would
take on a host where the loop takes ``REFERENCE_CAL_S``.  The loop is
benchmark code, so a change to the program moves calibrated times as
much as raw ones.  The raw wall time and the loop time are reported
with the per-layer metrics (``pipeline.wall_s``, ``host.calibration_s``).

One benchmark seed S stands for the workload's ``scenarios`` count K of
scenarios, synth seeds S*K ... S*K+K-1, which the untraced runs take in
turn.  The quality metrics are their mean: a few videos per scenario
keep one pipeline short, and the mean over K scenarios keeps video-mAP
from swinging with one seed's handful of tubes.  Traced runs all use
the first scenario, so their counts repeat exactly.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (medians over the runs).  With ``--trace 1`` every
untraced run is followed by a traced one (``trace_stage.py``), and the
JSON holds the per-layer metrics; the printed table also shows the
layer times left out of the JSON because some workload never calls
them.  Workloads, their overrides and the layer to end-to-end mapping
live in ``workloads.json``.

Correctness: every stage must exit 0 and leave its output file; the
sha256 of ``tubes_final.tsv`` and ``metrics.tsv`` must be the same in
every run of the invocation, traced runs included; ``metrics.tsv`` must
parse with every AP, mAP, AUC and recall in [0, 1].  A failed stage,
or a run whose digests differ from the first run's, counts in
``failed``.  Exact metric values are not pinned: at these sizes the
footprint prune may drop a true tube on some seeds (see README.md),
even on perfect input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

STAGES = ("synth", "fuse", "track", "score", "prune", "localize", "evaluate")
# the file each stage must leave behind (see FORMATS.md)
OUTPUT = {"synth": "gt_tubes.tsv", "fuse": "detections_fused.tsv",
          "track": "tubes_tracked.tsv", "score": "tubes_scored.tsv",
          "prune": "tubes_pruned.tsv", "localize": "tubes_final.tsv",
          "evaluate": "metrics.tsv"}
DIGESTED = ("tubes_final.tsv", "metrics.tsv")
TRACED_CYCLES = 2          # minimum; a traced cycle runs the pipeline twice
CALIBRATION_LOOPS = 1_000_000
REFERENCE_CAL_S = 0.1     # calibrate() time that calibrated seconds assume
STAGE_TIMEOUT_S = 60.0     # every stage here takes a few seconds
MIB = 1024 * 1024
# metrics.tsv rows (metric, mode, sigma) of the three quality metrics
QUALITY_ROWS = (("map", "video", "0.5"), ("map", "frame", "0.5"),
                ("recall_track", "video", "0.5"))
QUALITY = ("video_map_0.5", "frame_map_0.5", "recall_track")

# Child processes: one BLAS thread each, so stages stay single-threaded
# on small machines, and temporary files stay inside the checkout.
ENV = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
           TMPDIR=str(WORK))


class BenchError(Exception):
    """The benchmark cannot run here; exits 2 without a result."""


def reap(argv: list[str], log) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MiB).

    The parent imports nothing heavy, so its own RSS, which Linux may
    carry into a child's high-water mark across exec, stays below any
    child's.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                            env=ENV, cwd=ROOT)
    watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_quality(path: Path) -> dict[str, float]:
    """The three headline numbers of ``metrics.tsv``; raises on bad data."""
    wanted = dict(zip(QUALITY_ROWS, QUALITY))
    out = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#actiontubes metrics "):
        raise ValueError("metrics.tsv has no metrics header")
    for line in lines[2:]:
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"metrics.tsv row {line!r} has "
                             f"{len(fields)} fields, expected 5")
        value = float(fields[4])
        if fields[0] in ("ap", "map", "auc", "recall_track") \
                and not 0.0 <= value <= 1.0:
            raise ValueError(f"metrics.tsv value {value} of {fields[:4]} "
                             f"is outside [0, 1]")
        name = wanted.get(tuple(fields[:3]))
        if name is not None:
            out[name] = value
    missing = sorted(set(wanted.values()) - set(out))
    if missing:
        raise ValueError(f"metrics.tsv lacks {', '.join(missing)}")
    return out


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """One pipeline run: per-stage time and RSS, digests, quality.

    ``wall`` holds calibrated seconds, ``raw_wall`` plain wall seconds
    and ``scale`` the factor between them.
    """

    def __init__(self, scenario: int):
        self.scenario = scenario
        self.wall: dict[str, float] = {}
        self.raw_wall: dict[str, float] = {}
        self.scale: dict[str, float] = {}
        self.calibrations: list[float] = []
        self.rss: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: tuple[str, ...] | None = None
        self.quality: dict[str, float] = {}
        self.artifact_mib = 0.0
        self.trace: dict[str, dict] = {}
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def run_pipeline(workload: dict, scenario: int, base: Path,
                 traced: bool) -> Run:
    out = base / "out"
    out.mkdir(parents=True)
    run = Run(scenario)
    overrides = [arg for key, value in sorted(workload["overrides"].items())
                 for arg in ("--stage-override", f"{key}={value}")]
    with open(base / "stages.log", "w", encoding="utf-8") as log:
        run.calibrations.append(calibrate())
        for stage in STAGES:
            cli = [stage, "--out", str(out), "--seed", str(scenario),
                   *overrides]
            if traced:
                trace_path = base / f"trace-{stage}.json"
                argv = [sys.executable, str(HERE / "trace_stage.py"),
                        str(trace_path), *cli]
            else:
                argv = [sys.executable, "-m", "actiontubes.cli", *cli]
            run.attempted += 1
            code, wall, rss = reap(argv, log)
            run.calibrations.append(calibrate())
            run.scale[stage] = REFERENCE_CAL_S / statistics.fmean(
                run.calibrations[-2:])
            run.raw_wall[stage], run.rss[stage] = wall, rss
            run.wall[stage] = wall * run.scale[stage]
            if code != 0:
                run.fail(f"{stage} exited {code}")
                break
            if not (out / OUTPUT[stage]).is_file():
                run.fail(f"{stage} left no {OUTPUT[stage]}")
                break
            if traced:
                run.trace[stage] = json.loads(
                    trace_path.read_text(encoding="utf-8"))
    if run.ok:
        run.digests = tuple(sha256(out / name) for name in DIGESTED)
        try:
            run.quality = read_quality(out / "metrics.tsv")
        except ValueError as exc:
            run.fail(str(exc))
    run.artifact_mib = tree_bytes(out) / MIB
    if not run.ok:
        tail = (base / "stages.log").read_text(encoding="utf-8")[-2000:]
        print(f"run failed: {'; '.join(run.errors)}\n{tail}",
              file=sys.stderr)
    shutil.rmtree(base)
    return run


def import_seconds() -> float:
    """Calibrated time of a child that only imports the CLI module."""
    before = calibrate()
    with open(os.devnull, "w") as sink:
        code, wall, _ = reap(
            [sys.executable, "-c", "import actiontubes.cli"], sink)
    if code != 0:
        raise BenchError("importing actiontubes.cli failed")
    return wall * REFERENCE_CAL_S / statistics.fmean((before, calibrate()))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    values = sorted(values)
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def end_to_end(runs: list[Run]) -> tuple[dict[str, float], dict]:
    """Every end-to-end metric, and the samples behind it.

    Stage times (calibrated) and RSS are medians per stage, so
    ``pipeline_s`` is the sum of the ``pipeline.<stage>_s`` layer
    metrics and one slow burst of the host in one stage of one run does
    not move it.  Quality is the mean over the scenarios run.
    """
    good = [r for r in runs if r.ok]
    wall = {s: median(r.wall[s] for r in good) for s in STAGES}
    rss = {s: median(r.rss[s] for r in good) for s in STAGES}
    samples = {
        "setup_s": [r.wall["synth"] for r in good],
        "pipeline_s": [sum(r.wall[s] for s in STAGES[1:]) for r in good],
        "peak_rss_mb": [max(r.rss[s] for s in STAGES[1:]) for r in good],
        "setup_rss_mb": [r.rss["synth"] for r in good],
        "artifact_mb": [r.artifact_mib for r in good],
    }
    first = {}      # quality repeats per scenario; take it once each
    for r in good:
        first.setdefault(r.scenario, r.quality)
    for name in QUALITY:
        samples[name] = [q[name] for q in first.values()]
    values = {name: median(v) for name, v in samples.items()}
    values.update({name: statistics.fmean(samples[name]) if first else 0.0
                   for name in QUALITY})
    values.update(setup_s=wall["synth"],
                  pipeline_s=sum(wall[s] for s in STAGES[1:]),
                  peak_rss_mb=max(rss[s] for s in STAGES[1:]),
                  setup_rss_mb=rss["synth"])
    return values, samples


def per_layer(plain: list[Run], traced: list[Run],
              imports: list[float]) -> dict[str, float]:
    """Per-layer metrics: stage costs from untraced runs, the rest traced."""
    out = {"cli.import_s": median(imports)}
    plain = [r for r in plain if r.ok]
    traced = [r for r in traced if r.ok]
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = median(r.wall[stage] for r in plain)
        out[f"pipeline.{stage}_rss_mb"] = median(r.rss[stage] for r in plain)
    out["pipeline.wall_s"] = sum(median(r.raw_wall[s] for r in plain)
                                 for s in STAGES[1:])
    out["host.calibration_s"] = median(c for r in plain + traced
                                       for c in r.calibrations)
    out["trace.overhead_s"] = (
        median(sum(r.wall[s] for s in STAGES[1:]) for r in traced)
        - median(sum(r.wall[s] for s in STAGES[1:]) for r in plain))

    def merged(run: Run) -> tuple[dict, dict]:
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for stage, stage_trace in run.trace.items():
            for name, span in stage_trace["spans"].items():
                self_s[name] = (self_s.get(name, 0.0)
                                + span["self_s"] * run.scale[stage])
                calls[name] = calls.get(name, 0) + span["calls"]
            for name, count in stage_trace["counts"].items():
                calls[name] = calls.get(name, 0) + count
        return self_s, calls

    merges = [merged(r) for r in traced]
    for metric, spec in SPEC["layers"].items():
        if "spans" in spec:
            out[metric] = median(sum(m[0].get(name, 0.0)
                                     for name in spec["spans"])
                                 for m in merges)
        elif "count" in spec:
            out[metric] = median(m[1].get(spec["count"], 0) for m in merges)
        elif "difference" in spec:
            minuend, subtrahend = spec["difference"]
            out[metric] = median(m[1].get(minuend, 0)
                                 - m[1].get(subtrahend, 0) for m in merges)
        elif "ratio" in spec:
            num, den = spec["ratio"]
            values = [m[1].get(num, 0) / m[1][den] for m in merges
                      if m[1].get(den)]
            out[metric] = median(values)
    unlisted = set(out) ^ set(SPEC["layers"])
    if unlisted:
        raise BenchError(f"per-layer metrics and workloads.json disagree "
                         f"on {', '.join(sorted(unlisted))}")
    return out


def counts_repeat(traced: list[Run]) -> bool:
    """Counts are exact: every traced run of one scenario must agree."""
    seen = {json.dumps({s: t["counts"] for s, t in r.trace.items()},
                       sort_keys=True) for r in traced if r.ok}
    return len(seen) <= 1


def check_checkout(workload_name: str) -> dict:
    if workload_name not in SPEC["workloads"]:
        raise BenchError(f"unknown workload {workload_name!r}; choose from "
                         f"{', '.join(SPEC['workloads'])}")
    if not (SRC / "actiontubes" / "cli.py").is_file():
        raise BenchError(f"no actiontubes sources under {SRC}; run from "
                         f"the root of a full checkout")
    workload = SPEC["workloads"][workload_name]
    overrides = workload["overrides"]
    if not (isinstance(workload.get("scenarios"), int)
            and workload["scenarios"] >= 1):
        raise BenchError(f"workloads.json: scenarios of {workload_name} "
                         f"must be a positive whole number")
    if overrides["synth.video_count"] * overrides["synth.frames_per_video"] \
            != workload["frames"]:
        raise BenchError(f"workloads.json: frames of {workload_name} does "
                         f"not match its overrides")
    WORK.mkdir(exist_ok=True)
    free_mib = shutil.disk_usage(WORK).free / MIB
    if free_mib < workload["disk_mb"]:
        raise BenchError(f"workload {workload_name} needs "
                         f"{workload['disk_mb']} MiB free for one run's "
                         f"artifacts; {free_mib:.0f} MiB free in {WORK}")
    return workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def bench(args: argparse.Namespace) -> int:
    workload = check_checkout(args.workload)
    # compile the sources once, so the first timed stage pays no
    # bytecode writes that later runs and users do not pay
    import_seconds()
    base = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    plain: list[Run] = []
    traced: list[Run] = []
    imports: list[float] = []
    scenarios = workload["scenarios"]
    min_cycles = TRACED_CYCLES if args.trace else scenarios
    start = time.perf_counter()
    try:
        index = 0
        while True:
            cycle = time.perf_counter()
            scenario = args.seed * scenarios + (
                0 if args.trace else index % scenarios)
            plain.append(run_pipeline(workload, scenario,
                                      base / f"{index:03d}-plain", False))
            if args.trace and plain[-1].ok:
                imports.append(import_seconds())
                traced.append(run_pipeline(workload, scenario,
                                           base / f"{index:03d}-traced",
                                           True))
            index += 1
            now = time.perf_counter()
            if not all(r.ok for r in plain + traced):
                break   # report the failure instead of repeating it
            if index >= min_cycles and \
                    now + (now - cycle) > start + args.seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    runs = plain + traced
    reference: dict[int, tuple] = {}
    for r in runs:
        if r.ok:
            reference.setdefault(r.scenario, r.digests)
    mismatched = [r for r in runs
                  if r.ok and r.digests != reference[r.scenario]]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs) + len(mismatched)
    correct = (failed == 0 and set(reference) == {r.scenario for r in runs}
               and counts_repeat(traced))

    print(f"workload {args.workload}: seed {args.seed}, "
          f"{len(reference)} scenarios of {workload['frames']} frames, "
          f"{len(plain)} untraced and {len(traced)} traced runs in "
          f"{time.perf_counter() - start:.1f} s")
    for scenario, digests in sorted(reference.items()):
        for name, digest in zip(DIGESTED, digests):
            print(f"synth seed {scenario}: sha256 {name} {digest}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          f"stage runs)")
    values, samples = end_to_end(plain)
    for name, value in values.items():
        spec = SPEC["end_to_end"][name]
        print(f"  {name:<16} {value:12.4f} {spec['unit']:<6} "
              f"samples {spread(samples[name])}")
    if args.trace:
        metrics = per_layer(plain, traced, imports)
        units = SPEC["layers"]
        for name, value in metrics.items():
            spec = units[name]
            shown = "printed" if spec.get("printed_only") else "json"
            print(f"  {name:<36} {value:14.4f} {spec['unit']:<6} {shown:<7} "
                  f"moves {', '.join(spec['moves']) or '-'}")
        report = {name: {"value": value, "unit": units[name]["unit"]}
                  for name, value in metrics.items()
                  if not units[name].get("printed_only")}
    else:
        report = {name: {"value": value,
                         "unit": SPEC["end_to_end"][name]["unit"]}
                  for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
