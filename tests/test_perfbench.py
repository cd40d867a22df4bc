"""Smoke test for the layer tracer in ``perfbench/trace_stage.py``.

The tracer wraps library functions by name at start-up, so renaming one
of them under ``src/`` breaks ``perfbench/run.py --trace 1`` without any
library test noticing.  The pipeline drivers import their stage modules
when they run, so a driver that bound a name the tracer cannot reach
would drop its span out of the trace, and a primitive rewritten to stop
calling ``geometry.iou`` would zero its counter.  Running every stage
traced on a tiny scenario catches all three.
"""

import json
import subprocess
import sys
from pathlib import Path

from actiontubes.pipeline import (FILE_CLIP_SCORES, FILE_FINAL, FILE_FUSED,
                                  FILE_METRICS, FILE_PRUNED, FILE_SCORED,
                                  FILE_TRACKED)

TRACE_STAGE = Path(__file__).resolve().parent.parent / "perfbench" / \
    "trace_stage.py"

TINY = ("--stage-override", "synth.video_count=2",
        "--stage-override", "synth.frames_per_video=12",
        "--stage-override", "synth.with_footprint=false")

STAGES = ("synth", "fuse", "track", "score", "prune", "localize",
          "evaluate")

# Calls per ``formats.*`` span in each stage of the tiny run.  Every
# public ``formats.read_*``/``write_*`` is a span, so a helper made
# public would nest its own span and a reader reached under another name
# would lose one; either moves time between the ``formats.*_s`` metrics.
# ``fuse`` through ``localize`` read and write each record file, ``track``
# the matches and ``score`` the clip noise, once per video.
VIDEOS = 2
FORMATS_CALLS = {
    "synth": {"other_write": 7, "matches_write": 1},
    "fuse": {"other_read": 3 * VIDEOS, "other_write": VIDEOS},
    "track": {"other_read": 3 * VIDEOS, "matches_read": VIDEOS,
              "tubes_write": VIDEOS},
    "score": {"tubes_read": VIDEOS, "other_read": 2 * VIDEOS + 1,
              "tubes_write": VIDEOS, "other_write": VIDEOS},
    "prune": {"tubes_read": VIDEOS, "tubes_write": VIDEOS},
    "localize": {"tubes_read": VIDEOS, "other_read": VIDEOS,
                 "tubes_write": VIDEOS},
    "evaluate": {"tubes_read": 1, "other_read": 1, "other_write": 1},
}


# The record files each stage writes through ``formats.write_*``.  A
# stage writes each video as a one-video file, its header included, and
# the tracer counts the size of every file a write call makes.
OUTPUTS = {
    "fuse": (FILE_FUSED,),
    "track": (FILE_TRACKED,),
    "score": (FILE_SCORED, FILE_CLIP_SCORES),
    "prune": (FILE_PRUNED,),
    "localize": (FILE_FINAL,),
    "evaluate": (FILE_METRICS,),
}


def trace_stages(tmp_path, env, stages, *overrides):
    """Each stage's trace, the stages run in order into one directory."""
    out = tmp_path / "run"
    traces = {}
    for stage in stages:
        trace = tmp_path / f"{stage}.json"
        result = subprocess.run(
            [sys.executable, str(TRACE_STAGE), str(trace), stage,
             "--out", str(out), *TINY, *overrides],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        traces[stage] = json.loads(trace.read_text())
    return traces


def formats_calls(traced):
    return {name.removeprefix("formats."): span["calls"]
            for name, span in traced["spans"].items()
            if name.startswith("formats.")}


def test_traced_stages_record_their_spans(tmp_path, child_env):
    traces = trace_stages(tmp_path, child_env, STAGES)
    spans = {}
    for traced in traces.values():
        spans.update(traced["spans"])
    for name in ("synth.match", "fusion.fuse", "tracker.build_tubes",
                 "scoring.score_clips", "scoring.prune_overlapped",
                 "temporal.localize", "evaluation.evaluate"):
        assert spans[name]["calls"] > 0, name
    # the counted primitives must still be reached through their names
    counts = {stage: traced["counts"] for stage, traced in traces.items()}
    assert counts["evaluate"].get("geometry.st_iou", 0) > 0
    assert counts["evaluate"].get("geometry.iou", 0) > 0
    assert counts["score"].get("geometry.iou", 0) > 0
    # the point-match gate tests each candidate with both scalar primitives
    assert counts["track"].get("tracker.match_ratio", 0) > 0
    assert counts["track"].get("geometry.iou", 0) > 0
    for stage, traced in traces.items():
        assert formats_calls(traced) == FORMATS_CALLS[stage], stage
    out = tmp_path / "run"
    for stage, names in OUTPUTS.items():
        writes = 1 if stage == "evaluate" else VIDEOS
        expected = 0
        for name in names:
            blob = (out / name).read_bytes()
            header = len(b"\n".join(blob.split(b"\n")[:2])) + 1
            expected += len(blob) + (writes - 1) * header
        assert counts[stage]["formats.bytes_written"] == expected, stage


def test_drift_tubes_are_a_tubes_span(tmp_path, child_env):
    traces = trace_stages(tmp_path, child_env, STAGES[:4],
                          "--stage-override", "synth.drift_rate=0.5")
    assert formats_calls(traces["synth"]) == \
        {**FORMATS_CALLS["synth"], "tubes_write": 1}
    assert formats_calls(traces["score"]) == \
        {**FORMATS_CALLS["score"], "tubes_read": 2 * VIDEOS}
