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

TRACE_STAGE = Path(__file__).resolve().parent.parent / "perfbench" / \
    "trace_stage.py"

TINY = ("--stage-override", "synth.video_count=2",
        "--stage-override", "synth.frames_per_video=12",
        "--stage-override", "synth.with_footprint=false")

STAGES = ("synth", "fuse", "track", "score", "prune", "localize",
          "evaluate")


def test_traced_stages_record_their_spans(tmp_path, child_env):
    out = tmp_path / "run"
    spans, counts = {}, {}
    for stage in STAGES:
        trace = tmp_path / f"{stage}.json"
        result = subprocess.run(
            [sys.executable, str(TRACE_STAGE), str(trace), stage,
             "--out", str(out), *TINY],
            capture_output=True, text=True, env=child_env)
        assert result.returncode == 0, result.stderr
        traced = json.loads(trace.read_text())
        spans.update(traced["spans"])
        counts[stage] = traced["counts"]
    for name in ("synth.match", "fusion.fuse", "tracker.build_tubes",
                 "scoring.score_clips", "scoring.prune_overlapped",
                 "temporal.localize", "evaluation.evaluate"):
        assert spans[name]["calls"] > 0, name
    # the counted primitives must still be reached through their names
    assert counts["evaluate"].get("geometry.st_iou", 0) > 0
    assert counts["evaluate"].get("geometry.iou", 0) > 0
    assert counts["score"].get("geometry.iou", 0) > 0
