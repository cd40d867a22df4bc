"""Smoke test for the layer tracer in ``perfbench/trace_stage.py``.

The tracer wraps library functions by name at start-up, so renaming one
of them under ``src/`` breaks ``perfbench/run.py --trace 1`` without any
library test noticing.  The pipeline drivers import their stage modules
when they run, so a driver that bound a name the tracer cannot reach
would drop its span out of the trace.  Running every stage traced on a
tiny scenario catches both.
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
    spans = {}
    for stage in STAGES:
        trace = tmp_path / f"{stage}.json"
        result = subprocess.run(
            [sys.executable, str(TRACE_STAGE), str(trace), stage,
             "--out", str(out), *TINY],
            capture_output=True, text=True, env=child_env)
        assert result.returncode == 0, result.stderr
        spans.update(json.loads(trace.read_text())["spans"])
    for name in ("synth.match", "fusion.fuse", "tracker.build_tubes",
                 "scoring.score_clips", "scoring.prune_overlapped",
                 "temporal.localize", "evaluation.evaluate"):
        assert spans[name]["calls"] > 0, name
