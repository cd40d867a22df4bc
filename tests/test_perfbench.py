"""Smoke test for the layer tracer in ``perfbench/trace_stage.py``.

The tracer wraps library functions by name at start-up, so renaming one
of them under ``src/`` breaks ``perfbench/run.py --trace 1`` without any
library test noticing.  Running a few traced stages on a tiny scenario
catches that.
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


def test_traced_stages_record_their_spans(tmp_path):
    out = tmp_path / "run"
    spans = {}
    for stage in ("synth", "fuse", "track"):
        trace = tmp_path / f"{stage}.json"
        result = subprocess.run(
            [sys.executable, str(TRACE_STAGE), str(trace), stage,
             "--out", str(out), *TINY],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        spans.update(json.loads(trace.read_text())["spans"])
    assert spans["synth.match"]["calls"] > 0
    assert spans["tracker.build_tubes"]["calls"] > 0
