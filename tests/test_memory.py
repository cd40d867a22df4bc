"""Peak memory of the flow-carrying stages stays bounded by one frame.

``synth`` writes and ``fuse`` reads one flow grid at a time, so their
peak RSS must not grow with the number of videos.  At the default
320x240 frame size a grid is 600 KiB, so 8 videos of 30 frames hold
~140 MiB of grids; a stage that kept them all in memory would peak that
much above the 1-video run.

A child's ``ru_maxrss`` starts at the RSS of the process that forked
it, so the stages are not started from the test runner, whose RSS
depends on the tests run before.  This file, run as a script, starts
them from a fresh interpreter, reaps each with ``os.wait4`` and prints
their peaks:

    python tests/test_memory.py OUT_DIR VIDEO_COUNT
"""

import json
import os
import subprocess
import sys

STAGES = ("synth", "fuse")
FRAMES = 30
# Everything but the grids still grows with the videos (detections,
# proposals, matches); at 8 videos of 30 frames that is ~2 MiB.
MARGIN_MIB = 16


def stage_peaks(out: str, videos: int) -> dict:
    """Peak RSS in MiB of each stage, run as a child of this process."""
    peaks = {}
    for stage in STAGES:
        child = subprocess.Popen(
            [sys.executable, "-m", "actiontubes.cli", stage, "--out", out,
             "--stage-override", f"synth.video_count={videos}",
             "--stage-override", f"synth.frames_per_video={FRAMES}",
             "--stage-override", "synth.with_footprint=false",
             "--stage-override", "synth.with_flow=true"],
            stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"{stage} failed")
        peaks[stage] = usage.ru_maxrss / 1024
    return peaks


def _peaks(out, videos, env):
    result = subprocess.run(
        [sys.executable, __file__, str(out), str(videos)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_flow_stages_peak_independent_of_video_count(tmp_path, child_env):
    one = _peaks(tmp_path / "one", 1, child_env)
    many = _peaks(tmp_path / "many", 8, child_env)
    assert (tmp_path / "many" / "proposals_salient.tsv").exists()
    for stage in STAGES:
        assert many[stage] - one[stage] < MARGIN_MIB, (stage, one, many)


if __name__ == "__main__":
    print(json.dumps(stage_peaks(sys.argv[1], int(sys.argv[2]))))
