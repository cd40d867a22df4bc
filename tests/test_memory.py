"""Peak memory of every stage but ``synth`` and ``evaluate`` stays
bounded by one video.

``synth`` writes and ``fuse`` reads one flow grid at a time, so their
peak RSS must not grow with the number of videos.  At the default
320x240 frame size a grid is 600 KiB, so 8 videos of 30 frames hold
~140 MiB of grids; a stage that kept them all in memory would peak that
much above the 1-video run.

``fuse``, ``track``, ``score``, ``prune`` and ``localize`` read,
process and write one video at a time, so on a crowded scenario (the
center-search tracker, many tubes per video) their peaks must not grow
with the videos either.  Holding all 12 videos' records at once, as
whole-file readers do, peaks ``score`` ~12 MiB and ``prune`` ~14 MiB
above the 1-video run (``fuse`` ~8, ``track`` ~9, ``localize`` ~4).

A child's ``ru_maxrss`` starts at the RSS of the process that forked
it, so the stages are not started from the test runner, whose RSS
depends on the tests run before.  This file, run as a script, starts
them from a fresh interpreter, reaps each with ``os.wait4`` and prints
their peaks:

    python tests/test_memory.py OUT_DIR VIDEO_COUNT [flow|crowd]
"""

import json
import os
import subprocess
import sys

SCENARIOS = {
    "flow": (("synth", "fuse"), (
        "synth.frames_per_video=30", "synth.with_footprint=false",
        "synth.with_flow=true")),
    "crowd": (("synth", "fuse", "track", "score", "prune", "localize"), (
        "track.baseline=true", "synth.frames_per_video=40",
        "synth.actors_per_video=5", "synth.num_classes=6",
        "synth.false_positive_rate=0.5", "synth.duplicate_label_rate=0.3",
        "synth.jitter_sigma=2", "synth.with_footprint=false")),
}
STAGES = SCENARIOS["flow"][0]
CROWD_STAGES = SCENARIOS["crowd"][0][1:]
# Everything but the grids still grows with the videos (detections,
# proposals, matches); at 8 videos of 30 frames that is ~2 MiB.
MARGIN_MIB = 16
CROWD_VIDEOS = 12
# What still grows with the videos is where each video's lines are and
# the allocator's free lists: 12 videos peaked 0.6 (fuse) to 2.5 (prune)
# MiB above one video, each within 0.2 MiB over 3 runs of each count.
CROWD_MARGIN_MIB = 5


def stage_peaks(out: str, videos: int, scenario: str = "flow") -> dict:
    """Peak RSS in MiB of each stage, run as a child of this process."""
    stages, overrides = SCENARIOS[scenario]
    peaks = {}
    for stage in stages:
        child = subprocess.Popen(
            [sys.executable, "-m", "actiontubes.cli", stage, "--out", out,
             "--stage-override", f"synth.video_count={videos}",
             *(arg for key in overrides
               for arg in ("--stage-override", key))],
            stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"{stage} failed")
        peaks[stage] = usage.ru_maxrss / 1024
    return peaks


def _peaks(out, videos, env, scenario="flow"):
    result = subprocess.run(
        [sys.executable, __file__, str(out), str(videos), scenario],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_flow_stages_peak_independent_of_video_count(tmp_path, child_env):
    one = _peaks(tmp_path / "one", 1, child_env)
    many = _peaks(tmp_path / "many", 8, child_env)
    assert (tmp_path / "many" / "proposals_salient.tsv").exists()
    for stage in STAGES:
        assert many[stage] - one[stage] < MARGIN_MIB, (stage, one, many)


def test_crowd_stages_peak_independent_of_video_count(tmp_path, child_env):
    one = _peaks(tmp_path / "one", 1, child_env, "crowd")
    many = _peaks(tmp_path / "many", CROWD_VIDEOS, child_env, "crowd")
    grown = {stage: round(many[stage] - one[stage], 1)
             for stage in CROWD_STAGES}
    assert max(grown.values()) < CROWD_MARGIN_MIB, grown


if __name__ == "__main__":
    print(json.dumps(stage_peaks(sys.argv[1], int(sys.argv[2]),
                                 *sys.argv[3:])))
