"""Peak memory of every stage but ``evaluate`` stays bounded by one
video.

``synth`` writes and ``fuse`` reads one flow grid at a time, so their
peak RSS must not grow with the number of videos.  At the default
320x240 frame size a grid is 600 KiB, so 8 videos of 30 frames hold
~140 MiB of grids; a stage that kept them all in memory would peak that
much above the 1-video run.

``synth`` makes and writes each video's records as its file is written,
and ``fuse``, ``track``, ``score``, ``prune`` and ``localize`` read,
process and write one video at a time, so on a crowded scenario (the
center-search tracker, many tubes per video) their peaks must not grow
with the videos either.  Holding all 12 videos' records at once, as
whole-file readers do, peaks ``score`` ~12 MiB and ``prune`` ~14 MiB
above the 1-video run (``fuse`` ~8, ``track`` ~9, ``localize`` ~4),
and a ``synth`` that generates the whole scenario before writing it
~14 MiB.  ``synth`` still holds every video's ground truth, and with
``synth.with_footprint`` makes each true tube's feature grid when the
footprint statistics need it, one at a time; holding every grid until
the statistics are made peaks it ~1.3 MiB higher at 12 crowded videos,
so it is checked with the footprint statistics too, against a tighter
margin.

A child's ``ru_maxrss`` starts at the RSS of the process that forked
it, so the stages are not started from the test runner, whose RSS
depends on the tests run before.  This file, run as a script, starts
them from a fresh interpreter, reaps each with ``os.wait4`` and prints
their peaks:

    python tests/test_memory.py OUT_DIR VIDEO_COUNT [flow|crowd|footprint]
"""

import json
import os
import subprocess
import sys

CROWD = ("track.baseline=true", "synth.frames_per_video=40",
         "synth.actors_per_video=5", "synth.num_classes=6",
         "synth.false_positive_rate=0.5", "synth.duplicate_label_rate=0.3",
         "synth.jitter_sigma=2")
SCENARIOS = {
    "flow": (("synth", "fuse"), (
        "synth.frames_per_video=30", "synth.with_footprint=false",
        "synth.with_flow=true")),
    "crowd": (("synth", "fuse", "track", "score", "prune", "localize"),
              (*CROWD, "synth.with_footprint=false")),
    "footprint": (("synth",), (*CROWD, "synth.with_footprint=true")),
}
STAGES = SCENARIOS["flow"][0]
# What still grows with the videos is the ground truth: 8 videos of 30
# frames peaked synth 0.2 MiB above one video (2.2 while synth held
# every video's records).
MARGIN_MIB = 16
CROWD_VIDEOS = 12
# What still grows with the videos is where each video's lines are (in
# synth, its ground truth and feature grids) and the allocator's free
# lists: 12 videos peaked 0.6 (fuse) to 2.5 (prune) MiB above one video,
# each within 0.2 MiB over 3 runs of each count, and synth 1.3 MiB.
CROWD_MARGIN_MIB = 5
# With the footprint statistics, synth grew 0.8 to 1.5 MiB from 1 to 12
# videos over 3 runs, and 2.5 to 2.6 while it held every tube's feature
# grid at once.
FOOTPRINT_MARGIN_MIB = 2.2


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


def _crowd_growth(tmp_path, env, scenario):
    """Each stage's peak at 12 crowded videos less its peak at one."""
    one = _peaks(tmp_path / "one", 1, env, scenario)
    many = _peaks(tmp_path / "many", CROWD_VIDEOS, env, scenario)
    return {stage: round(many[stage] - one[stage], 1)
            for stage in SCENARIOS[scenario][0]}


def test_crowd_stages_peak_independent_of_video_count(tmp_path, child_env):
    grown = _crowd_growth(tmp_path, child_env, "crowd")
    assert max(grown.values()) < CROWD_MARGIN_MIB, grown


def test_crowd_synth_with_footprint_peak_independent_of_video_count(
        tmp_path, child_env):
    grown = _crowd_growth(tmp_path, child_env, "footprint")
    assert (tmp_path / "many" / "alphas.atb").exists()
    assert grown["synth"] < FOOTPRINT_MARGIN_MIB, grown


if __name__ == "__main__":
    print(json.dumps(stage_peaks(sys.argv[1], int(sys.argv[2]),
                                 *sys.argv[3:])))
