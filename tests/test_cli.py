"""End-to-end tests for the command line front end.

Stages are exercised through ``main`` so the tests see exactly what a
shell user sees: exit codes, stdout, stderr, and the files left behind
in the output directory.
"""

import shutil
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest

from actiontubes import formats, synth
from actiontubes.cli import STAGES, main
from actiontubes.config import apply_overrides, default_config
from actiontubes.errors import ProcessingError
from actiontubes.pipeline import (FILE_ALPHAS, FILE_CLIP_NOISE,
                                  FILE_CLIP_SCORES, FILE_DETECTIONS,
                                  FILE_DRIFT, FILE_FINAL,
                                  FILE_FLOW, FILE_FUSED, FILE_GT,
                                  FILE_MATCHES, FILE_PROPOSALS, FILE_PRUNED,
                                  FILE_SALIENT, FILE_SCORED, FILE_TRACKED,
                                  FILE_WEIGHTS, PIPELINE_ORDER,
                                  scenario_config)
from actiontubes.scenario import video_index
from actiontubes.scoring import score_clips
from test_golden import SCENARIOS
from test_io import iter_arrays, read_arrays, read_records

FAST = ("--stage-override", "synth.video_count=3",
        "--stage-override", "synth.frames_per_video=24",
        "--stage-override", "synth.with_footprint=false")


def run_cli(*args):
    return main([str(a) for a in args])


def record_kind(path):
    """The record kind a file's header names."""
    return path.read_text().split("\n")[0].split(" ")[1]


def tree_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()
            if p.is_file()}


class TestStageComposition:
    def test_pipeline_equals_composed_stages(self, tmp_path):
        whole, parts = tmp_path / "whole", tmp_path / "parts"
        assert run_cli("pipeline", "--out", whole, "--seed", 7, *FAST) == 0
        for stage in PIPELINE_ORDER:
            assert run_cli(stage, "--out", parts, "--seed", 7, *FAST) == 0
        a, b = tree_bytes(whole), tree_bytes(parts)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name] == b[name], f"{name} differs between runs"

    @pytest.mark.parametrize("baseline", ["false", "true"])
    def test_track_runs_without_ground_truth(self, tmp_path, baseline):
        """``track`` reads no ground truth: without ``gt_tubes.tsv`` it
        writes the bytes of a run beside one."""
        with_truth, without = tmp_path / "with", tmp_path / "without"
        tracker = ("--stage-override", f"track.baseline={baseline}")
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", with_truth, "--seed", 3, *FAST,
                           *tracker) == 0
        shutil.copytree(with_truth, without)
        (without / FILE_GT).unlink()
        for directory in (with_truth, without):
            assert run_cli("track", "--out", directory, "--seed", 3, *FAST,
                           *tracker) == 0
        tracked = (with_truth / FILE_TRACKED).read_bytes()
        assert (without / FILE_TRACKED).read_bytes() == tracked
        assert tracked.count(b"\n") > 2

    def test_rerunning_a_stage_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        for stage in ("synth", "fuse", "track"):
            assert run_cli(stage, "--out", out, "--seed", 3, *FAST) == 0
        first = (out / FILE_TRACKED).read_bytes()
        assert run_cli("track", "--out", out, "--seed", 3, *FAST) == 0
        assert (out / FILE_TRACKED).read_bytes() == first


class TestExitCodes:
    def test_success_returns_zero(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, *FAST) == 0
        out = capsys.readouterr().out
        assert out.startswith("synth:")
        assert "videos=3" in out

    def test_unknown_config_key_returns_two(self, tmp_path, capsys):
        code = run_cli("synth", "--out", tmp_path,
                       "--stage-override", "synth.bogus=1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "synth.bogus" in err
        # retired keys that old config files may still set
        cfg = tmp_path / "old.cfg"
        for key, value in (("localize.mode", "trim"),
                           ("prune.enabled", "false"),
                           ("localize.enabled", "false")):
            cfg.write_text(f"{key} = {value}\n")
            assert run_cli("synth", "--out", tmp_path, "--config", cfg) == 2
            assert key in capsys.readouterr().err
            assert run_cli("synth", "--out", tmp_path, "--stage-override",
                           f"{key}={value}") == 2
            assert key in capsys.readouterr().err

    def test_unreadable_config_file_returns_two(self, tmp_path, capsys):
        code = run_cli("synth", "--out", tmp_path,
                       "--config", tmp_path / "nope.cfg")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_not_utf8_returns_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# café\n".encode("latin-1"))
        assert run_cli("synth", "--out", tmp_path, "--config", cfg) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_missing_input_names_producer_and_returns_three(
            self, tmp_path, capsys):
        code = run_cli("track", "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "run the 'fuse' command first" in err
        assert FILE_FUSED in err

    # a 3-class scenario in which every tube has a detection on every
    # frame, so no tube gets a predicted entry
    THREE = ("--stage-override", "synth.video_count=3",
             "--stage-override", "synth.frames_per_video=20",
             "--stage-override", "synth.num_classes=3",
             "--stage-override", "synth.with_footprint=false")

    def test_track_takes_no_class_count_from_the_config(self, tmp_path):
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *self.THREE) == 0
        tracked = {}
        for num_classes in (2, 3, 4):
            assert run_cli("track", "--out", tmp_path, *self.THREE,
                           "--stage-override",
                           f"synth.num_classes={num_classes}") == 0
            tracked[num_classes] = (tmp_path / FILE_TRACKED).read_bytes()
        assert tracked[2] == tracked[3] == tracked[4]

    def test_proposals_of_more_classes_return_three(self, tmp_path, capsys):
        out, four = tmp_path / "three", tmp_path / "four"
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", out, *self.THREE) == 0
        assert run_cli("synth", "--out", four, *self.THREE,
                       "--stage-override", "synth.num_classes=4") == 0
        (out / FILE_PROPOSALS).write_bytes(
            (four / FILE_PROPOSALS).read_bytes())
        capsys.readouterr()
        assert run_cli("track", "--out", out, *self.THREE) == 3
        err = capsys.readouterr().err
        assert (f"the class scores of video 'v000' must have one class "
                f"count, but {FILE_FUSED} carries 3 and {FILE_PROPOSALS} "
                f"4") in err
        assert not (out / FILE_TRACKED).exists()

    def test_malformed_input_returns_three_with_position(
            self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, *FAST) == 0
        assert run_cli("fuse", "--out", tmp_path, *FAST) == 0
        fused = tmp_path / FILE_FUSED
        fused.write_text(fused.read_text() + "v000\tnot_a_frame\n")
        code = run_cli("track", "--out", tmp_path, *FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert FILE_FUSED in err
        assert "line" in err

    def test_undecodable_input_returns_three(self, tmp_path, capsys):
        for stage in ("synth", "fuse", "track"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        tracked = tmp_path / FILE_TRACKED
        tracked.write_bytes(tracked.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert FILE_TRACKED in err
        assert "not UTF-8: byte 0xff" in err

    def test_unscored_tubes_rejected_by_prune(self, tmp_path, capsys):
        # FAST writes no alphas, so only the overlap pruner reads the tubes
        for stage in ("synth", "fuse", "track", "score"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        assert not (tmp_path / FILE_ALPHAS).exists()
        tracked = tmp_path / FILE_TRACKED
        (tmp_path / FILE_SCORED).write_bytes(tracked.read_bytes())
        first = formats.read_tubes(tracked)[0]
        assert first.score is None
        capsys.readouterr()
        assert run_cli("prune", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert f"tube {first.tube_id!r} in {first.video_id!r}" in err
        assert not (tmp_path / FILE_PRUNED).exists()

    def test_negative_tube_label_returns_three(self, tmp_path, capsys):
        for stage in ("synth", "fuse", "track", "score", "prune"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        pruned = tmp_path / FILE_PRUNED
        rows = [(*fields[:9], "-1", fields[10])
                for _, fields in read_records(pruned, "tubes")]
        formats.write_records(pruned, "tubes", rows)
        capsys.readouterr()
        assert run_cli("localize", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert FILE_PRUNED in err
        assert "field 'label'" in err
        assert not (tmp_path / FILE_FINAL).exists()

    @pytest.mark.parametrize("x0_shift", [0.0, 1.0])
    def test_repeated_truth_frame_returns_three(self, tmp_path, capsys,
                                                x0_shift):
        for stage in ("synth", "fuse", "track", "score", "prune",
                      "localize"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        gt = tmp_path / FILE_GT
        rows = [fields for _, fields in read_records(gt, "gttubes")]
        twin = list(rows[3])
        twin[4] = repr(float(twin[4]) + x0_shift)
        formats.write_records(gt, "gttubes", rows[:4] + [twin] + rows[4:])
        capsys.readouterr()
        assert run_cli("evaluate", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert "field 'frame'" in err
        assert f"repeats frame {rows[3][3]}" in err

    def _tracked_rows(self, tmp_path):
        for stage in ("synth", "fuse", "track"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        tracked = tmp_path / FILE_TRACKED
        return tracked, [list(fields) for _, fields
                         in read_records(tracked, "tubes")]

    def test_unequal_class_counts_return_three(self, tmp_path, capsys):
        tracked, rows = self._tracked_rows(tmp_path)
        rows[1][8] = ",".join(rows[1][8].split(",")[:-1])
        formats.write_records(tracked, "tubes", rows)
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert FILE_TRACKED in err
        assert "field 'scores'" in err

    def test_tube_before_frame_zero_returns_three(self, tmp_path, capsys):
        tracked, rows = self._tracked_rows(tmp_path)
        key = rows[0][:2]
        start = min(int(row[2]) for row in rows if row[:2] == key)
        for row in rows:
            if row[:2] == key:
                row[2] = str(int(row[2]) - start - 2)
        formats.write_records(tracked, "tubes", rows)
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert FILE_TRACKED in err
        assert "field 'frame'" in err
        assert "not a non-negative base-10 integer: '-2'" in err
        assert not (tmp_path / FILE_SCORED).exists()

    def test_tubes_of_an_unknown_video_return_three(self, tmp_path, capsys):
        tracked, rows = self._tracked_rows(tmp_path)
        for row in rows:
            row[0] = row[0].replace("v000", "v999")
        formats.write_records(tracked, "tubes", rows)
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        assert "'v999'" in capsys.readouterr().err

    def test_tubes_of_a_video_without_truth_return_three(self, tmp_path,
                                                         capsys):
        """A video with tracked tubes but no rows in the ground truth has
        no clip features: ``score`` names it, not scores it as
        background."""
        _, rows = self._tracked_rows(tmp_path)
        assert any(row[0] == "v001" for row in rows)
        gt = tmp_path / FILE_GT
        formats.write_records(gt, "gttubes", [
            fields for _, fields in read_records(gt, "gttubes")
            if fields[0] != "v001"])
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        assert "no ground truth for video 'v001'" in capsys.readouterr().err
        assert not (tmp_path / FILE_SCORED).exists()

    def test_activation_not_utf8_returns_three(self, tmp_path, capsys):
        self._tracked_rows(tmp_path)
        weights = tmp_path / FILE_WEIGHTS
        arrays = read_arrays(weights)
        arrays["activation"] = np.frombuffer(b"\xfftanh", dtype=np.uint8)
        formats.write_arrays(weights, sorted(arrays.items()))
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST) == 3
        err = capsys.readouterr().err
        assert FILE_WEIGHTS in err
        assert "'activation' is not UTF-8" in err
        assert not (tmp_path / FILE_SCORED).exists()

    def test_alpha_not_finite_or_outside_unit_interval_returns_three(
            self, tmp_path, capsys):
        """One bad cell accuracy fails prune, where a NaN used to drop
        every tube of its class with exit 0."""
        footprint = ("--stage-override", "synth.video_count=6",
                     "--stage-override", "synth.with_footprint=true")
        for stage in ("synth", "fuse", "track", "score"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *footprint) == 0
        path = tmp_path / FILE_ALPHAS
        alphas = np.array(formats.read_alphas(path))
        for bad in (np.nan, 1.5):
            broken = alphas.copy()
            broken[1, 24] = bad
            formats.write_alphas(path, broken)
            capsys.readouterr()
            assert run_cli("prune", "--out", tmp_path, *FAST,
                           *footprint) == 3
            err = capsys.readouterr().err
            assert FILE_ALPHAS in err
            assert "class 1, cell 24" in err
            assert not (tmp_path / FILE_PRUNED).exists()

    def test_detections_of_an_unknown_video_return_three(self, tmp_path,
                                                         capsys):
        """``track`` reads no ground truth, so it tracks a video the
        scenario does not hold; ``score``, which reads the truth, names
        it."""
        baseline = ("--stage-override", "track.baseline=true")
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *baseline) == 0
        for name, kind in ((FILE_FUSED, "detections"),
                           (FILE_PROPOSALS, "proposals")):
            path = tmp_path / name
            rows = [(fields[0].replace("v000", "v999"), *fields[1:])
                    for _, fields in read_records(path, kind)]
            formats.write_records(path, kind, rows)
        assert run_cli("track", "--out", tmp_path, *FAST, *baseline) == 0
        assert "v999" in {t.video_id for t in
                          formats.read_tubes(tmp_path / FILE_TRACKED)}
        capsys.readouterr()
        assert run_cli("score", "--out", tmp_path, *FAST, *baseline) == 3
        assert "'v999'" in capsys.readouterr().err
        assert not (tmp_path / FILE_SCORED).exists()

    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    def test_damaged_flow_returns_three_and_writes_nothing(
            self, tmp_path, capsys, damage):
        flow = ("--stage-override", "synth.with_flow=true")
        assert run_cli("synth", "--out", tmp_path, *FAST, *flow) == 0
        path = tmp_path / FILE_FLOW
        blob = path.read_bytes()
        path.write_bytes(blob[:-1000] if damage == "truncated"
                         else blob + b"\x00")
        capsys.readouterr()
        assert run_cli("fuse", "--out", tmp_path, *FAST, *flow) == 3
        err = capsys.readouterr().err
        assert FILE_FLOW in err
        assert damage in err
        assert not (tmp_path / FILE_SALIENT).exists()
        assert not (tmp_path / FILE_FUSED).exists()

    def test_out_naming_a_file_returns_three(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "below"):
            assert run_cli("synth", "--out", out, *FAST) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert str(out) in err

    def test_processing_error_returns_four(self, tmp_path, capsys,
                                           monkeypatch):
        def explode(directory, config):
            raise ProcessingError("stage gave up")
        monkeypatch.setitem(STAGES, "track", explode)
        code = run_cli("track", "--out", tmp_path)
        assert code == 4
        assert "stage gave up" in capsys.readouterr().err


class TestOneVideoAtATime:
    """``fuse`` through ``localize`` read, process and write one video at
    a time, yet commit nothing until every input has been read."""

    FLOW = ("--stage-override", "synth.with_flow=true")

    # stage -> (input damaged in its last video, its column to damage,
    # the stage's outputs)
    CASES = {
        "fuse-detections": ("fuse", FILE_DETECTIONS["early"], "x0",
                            (FILE_FUSED, FILE_SALIENT)),
        "fuse-proposals": ("fuse", FILE_PROPOSALS, "scores",
                           (FILE_FUSED, FILE_SALIENT)),
        "track": ("track", FILE_FUSED, "x0", (FILE_TRACKED,)),
        "score": ("score", FILE_TRACKED, "x0",
                  (FILE_SCORED, FILE_CLIP_SCORES)),
        "prune": ("prune", FILE_SCORED, "x0", (FILE_PRUNED,)),
        "localize": ("localize", FILE_CLIP_SCORES, "scores", (FILE_FINAL,)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fault_in_the_last_video_leaves_no_output(self, tmp_path,
                                                      capsys, case):
        stage, name, column, outputs = self.CASES[case]
        for earlier in PIPELINE_ORDER[:PIPELINE_ORDER.index(stage)]:
            assert run_cli(earlier, "--out", tmp_path, *FAST,
                           *self.FLOW) == 0
        path = tmp_path / name
        kind = record_kind(path)
        rows = [list(fields) for _, fields in
                read_records(path, kind)]
        last = max(range(len(rows)), key=lambda i: rows[i][0])
        assert rows[last][0] == "v002"
        rows[last][formats.SCHEMAS[kind].columns.index(column)] = "x"
        formats.write_records(path, kind, rows)
        capsys.readouterr()
        assert run_cli(stage, "--out", tmp_path, *FAST, *self.FLOW) == 3
        assert "not a number: 'x'" in capsys.readouterr().err
        for output in outputs:
            assert not (tmp_path / output).exists(), output
        # nor a temp or per-video part file
        assert not [p.name for p in tmp_path.iterdir()
                    if p.name.startswith(".")]

    def test_trailing_match_bytes_leave_no_tubes(self, tmp_path, capsys):
        """The matches are read to their end before the tubes appear."""
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        path = tmp_path / FILE_MATCHES
        path.write_bytes(path.read_bytes() + b"\x00")
        capsys.readouterr()
        assert run_cli("track", "--out", tmp_path, *FAST) == 3
        assert "trailing" in capsys.readouterr().err
        assert not (tmp_path / FILE_TRACKED).exists()

    @staticmethod
    def _add_video_zz(path, values):
        """Appends one array of a video no record file names."""
        part = path.with_name("zz.atb")
        formats.write_arrays(part, chain(iter_arrays(path),
                                         [("zz/00000000", values)]))
        part.replace(path)

    def test_matches_of_an_extra_video_are_checked(self, tmp_path, capsys):
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        self._add_video_zz(tmp_path / FILE_MATCHES,
                           [[0.0, 1.0, float("nan"), 2.0]])
        capsys.readouterr()
        assert run_cli("track", "--out", tmp_path, *FAST) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / FILE_TRACKED).exists()

    def test_flow_of_an_extra_video_is_checked(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, *FAST, *self.FLOW) == 0
        self._add_video_zz(tmp_path / FILE_FLOW, [[-1.0, 0.0], [0.0, 0.0]])
        capsys.readouterr()
        assert run_cli("fuse", "--out", tmp_path, *FAST, *self.FLOW) == 3
        assert ">= 0" in capsys.readouterr().err
        assert not (tmp_path / FILE_FUSED).exists()
        assert not (tmp_path / FILE_SALIENT).exists()

    def test_one_video_alone_gives_its_rows_of_the_full_run(self, tmp_path):
        """``fuse`` … ``localize`` on one video's slice of the synth
        outputs write that video's rows of the full run: no stage looks
        at another video, and a video's clip noise is keyed by its id,
        not by its place among the videos of a file."""
        noisy = [arg for key, value in SCENARIOS["noisy"].items()
                 for arg in ("--stage-override", f"{key}={value}")]
        full = tmp_path / "full"
        for stage in PIPELINE_ORDER[:-1]:
            assert run_cli(stage, "--out", full, *noisy) == 0
        assert (full / FILE_DRIFT).exists() and (full / FILE_ALPHAS).exists()
        inputs = (FILE_GT, *FILE_DETECTIONS.values(), FILE_PROPOSALS,
                  FILE_DRIFT)
        outputs = (FILE_FUSED, FILE_SALIENT, FILE_TRACKED, FILE_SCORED,
                   FILE_CLIP_SCORES, FILE_PRUNED, FILE_FINAL)
        matches = formats.VideoArrays(full / FILE_MATCHES, "matches")
        flow = formats.VideoArrays(full / FILE_FLOW, "flow")
        noise = formats.VideoArrays(full / FILE_CLIP_NOISE, "clip_noise")

        def rows(path, video_id):
            return [fields for _, fields in
                    read_records(path, record_kind(path))
                    if fields[0] == video_id]

        for video_id in ("v000", "v001", "v002"):
            part = tmp_path / video_id
            part.mkdir()
            for name in (FILE_WEIGHTS, FILE_ALPHAS):
                (part / name).write_bytes((full / name).read_bytes())
            for name in inputs:
                formats.write_records(part / name, record_kind(full / name),
                                      rows(full / name, video_id))
            formats.write_matches(part / FILE_MATCHES,
                                  [(video_id, matches.read(video_id))])
            formats.write_flow(part / FILE_FLOW,
                               [(video_id, flow.read(video_id))])
            formats.write_clip_noise(part / FILE_CLIP_NOISE,
                                     [(video_id, noise.read(video_id))])
            for stage in PIPELINE_ORDER[1:-1]:
                assert run_cli(stage, "--out", part, *noisy) == 0
            for name in outputs:
                assert rows(part / name, video_id) == \
                    rows(full / name, video_id) != [], (video_id, name)

    def test_reversed_synth_rows_give_the_same_outputs(self, tmp_path):
        """Every output of ``fuse`` … ``evaluate`` is byte-identical when
        the data rows of every synth record file come in reverse order:
        no stage depends on where a video's rows sit in a file."""
        noisy = [arg for key, value in SCENARIOS["noisy"].items()
                 for arg in ("--stage-override", f"{key}={value}")]
        ahead, flipped = tmp_path / "ahead", tmp_path / "flipped"
        assert run_cli("synth", "--out", ahead, *noisy) == 0
        shutil.copytree(ahead, flipped)
        inputs = (FILE_GT, *FILE_DETECTIONS.values(), FILE_PROPOSALS,
                  FILE_DRIFT)
        for name in inputs:
            lines = (flipped / name).read_bytes().splitlines(keepends=True)
            assert len(lines) > 3, name
            (flipped / name).write_bytes(
                b"".join(lines[:2] + lines[2:][::-1]))
        for stage in PIPELINE_ORDER[1:]:
            for directory in (ahead, flipped):
                assert run_cli(stage, "--out", directory, *noisy) == 0
        a, b = tree_bytes(ahead), tree_bytes(flipped)
        assert sorted(a) == sorted(b)
        outputs = sorted(set(a) - set(inputs))
        assert FILE_SALIENT in outputs and FILE_FINAL in outputs
        for name in outputs:
            assert a[name] == b[name], f"{name} differs"

    # video ids whose array names sort in another order: "a-b/" and
    # "a.c/" come before "a/"
    RENAMED = {"v000": "a", "v001": "a-b", "v002": "a.c"}

    def _renamed_copy(self, out, copy):
        """``out``'s synth inputs with every video renamed."""
        copy.mkdir()
        rename = self.RENAMED
        for name in (FILE_GT, FILE_PROPOSALS, *FILE_DETECTIONS.values()):
            kind = record_kind(out / name)
            rows = [(rename[fields[0]], *fields[1:]) for _, fields in
                    read_records(out / name, kind)]
            formats.write_records(copy / name, kind, rows)
        # the containers take videos in array-name order
        order = sorted(rename.items(), key=lambda pair: pair[1] + "/")
        matches = formats.VideoArrays(out / FILE_MATCHES, "matches")
        formats.write_matches(copy / FILE_MATCHES,
                              [(new, matches.read(old)) for old, new in order])
        flow = formats.VideoArrays(out / FILE_FLOW, "flow")
        formats.write_flow(copy / FILE_FLOW,
                           [(new, flow.read(old)) for old, new in order])

    def test_array_name_order_is_not_video_order(self, tmp_path):
        """Matches and flow grids whose videos come in another order than
        the record files' are joined to the right video."""
        out, copy = tmp_path / "out", tmp_path / "renamed"
        assert run_cli("synth", "--out", out, *FAST, *self.FLOW) == 0
        self._renamed_copy(out, copy)
        for stage in ("fuse", "track"):
            for directory in (out, copy):
                assert run_cli(stage, "--out", directory, *FAST,
                               *self.FLOW) == 0
        back = {new: old for old, new in self.RENAMED.items()}
        for name in (FILE_FUSED, FILE_SALIENT):
            read = formats.read_detections if name == FILE_FUSED \
                else formats.read_proposals
            assert {back[video_id]: records for video_id, records
                    in read(copy / name).items()} == read(out / name)
        assert sorted((back[t.video_id], t.tube_id, t.boxes) for t in
                      formats.read_tubes(copy / FILE_TRACKED)) == \
            [(t.video_id, t.tube_id, t.boxes)
             for t in formats.read_tubes(out / FILE_TRACKED)]


class TestSynthFailsClosed:
    """``synth`` makes everything that spans videos before it writes a
    file, and each file appears only once its last video is written."""

    EARLIER = ("--stage-override", "synth.with_flow=true",
               "--stage-override", "synth.drift_rate=0.5")

    def test_failed_drift_placement_leaves_an_earlier_run(self, tmp_path,
                                                         capsys):
        assert run_cli("synth", "--out", tmp_path, *FAST,
                       *self.EARLIER) == 0
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        # one class roams the whole frame: no box stays clear of it
        assert run_cli("synth", "--out", tmp_path, "--seed", 5, *FAST,
                       "--stage-override", "synth.num_classes=1",
                       "--stage-override", "synth.drift_rate=1") == 4
        assert "no actor-free space" in capsys.readouterr().err
        assert tree_bytes(tmp_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    def test_fault_in_the_last_video_leaves_no_temp_file(
            self, tmp_path, capsys, monkeypatch):
        assert run_cli("synth", "--out", tmp_path, *FAST) == 0
        before = (tmp_path / FILE_MATCHES).read_bytes()
        match = synth.SyntheticMatcher.match

        def faulty(self, video_id, *args):
            if video_id == "v002":
                raise ProcessingError("matcher gave up")
            return match(self, video_id, *args)
        monkeypatch.setattr(synth.SyntheticMatcher, "match", faulty)
        capsys.readouterr()
        assert run_cli("synth", "--out", tmp_path, "--seed", 5, *FAST) == 4
        assert "matcher gave up" in capsys.readouterr().err
        assert (tmp_path / FILE_MATCHES).read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir()
                    if p.name.startswith(".")]


class TestStaleArtifacts:
    """An optional output a stage does not write is removed, so the next
    stage never reads one an earlier run left in ``--out``."""

    def test_synth_without_drift_drops_old_drift_tubes(self, tmp_path,
                                                       capsys):
        drift = ("--stage-override", "synth.drift_rate=0.5")
        assert run_cli("synth", "--out", tmp_path, *FAST, *drift) == 0
        assert (tmp_path / FILE_DRIFT).exists()
        for stage in ("synth", "fuse", "track", "score"):
            assert run_cli(stage, "--out", tmp_path, "--seed", 5, *FAST) == 0
        assert not (tmp_path / FILE_DRIFT).exists()
        tracked = formats.read_tubes(tmp_path / FILE_TRACKED)
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"score: tubes={len(tracked)}"

    def test_synth_without_flow_drops_old_flow_and_salient(self, tmp_path,
                                                           capsys):
        flow = ("--stage-override", "synth.with_flow=true")
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *flow) == 0
        assert (tmp_path / FILE_SALIENT).exists()
        capsys.readouterr()
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, "--seed", 5, *FAST) == 0
        assert not (tmp_path / FILE_FLOW).exists()
        assert not (tmp_path / FILE_SALIENT).exists()
        assert "salient_proposals" not in capsys.readouterr().out

    def test_synth_without_footprint_drops_old_alphas(self, tmp_path):
        # six one-actor videos give every class a tube in both splits
        footprint = ("--stage-override", "synth.with_footprint=true",
                     "--stage-override", "synth.video_count=6")
        assert run_cli("synth", "--out", tmp_path, *FAST, *footprint) == 0
        assert (tmp_path / FILE_ALPHAS).exists()
        assert run_cli("synth", "--out", tmp_path, *FAST) == 0
        assert not (tmp_path / FILE_ALPHAS).exists()


class TestClipNoise:
    """``score`` takes each video's clip noise from synth's
    ``clip_noise.atb`` and fails closed on a table that cannot be the
    scenario's; its own seed moves nothing."""

    SCORE_INPUTS = ("synth", "fuse", "track")

    def _inputs(self, out, *args):
        for stage in self.SCORE_INPUTS:
            assert run_cli(stage, "--out", out, *FAST, *args) == 0

    @staticmethod
    def _rewrite(path, edit):
        """The container with ``edit(video_id, table)`` applied to each
        table; a table edited to ``None`` is left out."""
        tables = [(name, edit(name, np.array(table)))
                  for name, table in iter_arrays(path)]
        formats.write_clip_noise(path, [(name, table) for name, table
                                        in tables if table is not None])

    def _fails(self, out, capsys, *needles, args=()):
        capsys.readouterr()
        assert run_cli("score", "--out", out, *FAST, *args) == 3
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err
        assert not (out / FILE_SCORED).exists()
        assert not (out / FILE_CLIP_SCORES).exists()

    def test_video_absent_from_the_table(self, tmp_path, capsys):
        self._inputs(tmp_path)
        self._rewrite(tmp_path / FILE_CLIP_NOISE,
                      lambda name, table: None if name == "v001" else table)
        self._fails(tmp_path, capsys, "no clip noise for video 'v001'",
                    FILE_CLIP_NOISE)

    def test_table_of_another_shape(self, tmp_path, capsys):
        self._inputs(tmp_path)
        self._fails(tmp_path, capsys, "is (24, 8), expected (16, 8)",
                    args=("--stage-override", "synth.frames_per_video=16"))
        self._fails(tmp_path, capsys, "is (24, 8), expected (24, 10)",
                    args=("--stage-override", "synth.feature_dim=10"))

    def test_clip_start_outside_the_table(self, tmp_path, capsys):
        self._inputs(tmp_path)
        path = tmp_path / FILE_TRACKED
        frame = formats.SCHEMAS["tubes"].columns.index("frame")
        rows = [list(fields) for _, fields in
                read_records(path, "tubes")]
        for row in rows:
            row[frame] = str(int(row[frame]) + 24)
        formats.write_records(path, "tubes", rows)
        self._fails(tmp_path, capsys, "clip start 24 of tube",
                    "outside the clip noise table of 24 rows")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_noise(self, tmp_path, capsys, bad):
        self._inputs(tmp_path)

        def spoil(name, table):
            if name == "v002":
                table[5, 1] = bad
            return table
        self._rewrite(tmp_path / FILE_CLIP_NOISE, spoil)
        self._fails(tmp_path, capsys, f"'v002' at clip start 5, column 1 "
                    f"is {bad!r}")

    def test_score_seed_moves_nothing(self, tmp_path):
        """The noise is synth's, so ``score --seed 8`` over ``--seed 7``
        artifacts writes what ``score --seed 7`` writes."""
        out = tmp_path / "run"
        self._inputs(out, "--seed", 7)
        outputs = {}
        for seed in (7, 8):
            assert run_cli("score", "--out", out, *FAST, "--seed", seed) == 0
            outputs[seed] = [(out / name).read_bytes()
                             for name in (FILE_SCORED, FILE_CLIP_SCORES)]
        assert outputs[7] == outputs[8]

    def test_noiseless_features_get_no_noise(self, tmp_path):
        """With ``synth.feature_noise=0`` the table is zeros and every clip
        scores as its noiseless features do."""
        quiet = ("--stage-override", "synth.feature_noise=0")
        self._inputs(tmp_path, *quiet)
        assert run_cli("score", "--out", tmp_path, *FAST, *quiet) == 0
        config = scenario_config(apply_overrides(default_config(), [
            "synth.video_count=3", "synth.frames_per_video=24",
            "synth.with_footprint=false", "synth.feature_noise=0"]))
        bundle = synth.generate(config)
        weights = formats.read_weights(tmp_path / FILE_WEIGHTS)
        clip_map = formats.read_clip_scores(tmp_path / FILE_CLIP_SCORES)
        assert clip_map
        for (video_id, _), clips in clip_map.items():
            assert not any(map(any, synth.clip_noise(
                config, video_index(video_id))))
        for tube in formats.read_tubes(tmp_path / FILE_TRACKED):
            clips = clip_map[(tube.video_id, tube.tube_id)]
            features = bundle.featurizer().clip_features(
                tube, clips.intervals)
            assert score_clips(features, weights, clips.intervals,
                               clips.clip_length) == clips


class TestFootprintReport:
    """``prune`` prints ``removed_footprint`` only for a footprint prune
    that ran, and otherwise says why it did not."""

    @pytest.mark.parametrize("overrides, key, value", [
        (("synth.video_count=6",), "removed_footprint", None),
        ((), "footprint", "skipped:no-alphas"),
        (("synth.video_count=6", "prune.footprint=false"), "footprint",
         "skipped:disabled"),
    ], ids=["ran", "no-alphas", "disabled"])
    def test_prune_says_whether_the_footprint_prune_ran(
            self, tmp_path, capsys, overrides, key, value):
        # with fewer than six one-actor videos some class lacks a tube in
        # one split, and synth writes no alphas.atb
        args = [arg for override in ("synth.with_footprint=true", *overrides)
                for arg in ("--stage-override", override)]
        for stage in ("synth", "fuse", "track", "score", "prune"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *args) == 0
        assert (tmp_path / FILE_ALPHAS).exists() == (
            "synth.video_count=6" in overrides)
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed.startswith("prune: ")
        stats = dict(part.split("=") for part in printed[7:].split())
        assert {"removed_footprint", "footprint"} & stats.keys() == {key}
        if value is not None:
            assert stats[key] == value


    def test_prune_names_the_classes_of_a_uniform_map(self, tmp_path,
                                                      capsys):
        args = [arg for override in ("synth.with_footprint=true",
                                     "synth.video_count=6")
                for arg in ("--stage-override", override)]
        for stage in ("synth", "fuse", "track", "score"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *args) == 0
        alphas = np.full((3, 49), 0.5)
        alphas[1, 10] = 0.9
        alphas[2] = 0.0
        varied = np.full((3, 49), 0.5)
        varied[:, 10] = 0.9
        for table, named in ((alphas, "0,2"), (varied, "none")):
            formats.write_alphas(tmp_path / FILE_ALPHAS, table)
            capsys.readouterr()
            assert run_cli("prune", "--out", tmp_path, *FAST, *args) == 0
            printed = capsys.readouterr().out.splitlines()[-1]
            stats = dict(part.split("=") for part in printed[7:].split())
            assert stats["footprint_uniform"] == named

    def test_uniform_classes_only_with_a_map(self, tmp_path, capsys):
        for stage in ("synth", "fuse", "track", "score", "prune"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        assert "footprint_uniform" not in capsys.readouterr().out


class TestFlags:
    def test_seed_changes_the_scenario(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, 1), (b, 2), (c, 1)):
            assert run_cli("synth", "--out", out, "--seed", seed, *FAST) == 0
        assert (a / FILE_GT).read_bytes() != (b / FILE_GT).read_bytes()
        assert (a / FILE_GT).read_bytes() == (c / FILE_GT).read_bytes()

    def test_seed_flag_beats_stage_override(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", a, "--seed", 5,
                       "--stage-override", "synth.seed=1", *FAST) == 0
        assert run_cli("synth", "--out", b, "--seed", 5, *FAST) == 0
        assert (a / FILE_GT).read_bytes() == (b / FILE_GT).read_bytes()

    def test_config_file_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.video_count = 2\n"
                       "synth.frames_per_video = 24\n"
                       "synth.with_footprint = false\n")
        assert run_cli("synth", "--out", tmp_path, "--config", cfg) == 0
        assert "videos=2" in capsys.readouterr().out

    def test_stage_override_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.video_count = 2\n"
                       "synth.frames_per_video = 24\n"
                       "synth.with_footprint = false\n")
        assert run_cli("synth", "--out", tmp_path, "--config", cfg,
                       "--stage-override", "synth.video_count=4") == 0
        assert "videos=4" in capsys.readouterr().out


class TestEvaluate:
    def test_report_printed_and_written(self, tmp_path, capsys):
        assert run_cli("pipeline", "--out", tmp_path, "--seed", 2,
                       *FAST) == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "report.txt").read_text()
        assert "video-mAP" in out
        assert "recall-track" in out

    def test_empty_predictions_score_zero(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, "--seed", 2, *FAST) == 0
        formats.write_tubes(tmp_path / FILE_FINAL, [])
        assert run_cli("evaluate", "--out", tmp_path, *FAST) == 0
        out = capsys.readouterr().out
        gt = formats.read_gt_tubes(tmp_path / FILE_GT)
        gt_frames = sum(len(t.boxes) for t in gt)
        assert gt_frames == 72
        assert f"false_neg {gt_frames}" in out
        assert "mAP    0.0000" in out
        assert "recall-track: 0.0000" in out


# A scenario where each switchable stage visibly changes its input:
# prune removes overlaps, localize trims, and fuse writes salient
# proposals because flow is on.
SWITCHED = ("--seed", 1,
            "--stage-override", "synth.video_count=3",
            "--stage-override", "synth.frames_per_video=40",
            "--stage-override", "synth.with_footprint=false",
            "--stage-override", "synth.with_flow=true",
            "--stage-override", "synth.false_positive_rate=0.5",
            "--stage-override", "synth.duplicate_label_rate=0.3",
            "--stage-override", "synth.span_fraction=0.7",
            "--stage-override", "synth.jitter_sigma=2")


def _skipped_prune(out, printed):
    return "removed_overlap=0" in printed["prune"]


def _skipped_localize(out, printed):
    return (out / FILE_FINAL).read_bytes() == (out / FILE_PRUNED).read_bytes()


def _skipped_saliency(out, printed):
    return not (out / FILE_SALIENT).exists()


class TestStageSwitches:
    # each stage acts at its default and does nothing at the value given:
    # an st-IoU is never above 1.0 and a clip score never below 0.0
    @pytest.mark.parametrize("key,value,skipped", [
        ("prune.st_overlap", "1.0", _skipped_prune),
        ("localize.tau", "0.0", _skipped_localize),
        ("fuse.enabled", "false", _skipped_saliency),
    ], ids=["prune", "localize", "fuse"])
    def test_switch_turns_its_stage_off(self, tmp_path, capsys, key, value,
                                        skipped):
        for off in (False, True):
            out = tmp_path / str(off)
            overrides = ("--stage-override", f"{key}={value}") if off else ()
            printed = {}
            for stage in PIPELINE_ORDER:
                assert run_cli(stage, "--out", out, *SWITCHED,
                               *overrides) == 0
                printed[stage] = capsys.readouterr().out
            assert skipped(out, printed) == off


def test_module_runs_as_script(tmp_path, child_env):
    result = subprocess.run(
        [sys.executable, "-m", "actiontubes.cli", "synth",
         "--out", str(tmp_path), *FAST],
        capture_output=True, text=True, env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("synth:")


def test_help_lists_every_stage():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
