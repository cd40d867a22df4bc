"""End-to-end tests for the command line front end.

Stages are exercised through ``main`` so the tests see exactly what a
shell user sees: exit codes, stdout, stderr, and the files left behind
in the output directory.
"""

import subprocess
import sys

import pytest

from actiontubes import formats
from actiontubes.cli import STAGES, main
from actiontubes.errors import ProcessingError
from actiontubes.pipeline import (FILE_ALPHAS, FILE_CLIP_SCORES,
                                  FILE_DETECTIONS, FILE_DRIFT, FILE_FINAL,
                                  FILE_FLOW, FILE_FUSED, FILE_GT,
                                  FILE_MATCHES, FILE_PROPOSALS, FILE_PRUNED,
                                  FILE_SALIENT, FILE_SCORED, FILE_TRACKED,
                                  PIPELINE_ORDER, _in_video_order)

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
        # a retired key that old config files may still set
        cfg = tmp_path / "old.cfg"
        cfg.write_text("localize.mode = trim\n")
        assert run_cli("synth", "--out", tmp_path, "--config", cfg) == 2
        assert "localize.mode" in capsys.readouterr().err

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
        # Rejected whether or not a pruner runs (FAST writes no alphas,
        # so with prune.enabled=false neither pruner reads the tubes).
        for stage in ("synth", "fuse", "track", "score"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        assert not (tmp_path / FILE_ALPHAS).exists()
        tracked = tmp_path / FILE_TRACKED
        (tmp_path / FILE_SCORED).write_bytes(tracked.read_bytes())
        first = formats.read_tubes(tracked)[0]
        assert first.score is None
        for enabled in ("true", "false"):
            capsys.readouterr()
            assert run_cli("prune", "--out", tmp_path, *FAST,
                           "--stage-override",
                           f"prune.enabled={enabled}") == 3, enabled
            err = capsys.readouterr().err
            assert f"tube {first.tube_id!r} in {first.video_id!r}" in err
            assert not (tmp_path / FILE_PRUNED).exists()

    def test_negative_tube_label_returns_three(self, tmp_path, capsys):
        for stage in ("synth", "fuse", "track", "score", "prune"):
            assert run_cli(stage, "--out", tmp_path, *FAST) == 0
        pruned = tmp_path / FILE_PRUNED
        rows = [(*fields[:9], "-1", fields[10])
                for _, fields in formats.read_records(pruned, "tubes")]
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
        rows = [fields for _, fields in formats.read_records(gt, "gttubes")]
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
                         in formats.read_records(tracked, "tubes")]

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

    def test_detections_of_an_unknown_video_return_three(self, tmp_path,
                                                         capsys):
        baseline = ("--stage-override", "track.baseline=true")
        for stage in ("synth", "fuse"):
            assert run_cli(stage, "--out", tmp_path, *FAST, *baseline) == 0
        for name, kind in ((FILE_FUSED, "detections"),
                           (FILE_PROPOSALS, "proposals")):
            path = tmp_path / name
            rows = [(fields[0].replace("v000", "v999"), *fields[1:])
                    for _, fields in formats.read_records(path, kind)]
            formats.write_records(path, kind, rows)
        capsys.readouterr()
        assert run_cli("track", "--out", tmp_path, *FAST, *baseline) == 3
        assert "'v999'" in capsys.readouterr().err
        assert not (tmp_path / FILE_TRACKED).exists()

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
        "fuse-proposals": ("fuse", FILE_PROPOSALS, "objectness",
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
                formats.read_records(path, kind)]
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
                    formats.read_records(out / name, kind)]
            formats.write_records(copy / name, kind, rows)
        formats.write_matches(copy / FILE_MATCHES, {
            (rename[video_id], frame): rows for (video_id, frame), rows
            in formats.read_matches(out / FILE_MATCHES).items()})
        formats.write_flow(copy / FILE_FLOW, sorted(
            ((rename[video_id], grid) for video_id, grid
             in formats.read_flow(out / FILE_FLOW)),
            key=lambda pair: f"{pair[0]}/{pair[1].frame_index:08d}"))

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

    def test_in_video_order_holds_what_comes_early(self):
        calls = []

        def process(video_id, chunk):
            calls.append(video_id)
            return chunk
        # in name order, "a-b/" < "a.c/" < "a/" < "ab/"; "ab" and "z" are
        # passed over
        chunks = [("a-b", 1), ("a.c", 2), ("a", 3), ("ab", 0), ("z", 4)]
        video_ids = ["a", "a-b", "a.c", "b", "c"]
        assert list(_in_video_order(video_ids, iter(chunks), process)) == \
            [("a", 3), ("a-b", 1), ("a.c", 2), ("b", None), ("c", None)]
        # each chunk processed as it streams past; "b" once "z" passed it
        assert calls == ["a-b", "a.c", "a", "b", "c"]


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
    @pytest.mark.parametrize("key,skipped", [
        ("prune.enabled", _skipped_prune),
        ("localize.enabled", _skipped_localize),
        ("fuse.enabled", _skipped_saliency),
    ], ids=["prune", "localize", "fuse"])
    def test_switch_turns_its_stage_off(self, tmp_path, capsys, key,
                                        skipped):
        for enabled in ("true", "false"):
            out = tmp_path / enabled
            printed = {}
            for stage in PIPELINE_ORDER:
                assert run_cli(stage, "--out", out, *SWITCHED,
                               "--stage-override", f"{key}={enabled}") == 0
                printed[stage] = capsys.readouterr().out
            assert skipped(out, printed) == (enabled == "false")


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
