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
from actiontubes.pipeline import (FILE_ALPHAS, FILE_FINAL, FILE_FUSED,
                                  FILE_GT, FILE_PRUNED, FILE_SALIENT,
                                  FILE_SCORED, FILE_TRACKED, PIPELINE_ORDER)

FAST = ("--stage-override", "synth.video_count=3",
        "--stage-override", "synth.frames_per_video=24",
        "--stage-override", "synth.with_footprint=false")


def run_cli(*args):
    return main([str(a) for a in args])


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
