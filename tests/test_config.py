"""Tests for the flat key-value configuration registry."""

import pytest

from actiontubes.config import (KEYS, apply_overrides, default_config,
                                load_config, parse_config_text, parse_value)
from actiontubes.errors import ConfigError
from actiontubes.evaluation import EvalConfig
from actiontubes.pipeline import (cell_layout, eval_config, scenario_config,
                                  tracker_config)
from actiontubes.scenario import CellLayout, ScenarioConfig
from actiontubes.tracker import TrackerConfig


class TestRegistry:
    def test_defaults_cover_every_key(self):
        config = default_config()
        for name in KEYS:
            config[name]

    def test_paper_constants_are_the_defaults(self):
        config = default_config()
        assert config["fuse.nms_overlap"] == 0.3
        assert config["prune.st_overlap"] == 0.3
        assert config["localize.tau"] == 0.3
        assert config["clip.length"] == 16
        assert config["cells.map_side"] == 7

    def test_unknown_key_rejected(self):
        # retired keys that old config files may still set
        for name in ("track.typo", "localize.mode", "prune.enabled",
                     "localize.enabled"):
            with pytest.raises(ConfigError) as info:
                parse_value(name, "1")
            assert "unknown config key" in str(info.value)

    def test_unknown_key_rejected_on_lookup(self):
        with pytest.raises(ConfigError):
            default_config()["no.such.key"]

    @pytest.mark.parametrize("name,text", [
        ("synth.seed", "-1"),
        ("synth.video_count", "0"),
        ("track.min_match_ratio", "1.5"),
        ("localize.tau", "-0.1"),
        ("clip.length", "zero"),
        ("fuse.enabled", "yes"),
        ("eval.sigmas", "0.5,0.3"),
        ("eval.sigmas", ""),
        ("eval.fpr_cap", "0"),
        ("eval.taxonomy_floor", "0"),
        ("track.search_radius", "inf"),
        ("synth.feature_margin", "inf"),
    ])
    def test_out_of_range_values_rejected(self, name, text):
        with pytest.raises(ConfigError):
            parse_value(name, text)

    @pytest.mark.parametrize("name,text,expected", [
        ("synth.seed", "17", 17),
        ("track.min_prev_overlap", "0.0", 0.0),
        ("fuse.enabled", "false", False),
        ("localize.tau", "0.5", 0.5),
        ("eval.sigmas", "0.1, 0.5", (0.1, 0.5)),
    ])
    def test_valid_values_parse(self, name, text, expected):
        assert parse_value(name, text) == expected


class TestConfigText:
    def test_round_trip_through_text(self):
        config = apply_overrides(default_config(),
                                 ["synth.jitter_sigma=2.5",
                                  "track.baseline=true"])
        again = parse_config_text(config.to_text())
        assert again == config

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text(
            "# a comment\n\nsynth.seed = 5\n  # indented comment\n")
        assert config["synth.seed"] == 5

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("synth.seed 5\n")
        assert "line 1" in str(info.value)

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1e",
                                     "\x85", "\u2028", "\r"])
    def test_lines_end_at_newline_only(self, brk):
        """Another line break is whitespace of its line, so an error
        names the line an editor shows."""
        assert parse_config_text(f"synth.seed = 5{brk}\n")["synth.seed"] \
            == 5
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text(f"synth.seed = 5{brk}\n\nsynth.seed 6\n")

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("synth.seed = 1\nsynth.seed = 2\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes("# café\nsynth.video_count = 2\n".encode("latin-1"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: not UTF-8")

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("synth.video_count = 2\nlocalize.tau = 0.4\n")
        config = load_config(path)
        assert config["synth.video_count"] == 2
        assert config["localize.tau"] == 0.4


class TestOverrides:
    def test_override_wins(self):
        config = apply_overrides(default_config(), ["clip.length=4"])
        assert config["clip.length"] == 4

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["clip.length"])

    def test_override_validates_value(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["clip.length=-3"])


# Another valid value for every key ``scenario_config`` reads.
SCENARIO_OVERRIDES = {
    "synth.seed": "1", "synth.video_count": "9",
    "synth.frames_per_video": "41", "synth.frame_width": "321",
    "synth.frame_height": "241", "synth.num_classes": "2",
    "synth.actors_per_video": "2", "synth.actor_size": "30.0",
    "synth.actor_motion": "sinusoidal", "synth.actor_speed": "10.0",
    "synth.span_fraction": "0.5", "synth.jitter_sigma": "3.0",
    "synth.miss_rate": "0.2", "synth.false_positive_rate": "0.2",
    "synth.label_confusion": "0.2", "synth.duplicate_label_rate": "0.2",
    "synth.match_noise": "0.5", "synth.proposal_recall": "0.9",
    "synth.near_miss_count": "3", "synth.distractor_count": "2",
    "synth.drift_rate": "0.5", "synth.feature_dim": "9",
    "synth.feature_noise": "0.2", "synth.feature_margin": "3.0",
    "synth.gmm_components": "3", "synth.descriptor_cap": "1000",
    "synth.with_footprint": "false", "synth.with_flow": "true",
    "synth.grid_step": "16", "clip.length": "8", "cells.cell_size": "3",
    "cells.map_side": "5",
}


class TestBridges:
    def test_scenario_config_carries_the_knobs(self):
        config = apply_overrides(default_config(), [
            "synth.num_classes=2", "synth.actor_speed=10.0",
            "synth.jitter_sigma=3.0", "clip.length=8"])
        scenario = scenario_config(config)
        assert scenario.num_classes == 2
        assert scenario.actor_speed == 10.0
        assert scenario.jitter_sigma == 3.0
        assert scenario.clip_length == 8
        assert scenario.layout.map_side == 7

    def test_every_scenario_key_has_an_override(self):
        assert sorted(SCENARIO_OVERRIDES) == sorted(
            name for name in KEYS
            if name.startswith(("synth.", "cells.")) or name == "clip.length")

    @pytest.mark.parametrize("name", sorted(SCENARIO_OVERRIDES))
    def test_every_scenario_key_reaches_the_scenario(self, name):
        default = scenario_config(default_config())
        changed = scenario_config(apply_overrides(
            default_config(), [f"{name}={SCENARIO_OVERRIDES[name]}"]))
        assert changed != default

    def test_scenario_cross_field_validation_surfaces(self):
        config = apply_overrides(default_config(), [
            "synth.feature_dim=2", "synth.num_classes=3"])
        with pytest.raises(ConfigError):
            scenario_config(config)

    def test_tracker_and_eval_bridges(self):
        config = default_config()
        tracker = tracker_config(config)
        assert tracker.min_match_ratio == 0.5
        evaluation = eval_config(config)
        assert evaluation.iou_thresholds == (0.05, 0.1, 0.2, 0.3, 0.5)


def test_dataclass_defaults_are_the_registry_defaults():
    # each default is stated twice, in the registry and in its dataclass
    config = default_config()
    assert ScenarioConfig() == scenario_config(config)
    assert TrackerConfig() == tracker_config(config)
    assert EvalConfig() == eval_config(config)
    assert CellLayout() == cell_layout(config)
