"""Flat key-value pipeline configuration with a typed key registry.

Config files hold one ``section.key = value`` assignment per line, with
``#`` comments.  Every key is declared in the registry below with its
type, range and default; unknown keys and out-of-range values are
rejected up front so a typo cannot silently run with defaults.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import ConfigError

# The motion models of synth.actor_motion; scenario.ScenarioConfig checks
# the same.
MOTIONS = ("linear", "sinusoidal", "random_walk")


@dataclass(frozen=True)
class _Key:
    name: str
    default: object
    parse: object
    doc: str


def _parse_int(lo: int):
    def parse(text: str, name: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{name}: not an integer: {text!r}") from None
        if value < lo:
            raise ConfigError(f"{name}: must be >= {lo}, got {value}")
        return value
    return parse


def _parse_float(lo: float, hi: float | None = None,
                 lo_open: bool = False):
    def parse(text: str, name: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{name}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name}: not a finite number: {text!r}")
        low_ok = value > lo if lo_open else value >= lo
        if not low_ok or (hi is not None and value > hi):
            bound = ">" if lo_open else ">="
            top = "" if hi is None else f" and <= {hi}"
            raise ConfigError(
                f"{name}: must be {bound} {lo}{top}, got {value}")
        return value
    return parse


def _parse_bool(text: str, name: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{name}: expected true or false, got {text!r}")


def _parse_enum(values: tuple[str, ...]):
    def parse(text: str, name: str) -> str:
        if text not in values:
            raise ConfigError(
                f"{name}: expected one of {', '.join(values)}, got {text!r}")
        return text
    return parse


def _parse_sigmas(text: str, name: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{name}: needs at least one threshold")
    inner = _parse_float(0.0, 1.0, lo_open=True)
    values = tuple(inner(p, name) for p in parts)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name}: thresholds must be strictly increasing")
    return values


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_DECLARATIONS = [
    # scenario generation
    ("synth.seed", 0, _parse_int(0), "master random seed"),
    ("synth.video_count", 8, _parse_int(1), "number of videos"),
    ("synth.frames_per_video", 40, _parse_int(2), "frames per video"),
    ("synth.frame_width", 320, _parse_int(16), "frame width, px"),
    ("synth.frame_height", 240, _parse_int(16), "frame height, px"),
    ("synth.num_classes", 3, _parse_int(1), "action classes"),
    ("synth.actors_per_video", 1, _parse_int(1), "actors per video"),
    ("synth.actor_size", 40.0, _parse_float(4.0), "actor side length, px"),
    ("synth.actor_motion", "linear", _parse_enum(MOTIONS), "motion model"),
    ("synth.actor_speed", 4.0, _parse_float(0.0), "actor speed, px/frame"),
    ("synth.span_fraction", 1.0, _parse_float(0.0, 1.0, lo_open=True),
     "fraction of the video the action covers"),
    ("synth.jitter_sigma", 0.0, _parse_float(0.0), "box corner noise, px"),
    ("synth.miss_rate", 0.0, _parse_float(0.0, 1.0),
     "chance a detection is dropped"),
    ("synth.false_positive_rate", 0.0, _parse_float(0.0, 1.0),
     "chance of a spurious detection per frame"),
    ("synth.label_confusion", 0.0, _parse_float(0.0, 1.0),
     "chance a detection flips to a wrong class"),
    ("synth.duplicate_label_rate", 0.0, _parse_float(0.0, 1.0),
     "chance a detection gains a shifted-label twin"),
    ("synth.match_noise", 0.0, _parse_float(0.0),
     "point match position noise, px"),
    ("synth.proposal_recall", 1.0, _parse_float(0.0, 1.0, lo_open=True),
     "chance the exact box appears among proposals"),
    ("synth.near_miss_count", 2, _parse_int(0),
     "jittered proposals per actor per frame"),
    ("synth.distractor_count", 1, _parse_int(0),
     "random proposals per frame"),
    ("synth.drift_rate", 0.0, _parse_float(0.0, 1.0),
     "injected off-actor tubes per true tube"),
    ("synth.feature_dim", 8, _parse_int(1), "clip feature dimension"),
    ("synth.feature_noise", 0.1, _parse_float(0.0),
     "clip feature noise sigma"),
    ("synth.feature_margin", 2.0, _parse_float(0.0, lo_open=True),
     "class direction magnitude"),
    ("synth.gmm_components", 2, _parse_int(1), "mixture components"),
    ("synth.descriptor_cap", 2000, _parse_int(20),
     "descriptor subsample for mixture fitting"),
    ("synth.with_footprint", True, _parse_bool,
     "emit mixture and cell accuracies"),
    ("synth.with_flow", False, _parse_bool, "emit flow magnitude grids"),
    ("synth.grid_step", 32, _parse_int(4), "background match spacing, px"),
    # shared clip/cell geometry
    ("clip.length", 16, _parse_int(1), "frames per clip"),
    ("cells.cell_size", 2, _parse_int(1), "grid positions per cell side"),
    ("cells.map_side", 7, _parse_int(1), "cells per map side"),
    # fusion
    ("fuse.enabled", True, _parse_bool, "run the fusion stage"),
    ("fuse.nms_overlap", 0.3, _parse_float(0.0, 1.0),
     "suppression overlap threshold"),
    ("fuse.min_mean_magnitude", 0.5, _parse_float(0.0),
     "flow saliency threshold for proposals"),
    # tracking
    ("track.min_match_ratio", 0.5, _parse_float(0.0, 1.0),
     "matched-point fraction gate"),
    ("track.min_prev_overlap", 0.2, _parse_float(0.0, 1.0),
     "overlap gate against the previous region"),
    ("track.consume_overlap", 0.5, _parse_float(0.0, 1.0),
     "overlap needed to consume a detection"),
    ("track.max_predicted_run", 8, _parse_int(0),
     "consecutive tracked-only frames allowed"),
    ("track.baseline", False, _parse_bool,
     "use the center-distance baseline tracker"),
    ("track.search_radius", 20.0, _parse_float(0.0, lo_open=True),
     "baseline center search radius, px"),
    # tube scoring and pruning
    ("prune.st_overlap", 0.3, _parse_float(0.0, 1.0),
     "spatio-temporal overlap pruning threshold; 1.0 removes no tube"),
    ("prune.footprint", True, _parse_bool,
     "remove drifted tubes via the footprint map"),
    # temporal localization
    ("localize.tau", 0.3, _parse_float(0.0, 1.0),
     "clip score threshold; 0.0 keeps every tube whole"),
    # evaluation
    ("eval.sigmas", (0.05, 0.1, 0.2, 0.3, 0.5), _parse_sigmas,
     "overlap thresholds, comma separated, increasing"),
    ("eval.recall_sigma", 0.5, _parse_float(0.0, 1.0, lo_open=True),
     "tube recall overlap threshold"),
    ("eval.taxonomy_sigma", 0.5, _parse_float(0.0, 1.0, lo_open=True),
     "false positive taxonomy overlap threshold"),
    ("eval.taxonomy_floor", 0.1, _parse_float(0.0, 1.0, lo_open=True),
     "minimum overlap counting as localized at all"),
    ("eval.fpr_cap", 0.6, _parse_float(0.0, 1.0, lo_open=True),
     "false positive rate integration cap"),
]

KEYS: dict[str, _Key] = {
    name: _Key(name, default, parse, doc)
    for name, default, parse, doc in _DECLARATIONS
}


class PipelineConfig:
    """Immutable mapping of registry keys to validated values."""

    def __init__(self, values: Mapping[str, object]):
        unknown = set(values) - set(KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = {name: key.default for name, key in KEYS.items()}
        data.update(values)
        self._values = data

    def __getitem__(self, name: str):
        if name not in KEYS:
            raise ConfigError(f"unknown config key: {name}")
        return self._values[name]

    def __eq__(self, other):
        return isinstance(other, PipelineConfig) and \
            self._values == other._values

    def with_values(self, values: Mapping[str, object]) -> "PipelineConfig":
        merged = dict(self._values)
        merged.update(values)
        return PipelineConfig(merged)

    def to_text(self) -> str:
        lines = [f"{name} = {_format_value(self._values[name])}"
                 for name in sorted(KEYS)]
        return "\n".join(lines) + "\n"


def default_config() -> PipelineConfig:
    return PipelineConfig({})


def parse_value(name: str, text: str):
    key = KEYS.get(name)
    if key is None:
        raise ConfigError(f"unknown config key: {name}")
    return key.parse(text, name)


def parse_config_text(text: str, origin: str = "<config>") -> PipelineConfig:
    values: dict[str, object] = {}
    # lines end at "\n" only, so each report names the line an editor
    # shows; other line breaks are whitespace of their line
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value_text = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{origin}, line {number}: expected 'key = value', got "
                f"{raw!r}")
        name = name.strip()
        if name in values:
            raise ConfigError(
                f"{origin}, line {number}: duplicate key {name}")
        values[name] = parse_value(name, value_text.strip())
    return PipelineConfig(values)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    return parse_config_text(text, origin=str(path))


def apply_overrides(config: PipelineConfig,
                    items: Iterable[str]) -> PipelineConfig:
    """Apply ``key=value`` strings on top of an existing config."""
    values = {}
    for item in items:
        name, sep, value_text = item.partition("=")
        if not sep:
            raise ConfigError(f"override needs key=value, got {item!r}")
        values[name.strip()] = parse_value(name.strip(), value_text.strip())
    return config.with_values(values)
