"""The synthetic scenario's configuration and its simulated models.

``ScenarioConfig`` describes a scenario; ``synth`` generates it.  The
simulated models stand in for trained ones in the later stages:
``SyntheticRegionScorer`` scores regions for the trackers and
``SyntheticFeaturizer`` makes clip features for the recurrent scorer
and feature grids for the footprint map, both from the ground truth.
Nothing here loads numpy until a grid or a random draw is made, so the
stages that only score regions or make clip features run without it.
Random draws come from per-(seed, stream, key) generators, so every
value is a pure function of its key.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, TypeVar

from .config import MOTIONS
from .errors import ConfigError, InputError
from .geometry import hulls_meet, iou
from .model import (BoundingBox, FrameInterval, GroundTruthTube, Tube,
                    pairwise_sum)

if TYPE_CHECKING:
    import numpy as np

# Stream ids feeding the per-(seed, stream, video) seed sequences.
_ACTOR, _STATIC, _FLOW_DET, _EARLY, _PROPOSAL, _MATCH, _CLIP, _GRID, \
    _DRIFT, _FLOW_GRID, _GMM, _BACKGROUND = range(12)


def _rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, stream) + key)))


_T = TypeVar("_T")

_VIDEO_ID = re.compile(r"v([0-9]+)\Z")


def video_index(video_id: str) -> int:
    """The index synth made the video ``video_id`` from: the inverse of
    ``synth.video_id``, keyed on the id alone, so a video's noise does
    not depend on which other videos a file holds.

    An id synth would not make (``v`` and at least three ASCII digits,
    with no leading zero beyond those three) is rejected.
    """
    found = _VIDEO_ID.match(video_id)
    if found is None or video_id != f"v{int(found[1]):03d}":
        raise InputError(f"video id {video_id!r} is not one synth makes: "
                         f"'v' and the video index, at least three digits")
    return int(found[1])


def _of_video(table: Mapping[str, _T], video_id: str) -> _T:
    """The video's entry in a per-video table of its ground truth.

    A video without ground truth, absent or empty, is rejected.
    """
    entry = table.get(video_id)
    if not entry:
        raise InputError(f"no ground truth for video {video_id!r}")
    return entry


@dataclass(frozen=True)
class CellLayout:
    """Square map of cells, each covering a block of grid positions."""

    cell_size: int = 2
    map_side: int = 7

    def __post_init__(self):
        if self.cell_size < 1 or self.map_side < 1:
            raise InputError(
                f"cell_size and map_side must be >= 1, got "
                f"{self.cell_size} and {self.map_side}")

    @property
    def grid_side(self) -> int:
        return self.cell_size * self.map_side

    @property
    def num_cells(self) -> int:
        return self.map_side * self.map_side


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's size, actors, noise and simulated models.

    Every actor is a square of side ``actor_size`` moving by
    ``actor_motion`` at ``actor_speed`` px per frame; actor ``a`` of
    video ``i`` has class ``(i * actors_per_video + a) % num_classes``.
    """

    seed: int = 0
    video_count: int = 8
    frames_per_video: int = 40
    frame_size: tuple[int, int] = (320, 240)
    num_classes: int = 3
    actor_size: float = 40.0
    actor_motion: str = "linear"
    actor_speed: float = 4.0
    actors_per_video: int = 1
    span_fraction: float = 1.0
    jitter_sigma: float = 0.0
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    label_confusion: float = 0.0
    duplicate_label_rate: float = 0.0
    match_noise: float = 0.0
    proposal_recall: float = 1.0
    near_miss_count: int = 2
    distractor_count: int = 1
    drift_rate: float = 0.0
    clip_length: int = 16
    feature_dim: int = 8
    feature_noise: float = 0.1
    feature_margin: float = 2.0
    layout: CellLayout = CellLayout()
    gmm_components: int = 2
    descriptor_cap: int = 2000
    with_footprint: bool = True
    with_flow: bool = False
    grid_step: int = 32

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.video_count < 1 or self.frames_per_video < 2:
            raise ConfigError("need at least 1 video of 2 frames")
        w, h = self.frame_size
        if w < 16 or h < 16:
            raise ConfigError(f"frame size too small: {self.frame_size}")
        if self.num_classes < 1:
            raise ConfigError("need at least one class")
        if self.actors_per_video < 1:
            raise ConfigError("need at least one actor per video")
        for name in ("span_fraction", "proposal_recall"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        for name in ("miss_rate", "false_positive_rate", "label_confusion",
                     "duplicate_label_rate", "drift_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.actor_motion not in MOTIONS:
            raise ConfigError(f"unknown motion model: {self.actor_motion!r}")
        for name in ("actor_speed", "jitter_sigma", "match_noise",
                     "feature_noise"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.near_miss_count < 0 or self.distractor_count < 0:
            raise ConfigError("proposal counts must be >= 0")
        if self.clip_length < 1:
            raise ConfigError("clip_length must be >= 1")
        if self.feature_dim < self.num_classes:
            raise ConfigError(
                f"feature_dim {self.feature_dim} cannot hold "
                f"{self.num_classes} class directions")
        if self.feature_margin <= 0:
            raise ConfigError("feature_margin must be positive")
        if self.gmm_components < 1:
            raise ConfigError("gmm_components must be >= 1")
        if self.descriptor_cap < 10 * self.gmm_components:
            raise ConfigError("descriptor_cap too small for the mixture")
        if self.grid_step < 4:
            raise ConfigError("grid_step must be >= 4")
        size = self.actor_size
        if not size > 0 or not math.isfinite(size):
            raise ConfigError(f"actor size must be positive, got {size}")
        for label in range(self.num_classes):
            rx0, ry0, rx1, ry1 = home_region(self, label)
            if rx1 - rx0 < size + 2 or ry1 - ry0 < size + 2:
                raise ConfigError(
                    f"actor of size {size} does not fit the home region "
                    f"of class {label}")


def home_region(config: ScenarioConfig,
                label: int) -> tuple[float, float, float, float]:
    """Class-specific sub-rectangle of the frame the actor roams in."""
    grid = math.ceil(math.sqrt(config.num_classes))
    w, h = config.frame_size
    cell_w, cell_h = w / grid, h / grid
    col, row = label % grid, label // grid
    inset_x, inset_y = cell_w * 0.08, cell_h * 0.08
    return (col * cell_w + inset_x, row * cell_h + inset_y,
            (col + 1) * cell_w - inset_x, (row + 1) * cell_h - inset_y)


class SyntheticRegionScorer:
    """Per-class score of a region: its best IOU with that class's truth.

    The truth present on each frame is indexed once per video, as
    ``frame -> [(label, box)]`` in ground-truth order.  A video with no
    ground truth is rejected, not scored as background, and so is a
    truth tube of a class outside ``config.num_classes``.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]]):
        self._num_classes = config.num_classes
        self._by_frame: dict[str, dict[int, list]] = {}
        for video_id, tubes in gt_by_video.items():
            index = self._by_frame[video_id] = {}
            for gt in tubes:
                if gt.label >= self._num_classes:
                    raise InputError(
                        f"truth tube {gt.tube_id} of video {video_id!r} has "
                        f"class {gt.label}, but synth.num_classes is "
                        f"{self._num_classes}")
                for frame, box in gt.iter_frames():
                    index.setdefault(frame, []).append((gt.label, box))

    def class_scores(self, video_id: str, frame_index: int,
                     box: BoundingBox) -> tuple[float, ...]:
        scores = [0.0] * self._num_classes
        for label, gt_box in _of_video(self._by_frame, video_id).get(
                frame_index, ()):
            ov = iou(box, gt_box)
            if ov > scores[label]:
                scores[label] = ov
        return tuple(scores)


class SyntheticFeaturizer:
    """Clip features and conv-layer grids derived from ground truth.

    Clip features describe what a tube's boxes cover: the class
    direction of the best-overlapping actor, or nothing, plus the
    video's clip noise at the clip's start.  ``synth`` draws that noise
    (``synth.clip_noise``) and writes it to ``clip_noise.atb``; the
    caller hands over the video's table.  Feature grids describe the
    frame itself: a class blob at each actor's location over a
    video-specific background direction, so that background regions
    look alike within a video but carry no class.  A video's grid noise
    is keyed by its index in the scenario, ``video_index`` of its id.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]]):
        self._config = config
        self._gt = dict(gt_by_video)

    def class_direction(self, label: int) -> list[float]:
        mu = [0.0] * self._config.feature_dim
        mu[label] = self._config.feature_margin
        return mu

    def background_direction(self, video_id: str) -> np.ndarray:
        """Unit direction of the video's background, scaled like a class."""
        import numpy as np
        config = self._config
        _of_video(self._gt, video_id)
        rng = _rng(config.seed, _BACKGROUND, video_index(video_id))
        v = rng.normal(0.0, 1.0, config.feature_dim)
        return config.feature_margin * v / np.linalg.norm(v)

    def clip_features(self, tube: Tube | GroundTruthTube,
                      intervals: Sequence[FrameInterval],
                      noise: Sequence[Sequence[float]] | None = None
                      ) -> list[list[float]]:
        """Per clip, the class direction of the truth ``tube`` covers best,
        plus row ``interval.start`` of ``noise``, the video's clip noise
        table (``None`` adds none).

        A clip's overlap with a truth is the mean ``iou`` over the frames
        both cover, summed as ``np.mean`` sums.  A truth whose box hull
        misses the tube's is passed over: its overlap is 0, which never
        beats the strict ``>`` against 0.0.  A clip start outside the
        noise table is rejected.
        """
        truths = [gt for gt in _of_video(self._gt, tube.video_id)
                  if hulls_meet(tube, gt)]
        end = tube.start + len(tube.boxes)
        out = []
        for interval in intervals:
            best_label, best_ov = None, 0.0
            for gt in truths:
                lo = max(interval.start, gt.start, tube.start)
                hi = min(interval.end, gt.start + len(gt.boxes), end)
                if lo >= hi:
                    continue
                overlaps = [iou(tube.boxes[f - tube.start],
                                gt.boxes[f - gt.start]) for f in range(lo, hi)]
                ov = pairwise_sum(overlaps) / len(overlaps)
                if ov > best_ov:
                    best_label, best_ov = gt.label, ov
            features = [0.0] * self._config.feature_dim \
                if best_label is None else self.class_direction(best_label)
            if noise is not None:
                if not 0 <= interval.start < len(noise):
                    raise InputError(
                        f"clip start {interval.start} of tube "
                        f"{tube.tube_id!r} in {tube.video_id!r} is outside "
                        f"the clip noise table of {len(noise)} rows")
                features = [f + n for f, n in
                            zip(features, noise[interval.start])]
            out.append(features)
        return out

    def feature_grid(self, video_id: str,
                     intervals: Sequence[FrameInterval]) -> np.ndarray:
        import numpy as np
        config = self._config
        truths = _of_video(self._gt, video_id)
        index = video_index(video_id)
        side = config.layout.grid_side
        dim = config.feature_dim
        w, h = config.frame_size
        cell_w, cell_h = w / side, h / side
        out = np.zeros((len(intervals), side, side, dim))
        background = self.background_direction(video_id)
        for t, interval in enumerate(intervals):
            covered = np.zeros((side, side), dtype=bool)
            for gt in truths:
                lo = max(interval.start, gt.start)
                hi = min(interval.end, gt.start + len(gt.boxes))
                if lo >= hi:
                    continue
                stack = np.array([gt.boxes[f - gt.start].as_tuple()
                                  for f in range(lo, hi)])
                x0, y0 = stack[:, 0].min(), stack[:, 1].min()
                x1, y1 = stack[:, 2].max(), stack[:, 3].max()
                ci0 = max(0, int(math.floor(y0 / cell_h)))
                ci1 = min(side, int(math.ceil(y1 / cell_h)))
                cj0 = max(0, int(math.floor(x0 / cell_w)))
                cj1 = min(side, int(math.ceil(x1 / cell_w)))
                out[t, ci0:ci1, cj0:cj1, :] += \
                    self.class_direction(gt.label)
                covered[ci0:ci1, cj0:cj1] = True
            out[t][~covered] += background
            if config.feature_noise > 0:
                rng = _rng(config.seed, _GRID, index, interval.start)
                out[t] += rng.normal(0.0, config.feature_noise,
                                     (side, side, dim))
        return out
