"""Deterministic synthetic scenarios exercising the whole pipeline.

Actors are axis-aligned squares moving inside class-specific home
regions of the frame.  From their ground-truth paths the generator
derives everything a detector stack would normally produce: per-stream
noisy detections, region proposals, dense point matches, flow magnitude
grids, clip features for the recurrent scorer and convolutional feature
grids for the footprint map.  Every artifact is a pure function of
(seed, stream, video) so bundles reproduce bit for bit and videos can
be generated in any order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .config import MOTIONS
from .errors import ConfigError, InputError, ProcessingError
from .footprint import (CellLayout, DiagonalGaussianMixture,
                        FeatureGridSequence, aggregate_cells, fit_gmm,
                        nearest_centroid_alphas)
from .geometry import iou
from .model import (BoundingBox, Detection, FlowMagnitudeGrid, FrameInterval,
                    GroundTruthTube, Proposal, Source, Tube)
from .scoring import RecurrentScorerWeights, slice_clips
from .tracker import query_matches

STREAMS = ("static", "flow", "early")

# Stream ids feeding the per-(seed, stream, video) seed sequences.
_ACTOR, _STATIC, _FLOW_DET, _EARLY, _PROPOSAL, _MATCH, _CLIP, _GRID, \
    _DRIFT, _FLOW_GRID, _GMM, _BACKGROUND = range(12)

_SOURCE_BY_STREAM = {_STATIC: Source.STATIC, _FLOW_DET: Source.FLOW,
                     _EARLY: Source.EARLY_FUSION}

_NEAR_MISS_SIGMA = 2.0
_GRID_BLOB = 3.0


def _rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, stream) + key)))


@dataclass(frozen=True)
class ActorSpec:
    """One moving square: class, side length, motion model and speed."""

    label: int
    size: float = 40.0
    motion: str = "linear"
    speed: float = 4.0

    def __post_init__(self):
        if self.label < 0:
            raise ConfigError(f"actor label must be >= 0, got {self.label}")
        if not self.size > 0 or not math.isfinite(self.size):
            raise ConfigError(f"actor size must be positive, got {self.size}")
        if self.motion not in MOTIONS:
            raise ConfigError(f"unknown motion model: {self.motion!r}")
        if self.speed < 0 or not math.isfinite(self.speed):
            raise ConfigError(f"speed must be >= 0, got {self.speed}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    video_count: int = 8
    frames_per_video: int = 40
    frame_size: tuple[int, int] = (320, 240)
    num_classes: int = 3
    actors: tuple[ActorSpec, ...] = ()
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
        for name in ("jitter_sigma", "match_noise", "feature_noise"):
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
        for spec in self.resolved_actors():
            if spec.label >= self.num_classes:
                raise ConfigError(
                    f"actor label {spec.label} outside {self.num_classes} "
                    f"classes")
            rx0, ry0, rx1, ry1 = home_region(self, spec.label)
            if rx1 - rx0 < spec.size + 2 or ry1 - ry0 < spec.size + 2:
                raise ConfigError(
                    f"actor of size {spec.size} does not fit the home "
                    f"region of class {spec.label}")

    def resolved_actors(self) -> tuple[ActorSpec, ...]:
        if self.actors:
            return self.actors
        return tuple(ActorSpec(label=c) for c in range(self.num_classes))


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


def _fold(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect a free path into [lo, hi] (triangle wave)."""
    span = hi - lo
    if span <= 0:
        return np.full_like(values, lo)
    t = np.mod(values - lo, 2.0 * span)
    return lo + np.where(t <= span, t, 2.0 * span - t)


def _motion_path(spec: ActorSpec, home: tuple[float, float, float, float],
                 frames: int, rng: np.random.Generator) -> np.ndarray:
    """Center positions, one row per frame, kept inside the home region."""
    half = spec.size / 2.0
    lo = np.array([home[0] + half, home[1] + half])
    hi = np.array([home[2] - half, home[3] - half])
    t = np.arange(frames, dtype=np.float64)
    if spec.motion == "linear":
        theta = rng.uniform(0.0, 2.0 * math.pi)
        vel = spec.speed * np.array([math.cos(theta), math.sin(theta)])
        start = rng.uniform(lo, hi)
        raw = start[None, :] + t[:, None] * vel[None, :]
        return np.column_stack([_fold(raw[:, 0], lo[0], hi[0]),
                                _fold(raw[:, 1], lo[1], hi[1])])
    if spec.motion == "sinusoidal":
        center = (lo + hi) / 2.0
        amp = (hi - lo) / 2.0 * rng.uniform(0.6, 1.0, 2)
        phase = rng.uniform(0.0, 2.0 * math.pi, 2)
        omega = np.where(amp > 0, spec.speed / math.sqrt(2.0)
                         / np.maximum(amp, 1e-9), 0.0)
        return center[None, :] + amp[None, :] * np.sin(
            omega[None, :] * t[:, None] + phase[None, :])
    pos = rng.uniform(lo, hi)
    path = [pos]
    for _ in range(frames - 1):
        pos = np.clip(pos + rng.normal(0.0, max(spec.speed, 1e-9), 2),
                      lo, hi)
        path.append(pos)
    return np.asarray(path)


def _box_at_center(center: np.ndarray, size: float) -> BoundingBox:
    half = size / 2.0
    return BoundingBox(float(center[0] - half), float(center[1] - half),
                       float(center[0] + half), float(center[1] + half))


def _video_actors(config: ScenarioConfig,
                  video_index: int) -> list[ActorSpec]:
    pool = config.resolved_actors()
    base = video_index * config.actors_per_video
    return [pool[(base + a) % len(pool)]
            for a in range(config.actors_per_video)]


@dataclass(frozen=True)
class VideoBundle:
    video_id: str
    extent: FrameInterval
    frame_size: tuple[int, int]
    gt_tubes: tuple[GroundTruthTube, ...]
    detections: Mapping[str, tuple[Detection, ...]]
    proposals: Mapping[int, tuple[Proposal, ...]]
    flow: Mapping[int, FlowMagnitudeGrid]


@dataclass(frozen=True)
class ScenarioBundle:
    config: ScenarioConfig
    videos: tuple[VideoBundle, ...]
    weights: RecurrentScorerWeights
    gmm: DiagonalGaussianMixture | None
    alphas: np.ndarray | None
    drift_tubes: Mapping[str, tuple[Tube, ...]] = field(default_factory=dict)

    def gt_by_video(self) -> dict[str, tuple[GroundTruthTube, ...]]:
        return {v.video_id: v.gt_tubes for v in self.videos}

    def all_gt(self) -> list[GroundTruthTube]:
        return [gt for v in self.videos for gt in v.gt_tubes]

    def video_indices(self) -> dict[str, int]:
        return {v.video_id: i for i, v in enumerate(self.videos)}

    def matcher(self) -> "SyntheticMatcher":
        return SyntheticMatcher(self.config, self.gt_by_video(),
                                self.video_indices())

    def region_scorer(self) -> "SyntheticRegionScorer":
        return SyntheticRegionScorer(self.config, self.gt_by_video())

    def featurizer(self) -> "SyntheticFeaturizer":
        return SyntheticFeaturizer(self.config, self.gt_by_video(),
                                   self.video_indices())


def _one_hot(num_classes: int, label: int, value: float) -> tuple[float, ...]:
    scores = [0.0] * num_classes
    scores[label] = float(value)
    return tuple(scores)


def _jitter_box(box: BoundingBox, sigma: float, rng: np.random.Generator,
                frame_size: tuple[int, int]) -> BoundingBox:
    if sigma == 0:
        return box
    w, h = frame_size
    dx0, dy0, dx1, dy1 = rng.normal(0.0, sigma, 4)
    x0, x1 = sorted((box.x_min + dx0, box.x_max + dx1))
    y0, y1 = sorted((box.y_min + dy0, box.y_max + dy1))
    x0 = min(max(x0, 0.0), w - 2.0)
    y0 = min(max(y0, 0.0), h - 2.0)
    x1 = min(max(x1, x0 + 2.0), float(w))
    y1 = min(max(y1, y0 + 2.0), float(h))
    return BoundingBox(x0, y0, x1, y1)


def _stream_detections(config: ScenarioConfig, video_index: int,
                       gt_tubes: Sequence[GroundTruthTube],
                       stream: int) -> tuple[Detection, ...]:
    rng = _rng(config.seed, stream, video_index)
    source = _SOURCE_BY_STREAM[stream]
    w, h = config.frame_size
    num_classes = config.num_classes
    out: list[Detection] = []
    for frame in range(config.frames_per_video):
        for gt in gt_tubes:
            if frame not in gt.interval():
                continue
            if config.miss_rate > 0 and rng.uniform() < config.miss_rate:
                continue
            gt_box = gt.box_at(frame)
            box = _jitter_box(gt_box, config.jitter_sigma, rng,
                              config.frame_size)
            strength = max(iou(box, gt_box), 0.05)
            label = gt.label
            if (config.label_confusion > 0 and num_classes > 1
                    and rng.uniform() < config.label_confusion):
                label = int((gt.label + 1 + rng.integers(num_classes - 1))
                            % num_classes)
                scores = [0.0] * num_classes
                scores[label] = strength
                scores[gt.label] = 0.3 * strength
                out.append(Detection(frame, box, tuple(scores), source))
            else:
                out.append(Detection(frame, box,
                                     _one_hot(num_classes, label, strength),
                                     source))
            if (config.duplicate_label_rate > 0 and num_classes > 1
                    and rng.uniform() < config.duplicate_label_rate):
                dup_label = (gt.label + 1) % num_classes
                scores = [0.0] * num_classes
                scores[dup_label] = 0.9 * strength
                scores[gt.label] = 0.3 * strength
                out.append(Detection(frame, box, tuple(scores), source))
        if (config.false_positive_rate > 0
                and rng.uniform() < config.false_positive_rate):
            side = rng.uniform(20.0, min(60.0, w / 2.0, h / 2.0))
            x0 = rng.uniform(0.0, w - side)
            y0 = rng.uniform(0.0, h - side)
            label = int(rng.integers(num_classes))
            out.append(Detection(
                frame, BoundingBox(x0, y0, x0 + side, y0 + side),
                _one_hot(num_classes, label, rng.uniform(0.1, 0.4)), source))
    return tuple(out)


def _video_proposals(config: ScenarioConfig, video_index: int,
                     gt_tubes: Sequence[GroundTruthTube]
                     ) -> dict[int, tuple[Proposal, ...]]:
    rng = _rng(config.seed, _PROPOSAL, video_index)
    w, h = config.frame_size
    out: dict[int, tuple[Proposal, ...]] = {}
    for frame in range(config.frames_per_video):
        props: list[Proposal] = []
        for gt in gt_tubes:
            if frame not in gt.interval():
                continue
            gt_box = gt.box_at(frame)
            if rng.uniform() < config.proposal_recall:
                props.append(Proposal(frame, gt_box,
                                      0.85 + 0.1 * rng.uniform()))
            # Near misses are unconditional so a recall gap on the exact
            # box never leaves the actor without any usable proposal.
            for _ in range(config.near_miss_count):
                box = _jitter_box(gt_box, _NEAR_MISS_SIGMA, rng,
                                  config.frame_size)
                props.append(Proposal(frame, box,
                                      0.55 + 0.15 * rng.uniform()))
        for _ in range(config.distractor_count):
            side = rng.uniform(20.0, min(60.0, w / 2.0, h / 2.0))
            x0 = rng.uniform(0.0, w - side)
            y0 = rng.uniform(0.0, h - side)
            props.append(Proposal(frame,
                                  BoundingBox(x0, y0, x0 + side, y0 + side),
                                  0.1 + 0.15 * rng.uniform()))
        out[frame] = tuple(props)
    return out


def _video_flow(config: ScenarioConfig, video_index: int,
                gt_tubes: Sequence[GroundTruthTube]
                ) -> dict[int, FlowMagnitudeGrid]:
    rng = _rng(config.seed, _FLOW_GRID, video_index)
    w, h = config.frame_size
    grids = {}
    for frame in range(config.frames_per_video):
        mag = rng.uniform(0.0, 0.2, (h, w))
        for gt in gt_tubes:
            if frame not in gt.interval():
                continue
            box = gt.box_at(frame)
            other = frame + 1 if frame + 1 in gt.interval() else frame - 1
            if other in gt.interval():
                a, b = gt.box_at(frame).center(), gt.box_at(other).center()
                disp = math.hypot(a[0] - b[0], a[1] - b[1])
            else:
                disp = 0.0
            x0 = max(0, int(math.floor(box.x_min)))
            y0 = max(0, int(math.floor(box.y_min)))
            x1 = min(w, int(math.ceil(box.x_max)))
            y1 = min(h, int(math.ceil(box.y_max)))
            mag[y0:y1, x0:x1] = disp + rng.uniform(0.0, 0.2,
                                                   (y1 - y0, x1 - x0))
        grids[frame] = FlowMagnitudeGrid(frame, mag)
    return grids


def _generate_video(config: ScenarioConfig, index: int) -> VideoBundle:
    video_id = f"v{index:03d}"
    rng = _rng(config.seed, _ACTOR, index)
    frames = config.frames_per_video
    length = max(1, round(config.span_fraction * frames))
    start = (frames - length) // 2
    gt_tubes = []
    for a, spec in enumerate(_video_actors(config, index)):
        centers = _motion_path(spec, home_region(config, spec.label),
                               length, rng)
        boxes = tuple(_box_at_center(c, spec.size) for c in centers)
        gt_tubes.append(GroundTruthTube(video_id, f"a{a}", spec.label,
                                        start, boxes))
    gt_tubes = tuple(gt_tubes)
    detections = {
        "static": _stream_detections(config, index, gt_tubes, _STATIC),
        "flow": _stream_detections(config, index, gt_tubes, _FLOW_DET),
        "early": _stream_detections(config, index, gt_tubes, _EARLY),
    }
    flow = _video_flow(config, index, gt_tubes) if config.with_flow else {}
    return VideoBundle(video_id, FrameInterval(0, frames),
                       config.frame_size, gt_tubes, detections,
                       _video_proposals(config, index, gt_tubes), flow)


class SyntheticMatcher:
    """Point matcher over the synthetic ground truth.

    Each adjacent frame pair gets a full-frame field: background grid
    points that stay put, minus any falling inside an actor box on
    either frame, plus a grid of points inside each actor box displaced
    by the actor's center motion.  Fields are pure functions of
    (seed, video, frame), so caching never changes results.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]],
                 video_indices: Mapping[str, int]):
        self._config = config
        self._gt = dict(gt_by_video)
        self._indices = dict(video_indices)
        self._cache: dict[tuple[str, int], np.ndarray] = {}

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> np.ndarray:
        field = self._field(video_id, min(from_frame, to_frame))
        return query_matches(field, from_frame, to_frame, box)

    def _field(self, video_id: str, lo: int) -> np.ndarray:
        key = (video_id, lo)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        config = self._config
        w, h = config.frame_size
        step = config.grid_step
        xs = np.arange(step / 2.0, w, step)
        ys = np.arange(step / 2.0, h, step)
        gx, gy = np.meshgrid(xs, ys)
        bg = np.column_stack([gx.ravel(), gy.ravel()])
        tubes = self._gt.get(video_id, ())
        keep = np.ones(len(bg), dtype=bool)
        for frame in (lo, lo + 1):
            for gt in tubes:
                if frame not in gt.interval():
                    continue
                b = gt.box_at(frame)
                inside = ((bg[:, 0] >= b.x_min) & (bg[:, 0] <= b.x_max)
                          & (bg[:, 1] >= b.y_min) & (bg[:, 1] <= b.y_max))
                keep &= ~inside
        from_parts = [bg[keep]]
        to_parts = [bg[keep]]
        for gt in tubes:
            if lo not in gt.interval() or lo + 1 not in gt.interval():
                continue
            b0, b1 = gt.box_at(lo), gt.box_at(lo + 1)
            n = max(3, int(round(b0.width / 8.0)))
            inset = min(4.0, b0.width / 8.0, b0.height / 8.0)
            px = np.linspace(b0.x_min + inset, b0.x_max - inset, n)
            py = np.linspace(b0.y_min + inset, b0.y_max - inset, n)
            mx, my = np.meshgrid(px, py)
            pts = np.column_stack([mx.ravel(), my.ravel()])
            c0, c1 = b0.center(), b1.center()
            delta = np.array([c1[0] - c0[0], c1[1] - c0[1]])
            from_parts.append(pts)
            to_parts.append(pts + delta[None, :])
        from_pts = np.concatenate(from_parts)
        to_pts = np.concatenate(to_parts)
        if config.match_noise > 0:
            noise_rng = _rng(config.seed, _MATCH,
                             self._indices.get(video_id, 0), lo)
            to_pts = to_pts + noise_rng.normal(0.0, config.match_noise,
                                               to_pts.shape)
        if len(self._cache) >= 512:
            self._cache.clear()
        result = np.hstack([from_pts, to_pts])
        self._cache[key] = result
        return result


class SyntheticRegionScorer:
    """Per-class score of a region: its best IOU with that class's truth.

    The truth present on each frame is indexed once per video, as
    ``frame -> [(label, box)]`` in ground-truth order.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]]):
        self._num_classes = config.num_classes
        self._by_frame: dict[str, dict[int, list]] = {}
        for video_id, tubes in gt_by_video.items():
            index = self._by_frame[video_id] = {}
            for gt in tubes:
                for frame, box in gt.iter_frames():
                    index.setdefault(frame, []).append((gt.label, box))

    def class_scores(self, video_id: str, frame_index: int,
                     box: BoundingBox) -> tuple[float, ...]:
        scores = [0.0] * self._num_classes
        for label, gt_box in self._by_frame.get(video_id, {}).get(
                frame_index, ()):
            ov = iou(box, gt_box)
            if ov > scores[label]:
                scores[label] = ov
        return tuple(scores)


class SyntheticFeaturizer:
    """Clip features and conv-layer grids derived from ground truth.

    Clip features describe what a tube's boxes cover: the class
    direction of the best-overlapping actor, or nothing.  Feature grids
    describe the frame itself: a class blob at each actor's location
    over a video-specific background direction, so that background
    regions look alike within a video but carry no class.  Noise is
    keyed by (video, clip start) so repeated queries agree exactly.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]],
                 video_indices: Mapping[str, int]):
        self._config = config
        self._gt = dict(gt_by_video)
        self._indices = dict(video_indices)

    def class_direction(self, label: int) -> np.ndarray:
        mu = np.zeros(self._config.feature_dim)
        mu[label] = self._config.feature_margin
        return mu

    def background_direction(self, video_id: str) -> np.ndarray:
        """Unit direction of the video's background, scaled like a class."""
        config = self._config
        rng = _rng(config.seed, _BACKGROUND, self._indices.get(video_id, 0))
        v = rng.normal(0.0, 1.0, config.feature_dim)
        return config.feature_margin * v / np.linalg.norm(v)

    def clip_features(self, video_id: str,
                      boxes: Mapping[int, BoundingBox],
                      intervals: Sequence[FrameInterval]) -> np.ndarray:
        config = self._config
        out = np.zeros((len(intervals), config.feature_dim))
        for t, interval in enumerate(intervals):
            best_label, best_ov = None, 0.0
            for gt in self._gt.get(video_id, ()):
                lo = max(interval.start, gt.start)
                hi = min(interval.end, gt.start + len(gt.boxes))
                overlaps = [iou(boxes[f], gt.boxes[f - gt.start])
                            for f in range(lo, hi) if f in boxes]
                if not overlaps:
                    continue
                ov = float(np.mean(overlaps))
                if ov > best_ov:
                    best_label, best_ov = gt.label, ov
            if best_label is not None:
                out[t] = self.class_direction(best_label)
            if config.feature_noise > 0:
                rng = _rng(config.seed, _CLIP,
                           self._indices.get(video_id, 0), interval.start)
                out[t] += rng.normal(0.0, config.feature_noise,
                                     config.feature_dim)
        return out

    def feature_grid(self, video_id: str,
                     intervals: Sequence[FrameInterval]) -> np.ndarray:
        config = self._config
        side = config.layout.grid_side
        dim = config.feature_dim
        w, h = config.frame_size
        cell_w, cell_h = w / side, h / side
        out = np.zeros((len(intervals), side, side, dim))
        background = self.background_direction(video_id)
        for t, interval in enumerate(intervals):
            covered = np.zeros((side, side), dtype=bool)
            for gt in self._gt.get(video_id, ()):
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
                    self.class_direction(gt.label)[None, None, :]
                covered[ci0:ci1, cj0:cj1] = True
            out[t][~covered] += background
            if config.feature_noise > 0:
                rng = _rng(config.seed, _GRID,
                           self._indices.get(video_id, 0), interval.start)
                out[t] += rng.normal(0.0, config.feature_noise,
                                     (side, side, dim))
        return out


def analytic_weights(config: ScenarioConfig) -> RecurrentScorerWeights:
    """Scorer weights whose argmax is the nearest class direction.

    The recurrence is disabled and the classifier row for class c is
    2 mu_c with bias -|mu_c|^2, so the logit order equals the distance
    order to the class directions.
    """
    dim, num_classes = config.feature_dim, config.num_classes
    w_cls = np.zeros((num_classes, dim))
    for c in range(num_classes):
        w_cls[c, c] = 2.0 * config.feature_margin
    b_cls = np.full(num_classes, -config.feature_margin ** 2)
    return RecurrentScorerWeights(
        w_io=np.eye(dim), w_hh=np.zeros((dim, dim)), b_y=np.zeros(dim),
        w_cls=w_cls, b_cls=b_cls, activation="relu")


def _footprint_stats(config: ScenarioConfig, videos: Sequence[VideoBundle],
                     featurizer: SyntheticFeaturizer):
    """GMM plus per-cell classifier accuracies from the true tubes."""
    layout = config.layout
    grids = []
    labels = []
    for video in videos:
        for gt in video.gt_tubes:
            intervals = slice_clips(gt.interval(), config.clip_length)
            grids.append(featurizer.feature_grid(video.video_id, intervals))
            labels.append(gt.label)
    pool = np.concatenate([g.reshape(-1, config.feature_dim) for g in grids])
    if len(pool) > config.descriptor_cap:
        rng = _rng(config.seed, _GMM)
        idx = rng.choice(len(pool), config.descriptor_cap, replace=False)
        pool = pool[np.sort(idx)]
    gmm = fit_gmm(pool, config.gmm_components, seed=config.seed)
    items = [(label, aggregate_cells(FeatureGridSequence(grid), layout, gmm))
             for label, grid in zip(labels, grids)]
    # alternate within each class so both splits cover all classes
    train, test = [], []
    seen: dict[int, int] = {}
    for label, vectors in items:
        (train if seen.get(label, 0) % 2 == 0 else test).append(
            (label, vectors))
        seen[label] = seen.get(label, 0) + 1
    for split in (train, test):
        if set(range(config.num_classes)) - {label for label, _ in split}:
            return gmm, None
    return gmm, nearest_centroid_alphas(train, test, config.num_classes,
                                        layout)


def generate(config: ScenarioConfig) -> ScenarioBundle:
    """Build the full scenario, drift tubes included when configured."""
    videos = tuple(_generate_video(config, i)
                   for i in range(config.video_count))
    gmm = alphas = None
    if config.with_footprint:
        featurizer = SyntheticFeaturizer(
            config, {v.video_id: v.gt_tubes for v in videos},
            {v.video_id: i for i, v in enumerate(videos)})
        gmm, alphas = _footprint_stats(config, videos, featurizer)
    bundle = ScenarioBundle(config, videos, analytic_weights(config),
                            gmm, alphas)
    if config.drift_rate > 0:
        bundle = inject_drift(bundle, config.drift_rate)
    return bundle


def _free_box(video: VideoBundle, side: float, rng: np.random.Generator,
              keep_out: Sequence[tuple[float, float, float, float]] = (),
              ) -> BoundingBox | None:
    """A box overlapping no ground-truth box on any frame, or None.

    ``keep_out`` rectangles are avoided as well.
    """
    w, h = video.frame_size
    stacks = [np.array([b.as_tuple() for b in gt.boxes])
              for gt in video.gt_tubes]
    if keep_out:
        stacks.append(np.array(keep_out, dtype=np.float64))
    for _ in range(500):
        x0 = rng.uniform(0.0, w - side)
        y0 = rng.uniform(0.0, h - side)
        x1, y1 = x0 + side, y0 + side
        clear = True
        for stack in stacks:
            hits = ((x0 < stack[:, 2]) & (x1 > stack[:, 0])
                    & (y0 < stack[:, 3]) & (y1 > stack[:, 1]))
            if hits.any():
                clear = False
                break
        if clear:
            return BoundingBox(x0, y0, x1, y1)
    return None


def inject_drift(bundle: ScenarioBundle, rate: float) -> ScenarioBundle:
    """Add static off-actor tubes, round(rate * true tube count) of them.

    Each fabricated tube carries the label of one of its video's actors,
    as if a tracker following that actor had wandered off, but sits
    outside both every ground-truth box and the labeled class's home
    region.  Spatio-temporal IOU with the truth is therefore exactly
    zero, and the tube's location contradicts its label.  Injected tubes
    are recognizable by their "drift" id prefix.
    """
    if not 0.0 <= rate <= 1.0:
        raise InputError(f"drift rate must be in [0, 1], got {rate}")
    total = sum(len(v.gt_tubes) for v in bundle.videos)
    count = round(rate * total)
    if count == 0:
        return bundle
    config = bundle.config
    rng = _rng(config.seed, _DRIFT)
    side = min(40.0, config.frame_size[0] / 4.0, config.frame_size[1] / 4.0)
    drift: dict[str, list[Tube]] = {}
    for k in range(count):
        video = bundle.videos[k % len(bundle.videos)]
        label = video.gt_tubes[k % len(video.gt_tubes)].label
        box = _free_box(video, side, rng,
                        keep_out=(home_region(config, label),))
        if box is None:
            raise ProcessingError(
                f"no actor-free space left in {video.video_id} for a "
                f"drifted tube")
        scores = tuple(0.1 + 0.02 * float(u)
                       for u in rng.uniform(size=config.num_classes))
        entries = tuple(Detection(f, box, scores, Source.TRACKED)
                        for f in video.extent.frames())
        drift.setdefault(video.video_id, []).append(
            Tube(video.video_id, f"drift{k:03d}", entries, label=label))
    merged = {vid: tuple(tubes) for vid, tubes in drift.items()}
    for vid, tubes in bundle.drift_tubes.items():
        merged[vid] = merged.get(vid, ()) + tubes
    return replace(bundle, drift_tubes=merged)


def is_injected(tube: Tube) -> bool:
    return tube.tube_id.startswith("drift")
