"""Deterministic synthetic scenarios exercising the whole pipeline.

Actors are axis-aligned squares moving inside class-specific home
regions of the frame.  From their ground-truth paths the generator
derives everything a detector stack would normally produce: per-stream
noisy detections, region proposals scored for every class, dense point
matches, flow magnitude grids, scorer weights and the footprint
statistics.  Every artifact is a
pure function of (seed, stream, video) so bundles reproduce bit for bit
and videos can be generated in any order.  The scenario's configuration
and the simulated model the later stages query (clip features) live in
``scenario``, which loads no numpy; they are imported here too, so they
can be taken from either module.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, ProcessingError
from .footprint import aggregate_cells, fit_gmm, nearest_centroid_alphas
from .geometry import iou
from .model import (BoundingBox, Detection, FlowMagnitudeGrid,
                    GroundTruthTube, Proposal, Source, Tube)
from .scenario import (_ACTOR, _CLIP, _DRIFT, _EARLY, _FLOW_DET, _FLOW_GRID,
                       _GMM, _MATCH, _PROPOSAL, _STATIC, ScenarioConfig,
                       SyntheticFeaturizer, _of_video, _rng, home_region,
                       video_index)
from .scoring import RecurrentScorerWeights, slice_clips
from .tracker import query_matches

STREAMS = ("static", "flow", "early")

_SOURCE_BY_STREAM = {_STATIC: Source.STATIC, _FLOW_DET: Source.FLOW,
                     _EARLY: Source.EARLY_FUSION}
_STREAM_IDS = dict(zip(STREAMS, (_STATIC, _FLOW_DET, _EARLY)))

_NEAR_MISS_SIGMA = 2.0


def _fold(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect a free path into [lo, hi] (triangle wave)."""
    span = hi - lo
    if span <= 0:
        return np.full_like(values, lo)
    t = np.mod(values - lo, 2.0 * span)
    return lo + np.where(t <= span, t, 2.0 * span - t)


def _motion_path(config: ScenarioConfig,
                 home: tuple[float, float, float, float],
                 frames: int, rng: np.random.Generator) -> np.ndarray:
    """An actor's center positions, one row per frame, kept inside the
    home region."""
    speed = config.actor_speed
    half = config.actor_size / 2.0
    lo = np.array([home[0] + half, home[1] + half])
    hi = np.array([home[2] - half, home[3] - half])
    t = np.arange(frames, dtype=np.float64)
    if config.actor_motion == "linear":
        theta = rng.uniform(0.0, 2.0 * math.pi)
        vel = speed * np.array([math.cos(theta), math.sin(theta)])
        start = rng.uniform(lo, hi)
        raw = start[None, :] + t[:, None] * vel[None, :]
        return np.column_stack([_fold(raw[:, 0], lo[0], hi[0]),
                                _fold(raw[:, 1], lo[1], hi[1])])
    if config.actor_motion == "sinusoidal":
        center = (lo + hi) / 2.0
        amp = (hi - lo) / 2.0 * rng.uniform(0.6, 1.0, 2)
        phase = rng.uniform(0.0, 2.0 * math.pi, 2)
        omega = np.where(amp > 0, speed / math.sqrt(2.0)
                         / np.maximum(amp, 1e-9), 0.0)
        return center[None, :] + amp[None, :] * np.sin(
            omega[None, :] * t[:, None] + phase[None, :])
    pos = rng.uniform(lo, hi)
    path = [pos]
    for _ in range(frames - 1):
        pos = np.clip(pos + rng.normal(0.0, max(speed, 1e-9), 2),
                      lo, hi)
        path.append(pos)
    return np.asarray(path)


def _box_at_center(center: np.ndarray, size: float) -> BoundingBox:
    half = size / 2.0
    return BoundingBox(float(center[0] - half), float(center[1] - half),
                       float(center[0] + half), float(center[1] + half))


def video_id(index: int) -> str:
    """The id of the scenario's video ``index``; ``scenario.video_index``
    inverts it."""
    return f"v{index:03d}"


def video_order(video_count: int) -> list[int]:
    """Video indices in ascending video-id order, the order of every file.

    Ids have at least three digits, so from 1,000 videos on this is not
    index order: ``v1000`` comes before ``v101``.  Ids are ``v`` and
    digits, so this is also the array-name order of the containers.
    """
    return sorted(range(video_count), key=video_id)


@dataclass(frozen=True)
class ScenarioBundle:
    """A scenario: what spans its videos, and each video when asked.

    It holds every video's ground truth (``gt_tubes``, in index order),
    the scorer weights, the footprint alphas and the drift tubes.
    A video's other inputs (detections, proposals, matches, flow) are
    made from its ground truth when a method below is called, each from
    its own (seed, stream, video) generator, so they are the same
    whenever and in whatever order they are asked for, and a caller that
    writes each before asking for the next holds one video's at a time.
    """

    config: ScenarioConfig
    gt_tubes: tuple[tuple[GroundTruthTube, ...], ...]
    weights: RecurrentScorerWeights
    alphas: np.ndarray | None = None
    drift_tubes: Mapping[str, tuple[Tube, ...]] = field(default_factory=dict)

    def detections(self, stream: str, index: int) -> tuple[Detection, ...]:
        """Video ``index``'s detections of ``stream`` (one of
        ``STREAMS``)."""
        return _stream_detections(self.config, index, self.gt_tubes[index],
                                  _STREAM_IDS[stream])

    def proposals(self, index: int) -> dict[int, tuple[Proposal, ...]]:
        return _video_proposals(self.config, index, self.gt_tubes[index])

    def matches(self, index: int) -> dict[int, np.ndarray]:
        """Video ``index``'s full-frame matches from each frame to the
        next, by frame, each pair's rows as one (N, 4) array."""
        vid = video_id(index)
        matcher = SyntheticMatcher(self.config, {vid: self.gt_tubes[index]})
        w, h = self.config.frame_size
        full = BoundingBox(0.0, 0.0, float(w), float(h))
        # an array per pair as it is answered: one video's rows as Python
        # floats would take several times the memory
        return {frame: np.array(matcher.match(vid, frame, frame + 1, full),
                                dtype=np.float64).reshape(-1, 4)
                for frame in range(self.config.frames_per_video - 1)}

    def flow(self, index: int) -> Iterator[FlowMagnitudeGrid]:
        return video_flow(self.config, index, self.gt_tubes[index])

    def clip_noise(self, index: int) -> np.ndarray:
        return clip_noise(self.config, index)

    def all_gt(self) -> list[GroundTruthTube]:
        return [gt for tubes in self.gt_tubes for gt in tubes]

    def featurizer(self) -> "SyntheticFeaturizer":
        return SyntheticFeaturizer(self.config, {
            video_id(i): gt for i, gt in enumerate(self.gt_tubes)})


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


def _region_scores(num_classes: int,
                   truth: Sequence[tuple[int, BoundingBox]],
                   box: BoundingBox) -> tuple[float, ...]:
    """Per class, the best ``iou`` of ``box`` with that class's boxes of
    the ``(label, box)`` pairs ``truth``; 0.0 for a class with none.

    A truth box that ``box`` does not overlap with positive area has an
    ``iou`` of 0.0, which raises no score, so it is passed over.
    """
    scores = [0.0] * num_classes
    x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
    for label, gt_box in truth:
        if (gt_box.x_min < x1 and x0 < gt_box.x_max
                and gt_box.y_min < y1 and y0 < gt_box.y_max):
            ov = iou(box, gt_box)
            if ov > scores[label]:
                scores[label] = ov
    return tuple(scores)


def _video_proposals(config: ScenarioConfig, video_index: int,
                     gt_tubes: Sequence[GroundTruthTube]
                     ) -> dict[int, tuple[Proposal, ...]]:
    """Each frame's proposals, each scored for every class by its best
    overlap with that class's truth on the frame."""
    rng = _rng(config.seed, _PROPOSAL, video_index)
    w, h = config.frame_size
    out: dict[int, tuple[Proposal, ...]] = {}
    for frame in range(config.frames_per_video):
        truth = [(gt.label, gt.box_at(frame)) for gt in gt_tubes
                 if frame in gt.interval()]
        boxes: list[BoundingBox] = []
        # each box is followed by the draw that once set its objectness,
        # so every later box keeps its value
        for _, gt_box in truth:
            if rng.uniform() < config.proposal_recall:
                boxes.append(gt_box)
                rng.uniform()
            # Near misses are unconditional so a recall gap on the exact
            # box never leaves the actor without any usable proposal.
            for _ in range(config.near_miss_count):
                boxes.append(_jitter_box(gt_box, _NEAR_MISS_SIGMA, rng,
                                         config.frame_size))
                rng.uniform()
        for _ in range(config.distractor_count):
            side = rng.uniform(20.0, min(60.0, w / 2.0, h / 2.0))
            x0 = rng.uniform(0.0, w - side)
            y0 = rng.uniform(0.0, h - side)
            boxes.append(BoundingBox(x0, y0, x0 + side, y0 + side))
            rng.uniform()
        out[frame] = tuple(
            Proposal(frame, box,
                     _region_scores(config.num_classes, truth, box))
            for box in boxes)
    return out


def video_flow(config: ScenarioConfig, video_index: int,
               gt_tubes: Sequence[GroundTruthTube]
               ) -> Iterator[FlowMagnitudeGrid]:
    """The video's float32 flow magnitude grids, one per frame in frame
    order.

    Grids are made as they are taken, so a consumer that writes each
    one out before taking the next holds a single frame's grid.  Values
    are drawn in float64 and rounded once, as they are assigned through
    a numpy view into the grid's own ``array("f")``: the background as
    it is drawn, so no float64 grid outlives the draw, and each box
    fill.
    """
    rng = _rng(config.seed, _FLOW_GRID, video_index)
    w, h = config.frame_size
    for frame in range(config.frames_per_video):
        values = array("f", [0.0]) * (h * w)
        mag = np.frombuffer(values, np.float32).reshape(h, w)
        mag[...] = rng.uniform(0.0, 0.2, (h, w))
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
        yield FlowMagnitudeGrid(frame, values, h, w)


def clip_noise(config: ScenarioConfig, video_index: int) -> np.ndarray:
    """The video's clip noise table, (frames_per_video, feature_dim):
    row ``s`` is the noise of a clip starting at frame ``s``, drawn from
    its own (seed, clip, video, start) generator, so a row does not
    depend on which clips a stage scores."""
    return np.array([
        _rng(config.seed, _CLIP, video_index, start).normal(
            0.0, config.feature_noise, config.feature_dim)
        for start in range(config.frames_per_video)])


def _video_truth(config: ScenarioConfig,
                 index: int) -> tuple[GroundTruthTube, ...]:
    rng = _rng(config.seed, _ACTOR, index)
    frames = config.frames_per_video
    length = max(1, round(config.span_fraction * frames))
    start = (frames - length) // 2
    gt_tubes = []
    for a in range(config.actors_per_video):
        label = (index * config.actors_per_video + a) % config.num_classes
        centers = _motion_path(config, home_region(config, label), length,
                               rng)
        boxes = tuple(_box_at_center(c, config.actor_size) for c in centers)
        gt_tubes.append(GroundTruthTube(video_id(index), f"a{a}", label,
                                        start, boxes))
    return tuple(gt_tubes)


class SyntheticMatcher:
    """Point matcher over the synthetic ground truth.

    Each adjacent frame pair gets a full-frame field: background grid
    points that stay put, minus any falling inside an actor box on
    either frame, plus a grid of points inside each actor box displaced
    by the actor's center motion.  Fields are pure functions of
    (seed, video, frame), the video keyed by ``video_index`` of its id.
    """

    def __init__(self, config: ScenarioConfig,
                 gt_by_video: Mapping[str, Sequence[GroundTruthTube]]):
        self._config = config
        self._gt = dict(gt_by_video)
        # the background grid is the same for every frame pair
        w, h = config.frame_size
        step = config.grid_step
        gx, gy = np.meshgrid(np.arange(step / 2.0, w, step),
                             np.arange(step / 2.0, h, step))
        self._background = np.column_stack([gx.ravel(), gy.ravel()])

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> list[Sequence[float]]:
        field = self._field(video_id, min(from_frame, to_frame))
        return query_matches(field.tolist(), from_frame, to_frame, box)

    def _field(self, video_id: str, lo: int) -> np.ndarray:
        tubes = _of_video(self._gt, video_id)
        index = video_index(video_id)
        config = self._config
        bg = self._background
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
            noise_rng = _rng(config.seed, _MATCH, index, lo)
            to_pts = to_pts + noise_rng.normal(0.0, config.match_noise,
                                               to_pts.shape)
        return np.hstack([from_pts, to_pts])


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


def _footprint_stats(config: ScenarioConfig,
                     gt_tubes: Sequence[Sequence[GroundTruthTube]],
                     featurizer: SyntheticFeaturizer) -> np.ndarray | None:
    """Per-cell classifier accuracies from the true tubes' feature grids,
    each made when it is needed, once for the mixture's descriptor
    subsample and once for its cell vectors, and dropped."""
    layout = config.layout
    tubes = [(gt, slice_clips(gt.interval(), config.clip_length))
             for video in gt_tubes for gt in video]

    def grids():
        for gt, intervals in tubes:
            yield gt.label, featurizer.feature_grid(gt.video_id, intervals)

    # a grid holds grid_side**2 descriptors per clip; the subsample is
    # gathered grid by grid, so no two grids are held at once
    bounds = np.cumsum([0, *(len(intervals) * layout.grid_side ** 2
                             for _, intervals in tubes)])
    idx = np.arange(bounds[-1])
    if bounds[-1] > config.descriptor_cap:
        rng = _rng(config.seed, _GMM)
        idx = np.sort(rng.choice(bounds[-1], config.descriptor_cap,
                                 replace=False))
    cuts = np.searchsorted(idx, bounds)
    pool = np.concatenate([
        grid.reshape(-1, config.feature_dim)[idx[a:b] - lo]
        for (_, grid), lo, a, b in zip(grids(), bounds, cuts, cuts[1:])])
    gmm = fit_gmm(pool, config.gmm_components, seed=config.seed)
    items = [(label, aggregate_cells(grid, layout, gmm))
             for label, grid in grids()]
    # alternate within each class so both splits cover all classes
    train, test = [], []
    seen: dict[int, int] = {}
    for label, vectors in items:
        (train if seen.get(label, 0) % 2 == 0 else test).append(
            (label, vectors))
        seen[label] = seen.get(label, 0) + 1
    for split in (train, test):
        if set(range(config.num_classes)) - {label for label, _ in split}:
            return None
    return nearest_centroid_alphas(train, test, config.num_classes, layout)


def generate(config: ScenarioConfig) -> ScenarioBundle:
    """The scenario, drift tubes included when configured.

    Everything that spans videos is made here, so a scenario that
    cannot be made fails before any video's other inputs are asked for.
    """
    bundle = ScenarioBundle(
        config, tuple(_video_truth(config, i)
                      for i in range(config.video_count)),
        analytic_weights(config))
    if config.with_footprint:
        bundle = replace(bundle, alphas=_footprint_stats(
            config, bundle.gt_tubes, bundle.featurizer()))
    if config.drift_rate > 0:
        bundle = inject_drift(bundle, config.drift_rate)
    return bundle


def _free_box(gt_tubes: Sequence[GroundTruthTube],
              frame_size: tuple[int, int], side: float,
              rng: np.random.Generator,
              keep_out: Sequence[tuple[float, float, float, float]]
              ) -> BoundingBox | None:
    """A box overlapping none of ``gt_tubes``' boxes on any frame nor
    any ``keep_out`` rectangle, or None."""
    w, h = frame_size
    stacks = [np.array([b.as_tuple() for b in gt.boxes])
              for gt in gt_tubes]
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
    count = round(rate * len(bundle.all_gt()))
    if count == 0:
        return bundle
    config = bundle.config
    rng = _rng(config.seed, _DRIFT)
    side = min(40.0, config.frame_size[0] / 4.0, config.frame_size[1] / 4.0)
    n = config.frames_per_video
    drift: dict[str, list[Tube]] = {}
    for k in range(count):
        index = k % len(bundle.gt_tubes)
        vid, gt_tubes = video_id(index), bundle.gt_tubes[index]
        label = gt_tubes[k % len(gt_tubes)].label
        box = _free_box(gt_tubes, config.frame_size, side, rng,
                        (home_region(config, label),))
        if box is None:
            raise ProcessingError(
                f"no actor-free space left in {vid} for a drifted tube")
        scores = tuple(0.1 + 0.02 * float(u)
                       for u in rng.uniform(size=config.num_classes))
        drift.setdefault(vid, []).append(Tube(
            vid, f"drift{k:03d}", 0, (box,) * n, (scores,) * n,
            (Source.TRACKED,) * n, label=label))
    return replace(bundle, drift_tubes={
        vid: tuple(tubes) for vid, tubes in drift.items()})
