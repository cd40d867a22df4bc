"""Tracking detections into tubes by following point matches.

A tube starts from the highest scoring untracked detection and grows
frame by frame in both directions.  Candidate regions for the next
frame are proposals that capture enough of the point matches computed
from the current region and that overlap it spatially; the best scoring
candidate continues the tube.  When a yet untracked detection of the
tube's class overlaps that candidate strongly, the detection replaces
it and leaves the pool, so every detection is used by at most one tube.

Because candidates are gated by matched points rather than by a search
window around the previous location, large inter-frame displacements do
not break the association as long as a proposal covers the region the
points moved to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Protocol, Sequence

from .errors import InputError, ProcessingError
from .geometry import iou
from .model import BoundingBox, Detection, FrameInterval, Proposal, Source, Tube

# point matches: rows of floats, from_x from_y to_x to_y
Matches = Sequence[Sequence[float]]


class PointMatcher(Protocol):
    """Produces point matches between adjacent frames for a query box.

    Matches are a list of ``(from_x, from_y, to_x, to_y)`` rows of
    floats, one per matched point.
    """

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> list[Sequence[float]]: ...


class RegionScorer(Protocol):
    """Scores an arbitrary region on a frame for every action class.

    An answer is a 1-D sequence of floats, one per class (a tuple, a
    list or a 1-D array).  Scores depend only on ``(video_id,
    frame_index, box)``, so the trackers ask about each region at most
    once per call.  Any exception a scorer raises fails the tracker
    call; a scorer raises ``InputError`` for a video it has no data
    for.
    """

    def class_scores(self, video_id: str, frame_index: int,
                     box: BoundingBox) -> Sequence[float]: ...


class _ScoreMemo:
    """A region scorer that answers each region once, for one tracker call.

    The scorer's own exceptions propagate unchanged.  Each answer is
    checked once, when it arrives: anything but a 1-D vector of numbers
    (an answer with an ``ndim`` other than 1, or whose items are not
    numbers) raises ``ProcessingError``.  Answers are kept as tuples of
    floats.
    """

    def __init__(self, scorer: RegionScorer):
        self._scorer = scorer
        self._known: dict[tuple, tuple[float, ...]] = {}

    def class_scores(self, video_id: str, frame_index: int,
                     box: BoundingBox) -> tuple[float, ...]:
        key = (video_id, frame_index, box.x_min, box.y_min, box.x_max,
               box.y_max)
        scores = self._known.get(key)
        if scores is None:
            answer = self._scorer.class_scores(video_id, frame_index, box)
            ndim = getattr(answer, "ndim", 1)
            if ndim != 1:
                raise ProcessingError(f"scorer returned scores of {ndim} "
                                      f"dimensions, expected one per class")
            try:
                scores = tuple(float(v) for v in answer)
            except (TypeError, ValueError) as exc:
                raise ProcessingError(f"scorer returned scores that are not "
                                      f"one number per class: {exc}") from exc
            self._known[key] = scores
        return scores


def query_matches(pair: Matches, from_frame: int, to_frame: int,
                  box: BoundingBox) -> list[Sequence[float]]:
    """The rows of an adjacent frame pair answering one matcher query.

    ``pair`` holds the pair's matches from its earlier frame to its
    later one.  A backward query swaps the point roles; either way only
    the rows whose from-point lies inside ``box`` (closed bounds) are
    kept, in ``pair``'s order.
    """
    if abs(to_frame - from_frame) != 1:
        raise InputError(
            f"matcher queried across {abs(to_frame - from_frame)} "
            f"frames; only adjacent frames are supported")
    x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
    if from_frame > to_frame:
        return [(tx, ty, fx, fy) for fx, fy, tx, ty in pair
                if x_min <= tx <= x_max and y_min <= ty <= y_max]
    return [row for row in pair
            if x_min <= row[0] <= x_max and y_min <= row[1] <= y_max]


class PrecomputedMatcher:
    """Point matcher over one video's stored match rows, keyed by frame.

    Each entry holds the full-frame matches from ``frame`` to
    ``frame + 1``, as ``read_matches`` returns them; an unknown pair
    yields no matches.  ``match`` keeps the ``PointMatcher`` signature
    and ignores its video id.
    """

    def __init__(self, pairs: Mapping[int, Matches]):
        self._pairs = dict(pairs)

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> list[Sequence[float]]:
        pair = self._pairs.get(min(from_frame, to_frame), ())
        return query_matches(pair, from_frame, to_frame, box)


def match_ratio(box: BoundingBox, matches: Matches) -> float:
    """Fraction of match points landing inside ``box`` on the target frame.

    ``matches`` holds ``from_x from_y to_x to_y`` rows; points on the box
    edges count as inside.
    """
    if not len(matches):
        return 0.0
    x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
    inside = 0
    for _, _, x, y in matches:
        if x_min <= x <= x_max and y_min <= y <= y_max:
            inside += 1
    return inside / len(matches)


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds steering candidate gating and detection consumption."""

    min_match_ratio: float = 0.5
    min_prev_overlap: float = 0.2
    consume_overlap: float = 0.5
    max_predicted_run: int = 8

    def __post_init__(self):
        for name in ("min_match_ratio", "min_prev_overlap", "consume_overlap"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {value}")
        if self.max_predicted_run < 0:
            raise InputError(
                f"max_predicted_run must be >= 0, got {self.max_predicted_run}")


class UntrackedPool:
    """Detections not yet claimed by any tube, in seed priority order.

    Seed order is descending detection score; ties prefer the earlier
    frame, then the larger box, then lexicographically smaller
    coordinates, then input order.  Removal is by object identity, so
    equal-valued duplicates are tracked separately.
    """

    def __init__(self, detections_by_frame: dict[int, Sequence[Detection]]):
        self._dets: list[Detection] = []
        self._by_frame: dict[int, list[int]] = {}
        for frame in sorted(detections_by_frame):
            for det in detections_by_frame[frame]:
                if det.frame_index != frame:
                    raise InputError(
                        f"detection at frame {det.frame_index} filed under "
                        f"frame {frame}")
                idx = len(self._dets)
                self._dets.append(det)
                self._by_frame.setdefault(frame, []).append(idx)
        self._alive = [True] * len(self._dets)

        def seed_key(idx: int):
            det = self._dets[idx]
            b = det.box
            return (-det.score, det.frame_index, -b.area(),
                    b.x_min, b.y_min, b.x_max, b.y_max, idx)

        self._order = sorted(range(len(self._dets)), key=seed_key)
        self._cursor = 0

    def pending(self, frame: int) -> list[Detection]:
        return [self._dets[i] for i in self._by_frame.get(frame, [])
                if self._alive[i]]

    def discard(self, detection: Detection) -> None:
        for idx in self._by_frame.get(detection.frame_index, []):
            if self._alive[idx] and self._dets[idx] is detection:
                self._alive[idx] = False
                return
        raise InputError("detection not present in pool")

    def take_best(self) -> Detection | None:
        while self._cursor < len(self._order):
            idx = self._order[self._cursor]
            self._cursor += 1
            if self._alive[idx]:
                self._alive[idx] = False
                return self._dets[idx]
        return None


def _candidate_key(proposal: Proposal, score: float):
    b = proposal.box
    return (-score, -b.area(), b.x_min, b.y_min, b.x_max, b.y_max)


def _consume_or_predict(box: BoundingBox, scores: tuple[float, ...],
                        label: int, next_frame: int, pool: UntrackedPool,
                        cfg: TrackerConfig) -> Detection:
    """Replace the chosen region with an overlapping pooled detection.

    The best same-class detection with overlap at or above the consume
    threshold takes over (and leaves the pool); otherwise the region is
    carried as a predicted entry with the scorer's class vector.
    """
    best = None
    best_key = None
    for det in pool.pending(next_frame):
        if det.label != label:
            continue
        overlap = iou(box, det.box)
        if overlap < cfg.consume_overlap:
            continue
        b = det.box
        key = (-overlap, -det.score, -b.area(), b.x_min, b.y_min,
               b.x_max, b.y_max)
        if best_key is None or key < best_key:
            best, best_key = det, key
    if best is not None:
        pool.discard(best)
        return replace(best, source=Source.MERGED)
    return Detection(next_frame, box, scores, Source.TRACKED)


def _continue(candidates: Sequence[Proposal], label: int, next_frame: int,
              scorer: _ScoreMemo, pool: UntrackedPool, cfg: TrackerConfig,
              video_id: str) -> Detection:
    """The best scoring candidate for ``label``, merged or predicted.

    Ties break suppression-style (larger, then lexicographically smaller
    box).  An answer with no score for ``label`` raises ``InputError``.
    """
    best = None
    best_key = None
    best_scores = None
    for prop in candidates:
        scores = scorer.class_scores(video_id, next_frame, prop.box)
        if label >= len(scores):
            raise InputError(
                f"scorer returned {len(scores)} classes, tube label is "
                f"{label}; is synth.num_classes too small?")
        key = _candidate_key(prop, scores[label])
        if best_key is None or key < best_key:
            best, best_key, best_scores = prop, key, scores
    return _consume_or_predict(best.box, best_scores, label, next_frame,
                               pool, cfg)


def match_gate(region: BoundingBox, proposals: Sequence[Proposal],
               matches: Matches, cfg: TrackerConfig) -> list[Proposal]:
    """The proposals that may continue ``region``, in proposal order.

    A proposal passes when its ``iou`` with ``region`` is at least
    ``min_prev_overlap`` and its ``match_ratio`` is at least
    ``min_match_ratio``; without matches none passes.  The overlap is
    tested first, so distractors are rejected before any point is
    counted.
    """
    if not len(matches):
        return []
    return [p for p in proposals
            if iou(p.box, region) >= cfg.min_prev_overlap
            and match_ratio(p.box, matches) >= cfg.min_match_ratio]


def track_step(region: BoundingBox, label: int, next_frame: int,
               proposals: Sequence[Proposal], matches: Matches,
               scorer: RegionScorer, pool: UntrackedPool,
               cfg: TrackerConfig, video_id: str = "") -> Detection | None:
    """Extend a tube by one frame; ``None`` means the tube terminates.

    Candidates are the proposals passing ``match_gate``: they capture
    at least ``min_match_ratio`` of the matches from the current region
    and overlap it by at least ``min_prev_overlap``.  The best scoring
    candidate for the tube's class wins, with suppression-style tie
    breaking, and is then either merged with a pooled detection or kept
    as a prediction.  A scorer that is not already a tracker call's
    memo is asked through a memo of this step alone.
    """
    candidates = match_gate(region, proposals, matches, cfg)
    if not candidates:
        return None
    if not isinstance(scorer, _ScoreMemo):
        scorer = _ScoreMemo(scorer)
    return _continue(candidates, label, next_frame, scorer, pool, cfg,
                     video_id)


# (seed, current detection, next frame, pool) -> the next one, or None to stop
StepFn = Callable[[Detection, Detection, int, UntrackedPool],
                  Detection | None]


def _extend(seed: Detection, frames: range, step: StepFn,
            pool: UntrackedPool, cfg: TrackerConfig) -> list[Detection]:
    """Grow one direction until termination."""
    grown: list[Detection] = []
    current = seed
    predicted_run = 0
    for frame in frames:
        nxt = step(seed, current, frame, pool)
        if nxt is None:
            break
        if nxt.source is Source.TRACKED:
            if predicted_run >= cfg.max_predicted_run:
                break
            predicted_run += 1
        else:
            predicted_run = 0
        grown.append(nxt)
        current = nxt
    return grown


def _grow_tubes(video_id: str,
                detections_by_frame: dict[int, Sequence[Detection]],
                extent: FrameInterval, step: StepFn,
                cfg: TrackerConfig) -> list[Tube]:
    """Track every pooled detection into a tube, best seeds first.

    Each tube is seeded from the best remaining detection, grown forward
    to the end of ``extent``, then backward to its start.  Consumed
    detections leave the shared pool, so the loop terminates exactly
    when every detection has been used.  A scorer failure fails the
    call.
    """
    pool = UntrackedPool(detections_by_frame)
    tubes: list[Tube] = []
    while (seed := pool.take_best()) is not None:
        forward = _extend(
            seed, range(seed.frame_index + 1, extent.end), step, pool, cfg)
        backward = _extend(
            seed, range(seed.frame_index - 1, extent.start - 1, -1),
            step, pool, cfg)
        dets = list(reversed(backward)) + [seed] + forward
        tubes.append(Tube(
            video_id, f"t{len(tubes):03d}", dets[0].frame_index,
            tuple(d.box for d in dets), tuple(d.class_scores for d in dets),
            tuple(d.source for d in dets), label=seed.label))
    return tubes


def build_tubes(video_id: str,
                detections_by_frame: dict[int, Sequence[Detection]],
                proposals_by_frame: dict[int, Sequence[Proposal]],
                extent: FrameInterval, matcher: PointMatcher,
                scorer: RegionScorer,
                cfg: TrackerConfig = TrackerConfig()) -> list[Tube]:
    """Point-matching tracker: every step follows ``track_step``.

    The tube keeps its seed's class; matches are queried from the
    current entry's frame and box to the next frame.
    """
    scorer = _ScoreMemo(scorer)

    def step(seed, current, frame, pool):
        matches = matcher.match(video_id, current.frame_index, frame,
                                current.box)
        return track_step(current.box, seed.label, frame,
                          proposals_by_frame.get(frame, ()), matches,
                          scorer, pool, cfg, video_id)

    return _grow_tubes(video_id, detections_by_frame, extent, step, cfg)


def build_tubes_neighborhood(
        video_id: str, detections_by_frame: dict[int, Sequence[Detection]],
        proposals_by_frame: dict[int, Sequence[Proposal]],
        extent: FrameInterval, scorer: RegionScorer,
        cfg: TrackerConfig = TrackerConfig(),
        search_radius: float = 20.0) -> list[Tube]:
    """Baseline tracker constrained to a spatial neighborhood.

    Identical seeding and consumption, and a scorer failure fails the
    call likewise, but continuation candidates are the proposals whose
    center lies within ``search_radius`` pixels of the previous center,
    scored for the current entry's class.  Kept for contrast: it cannot
    follow motion larger than the radius between consecutive frames.
    Proposal centers are computed once per frame.
    """
    if not (search_radius > 0 and math.isfinite(search_radius)):
        raise InputError(
            f"search_radius must be finite and > 0, got {search_radius}")
    centers: dict[int, list[tuple[float, float]]] = {}
    radius_sq = search_radius ** 2
    scorer = _ScoreMemo(scorer)

    def step(seed, current, frame, pool):
        proposals = proposals_by_frame.get(frame, ())
        around = centers.get(frame)
        if around is None:
            around = centers[frame] = [p.box.center() for p in proposals]
        cx, cy = current.box.center()
        candidates = []
        for prop, (px, py) in zip(proposals, around):
            dx, dy = px - cx, py - cy
            if dx * dx + dy * dy <= radius_sq:
                candidates.append(prop)
        if not candidates:
            return None
        return _continue(candidates, current.label, frame, scorer, pool,
                         cfg, video_id)

    return _grow_tubes(video_id, detections_by_frame, extent, step, cfg)
