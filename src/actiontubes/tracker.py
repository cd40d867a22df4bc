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

from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import InputError, ScorerError
from .geometry import iou
from .model import BoundingBox, Detection, FrameInterval, Proposal, Source, Tube


@dataclass(frozen=True, eq=False)
class PointMatchSet:
    """Point correspondences between two frames, one row per match."""

    from_points: np.ndarray
    to_points: np.ndarray

    def __post_init__(self):
        fp = np.asarray(self.from_points, dtype=np.float64).reshape(-1, 2)
        tp = np.asarray(self.to_points, dtype=np.float64).reshape(-1, 2)
        if fp.shape != tp.shape:
            raise InputError(
                f"{fp.shape[0]} from-points but {tp.shape[0]} to-points")
        if fp.size and not (np.all(np.isfinite(fp)) and np.all(np.isfinite(tp))):
            raise InputError("match points must be finite")
        object.__setattr__(self, "from_points", fp)
        object.__setattr__(self, "to_points", tp)

    def __len__(self) -> int:
        return self.from_points.shape[0]

    def restrict(self, box: BoundingBox) -> "PointMatchSet":
        """Matches whose from-point lies inside ``box`` (closed bounds)."""
        fp = self.from_points
        if not len(self):
            return self
        inside = ((fp[:, 0] >= box.x_min) & (fp[:, 0] <= box.x_max)
                  & (fp[:, 1] >= box.y_min) & (fp[:, 1] <= box.y_max))
        return PointMatchSet(fp[inside], self.to_points[inside])

    def reversed(self) -> "PointMatchSet":
        return PointMatchSet(self.to_points, self.from_points)


EMPTY_MATCHES = PointMatchSet(np.empty((0, 2)), np.empty((0, 2)))


class PointMatcher(Protocol):
    """Produces point matches between adjacent frames for a query box."""

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> PointMatchSet: ...


class RegionScorer(Protocol):
    """Scores an arbitrary region on a frame for every action class."""

    def class_scores(self, video_id: str, frame_index: int,
                     box: BoundingBox) -> np.ndarray: ...


class PrecomputedMatcher:
    """Point matcher backed by full-frame match sets per frame pair.

    Queries restrict the stored set to the from-points inside the query
    box.  A pair stored in one direction answers queries in the other
    by swapping point roles; an unknown pair yields no matches.
    """

    def __init__(self, pairs: dict[tuple[str, int, int], PointMatchSet]):
        self._pairs = dict(pairs)

    def match(self, video_id: str, from_frame: int, to_frame: int,
              box: BoundingBox) -> PointMatchSet:
        if abs(to_frame - from_frame) != 1:
            raise InputError(
                f"matcher queried across {abs(to_frame - from_frame)} "
                f"frames; only adjacent frames are supported")
        full = self._pairs.get((video_id, from_frame, to_frame))
        if full is None:
            rev = self._pairs.get((video_id, to_frame, from_frame))
            full = rev.reversed() if rev is not None else EMPTY_MATCHES
        return full.restrict(box)


def match_ratio(box: BoundingBox, matches: PointMatchSet) -> float:
    """Fraction of match points landing inside ``box`` on the target frame."""
    if not len(matches):
        return 0.0
    tp = matches.to_points
    inside = ((tp[:, 0] >= box.x_min) & (tp[:, 0] <= box.x_max)
              & (tp[:, 1] >= box.y_min) & (tp[:, 1] <= box.y_max))
    return float(np.count_nonzero(inside)) / len(matches)


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
        self._entries: list[Detection] = []
        self._frames: list[int] = []
        self._by_frame: dict[int, list[int]] = {}
        for frame in sorted(detections_by_frame):
            for det in detections_by_frame[frame]:
                if det.frame_index != frame:
                    raise InputError(
                        f"detection at frame {det.frame_index} filed under "
                        f"frame {frame}")
                idx = len(self._entries)
                self._entries.append(det)
                self._frames.append(frame)
                self._by_frame.setdefault(frame, []).append(idx)
        self._alive = [True] * len(self._entries)
        self._remaining = len(self._entries)

        def seed_key(idx: int):
            det = self._entries[idx]
            b = det.box
            return (-det.score, det.frame_index, -b.area(),
                    b.x_min, b.y_min, b.x_max, b.y_max, idx)

        self._order = sorted(range(len(self._entries)), key=seed_key)
        self._cursor = 0

    def __len__(self) -> int:
        return self._remaining

    def pending(self, frame: int) -> list[Detection]:
        return [self._entries[i] for i in self._by_frame.get(frame, [])
                if self._alive[i]]

    def discard(self, detection: Detection) -> None:
        for idx in self._by_frame.get(detection.frame_index, []):
            if self._alive[idx] and self._entries[idx] is detection:
                self._alive[idx] = False
                self._remaining -= 1
                return
        raise InputError("detection not present in pool")

    def take_best(self) -> Detection | None:
        while self._cursor < len(self._order):
            idx = self._order[self._cursor]
            self._cursor += 1
            if self._alive[idx]:
                self._alive[idx] = False
                self._remaining -= 1
                return self._entries[idx]
        return None


def _candidate_key(proposal: Proposal, score: float):
    b = proposal.box
    return (-score, -b.area(), b.x_min, b.y_min, b.x_max, b.y_max)


def _consume_or_predict(box: BoundingBox, scores: np.ndarray, label: int,
                        next_frame: int, pool: UntrackedPool,
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
    return Detection(next_frame, box,
                     tuple(float(s) for s in scores), Source.TRACKED)


def _continue(candidates: Sequence[Proposal], label: int, next_frame: int,
              scorer: RegionScorer, pool: UntrackedPool, cfg: TrackerConfig,
              video_id: str) -> Detection:
    """The best scoring candidate for ``label``, merged or predicted.

    Ties break suppression-style (larger, then lexicographically smaller
    box).  Any scorer failure, including too few classes for ``label``,
    is raised as ``ScorerError``.
    """
    best = None
    best_key = None
    best_scores = None
    for prop in candidates:
        try:
            scores = np.asarray(
                scorer.class_scores(video_id, next_frame, prop.box),
                dtype=np.float64)
        except ScorerError:
            raise
        except Exception as exc:
            raise ScorerError(
                f"region scorer failed at frame {next_frame}: {exc}") from exc
        if scores.ndim != 1 or label >= scores.shape[0]:
            raise ScorerError(
                f"scorer returned {scores.size} classes, tube label is "
                f"{label}")
        key = _candidate_key(prop, float(scores[label]))
        if best_key is None or key < best_key:
            best, best_key, best_scores = prop, key, scores
    return _consume_or_predict(best.box, best_scores, label, next_frame,
                               pool, cfg)


def track_step(region: BoundingBox, label: int, next_frame: int,
               proposals: Sequence[Proposal], matches: PointMatchSet,
               scorer: RegionScorer, pool: UntrackedPool,
               cfg: TrackerConfig, video_id: str = "") -> Detection | None:
    """Extend a tube by one frame; ``None`` means the tube terminates.

    Candidates are the proposals capturing at least ``min_match_ratio``
    of the matches from the current region and overlapping it by at
    least ``min_prev_overlap``.  The best scoring candidate for the
    tube's class wins, with suppression-style tie breaking, and is then
    either merged with a pooled detection or kept as a prediction.
    """
    if not len(matches):
        return None
    candidates = [p for p in proposals
                  if match_ratio(p.box, matches) >= cfg.min_match_ratio
                  and iou(p.box, region) >= cfg.min_prev_overlap]
    if not candidates:
        return None
    return _continue(candidates, label, next_frame, scorer, pool, cfg,
                     video_id)


# (seed, current entry, next frame, pool) -> next entry, or None to stop
StepFn = Callable[[Detection, Detection, int, UntrackedPool],
                  Detection | None]


def _extend(seed: Detection, frames: range, step: StepFn,
            pool: UntrackedPool,
            cfg: TrackerConfig) -> tuple[list[Detection], bool]:
    """Grow one direction until termination; True flags a scorer abort."""
    entries: list[Detection] = []
    current = seed
    predicted_run = 0
    for frame in frames:
        try:
            nxt = step(seed, current, frame, pool)
        except ScorerError:
            return entries, True
        if nxt is None:
            break
        if nxt.source is Source.TRACKED:
            if predicted_run >= cfg.max_predicted_run:
                break
            predicted_run += 1
        else:
            predicted_run = 0
        entries.append(nxt)
        current = nxt
    return entries, False


def _grow_tubes(video_id: str,
                detections_by_frame: dict[int, Sequence[Detection]],
                extent: FrameInterval, step: StepFn,
                cfg: TrackerConfig) -> list[Tube]:
    """Track every pooled detection into a tube, best seeds first.

    Each tube is seeded from the best remaining detection, grown forward
    to the end of ``extent``, then backward to its start.  Consumed
    detections leave the shared pool, so the loop terminates exactly
    when every detection has been used.  A scorer failure abandons
    further growth of the tube it occurred in; the partial tube is kept
    and seeding continues.
    """
    pool = UntrackedPool(detections_by_frame)
    tubes: list[Tube] = []
    while (seed := pool.take_best()) is not None:
        forward, aborted = _extend(
            seed, range(seed.frame_index + 1, extent.end), step, pool, cfg)
        backward: list[Detection] = []
        if not aborted:
            backward, _ = _extend(
                seed, range(seed.frame_index - 1, extent.start - 1, -1),
                step, pool, cfg)
        entries = list(reversed(backward)) + [seed] + forward
        tubes.append(Tube(video_id, f"t{len(tubes):03d}", tuple(entries),
                          label=seed.label))
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

    Identical seeding, consumption and scorer-failure handling, but
    continuation candidates are the proposals whose center lies within
    ``search_radius`` pixels of the previous center, scored for the
    current entry's class.  Kept for contrast: it cannot follow motion
    larger than the radius between consecutive frames.
    """
    def step(seed, current, frame, pool):
        cx, cy = current.box.center()
        candidates = []
        for prop in proposals_by_frame.get(frame, ()):
            px, py = prop.box.center()
            if (px - cx) ** 2 + (py - cy) ** 2 <= search_radius ** 2:
                candidates.append(prop)
        if not candidates:
            return None
        return _continue(candidates, current.label, frame, scorer, pool,
                         cfg, video_id)

    return _grow_tubes(video_id, detections_by_frame, extent, step, cfg)
