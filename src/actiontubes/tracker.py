"""Tracking detections into tubes by following point matches.

A tube starts from the highest scoring untracked detection and grows
frame by frame in both directions.  Candidate regions for the next
frame are proposals that capture enough of the point matches computed
from the current region and that overlap it spatially; every proposal
carries the detector's class scores for its region, and the candidate
scoring highest for the tube's class continues the tube.  When a yet
untracked detection of the tube's class overlaps that candidate
strongly, the detection replaces it and leaves the pool, so every
detection is used by at most one tube.

Because candidates are gated by matched points rather than by a search
window around the previous location, large inter-frame displacements do
not break the association as long as a proposal covers the region the
points moved to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Protocol, Sequence

from .errors import InputError
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


def _consume_or_predict(chosen: Proposal, label: int, next_frame: int,
                        pool: UntrackedPool, cfg: TrackerConfig) -> Detection:
    """Replace the chosen proposal with an overlapping pooled detection.

    The best same-class detection with overlap at or above the consume
    threshold takes over (and leaves the pool); otherwise the proposal
    is carried as a predicted entry with its own class vector.
    """
    box = chosen.box
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
    return Detection(next_frame, box, chosen.class_scores, Source.TRACKED)


def _continue(candidates: Sequence[Proposal], label: int, next_frame: int,
              pool: UntrackedPool, cfg: TrackerConfig) -> Detection:
    """The best scoring candidate for ``label``, merged or predicted.

    Ties break suppression-style (larger, then lexicographically smaller
    box).  Equal keys mean equal boxes, so which of them wins does not
    depend on the candidates' order.
    """
    best = None
    best_key = None
    for prop in candidates:
        key = _candidate_key(prop, prop.class_scores[label])
        if best_key is None or key < best_key:
            best, best_key = prop, key
    return _consume_or_predict(best, label, next_frame, pool, cfg)


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
               pool: UntrackedPool, cfg: TrackerConfig) -> Detection | None:
    """Extend a tube by one frame; ``None`` means the tube terminates.

    Candidates are the proposals passing ``match_gate``: they capture
    at least ``min_match_ratio`` of the matches from the current region
    and overlap it by at least ``min_prev_overlap``.  The best scoring
    candidate for the tube's class wins, with suppression-style tie
    breaking, and is then either merged with a pooled detection or kept
    as a prediction.
    """
    candidates = match_gate(region, proposals, matches, cfg)
    if not candidates:
        return None
    return _continue(candidates, label, next_frame, pool, cfg)


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


def check_class_counts(video_id: str,
                       detections_by_frame: Mapping[int, Sequence[Detection]],
                       proposals_by_frame: Mapping[int, Sequence[Proposal]],
                       names: tuple[str, str] = ("detections", "proposals")
                       ) -> None:
    """Rejects a video whose detections and proposals do not all carry
    class vectors of one length.

    The error names the video and, by ``names``, where the detections
    and the proposals came from, with the class counts each carries.
    """
    counts = [sorted({len(record.class_scores) for records in
                      by_frame.values() for record in records})
              for by_frame in (detections_by_frame, proposals_by_frame)]
    if len(set().union(*counts)) > 1:
        det, prop = (" and ".join(map(str, c)) or "none" for c in counts)
        raise InputError(
            f"the class scores of video {video_id!r} must have one class "
            f"count, but {names[0]} carries {det} and {names[1]} {prop}")


def _grow_tubes(video_id: str,
                detections_by_frame: dict[int, Sequence[Detection]],
                proposals_by_frame: dict[int, Sequence[Proposal]],
                extent: FrameInterval, step: StepFn,
                cfg: TrackerConfig) -> list[Tube]:
    """Track every pooled detection into a tube, best seeds first.

    The detections and proposals must carry one class count
    (``check_class_counts``).  Each tube is seeded from the best
    remaining detection, grown forward to the end of ``extent``, then
    backward to its start.  Consumed detections leave the shared pool,
    so the loop terminates exactly when every detection has been used.
    """
    check_class_counts(video_id, detections_by_frame, proposals_by_frame)
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
                          pool, cfg)

    return _grow_tubes(video_id, detections_by_frame, proposals_by_frame,
                       extent, step, cfg)


def build_tubes_neighborhood(
        video_id: str, detections_by_frame: dict[int, Sequence[Detection]],
        proposals_by_frame: dict[int, Sequence[Proposal]],
        extent: FrameInterval, cfg: TrackerConfig = TrackerConfig(),
        search_radius: float = 20.0) -> list[Tube]:
    """Baseline tracker constrained to a spatial neighborhood.

    Identical seeding and consumption, but continuation candidates are
    the proposals whose center lies within ``search_radius`` pixels of
    the previous center, scored for the current entry's class.  Kept
    for contrast: it cannot follow motion larger than the radius
    between consecutive frames.  Proposal centers are computed once per
    frame.
    """
    if not (search_radius > 0 and math.isfinite(search_radius)):
        raise InputError(
            f"search_radius must be finite and > 0, got {search_radius}")
    centers: dict[int, list[tuple[float, float]]] = {}
    radius_sq = search_radius ** 2

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
        return _continue(candidates, current.label, frame, pool, cfg)

    return _grow_tubes(video_id, detections_by_frame, proposals_by_frame,
                       extent, step, cfg)
