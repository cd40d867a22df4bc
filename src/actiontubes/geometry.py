"""Overlap measures and greedy suppression.

The spatial measure is the usual intersection-over-union of boxes.  The
temporal measure is intersection-over-union of half-open frame
intervals, where the union counts distinct frames covered by either
interval.  The spatio-temporal measure multiplies the temporal overlap
by the mean per-frame spatial overlap across the frames both tubes
cover.
"""
from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .model import (BoundingBox, Detection, FrameInterval, GroundTruthTube,
                    Tube, require_scored)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Spatial intersection over union, in [0, 1]."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def temporal_iou(a: FrameInterval, b: FrameInterval) -> float:
    """Temporal intersection over union of two frame intervals."""
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = len(a) + len(b) - inter
    return inter / union


def hulls_meet(a: Tube | GroundTruthTube, b: Tube | GroundTruthTube) -> bool:
    """Whether the box hulls of two tubes overlap with positive area.

    When they do not (hulls that only share an edge do not), every box of
    one is apart from or edge to edge with every box of the other, so
    each ``iou`` between them is exactly 0.0, and so is their
    ``st_iou``.
    """
    ax0, ay0, ax1, ay1 = a.hull
    bx0, by0, bx1, by1 = b.hull
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def st_iou(a: Tube | GroundTruthTube, b: Tube | GroundTruthTube) -> float:
    """Spatio-temporal overlap between two tubes of the same video.

    Returns the temporal overlap of the tube extents multiplied by the
    mean spatial overlap over the frames present in both tubes, and 0
    when the extents do not intersect.  The per-frame overlaps are
    summed in frame order.
    """
    if a.video_id != b.video_id:
        raise InputError(
            f"tubes belong to different videos: {a.video_id!r} vs "
            f"{b.video_id!r}")
    ia, ib = a.interval(), b.interval()
    t = temporal_iou(ia, ib)
    if t == 0.0:
        return 0.0
    lo = max(ia.start, ib.start)
    hi = min(ia.end, ib.end)
    total = 0.0
    for box_a, box_b in zip(a.boxes[lo - a.start:hi - a.start],
                            b.boxes[lo - b.start:hi - b.start]):
        total += iou(box_a, box_b)
    return t * (total / (hi - lo))


def suppression_key(det: Detection, class_index: int):
    """Total order used by greedy suppression and candidate selection.

    Higher score first, then larger area, then lexicographically smaller
    box coordinates.  Detections identical under this key keep their
    input order.
    """
    b = det.box
    return (-det.score_for(class_index), -b.area(),
            b.x_min, b.y_min, b.x_max, b.y_max)


def nms(detections: Sequence[Detection], class_index: int,
        threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression for one class.

    Keeps the best remaining detection by ``suppression_key`` and drops
    every detection whose overlap with it exceeds ``threshold``: visited
    in key order, a detection is kept unless its ``iou`` with one kept
    before it exceeds ``threshold``.  The result is sorted by descending
    class score and every surviving pair overlaps by at most
    ``threshold``.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InputError(f"nms threshold must be in [0, 1], got {threshold}")
    kept: list[Detection] = []
    for det in sorted(detections,
                      key=lambda d: suppression_key(d, class_index)):
        box = det.box
        for prior in kept:
            if iou(prior.box, box) > threshold:
                break
        else:
            kept.append(det)
    return kept


def prune_overlapped(tubes: Sequence[Tube],
                     threshold: float = 0.3) -> list[Tube]:
    """Greedy removal of tubes overlapping a better scored kept tube.

    Tubes are visited by descending ``Tube.score`` (input order breaks
    ties) and dropped when their spatio-temporal overlap with any kept
    tube of the same video strictly exceeds ``threshold``.  Labels play
    no role: overlapping tubes suppress each other across classes.

    Kept tubes are held per video with their frame extents, and
    ``st_iou`` runs only for a pair it may find above ``threshold``.  It
    is the temporal IoU ``t`` times a mean of overlaps that are each at
    most 1, so it is at most ``t`` in floating point too: a pair with
    ``t <= threshold``, disjoint extents included, is passed over.  So
    is a pair whose box hulls do not meet, where it is 0.0.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InputError(f"prune threshold must be in [0, 1], got {threshold}")
    scores = [require_scored(tube) for tube in tubes]
    order = sorted(range(len(tubes)), key=lambda i: (-scores[i], i))
    kept: list[Tube] = []
    kept_by_video: dict[str, list[tuple[int, int, Tube]]] = {}
    for idx in order:
        tube = tubes[idx]
        start, end = tube.start, tube.start + len(tube.boxes)
        same_video = kept_by_video.setdefault(tube.video_id, [])
        for k_start, k_end, kept_tube in same_video:
            inter = min(end, k_end) - max(start, k_start)
            if (inter > 0
                    and inter / (end - start + k_end - k_start - inter)
                    > threshold
                    and hulls_meet(kept_tube, tube)
                    and st_iou(kept_tube, tube) > threshold):
                break
        else:
            same_video.append((start, end, tube))
            kept.append(tube)
    return kept
