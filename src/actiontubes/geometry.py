"""Overlap measures and greedy suppression.

The spatial measure is the usual intersection-over-union of boxes.  The
temporal measure is intersection-over-union of half-open frame
intervals, where the union counts distinct frames covered by either
interval.  The spatio-temporal measure multiplies the temporal overlap
by the mean per-frame spatial overlap across the frames both tubes
cover.
"""
from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .errors import InputError
from .model import BoundingBox, Detection, FrameInterval


class TubeLike(Protocol):
    video_id: str

    def interval(self) -> FrameInterval: ...

    def box_at(self, frame: int) -> BoundingBox: ...


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


def iou_many(coords: np.ndarray, box: BoundingBox) -> np.ndarray:
    """``iou`` of every row of an (n, 4) coordinate array against ``box``.

    Element ``i`` equals ``iou(BoundingBox(*coords[i]), box)`` bit for
    bit: the same operations run in the same order, and rows that do
    not intersect ``box`` are 0.
    """
    ix = (np.minimum(coords[:, 2], box.x_max)
          - np.maximum(coords[:, 0], box.x_min))
    iy = (np.minimum(coords[:, 3], box.y_max)
          - np.maximum(coords[:, 1], box.y_min))
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    area_b = (box.x_max - box.x_min) * (box.y_max - box.y_min)
    return inter / (areas + area_b - inter)


def temporal_iou(a: FrameInterval, b: FrameInterval) -> float:
    """Temporal intersection over union of two frame intervals."""
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = len(a) + len(b) - inter
    return inter / union


def st_iou(a: TubeLike, b: TubeLike) -> float:
    """Spatio-temporal overlap between two tubes of the same video.

    Returns the temporal overlap of the tube extents multiplied by the
    mean spatial overlap over the frames present in both tubes, and 0
    when the extents do not intersect.
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
    for frame in range(lo, hi):
        total += iou(a.box_at(frame), b.box_at(frame))
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
    every detection whose overlap with it exceeds ``threshold``.  The
    result is sorted by descending class score and every surviving pair
    overlaps by at most ``threshold``.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InputError(f"nms threshold must be in [0, 1], got {threshold}")
    if not detections:
        return []
    order = sorted(range(len(detections)),
                   key=lambda i: suppression_key(detections[i], class_index))
    coords = np.array(
        [detections[i].box.as_tuple() for i in order], dtype=np.float64)
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    alive = np.ones(len(order), dtype=bool)
    kept: list[Detection] = []
    for i in range(len(order)):
        if not alive[i]:
            continue
        kept.append(detections[order[i]])
        rest = np.flatnonzero(alive[i + 1:]) + i + 1
        if rest.size == 0:
            continue
        ix = (np.minimum(coords[i, 2], coords[rest, 2])
              - np.maximum(coords[i, 0], coords[rest, 0]))
        iy = (np.minimum(coords[i, 3], coords[rest, 3])
              - np.maximum(coords[i, 1], coords[rest, 1]))
        inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
        overlap = inter / (areas[i] + areas[rest] - inter)
        alive[rest[overlap > threshold]] = False
    return kept
