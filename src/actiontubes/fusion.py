"""Fusing per-frame detections from complementary streams.

Two scored streams (appearance and motion) are combined by per-class
suppression over their union, and the result can be merged the same way
with a third stream trained on stacked inputs.  Proposals can also be
pruned by the mean optical flow magnitude inside them, which removes
near-static regions before tracking.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

from .errors import InputError
from .geometry import nms
from .model import Detection, FlowMagnitudeGrid, Proposal, Source


def mean_magnitude_inside(grid: FlowMagnitudeGrid, proposal: Proposal) -> float | None:
    """Mean flow magnitude over pixel centers strictly inside the box.

    Pixel (i, j) has its center at (i + 0.5, j + 0.5).  Returns None
    when no pixel center falls inside the box.
    """
    box = proposal.box
    x_lo = max(0, math.floor(box.x_min - 0.5) + 1)
    x_hi = min(grid.width, math.ceil(box.x_max - 0.5))
    y_lo = max(0, math.floor(box.y_min - 0.5) + 1)
    y_hi = min(grid.height, math.ceil(box.y_max - 0.5))
    if x_lo >= x_hi or y_lo >= y_hi:
        return None
    return float(grid.values[y_lo:y_hi, x_lo:x_hi].mean())


def saliency_prune(proposals: Sequence[Proposal], flow: FlowMagnitudeGrid,
                   min_mean_magnitude: float = 0.5) -> list[Proposal]:
    """Keep proposals whose mean flow magnitude reaches the threshold.

    A proposal with no pixel center inside its box is dropped along with
    everything below ``min_mean_magnitude``.
    """
    if min_mean_magnitude < 0:
        raise InputError(
            f"min_mean_magnitude must be >= 0, got {min_mean_magnitude}")
    kept = []
    for prop in proposals:
        if prop.frame_index != flow.frame_index:
            raise InputError(
                f"proposal frame {prop.frame_index} does not match flow "
                f"frame {flow.frame_index}")
        mean = mean_magnitude_inside(flow, prop)
        if mean is not None and mean >= min_mean_magnitude:
            kept.append(prop)
    return kept


def _check_same_frame(detections: Sequence[Detection]) -> None:
    frames = {d.frame_index for d in detections}
    if len(frames) > 1:
        raise InputError(
            f"detections span multiple frames {sorted(frames)}; fuse one "
            f"frame at a time")


def _classwise_nms(detections: Sequence[Detection], threshold: float,
                   source: Source) -> list[Detection]:
    by_class: dict[int, list[Detection]] = {}
    for det in detections:
        by_class.setdefault(det.label, []).append(det)
    fused: list[Detection] = []
    for label in sorted(by_class):
        for det in nms(by_class[label], label, threshold):
            fused.append(replace(det, source=source))
    return fused


def late_fuse(static: Sequence[Detection], flow: Sequence[Detection],
              threshold: float = 0.3) -> list[Detection]:
    """Per-class suppression over the union of two detection streams.

    Detections are grouped by their argmax label, so streams never
    suppress across classes.  Survivors are retagged as late fusion
    output and ordered by class, then by descending class score.
    """
    merged = list(static) + list(flow)
    _check_same_frame(merged)
    return _classwise_nms(merged, threshold, Source.LATE_FUSION)


def merge_early_late(early: Sequence[Detection], late: Sequence[Detection],
                     threshold: float = 0.3) -> list[Detection]:
    """Merge an early-fusion stream with late-fused detections.

    Same per-class suppression as :func:`late_fuse`; with either input
    empty this reduces to plain per-class suppression of the other.
    """
    merged = list(early) + list(late)
    _check_same_frame(merged)
    return _classwise_nms(merged, threshold, Source.MERGED)
