"""Detection metrics: mAP, AUC, recall-track and the false-detection split.

A prediction counts as correct when its overlap with an unclaimed
ground-truth item of the same class is strictly greater than the
threshold sigma.  Video-level matching compares whole tubes by
spatio-temporal IOU; frame-level matching compares boxes on the same
frame by plain IOU.  Matching is greedy in descending score order, so
the outcome labels for any score-threshold prefix are the prefix of the
full outcome list.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import iou, st_iou
from .model import BoundingBox, GroundTruthTube, Tube

MODES = ("video", "frame")


@dataclass(frozen=True)
class BoxPrediction:
    """A single-frame prediction carrying one class label and a score."""

    video_id: str
    frame_index: int
    box: BoundingBox
    label: int
    score: float

    def __post_init__(self):
        if self.label < 0:
            raise InputError(f"label must be non-negative, got {self.label}")
        if not math.isfinite(self.score):
            raise InputError("prediction score must be finite")


def box_predictions_from_tubes(tubes: Sequence[Tube]) -> list[BoxPrediction]:
    """Explode scored tubes into per-frame predictions for frame metrics.

    Every frame of a tube inherits the tube's label and score.
    """
    out = []
    for tube in tubes:
        if tube.label is None or tube.score is None:
            raise InputError("frame explosion needs labeled, scored tubes")
        for entry in tube.entries:
            out.append(BoxPrediction(tube.video_id, entry.frame_index,
                                     entry.box, tube.label, tube.score))
    return out


@dataclass(frozen=True)
class MatchOutcome:
    label: int
    score: float
    tp: bool
    gt_index: int | None


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching of ranked predictions against ground truth.

    outcomes are in rank order (descending score, input order on ties);
    gt_labels / gt_matched are parallel to the ground-truth items, which
    in frame mode are the per-frame boxes of every annotated tube.
    """

    outcomes: tuple[MatchOutcome, ...]
    gt_labels: tuple[int, ...]
    gt_matched: tuple[bool, ...]

    @property
    def num_gt(self) -> int:
        return len(self.gt_labels)

    @property
    def tp_count(self) -> int:
        return sum(1 for o in self.outcomes if o.tp)


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma <= 1.0:
        raise InputError(f"IOU threshold must be in (0, 1], got {sigma}")


def _tube_records(tubes: Sequence[Tube]):
    records = []
    for tube in tubes:
        if tube.label is None or tube.score is None:
            raise InputError("video matching needs labeled, scored tubes")
        records.append((tube.video_id, tube.label, tube.score, tube))
    return records


def _exploded_gt(ground_truth: Sequence[GroundTruthTube]):
    out = []
    for gt in ground_truth:
        for frame, box in gt.iter_frames():
            out.append(((gt.video_id, frame), gt.label, box))
    return out


def match_and_label(predictions, ground_truth: Sequence[GroundTruthTube],
                    sigma: float, mode: str = "video") -> MatchResult:
    """Label each prediction TP or FP against the ground truth.

    Predictions are visited by descending score; each claims the
    unclaimed same-class item with the highest overlap, provided that
    overlap is strictly greater than sigma.  Overlap ties go to the
    earliest ground-truth item.  In video mode predictions are tubes; in
    frame mode they are BoxPrediction records.
    """
    _check_sigma(sigma)
    if mode == "video":
        preds = _tube_records(predictions)
        gts = [(gt.video_id, gt.label, gt) for gt in ground_truth]
        overlap = st_iou
    elif mode == "frame":
        preds = [((p.video_id, p.frame_index), p.label, p.score, p.box)
                 for p in predictions]
        gts = _exploded_gt(ground_truth)
        overlap = iou
    else:
        raise InputError(f"unknown matching mode: {mode!r}")

    by_bucket: dict = {}
    for j, (key, _, _) in enumerate(gts):
        by_bucket.setdefault(key, []).append(j)

    order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
    claimed = [False] * len(gts)
    outcomes = []
    for i in order:
        key, label, score, payload = preds[i]
        best_j = None
        best_ov = sigma
        for j in by_bucket.get(key, ()):
            if claimed[j] or gts[j][1] != label:
                continue
            ov = overlap(payload, gts[j][2])
            if ov > best_ov:
                best_j, best_ov = j, ov
        if best_j is None:
            outcomes.append(MatchOutcome(label, float(score), False, None))
        else:
            claimed[best_j] = True
            outcomes.append(MatchOutcome(label, float(score), True, best_j))
    return MatchResult(tuple(outcomes), tuple(g[1] for g in gts),
                       tuple(claimed))


def average_precision(tp_flags: Sequence[bool], num_gt: int) -> float:
    """Area under the precision-recall curve, all-point interpolation.

    tp_flags must be in rank order.  Precision at each recall level is
    replaced by the maximum precision at any equal-or-higher recall (the
    envelope) before integrating.
    """
    if num_gt < 0:
        raise InputError(f"num_gt must be non-negative, got {num_gt}")
    if num_gt == 0 or len(tp_flags) == 0:
        return 0.0
    flags = np.asarray(tp_flags, dtype=bool)
    cum_tp = np.cumsum(flags)
    precision = cum_tp / np.arange(1, flags.size + 1)
    recall = cum_tp / num_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    previous = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - previous) * envelope))


def class_average_precisions(result: MatchResult) -> dict[int, float]:
    """AP per class, for classes with at least one ground-truth item."""
    out = {}
    for label in sorted(set(result.gt_labels)):
        flags = [o.tp for o in result.outcomes if o.label == label]
        num_gt = result.gt_labels.count(label)
        out[label] = average_precision(flags, num_gt)
    return out


def mean_average_precision(result: MatchResult) -> float:
    per_class = class_average_precisions(result)
    if not per_class:
        return 0.0
    return float(np.mean(list(per_class.values())))


def map_over_classes(predictions, ground_truth: Sequence[GroundTruthTube],
                     sigmas: Sequence[float],
                     mode: str = "video") -> dict[float, float]:
    """Mean AP over ground-truth classes, at each IOU threshold."""
    return {float(s): mean_average_precision(
        match_and_label(predictions, ground_truth, s, mode))
        for s in sigmas}


def auc_from_outcomes(outcomes: Sequence[MatchOutcome], num_gt: int,
                      fpr_cap: float = 0.6) -> float:
    """Area under the ROC curve traced by sweeping a score threshold.

    True-positive rate is the fraction of ground truth matched at or
    above the threshold; false-positive rate is the FP count divided by
    the FP count with every prediction admitted.  The curve is
    integrated over false-positive rates up to fpr_cap (extending the
    final point flat when it ends earlier) and normalized by fpr_cap.
    """
    if not 0.0 < fpr_cap <= 1.0:
        raise InputError(f"fpr_cap must be in (0, 1], got {fpr_cap}")
    if num_gt <= 0 or len(outcomes) == 0:
        return 0.0
    ranked = sorted(outcomes, key=lambda o: -o.score)
    total_fp = sum(1 for o in ranked if not o.tp)
    if total_fp == 0:
        # Vertical curve at FPR 0, then flat to the cap.
        return sum(1 for o in ranked if o.tp) / num_gt

    # One curve point per distinct score: ties enter together.
    points = [(0.0, 0.0)]
    tp = fp = 0
    for k, outcome in enumerate(ranked):
        if outcome.tp:
            tp += 1
        else:
            fp += 1
        if k + 1 < len(ranked) and ranked[k + 1].score == outcome.score:
            continue
        points.append((fp / total_fp, tp / num_gt))

    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        if f1 <= fpr_cap:
            area += (f1 - f0) * (t0 + t1) / 2.0
        elif f0 < fpr_cap:
            t_cap = t0 + (t1 - t0) * (fpr_cap - f0) / (f1 - f0)
            area += (fpr_cap - f0) * (t0 + t_cap) / 2.0
    if points[-1][0] < fpr_cap:
        area += (fpr_cap - points[-1][0]) * points[-1][1]
    return area / fpr_cap


def auc_curve(predictions, ground_truth: Sequence[GroundTruthTube],
              sigmas: Sequence[float], mode: str = "video",
              fpr_cap: float = 0.6) -> dict[float, float]:
    """AUC at each IOU threshold."""
    out = {}
    for s in sigmas:
        result = match_and_label(predictions, ground_truth, s, mode)
        out[float(s)] = auc_from_outcomes(result.outcomes, result.num_gt,
                                          fpr_cap)
    return out


def recall_track(tubes: Sequence[Tube],
                 ground_truth: Sequence[GroundTruthTube],
                 sigma: float = 0.5) -> float:
    """Fraction of ground-truth tubes covered by some same-class tube.

    Coverage means spatio-temporal IOU of at least sigma; scores are
    ignored.  Vacuously 1.0 without ground truth.
    """
    _check_sigma(sigma)
    if not ground_truth:
        return 1.0
    by_video: dict[str, list[Tube]] = {}
    for tube in tubes:
        if tube.label is None:
            raise InputError("recall-track needs labeled tubes")
        by_video.setdefault(tube.video_id, []).append(tube)
    covered = 0
    for gt in ground_truth:
        for tube in by_video.get(gt.video_id, ()):
            if tube.label == gt.label and st_iou(tube, gt) >= sigma:
                covered += 1
                break
    return covered / len(ground_truth)


@dataclass(frozen=True)
class FalseCounts:
    """Split of the frame-level mistakes.

    false_cls: located on some ground-truth box (IOU >= sigma) but
    labeled with the wrong class.  false_bbox: every other false
    positive, including duplicates of an already-claimed box.
    false_neg: ground-truth boxes no prediction comes near (all IOU
    below the loose floor).
    """

    false_cls: int
    false_bbox: int
    false_neg: int
    true_positives: int

    @property
    def false_positives(self) -> int:
        return self.false_cls + self.false_bbox


def false_taxonomy(predictions: Sequence[BoxPrediction],
                   ground_truth: Sequence[GroundTruthTube],
                   sigma: float = 0.5,
                   overlap_floor: float = 0.1) -> FalseCounts:
    """Classify every frame-level mistake against the ground truth."""
    _check_sigma(sigma)
    if not 0.0 < overlap_floor <= 1.0:
        raise InputError(
            f"overlap floor must be in (0, 1], got {overlap_floor}")
    result = match_and_label(predictions, ground_truth, sigma, mode="frame")

    gts = _exploded_gt(ground_truth)
    gt_by_key: dict = {}
    for j, (key, _, _) in enumerate(gts):
        gt_by_key.setdefault(key, []).append(j)
    pred_by_key: dict = {}
    for p in predictions:
        pred_by_key.setdefault((p.video_id, p.frame_index), []).append(p)

    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i].score, i))
    false_cls = false_bbox = 0
    for outcome, i in zip(result.outcomes, order):
        if outcome.tp:
            continue
        pred = predictions[i]
        best_ov, best_label = 0.0, None
        for j in gt_by_key.get((pred.video_id, pred.frame_index), ()):
            ov = iou(pred.box, gts[j][2])
            if ov > best_ov:
                best_ov, best_label = ov, gts[j][1]
        if best_ov >= sigma and best_label != pred.label:
            false_cls += 1
        else:
            false_bbox += 1

    false_neg = 0
    for j, matched in enumerate(result.gt_matched):
        if matched:
            continue
        key, _, box = gts[j]
        if not any(iou(p.box, box) >= overlap_floor
                   for p in pred_by_key.get(key, ())):
            false_neg += 1
    return FalseCounts(false_cls, false_bbox, false_neg, result.tp_count)


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5)
    recall_track_sigma: float = 0.5
    taxonomy_sigma: float = 0.5
    taxonomy_floor: float = 0.1
    fpr_cap: float = 0.6

    def __post_init__(self):
        if not self.iou_thresholds:
            raise InputError("need at least one IOU threshold")
        for s in self.iou_thresholds:
            _check_sigma(s)
        _check_sigma(self.recall_track_sigma)
        _check_sigma(self.taxonomy_sigma)
        if not 0.0 < self.taxonomy_floor <= 1.0:
            raise InputError("taxonomy floor must be in (0, 1]")
        if not 0.0 < self.fpr_cap <= 1.0:
            raise InputError("fpr_cap must be in (0, 1]")


@dataclass(frozen=True)
class EvalReport:
    sigmas: tuple[float, ...]
    video_ap: Mapping[float, Mapping[int, float]]
    video_map: Mapping[float, float]
    frame_ap: Mapping[float, Mapping[int, float]]
    frame_map: Mapping[float, float]
    auc: Mapping[float, float]
    recall_track: float
    false_counts: FalseCounts

    def map_table(self, level: str = "video",
                  class_names: Mapping[int, str] | None = None) -> str:
        """Per-class AP table with one column per IOU threshold."""
        per_sigma = self.video_ap if level == "video" else self.frame_ap
        means = self.video_map if level == "video" else self.frame_map
        classes = sorted({c for aps in per_sigma.values() for c in aps})
        width = max([5] + [len(_class_name(c, class_names)) for c in classes])
        lines = [" ".join([f"{'class':<{width}}"]
                          + [f"{s:>7.2f}" for s in self.sigmas])]
        for c in classes:
            cells = [f"{per_sigma[s].get(c, 0.0):>7.4f}" for s in self.sigmas]
            lines.append(" ".join([f"{_class_name(c, class_names):<{width}}"]
                                  + cells))
        lines.append(" ".join(
            [f"{'mAP':<{width}}"] + [f"{means[s]:>7.4f}" for s in self.sigmas]))
        return "\n".join(lines)

    def to_text(self, class_names: Mapping[int, str] | None = None) -> str:
        fc = self.false_counts
        parts = [
            "action tube evaluation",
            "",
            "video-mAP by IOU threshold",
            self.map_table("video", class_names),
            "",
            "frame-mAP by IOU threshold",
            self.map_table("frame", class_names),
            "",
            "AUC by IOU threshold",
            " ".join(f"{s:.2f}:{self.auc[s]:.4f}" for s in self.sigmas),
            "",
            f"recall-track: {self.recall_track:.4f}",
            (f"false detections: false_cls {fc.false_cls}, "
             f"false_bbox {fc.false_bbox}, false_neg {fc.false_neg} "
             f"(true positives {fc.true_positives})"),
        ]
        return "\n".join(parts) + "\n"


def _class_name(label: int, names: Mapping[int, str] | None) -> str:
    if names and label in names:
        return names[label]
    return str(label)


def evaluate(tubes: Sequence[Tube], ground_truth: Sequence[GroundTruthTube],
             config: EvalConfig = EvalConfig()) -> EvalReport:
    """Compute every metric for a final set of scored tubes."""
    boxes = box_predictions_from_tubes(tubes)
    sigmas = tuple(float(s) for s in config.iou_thresholds)
    video_ap, video_map, frame_ap, frame_map, auc = {}, {}, {}, {}, {}
    for s in sigmas:
        vres = match_and_label(tubes, ground_truth, s, mode="video")
        video_ap[s] = class_average_precisions(vres)
        video_map[s] = mean_average_precision(vres)
        auc[s] = auc_from_outcomes(vres.outcomes, vres.num_gt, config.fpr_cap)
        fres = match_and_label(boxes, ground_truth, s, mode="frame")
        frame_ap[s] = class_average_precisions(fres)
        frame_map[s] = mean_average_precision(fres)
    return EvalReport(
        sigmas=sigmas,
        video_ap=video_ap,
        video_map=video_map,
        frame_ap=frame_ap,
        frame_map=frame_map,
        auc=auc,
        recall_track=recall_track(tubes, ground_truth,
                                  config.recall_track_sigma),
        false_counts=false_taxonomy(boxes, ground_truth,
                                    config.taxonomy_sigma,
                                    config.taxonomy_floor),
    )
