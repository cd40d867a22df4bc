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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import InputError
from .geometry import hulls_meet, iou, st_iou
from .model import GroundTruthTube, Tube, pairwise_sum, require_scored


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


@dataclass(frozen=True)
class _OverlapTable:
    """Every overlap one matching mode needs, each computed once.

    rows holds the predictions in rank order (descending score, input
    order on ties) as (label, score, overlaps); overlaps pairs the
    index of each ground-truth item on the prediction's video and of
    its class (video mode: matching and recall-track read no other
    pair), or on its frame and of any class (frame mode: the
    false-detection split reads the other classes), with its overlap,
    in ground-truth order.  A video-mode pair whose box hulls miss holds
    0.0 without an ``st_iou`` call, and is kept like every other pair.
    gt_labels is parallel to the ground-truth items, which in frame mode
    are the per-frame boxes of every tube.
    """

    rows: tuple[tuple[int, float, tuple[tuple[int, float], ...]], ...]
    gt_labels: tuple[int, ...]


def _tube_overlap(tube: Tube, gt: GroundTruthTube) -> float:
    """``st_iou``, known to be 0.0 without it where the box hulls miss."""
    return st_iou(tube, gt) if hulls_meet(tube, gt) else 0.0


def _overlap_table(tubes: Sequence[Tube],
                   ground_truth: Sequence[GroundTruthTube],
                   mode: str) -> _OverlapTable:
    if mode == "video":
        preds = [((t.video_id, t.label), t.label, require_scored(t), t)
                 for t in tubes]
        gts = [((gt.video_id, gt.label), gt.label, gt)
               for gt in ground_truth]
        overlap = _tube_overlap
    elif mode == "frame":
        preds = [((t.video_id, frame), t.label, require_scored(t), box)
                 for t in tubes for frame, box in t.iter_frames()]
        gts = [((gt.video_id, frame), gt.label, box)
               for gt in ground_truth for frame, box in gt.iter_frames()]
        overlap = iou
    else:
        raise InputError(f"unknown matching mode: {mode!r}")

    by_bucket: dict = {}
    for j, (key, _, _) in enumerate(gts):
        by_bucket.setdefault(key, []).append(j)
    rows = []
    # A stable sort: score ties keep input order.
    for key, label, score, payload in sorted(preds, key=lambda p: -p[2]):
        rows.append((label, float(score), tuple(
            (j, overlap(payload, gts[j][2]))
            for j in by_bucket.get(key, ()))))
    return _OverlapTable(tuple(rows), tuple(g[1] for g in gts))


def _greedy_match(table: _OverlapTable, sigma: float) -> MatchResult:
    claimed = [False] * len(table.gt_labels)
    outcomes = []
    for label, score, overlaps in table.rows:
        best_j = None
        best_ov = sigma
        for j, ov in overlaps:
            if ov > best_ov and not claimed[j] \
                    and table.gt_labels[j] == label:
                best_j, best_ov = j, ov
        if best_j is not None:
            claimed[best_j] = True
        outcomes.append(MatchOutcome(label, score, best_j is not None,
                                     best_j))
    return MatchResult(tuple(outcomes), table.gt_labels, tuple(claimed))


def match_and_label(tubes: Sequence[Tube],
                    ground_truth: Sequence[GroundTruthTube],
                    sigma: float, mode: str = "video") -> MatchResult:
    """Label each prediction TP or FP against the ground truth.

    The predictions are scored tubes in video mode, and each frame of a
    scored tube, with the tube's label and score, in frame mode.  They
    are visited by descending score, ties in tube then frame order; each
    claims the unclaimed same-class item with the highest overlap,
    provided that overlap is strictly greater than sigma.  Overlap ties
    go to the earliest ground-truth item.
    """
    _check_sigma(sigma)
    return _greedy_match(_overlap_table(tubes, ground_truth, mode), sigma)


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
    cum_tp = list(accumulate(1 if flag else 0 for flag in tp_flags))
    precision = [tp / rank for rank, tp in enumerate(cum_tp, 1)]
    recall = [tp / num_gt for tp in cum_tp]
    envelope = list(accumulate(reversed(precision), max))[::-1]
    previous = [0.0, *recall[:-1]]
    # summed in numpy's order, so the AP is the one np.sum gave
    return pairwise_sum([(r - p) * e for r, p, e
                         in zip(recall, previous, envelope)])


def class_average_precisions(result: MatchResult) -> dict[int, float]:
    """AP per class, for classes with at least one ground-truth item."""
    out = {}
    for label in sorted(set(result.gt_labels)):
        flags = [o.tp for o in result.outcomes if o.label == label]
        num_gt = result.gt_labels.count(label)
        out[label] = average_precision(flags, num_gt)
    return out


def _mean_of(per_class: Mapping[int, float]) -> float:
    if not per_class:
        return 0.0
    # np.mean's bits: its pairwise sum over the count
    return pairwise_sum(list(per_class.values())) / len(per_class)


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


def _covered_fraction(table: _OverlapTable, sigma: float) -> float:
    if not table.gt_labels:
        return 1.0
    covered = set()
    for label, _, overlaps in table.rows:
        covered.update(j for j, ov in overlaps
                       if ov >= sigma and table.gt_labels[j] == label)
    return len(covered) / len(table.gt_labels)


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


def _false_counts(table: _OverlapTable, sigma: float,
                  overlap_floor: float) -> FalseCounts:
    result = _greedy_match(table, sigma)
    false_cls = false_bbox = 0
    near = set()
    for outcome, (label, _, overlaps) in zip(result.outcomes, table.rows):
        near.update(j for j, ov in overlaps if ov >= overlap_floor)
        if outcome.tp:
            continue
        # The earliest item of the highest overlap, of any class.
        j, ov = max(overlaps, key=lambda pair: pair[1], default=(None, 0.0))
        if ov >= sigma and table.gt_labels[j] != label:
            false_cls += 1
        else:
            false_bbox += 1
    false_neg = sum(1 for j, matched in enumerate(result.gt_matched)
                    if not matched and j not in near)
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
        thresholds = self.iou_thresholds
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise InputError(f"IOU thresholds must be strictly increasing, "
                             f"got {thresholds}")
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

    def map_table(self, level: str = "video") -> str:
        """Per-class AP table with one column per IOU threshold."""
        per_sigma = self.video_ap if level == "video" else self.frame_ap
        means = self.video_map if level == "video" else self.frame_map
        classes = sorted({c for aps in per_sigma.values() for c in aps})
        width = max([5] + [len(str(c)) for c in classes])
        lines = [" ".join([f"{'class':<{width}}"]
                          + [f"{s:>7.2f}" for s in self.sigmas])]
        for c in classes:
            cells = [f"{per_sigma[s].get(c, 0.0):>7.4f}" for s in self.sigmas]
            lines.append(" ".join([f"{c:<{width}}"] + cells))
        lines.append(" ".join(
            [f"{'mAP':<{width}}"] + [f"{means[s]:>7.4f}" for s in self.sigmas]))
        return "\n".join(lines)

    def to_text(self) -> str:
        fc = self.false_counts
        parts = [
            "action tube evaluation",
            "",
            "video-mAP by IOU threshold",
            self.map_table("video"),
            "",
            "frame-mAP by IOU threshold",
            self.map_table("frame"),
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


def evaluate(tubes: Sequence[Tube], ground_truth: Sequence[GroundTruthTube],
             config: EvalConfig = EvalConfig()) -> EvalReport:
    """Compute every metric for a final set of scored tubes.

    Each overlap is computed once per mode; matching at every sigma,
    recall-track and the false-detection split all read those tables.
    """
    video = _overlap_table(tubes, ground_truth, "video")
    frame = _overlap_table(tubes, ground_truth, "frame")
    sigmas = tuple(float(s) for s in config.iou_thresholds)
    video_ap, video_map, frame_ap, frame_map, auc = {}, {}, {}, {}, {}
    for s in sigmas:
        vres = _greedy_match(video, s)
        video_ap[s] = class_average_precisions(vres)
        video_map[s] = _mean_of(video_ap[s])
        auc[s] = auc_from_outcomes(vres.outcomes, vres.num_gt, config.fpr_cap)
        fres = _greedy_match(frame, s)
        frame_ap[s] = class_average_precisions(fres)
        frame_map[s] = _mean_of(frame_ap[s])
    return EvalReport(
        sigmas=sigmas,
        video_ap=video_ap,
        video_map=video_map,
        frame_ap=frame_ap,
        frame_map=frame_map,
        auc=auc,
        recall_track=_covered_fraction(video, config.recall_track_sigma),
        false_counts=_false_counts(frame, config.taxonomy_sigma,
                                   config.taxonomy_floor),
    )
