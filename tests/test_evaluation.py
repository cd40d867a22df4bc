import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from actiontubes import evaluation
from actiontubes.errors import InputError
from actiontubes.evaluation import (EvalConfig, auc_from_outcomes,
                                    average_precision,
                                    class_average_precisions, evaluate,
                                    match_and_label)
from actiontubes.geometry import iou, st_iou
from actiontubes.model import (BoundingBox, FrameInterval, GroundTruthTube,
                               Source, Tube)
from oracles import (ap_reference, false_split_reference,
                     greedy_match_reference, recall_track_reference)


def gt(video, label, start, boxes):
    return GroundTruthTube(video, f"g{video}{start}", label, start,
                           tuple(boxes))


def gt_still(video, label, start, length, box):
    return gt(video, label, start, [box] * length)


def tube_from_boxes(video, tube_id, start, boxes, label, score):
    n = len(boxes)
    return Tube(video, tube_id, start, tuple(boxes), ((1.0,),) * n,
                (Source.STATIC,) * n, label=label, score=score)


def tube_still(video, tube_id, start, length, box, label, score):
    return tube_from_boxes(video, tube_id, start, [box] * length, label,
                           score)


def pred(video, frame, box, label, score):
    """A per-frame prediction: a one-frame scored tube."""
    return tube_from_boxes(video, "p", frame, [box], label, score)


def recall_track_of(tubes, truth, sigma=0.5):
    return evaluate(tubes, truth,
                    EvalConfig(recall_track_sigma=sigma)).recall_track


def false_counts_of(preds, truth, sigma=0.5, floor=0.1):
    """The false-detection split ``evaluate`` reports for per-frame
    predictions."""
    return evaluate(preds, truth,
                    EvalConfig(taxonomy_sigma=sigma,
                               taxonomy_floor=floor)).false_counts


def frame_map_of(preds, truth, sigma):
    """The frame-mAP ``evaluate`` reports at ``sigma``."""
    return evaluate(preds, truth,
                    EvalConfig(iou_thresholds=(sigma,))).frame_map[sigma]


BOX = BoundingBox(10, 10, 60, 60)


def random_frame_case(rng, num_videos=2, num_classes=3):
    """Random per-frame predictions and single-frame GT tubes."""
    gts, preds = [], []
    for v in range(num_videos):
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(10, 40, 2)
            frame = int(rng.integers(0, 3))
            gts.append(gt(f"v{v}", int(rng.integers(0, num_classes)), frame,
                          [BoundingBox(x, y, x + w, y + h)]))
        for _ in range(int(rng.integers(0, 6))):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(10, 40, 2)
            preds.append(pred(
                f"v{v}", int(rng.integers(0, 3)),
                BoundingBox(x, y, x + w, y + h),
                int(rng.integers(0, num_classes)),
                round(float(rng.uniform(0, 1)), 1)))
    return preds, gts


class TestMatching:
    def test_exact_box_correct_label_is_tp(self):
        preds = [pred("v", 0, BOX, 1, 0.9)]
        res = match_and_label(preds, [gt_still("v", 1, 0, 1, BOX)], 0.5,
                              mode="frame")
        assert res.outcomes[0].tp
        assert res.gt_matched == (True,)

    def test_wrong_label_is_fp(self):
        preds = [pred("v", 0, BOX, 2, 0.9)]
        res = match_and_label(preds, [gt_still("v", 1, 0, 1, BOX)], 0.5,
                              mode="frame")
        assert not res.outcomes[0].tp

    def test_duplicate_on_one_gt_ranks_by_score(self):
        shifted = BoundingBox(12, 10, 62, 60)
        preds = [pred("v", 0, shifted, 1, 0.8),
                 pred("v", 0, BOX, 1, 0.9)]
        res = match_and_label(preds, [gt_still("v", 1, 0, 1, BOX)], 0.5,
                              mode="frame")
        # Outcomes are rank ordered: the 0.9 one first and matched.
        assert [o.score for o in res.outcomes] == [0.9, 0.8]
        assert [o.tp for o in res.outcomes] == [True, False]

    def test_threshold_is_strict(self):
        half = BoundingBox(10, 10, 60, 35)
        assert iou(half, BOX) == pytest.approx(0.5)
        preds = [pred("v", 0, half, 1, 0.9)]
        res = match_and_label(preds, [gt_still("v", 1, 0, 1, BOX)], 0.5,
                              mode="frame")
        assert not res.outcomes[0].tp
        res = match_and_label(preds, [gt_still("v", 1, 0, 1, BOX)], 0.49,
                              mode="frame")
        assert res.outcomes[0].tp

    def test_claims_highest_overlap(self):
        near = BoundingBox(11, 10, 61, 60)
        far = BoundingBox(20, 10, 70, 60)
        preds = [pred("v", 0, BOX, 1, 0.9)]
        truth = [gt_still("v", 1, 0, 1, far), gt_still("v", 1, 0, 1, near)]
        res = match_and_label(preds, truth, 0.1, mode="frame")
        assert res.outcomes[0].gt_index == 1

    def test_overlap_tie_takes_earliest_gt(self):
        preds = [pred("v", 0, BOX, 1, 0.9)]
        truth = [gt_still("v", 1, 0, 1, BOX), gt_still("v", 1, 0, 1, BOX)]
        res = match_and_label(preds, truth, 0.5, mode="frame")
        assert res.outcomes[0].gt_index == 0

    def test_video_mode_uses_st_iou(self):
        truth = [gt_still("v", 1, 0, 10, BOX)]
        tube = tube_still("v", "t0", 0, 5, BOX, 1, 0.9)
        assert st_iou(tube, truth[0]) == pytest.approx(0.5)
        res = match_and_label([tube], truth, 0.4, mode="video")
        assert res.outcomes[0].tp
        res = match_and_label([tube], truth, 0.5, mode="video")
        assert not res.outcomes[0].tp

    def test_videos_never_cross_match(self):
        tube = tube_still("a", "t0", 0, 5, BOX, 1, 0.9)
        res = match_and_label([tube], [gt_still("b", 1, 0, 5, BOX)], 0.5,
                              mode="video")
        assert not res.outcomes[0].tp

    def test_prefix_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            preds, truth = random_frame_case(rng)
            full = match_and_label(preds, truth, 0.3, mode="frame")
            ranked = sorted(preds, key=lambda p: -p.score)
            for k in range(len(ranked) + 1):
                part = match_and_label(ranked[:k], truth, 0.3, mode="frame")
                assert part.outcomes == full.outcomes[:k]

    def test_tp_count_bounded(self):
        rng = np.random.default_rng(43)
        for _ in range(80):
            preds, truth = random_frame_case(rng)
            res = match_and_label(preds, truth, 0.2, mode="frame")
            for label in set(res.gt_labels):
                tp = sum(1 for o in res.outcomes if o.label == label and o.tp)
                npred = sum(1 for o in res.outcomes if o.label == label)
                assert tp <= min(npred, res.gt_labels.count(label))

    def test_unlabeled_tube_rejected(self):
        bare = Tube("v", "t", 0, (BOX,), ((1.0,),), (Source.STATIC,))
        for mode in ("video", "frame"):
            with pytest.raises(InputError):
                match_and_label([bare], [], 0.5, mode=mode)

    def test_bad_mode_and_sigma_rejected(self):
        with pytest.raises(InputError):
            match_and_label([], [], 0.5, mode="clip")
        with pytest.raises(InputError):
            match_and_label([], [], 0.0, mode="frame")


# Boxes whose IOUs with each other are exactly 0.5, 1/3, 0.25, 0.2,
# 0.125 and 0, so that drawing from them alone ties overlaps often and
# lands on the thresholds.
PALETTE = (BoundingBox(0, 0, 20, 20), BoundingBox(0, 0, 20, 10),
           BoundingBox(10, 0, 30, 20), BoundingBox(0, 0, 40, 40),
           BoundingBox(50, 50, 70, 70))


def tie_heavy_case(rng, max_length):
    """Tubes and truth tubes of two videos over PALETTE boxes, two
    classes and three scores, so that scores and overlaps tie often."""
    def boxes(n):
        return [PALETTE[i] for i in rng.integers(0, len(PALETTE), n)]
    tubes, truth = [], []
    for video in ("v0", "v1"):
        for k in range(int(rng.integers(0, 4))):
            truth.append(GroundTruthTube(
                video, f"g{k}", int(rng.integers(0, 2)),
                int(rng.integers(0, 4)),
                tuple(boxes(int(rng.integers(1, max_length + 1))))))
        for k in range(int(rng.integers(0, 6))):
            tubes.append(tube_from_boxes(
                video, f"t{k}", int(rng.integers(0, 4)),
                boxes(int(rng.integers(1, max_length + 1))),
                int(rng.integers(0, 2)),
                float(rng.choice([0.3, 0.6, 0.9]))))
    return tubes, truth


class TestAgainstReference:
    """Matching, recall-track and the false-detection split equal the
    one-prediction-at-a-time references of ``oracles`` on cases full
    of score and overlap ties."""

    SIGMAS = (0.05, 0.25, 0.5, 0.7)

    @staticmethod
    def assert_match_equal(result, preds, items, sigma, overlap):
        pairs, claimed = greedy_match_reference(preds, items, sigma, overlap)
        assert [(o.label, o.score, o.tp, o.gt_index)
                for o in result.outcomes] == \
            [(preds[i][1], preds[i][2], j is not None, j) for i, j in pairs]
        assert result.gt_matched == tuple(claimed)
        assert result.gt_labels == tuple(item[1] for item in items)

    def test_video_mode_and_recall_track(self):
        rng = np.random.default_rng(71)
        for _ in range(80):
            tubes, truth = tie_heavy_case(rng, max_length=4)
            preds = [(t.video_id, t.label, t.score, t) for t in tubes]
            items = [(g.video_id, g.label, g) for g in truth]
            for sigma in self.SIGMAS:
                self.assert_match_equal(
                    match_and_label(tubes, truth, sigma, mode="video"),
                    preds, items, sigma, st_iou)
                assert recall_track_of(tubes, truth, sigma) == \
                    recall_track_reference(tubes, truth, sigma, st_iou)

    def test_frame_mode_and_false_split(self):
        rng = np.random.default_rng(73)
        for _ in range(80):
            tubes, truth = tie_heavy_case(rng, max_length=2)
            preds = [((t.video_id, frame), t.label, t.score, box)
                     for t in tubes for frame, box in t.iter_frames()]
            items = [((g.video_id, frame), g.label, box)
                     for g in truth for frame, box in g.iter_frames()]
            for sigma in self.SIGMAS:
                self.assert_match_equal(
                    match_and_label(tubes, truth, sigma, mode="frame"),
                    preds, items, sigma, iou)
                for floor in (0.125, 0.5):
                    fc = evaluate(tubes, truth, EvalConfig(
                        taxonomy_sigma=sigma,
                        taxonomy_floor=floor)).false_counts
                    assert (fc.false_cls, fc.false_bbox, fc.false_neg,
                            fc.true_positives) == \
                        false_split_reference(tubes, truth, sigma, floor, iou)


class TestAveragePrecision:
    def test_worked_example(self):
        assert average_precision([True, False, True], 2) == \
            pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))

    def test_perfect_ranking(self):
        assert average_precision([True, True, False], 2) == 1.0

    def test_no_predictions(self):
        assert average_precision([], 3) == 0.0

    def test_no_gt(self):
        assert average_precision([False, False], 0) == 0.0

    def test_matches_reference_on_random_sequences(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            flags = [bool(b) for b in rng.integers(0, 2, n)]
            num_gt = sum(flags) + int(rng.integers(0, 4))
            if num_gt == 0:
                continue
            assert average_precision(flags, num_gt) == \
                pytest.approx(ap_reference(flags, num_gt), abs=1e-12)

    def test_exhaustive_short_sequences(self):
        for n in range(0, 7):
            for bits in itertools.product([False, True], repeat=n):
                for extra in range(0, 3):
                    num_gt = sum(bits) + extra
                    if num_gt == 0:
                        continue
                    assert average_precision(list(bits), num_gt) == \
                        pytest.approx(ap_reference(list(bits), num_gt),
                                      abs=1e-12)

    def test_score_rescaling_leaves_ap_unchanged(self):
        rng = np.random.default_rng(53)
        preds, truth = random_frame_case(rng)
        scaled = [replace(p, score=p.score * 3.7) for p in preds]
        assert frame_map_of(scaled, truth, 0.3) == \
            pytest.approx(frame_map_of(preds, truth, 0.3))


class TestMeanAP:
    def test_two_class_mean(self):
        truth = [gt_still("v", 0, 0, 1, BOX), gt_still("v", 1, 5, 1, BOX)]
        preds = [pred("v", 0, BOX, 0, 0.9),
                 pred("v", 5, BoundingBox(40, 10, 90, 60), 1, 0.8),
                 pred("v", 5, BOX, 1, 0.7)]
        res = match_and_label(preds, truth, 0.5, mode="frame")
        aps = class_average_precisions(res)
        assert aps[0] == 1.0
        assert aps[1] == pytest.approx(0.5)
        assert frame_map_of(preds, truth, 0.5) == pytest.approx(0.75)

    def test_classes_without_gt_excluded(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        preds = [pred("v", 0, BOX, 0, 0.9),
                 pred("v", 0, BOX, 7, 0.8)]
        res = match_and_label(preds, truth, 0.5, mode="frame")
        assert set(class_average_precisions(res)) == {0}
        assert frame_map_of(preds, truth, 0.5) == 1.0

    def test_map_non_increasing_in_sigma(self):
        rng = np.random.default_rng(59)
        sigmas = (0.05, 0.1, 0.2, 0.3, 0.5)
        for _ in range(40):
            preds, truth = random_frame_case(rng)
            if not truth:
                continue
            values = [frame_map_of(preds, truth, s) for s in sigmas]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def auc_sweep_reference(preds, truth, sigma, cap=0.6):
    """Independent AUC: rematch from scratch at every score threshold."""
    if not preds or not truth:
        return 0.0
    num_gt = sum(1 for g in truth for _ in g.iter_frames())
    full = match_and_label(preds, truth, sigma, mode="frame")
    total_fp = len(full.outcomes) - full.tp_count
    points = [(0.0, 0.0)]
    for theta in sorted({p.score for p in preds}, reverse=True):
        kept = [p for p in preds if p.score >= theta]
        res = match_and_label(kept, truth, sigma, mode="frame")
        fp = len(res.outcomes) - res.tp_count
        fpr = 0.0 if total_fp == 0 else fp / total_fp
        points.append((fpr, res.tp_count / num_gt))
    xs, ys = [], []
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        xs.append(f0)
        ys.append(t0)
        if f0 < cap < f1:
            xs.append(cap)
            ys.append(t0 + (t1 - t0) * (cap - f0) / (f1 - f0))
    if points[-1][0] <= cap:
        xs.append(points[-1][0])
        ys.append(points[-1][1])
        xs.append(cap)
        ys.append(points[-1][1])
    else:
        xs.append(cap)
        ys.append(ys[-1] if xs[-1] == cap else ys[-1])
    keep = [i for i in range(len(xs)) if xs[i] <= cap]
    return float(np.trapezoid([ys[i] for i in keep],
                              [xs[i] for i in keep])) / cap


class TestAuc:
    def test_perfect_detections(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        preds = [pred("v", 0, BOX, 0, 0.9)]
        res = match_and_label(preds, truth, 0.5, mode="frame")
        assert auc_from_outcomes(res.outcomes, res.num_gt) == 1.0

    def test_no_detections(self):
        assert auc_from_outcomes([], 5) == 0.0

    def test_matches_threshold_sweep(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 100:
            preds, truth = random_frame_case(rng)
            if not preds or not truth:
                continue
            checked += 1
            res = match_and_label(preds, truth, 0.3, mode="frame")
            got = auc_from_outcomes(res.outcomes, res.num_gt)
            want = auc_sweep_reference(preds, truth, 0.3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_fpr_cap_validated(self):
        with pytest.raises(InputError):
            auc_from_outcomes([], 1, fpr_cap=0.0)


class TestRecallTrack:
    def test_identical_tubes(self):
        truth = [gt_still("v", 0, 0, 10, BOX)]
        tubes = [tube_still("v", "t0", 0, 10, BOX, 0, 0.9)]
        assert recall_track_of(tubes, truth) == 1.0

    def test_no_tubes(self):
        assert recall_track_of([], [gt_still("v", 0, 0, 10, BOX)]) == 0.0

    def test_partial_coverage(self):
        truth = [gt_still("v", 0, 0, 10, BOX),
                 gt_still("v", 0, 20, 10, BOX),
                 gt_still("w", 0, 0, 10, BOX)]
        tubes = [tube_still("v", "t0", 0, 10, BOX, 0, 0.9),
                 tube_still("w", "t0", 0, 10, BOX, 0, 0.9)]
        assert recall_track_of(tubes, truth) == pytest.approx(2 / 3)

    def test_coverage_is_inclusive_at_sigma(self):
        truth = [gt_still("v", 0, 0, 10, BOX)]
        tubes = [tube_still("v", "t0", 0, 5, BOX, 0, 0.9)]
        assert st_iou(tubes[0], truth[0]) == pytest.approx(0.5)
        assert recall_track_of(tubes, truth, sigma=0.5) == 1.0

    def test_wrong_class_does_not_cover(self):
        truth = [gt_still("v", 0, 0, 10, BOX)]
        tubes = [tube_still("v", "t0", 0, 10, BOX, 1, 0.9)]
        assert recall_track_of(tubes, truth) == 0.0

    def test_unlabeled_tube_named(self):
        truth = [gt_still("v", 0, 0, 10, BOX)]
        bare = tube_still("v", "t7", 0, 10, BOX, None, 0.9)
        with pytest.raises(InputError) as info:
            recall_track_of([bare], truth)
        assert "tube 't7' in 'v'" in str(info.value)


class TestFalseTaxonomy:
    def test_wrong_label_on_gt_location(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        preds = [pred("v", 0, BOX, 1, 0.9)]
        fc = false_counts_of(preds, truth)
        assert (fc.false_cls, fc.false_bbox, fc.false_neg) == (1, 0, 0)

    def test_right_label_poor_box(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        loose = BoundingBox(30, 10, 80, 60)
        assert iou(loose, BOX) < 0.5
        preds = [pred("v", 0, loose, 0, 0.9)]
        fc = false_counts_of(preds, truth)
        assert (fc.false_cls, fc.false_bbox, fc.false_neg) == (0, 1, 0)

    def test_untouched_gt_is_false_neg(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        fc = false_counts_of([], truth)
        assert (fc.false_cls, fc.false_bbox, fc.false_neg) == (0, 0, 1)

    def test_poor_box_still_blocks_false_neg(self):
        # IOU below sigma but above the floor: a false_bbox, not a miss.
        truth = [gt_still("v", 0, 0, 1, BOX)]
        loose = BoundingBox(30, 10, 80, 60)
        preds = [pred("v", 0, loose, 0, 0.9)]
        fc = false_counts_of(preds, truth)
        assert fc.false_neg == 0

    def test_duplicate_counts_as_false_bbox(self):
        truth = [gt_still("v", 0, 0, 1, BOX)]
        preds = [pred("v", 0, BOX, 0, 0.9),
                 pred("v", 0, BOX, 0, 0.8)]
        fc = false_counts_of(preds, truth)
        assert fc.true_positives == 1
        assert (fc.false_cls, fc.false_bbox) == (0, 1)

    def test_counts_partition_predictions(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            preds, truth = random_frame_case(rng)
            fc = false_counts_of(preds, truth)
            assert fc.true_positives + fc.false_cls + fc.false_bbox == \
                len(preds)
            assert 0 <= fc.false_neg <= sum(
                1 for g in truth for _ in g.iter_frames())


class TestEvalReport:
    def make_perfect(self):
        truth = [gt_still("v0", 0, 0, 10, BOX),
                 gt_still("v1", 1, 0, 10, BOX)]
        tubes = [tube_still("v0", "t0", 0, 10, BOX, 0, 0.9),
                 tube_still("v1", "t0", 0, 10, BOX, 1, 0.8)]
        return tubes, truth

    def test_perfect_scenario_maxes_everything(self):
        tubes, truth = self.make_perfect()
        report = evaluate(tubes, truth)
        for s in report.sigmas:
            assert report.video_map[s] == 1.0
            assert report.frame_map[s] == 1.0
            assert report.auc[s] == 1.0
        assert report.recall_track == 1.0
        assert report.false_counts.false_cls == 0
        assert report.false_counts.false_bbox == 0
        assert report.false_counts.false_neg == 0

    @pytest.mark.parametrize("label, score", [(None, 0.8), (1, None)])
    def test_unscored_tube_named(self, label, score):
        tubes, truth = self.make_perfect()
        tubes[1] = tube_still("v1", "t5", 0, 10, BOX, label, score)
        with pytest.raises(InputError) as info:
            evaluate(tubes, truth)
        assert "tube 't5' in 'v1'" in str(info.value)

    def test_explode_tubes(self):
        tubes, truth = self.make_perfect()
        res = match_and_label(tubes, truth, 0.5, mode="frame")
        assert len(res.outcomes) == 20
        assert (res.outcomes[0].label, res.outcomes[0].score) == (0, 0.9)
        assert [o.gt_index for o in res.outcomes] == list(range(20))

    def test_report_text_mentions_all_metrics(self):
        tubes, truth = self.make_perfect()
        text = evaluate(tubes, truth).to_text()
        for needle in ("video-mAP", "frame-mAP", "AUC", "recall-track",
                       "false_cls", "false_bbox", "false_neg"):
            assert needle in text

    def test_map_table_layout(self):
        tubes, truth = self.make_perfect()
        report = evaluate(tubes, truth)
        lines = report.map_table("video").splitlines()
        # Header + one row per class + the mAP row.
        assert len(lines) == 4
        assert lines[0].startswith("class")
        assert [line[:6] for line in lines[1:]] == ["0     ", "1     ",
                                                    "mAP   "]
        assert lines[-1].startswith("mAP")

    def test_each_overlap_computed_once(self, monkeypatch):
        """One st_iou per (tube, same-video same-class truth tube) and one
        iou per (box prediction, same-frame truth box), whatever the
        sigmas."""
        def moving(shift, start, length):
            return [BoundingBox(10 + 2 * f + shift, 10, 60 + 2 * f + shift,
                                60) for f in range(start, start + length)]
        truth = [gt("v0", 0, 0, moving(0, 0, 8)),
                 gt("v0", 1, 4, moving(5, 4, 8)),
                 gt("v1", 0, 2, moving(0, 2, 6))]
        tubes = [tube_from_boxes("v0", "t0", 0, moving(1, 0, 8), 0, 0.9),
                 tube_from_boxes("v0", "t1", 3, moving(4, 3, 9), 1, 0.9),
                 tube_from_boxes("v0", "t2", 6, moving(0, 6, 4), 0, 0.5),
                 tube_from_boxes("v1", "t0", 0, moving(2, 0, 5), 0, 0.7),
                 tube_from_boxes("v2", "t0", 0, moving(0, 0, 3), 1, 0.8)]
        calls = {"st_iou": Counter(), "iou": Counter()}
        for name, seen in calls.items():
            def counted(a, b, real=getattr(evaluation, name), seen=seen):
                seen[id(a), id(b)] += 1
                return real(a, b)
            monkeypatch.setattr(evaluation, name, counted)
        evaluate(tubes, truth, EvalConfig(iou_thresholds=(0.1, 0.3, 0.7),
                                          recall_track_sigma=0.25,
                                          taxonomy_sigma=0.4,
                                          taxonomy_floor=0.05))
        assert calls["st_iou"] == Counter(
            (id(t), id(g)) for t in tubes for g in truth
            if t.video_id == g.video_id and t.label == g.label)
        assert calls["iou"] == Counter(
            (id(box), id(truth_box)) for t in tubes
            for frame, box in t.iter_frames() for g in truth
            for truth_frame, truth_box in g.iter_frames()
            if (t.video_id, frame) == (g.video_id, truth_frame))
        # Shared frames: t0, t1, t2 with the v0 truth 12 + 13 + 6, and
        # 3 in v1; each box is a distinct object, so each pair once.
        assert len(calls["iou"]) == 34

    def test_config_validation(self):
        with pytest.raises(InputError):
            EvalConfig(iou_thresholds=())
        with pytest.raises(InputError):
            EvalConfig(iou_thresholds=(0.0,))
        for thresholds in ((0.5, 0.5, 0.3), (0.5, 0.3), (0.3, 0.3)):
            with pytest.raises(InputError, match="strictly increasing"):
                EvalConfig(iou_thresholds=thresholds)
        with pytest.raises(InputError):
            EvalConfig(fpr_cap=1.5)
