import math
import re
from dataclasses import replace

import numpy as np
import pytest

from actiontubes import formats, geometry
from actiontubes.config import apply_overrides, default_config
from actiontubes.errors import InputError
from actiontubes.geometry import st_iou
from actiontubes.model import (BoundingBox, ClipScoreSequence, FrameInterval,
                               Source, Tube)
from actiontubes.pipeline import (FILE_CLIP_SCORES, FILE_DRIFT, FILE_SCORED,
                                  FILE_TRACKED, run_fuse, run_score,
                                  run_synth, run_track)
from actiontubes.scoring import (RecurrentScorerWeights, prune_overlapped,
                                 recurrent_forward,
                                 score_clips, score_tube, slice_clips,
                                 softmax)
from oracles import (prune_overlapped_reference, recurrent_reference,
                     softmax_reference)


def random_weights(rng, d_in=5, hidden=4, classes=3, activation="tanh",
                   zero_hh=False):
    return RecurrentScorerWeights(
        w_io=rng.normal(size=(hidden, d_in)),
        w_hh=np.zeros((hidden, hidden)) if zero_hh
        else rng.normal(size=(hidden, hidden)) * 0.5,
        b_y=rng.normal(size=hidden),
        w_cls=rng.normal(size=(classes, hidden)),
        b_cls=rng.normal(size=classes),
        activation=activation)


class TestSliceClips:
    def test_exact_multiple(self):
        clips = slice_clips(FrameInterval(0, 80), 16)
        assert len(clips) == 5
        assert clips[0] == FrameInterval(0, 16)
        assert clips[-1] == FrameInterval(64, 80)

    def test_half_or_longer_remainder_kept(self):
        clips = slice_clips(FrameInterval(0, 40), 16)
        assert [len(c) for c in clips] == [16, 16, 8]

    def test_short_remainder_merged_into_previous(self):
        clips = slice_clips(FrameInterval(0, 39), 16)
        assert [len(c) for c in clips] == [16, 23]

    def test_single_short_tube_is_one_clip(self):
        assert slice_clips(FrameInterval(3, 9), 16) == [FrameInterval(3, 9)]

    def test_partition_covers_extent(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            start = int(rng.integers(0, 50))
            length = int(rng.integers(1, 200))
            clip_len = int(rng.integers(1, 40))
            clips = slice_clips(FrameInterval(start, start + length), clip_len)
            assert clips[0].start == start
            assert clips[-1].end == start + length
            for a, b in zip(clips, clips[1:]):
                assert a.end == b.start
            if length > clip_len:
                assert all(2 * len(c) >= clip_len for c in clips)

    def test_odd_clip_length_rounding(self):
        # remainder 2 of clip length 5: 4 < 5, merged; remainder 3 kept
        assert [len(c) for c in slice_clips(FrameInterval(0, 7), 5)] == [7]
        assert [len(c) for c in slice_clips(FrameInterval(0, 8), 5)] == [5, 3]


class TestRecurrentForward:
    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            activation = ("tanh", "relu", "logistic")[int(rng.integers(3))]
            w = random_weights(rng, activation=activation)
            feats = rng.normal(size=(int(rng.integers(1, 9)), 5))
            got = recurrent_forward(feats, w)
            want = recurrent_reference(feats, w.w_io, w.w_hh, w.b_y,
                                       activation, w.w_cls, w.b_cls)
            np.testing.assert_allclose(got, np.array(want), atol=1e-9)

    def test_zero_recurrence_equals_feedforward_exactly(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, zero_hh=True)
        feats = rng.normal(size=(6, 5))
        together = recurrent_forward(feats, w)
        one_by_one = np.vstack([recurrent_forward(feats[i:i + 1], w)
                                for i in range(6)])
        assert np.array_equal(together, one_by_one)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        w = random_weights(rng)
        out = np.asarray(recurrent_forward(rng.normal(size=(4, 5)), w))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_feature_size_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        w = random_weights(rng, d_in=5)
        with pytest.raises(InputError):
            recurrent_forward(rng.normal(size=(4, 6)), w)

    def test_softmax_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = rng.normal(size=4) * 10
            np.testing.assert_allclose(softmax(v), softmax_reference(v),
                                       atol=1e-12)

    def test_weight_shape_validation(self):
        with pytest.raises(InputError):
            RecurrentScorerWeights(
                w_io=np.zeros((4, 5)), w_hh=np.zeros((3, 3)),
                b_y=np.zeros(4), w_cls=np.zeros((2, 4)), b_cls=np.zeros(2))
        with pytest.raises(InputError):
            RecurrentScorerWeights(
                w_io=np.zeros((4, 5)), w_hh=np.zeros((4, 4)),
                b_y=np.zeros(4), w_cls=np.zeros((2, 4)), b_cls=np.zeros(2),
                activation="softplus")


class TestPlainFloats:
    """The scorer computes with Python floats in fixed orders, so its
    bits do not depend on numpy's SIMD paths."""

    @staticmethod
    def one_unit(w_io, activation="relu", b_y=0.0):
        """One hidden unit fed to class 0 of two: class 0 scores
        ``softmax([y, 0])[0]``, which grows with the unit's value y."""
        return RecurrentScorerWeights(
            w_io=(w_io,), w_hh=((0.0,),), b_y=(b_y,),
            w_cls=((1.0,), (0.0,)), b_cls=(0.0, 0.0), activation=activation)

    def test_dot_products_add_left_to_right(self):
        # left to right: (1e16 + 1) + -1e16 == 0.0; a compensated sum
        # (``sum`` on Python 3.12 and later) gives 1.0
        out = recurrent_forward([(1e16, 1.0, -1e16)],
                                self.one_unit((1.0, 1.0, 1.0)))
        assert out == [[0.5, 0.5]]

    def test_weights_and_outputs_are_plain_floats(self):
        rng = np.random.default_rng(19)
        w = random_weights(rng)
        assert type(w.w_io) is tuple and type(w.w_io[0]) is tuple
        assert all(type(v) is float for v in w.b_cls)
        assert RecurrentScorerWeights(
            w_io=[list(row) for row in w.w_io], w_hh=w.w_hh, b_y=w.b_y,
            w_cls=w.w_cls, b_cls=list(w.b_cls)).w_io == w.w_io
        out = recurrent_forward(rng.normal(size=(3, 5)).tolist(), w)
        assert all(type(v) is float for row in out for v in row)

    def test_softmax_divides_by_numpy_pairwise_sum(self):
        rng = np.random.default_rng(29)
        for k in (1, 3, 8, 9, 130):
            v = (rng.normal(size=k) * 5).tolist()
            e = np.array([math.exp(x - max(v)) for x in v])
            assert softmax(v) == (e / np.sum(e)).tolist()

    def test_logistic_of_a_large_negative_input_is_zero(self):
        w = self.one_unit((1.0,), activation="logistic")
        assert recurrent_forward([(-1000.0,)], w) == [[0.5, 0.5]]

    @pytest.mark.parametrize("classes", [1, 2, 5])
    def test_tube_means_are_numpy_means_over_frames(self, classes):
        rng = np.random.default_rng(classes)
        for frames in (1, 7, 9, 40, 200):
            scores = rng.uniform(0, 1, (frames, classes)) * \
                10.0 ** rng.integers(-3, 3, (frames, classes))
            tube = tube_with_scores([tuple(row) for row in scores.tolist()])
            clip = (1.0,) if classes == 1 else tuple(
                rng.dirichlet(np.ones(classes)).tolist())
            ts = score_tube(tube, clips_for(tube, clip))
            assert list(ts.s_avg_cnn) == scores.mean(axis=0).tolist()
            assert all(type(v) is float for v in ts.s_traj)

    @pytest.mark.parametrize("kwargs, needle", [
        ({"w_io": [[1.0, 2.0], [3.0]]}, "w_io is ragged"),
        ({"b_y": []}, "b_y has an empty axis"),
        ({"b_cls": ["x"]}, "b_cls holds 'x', not a number"),
        ({"w_hh": [[float("inf")]]}, "w_hh contains non-finite values"),
    ])
    def test_malformed_weights_rejected(self, kwargs, needle):
        base = {"w_io": [[1.0]], "w_hh": [[0.0]], "b_y": [0.0],
                "w_cls": [[1.0], [0.0]], "b_cls": [0.0, 0.0]}
        with pytest.raises(InputError, match=re.escape(needle)):
            RecurrentScorerWeights(**{**base, **kwargs})

    @pytest.mark.parametrize("features", [[], [(1.0, "x")], [1.0]])
    def test_malformed_features_rejected(self, features):
        with pytest.raises(InputError, match="features must be"):
            recurrent_forward(features, self.one_unit((1.0, 1.0)))


def tube_with_scores(frame_scores, video="v", tube_id="t0", start=0):
    n = len(frame_scores)
    return Tube(video, tube_id, start, (BoundingBox(0, 0, 10, 10),) * n,
                tuple(frame_scores), (Source.STATIC,) * n)


def clips_for(tube, scores):
    iv = tube.interval()
    return ClipScoreSequence(clip_length=len(iv), intervals=(iv,),
                             scores=(scores,))


class TestScoreTube:
    def test_additive_fusion(self):
        tube = tube_with_scores([(0.6, 0.4), (0.8, 0.2)])
        ts = score_tube(tube, clips_for(tube, (0.5, 0.5)))
        assert ts.s_avg_cnn == pytest.approx((0.7, 0.3))
        assert ts.s_avg_rnn == (0.5, 0.5)
        assert ts.s_traj == pytest.approx((1.2, 0.8))
        assert ts.label == 0
        assert ts.score == pytest.approx(1.2)

    def test_sum_identity_holds(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            frames = [tuple(float(v) for v in rng.uniform(0, 1, k))
                      for _ in range(int(rng.integers(1, 6)))]
            tube = tube_with_scores(frames)
            clip = tuple(float(v) for v in rng.dirichlet(np.ones(k)))
            ts = score_tube(tube, clips_for(tube, clip))
            for c in range(k):
                assert ts.s_traj[c] == pytest.approx(
                    ts.s_avg_cnn[c] + ts.s_avg_rnn[c], abs=1e-12)

    def test_tie_takes_lowest_label(self):
        tube = tube_with_scores([(0.5, 0.5)])
        ts = score_tube(tube, clips_for(tube, (0.5, 0.5)))
        assert ts.label == 0

    def test_pinned_label_keeps_class_and_reports_its_score(self):
        tube = tube_with_scores([(0.6, 0.4), (0.8, 0.2)])
        ts = score_tube(tube, clips_for(tube, (0.5, 0.5)), label=1)
        assert ts.label == 1
        assert ts.score == pytest.approx(0.8)
        assert ts.s_traj == pytest.approx((1.2, 0.8))

    def test_pinned_label_out_of_range_rejected(self):
        tube = tube_with_scores([(0.6, 0.4)])
        with pytest.raises(InputError):
            score_tube(tube, clips_for(tube, (0.5, 0.5)), label=2)

    def test_span_mismatch_rejected(self):
        tube = tube_with_scores([(1.0, 0.0), (1.0, 0.0)])
        bad = ClipScoreSequence(2, (FrameInterval(0, 1),), ((0.5, 0.5),))
        with pytest.raises(InputError):
            score_tube(tube, bad)

    def test_class_count_mismatch_rejected(self):
        tube = tube_with_scores([(1.0, 0.0)])
        bad = clips_for(tube, (0.3, 0.3, 0.4))
        with pytest.raises(InputError):
            score_tube(tube, bad)


def scored_tube(video, tube_id, start, length, box, score, label=0):
    return Tube(video, tube_id, start, (box,) * length,
                ((score, 0.0),) * length, (Source.STATIC,) * length,
                label=label, score=score)


class TestPruneOverlapped:
    def test_keeps_higher_scored_duplicate(self):
        box = BoundingBox(0, 0, 20, 20)
        strong = scored_tube("v", "a", 0, 10, box, 0.9)
        weak = scored_tube("v", "b", 0, 10, box, 0.5)
        kept = prune_overlapped([weak, strong], 0.3)
        assert kept == [strong]

    def test_disjoint_tubes_survive(self):
        a = scored_tube("v", "a", 0, 10, BoundingBox(0, 0, 20, 20), 0.9)
        b = scored_tube("v", "b", 0, 10, BoundingBox(100, 100, 120, 120), 0.5)
        assert prune_overlapped([a, b], 0.3) == [a, b]

    def test_threshold_is_strict(self):
        # Same boxes, temporal overlap exactly 0.3: not removed.
        box = BoundingBox(0, 0, 20, 20)
        long = scored_tube("v", "a", 0, 10, box, 0.9)
        short = scored_tube("v", "b", 0, 3, box, 0.5)
        assert prune_overlapped([long, short], 0.3) == [long, short]
        # Overlap 0.2 at threshold 0.2 survives; just below it is removed.
        shorter = scored_tube("v", "c", 0, 2, box, 0.5)
        assert prune_overlapped([long, shorter], 0.2) == [long, shorter]
        assert prune_overlapped([long, shorter], 0.19) == [long]

    def test_cross_class_suppression(self):
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v", "a", 0, 10, box, 0.9, label=0)
        b = scored_tube("v", "b", 0, 10, box, 0.5, label=1)
        assert prune_overlapped([a, b], 0.3) == [a]

    def test_videos_do_not_interact(self):
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v1", "a", 0, 10, box, 0.9)
        b = scored_tube("v2", "b", 0, 10, box, 0.5)
        assert prune_overlapped([a, b], 0.3) == [a, b]

    def test_output_sorted_by_score(self):
        a = scored_tube("v", "a", 0, 10, BoundingBox(0, 0, 20, 20), 0.3)
        b = scored_tube("v", "b", 0, 10, BoundingBox(50, 0, 70, 20), 0.8)
        c = scored_tube("v", "c", 0, 10, BoundingBox(100, 0, 120, 20), 0.5)
        assert prune_overlapped([a, b, c], 0.3) == [b, c, a]

    @pytest.mark.parametrize("label,score", [(None, 0.5), (0, None)])
    def test_unscored_tube_rejected(self, label, score):
        box = BoundingBox(0, 0, 20, 20)
        good = scored_tube("v", "a", 0, 10, box, 0.9)
        bare = replace(good, tube_id="b", label=label, score=score)
        with pytest.raises(InputError, match="'b'"):
            prune_overlapped([good, bare], 0.3)


def random_scored(rng, count):
    out = []
    for i in range(count):
        start = int(rng.integers(0, 12))
        x, y = (float(v) for v in rng.integers(0, 30, 2))
        boxes = []
        for _ in range(int(rng.integers(1, 7))):
            dx, dy = (float(v) for v in rng.integers(-2, 3, 2))
            boxes.append(
                BoundingBox(x + dx, y + dy, x + dx + 20, y + dy + 20))
        n = len(boxes)
        score = float(rng.choice([0.2, 0.5, 0.9]))   # ties are common
        out.append(Tube(f"v{int(rng.integers(0, 3))}", f"t{i}", start,
                        tuple(boxes), ((1.0, 0.0),) * n,
                        (Source.STATIC,) * n, label=0, score=score))
    return out


class TestPruneMatchesAllPairs:
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_random_videos(self, threshold):
        rng = np.random.default_rng(59)
        for _ in range(40):
            scored = random_scored(rng, int(rng.integers(0, 25)))
            got = prune_overlapped(scored, threshold)
            want = prune_overlapped_reference(scored, threshold)
            assert [t.tube_id for t in got] == [t.tube_id for t in want]

    def test_abutting_extents_survive_threshold_zero(self):
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v", "a", 0, 5, box, 0.9)
        b = scored_tube("v", "b", 5, 3, box, 0.5)
        c = scored_tube("v", "c", 4, 2, box, 0.4)
        assert prune_overlapped([a, b, c], 0.0) == [a, b]
        assert prune_overlapped_reference([a, b, c], 0.0) == [a, b]


def tie_heavy_scored(rng, count):
    """Tubes on a 10-pixel lattice with few extents and scores.

    Boxes are 10 or 20 pixels wide at multiples of 10, so hulls often
    share just an edge; starts and lengths are small, so extents often
    share 3 of 10 frames or abut; scores repeat.
    """
    out = []
    for i in range(count):
        start = int(rng.integers(0, 8))
        n = int(rng.choice([1, 2, 3, 5, 7, 7, 10]))
        x, y = (10.0 * float(v) for v in rng.integers(0, 4, 2))
        side = float(rng.choice([10.0, 20.0]))
        moves = rng.random() < 0.3
        boxes = tuple(BoundingBox(x + 10.0 * f * moves, y,
                                  x + 10.0 * f * moves + side, y + side)
                      for f in range(n))
        score = float(rng.choice([0.5, 0.9]))
        out.append(Tube(f"v{int(rng.integers(0, 2))}", f"t{i}", start, boxes,
                        ((1.0, 0.0),) * n, (Source.STATIC,) * n,
                        label=int(rng.integers(0, 2)), score=score))
    return out


def hulls_overlap(a, b):
    """Whether the boxes of a and b span rectangles sharing some area."""
    def span(tube):
        return (min(b.x_min for b in tube.boxes),
                min(b.y_min for b in tube.boxes),
                max(b.x_max for b in tube.boxes),
                max(b.y_max for b in tube.boxes))
    ax0, ay0, ax1, ay1 = span(a)
    bx0, by0, bx1, by1 = span(b)
    return min(ax1, bx1) > max(ax0, bx0) and min(ay1, by1) > max(ay0, by0)


def temporal_overlap(a, b):
    sa, sb = set(a.interval().frames()), set(b.interval().frames())
    return len(sa & sb) / len(sa | sb)


class TestPruneOracle:
    """``prune_overlapped`` against the all-pairs oracle on ties.

    Every ``st_iou`` call it makes is recorded: it may compute one only
    for a pair whose box hulls share area and whose temporal IOU is
    above the threshold, since no other pair can exceed the threshold.
    """

    @pytest.fixture
    def st_iou_calls(self, monkeypatch):
        calls = []

        def recorded(a, b):
            calls.append((a, b))
            return st_iou(a, b)

        monkeypatch.setattr(geometry, "st_iou", recorded)
        return calls

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.3, 0.5, 1.0])
    def test_tie_heavy_inputs(self, threshold, st_iou_calls):
        rng = np.random.default_rng(83)
        for _ in range(60):
            scored = tie_heavy_scored(rng, int(rng.integers(0, 16)))
            st_iou_calls.clear()
            got = prune_overlapped(scored, threshold)
            want = prune_overlapped_reference(scored, threshold)
            assert [t.tube_id for t in got] == [t.tube_id for t in want]
            for a, b in st_iou_calls:
                assert hulls_overlap(a, b)
                assert temporal_overlap(a, b) > threshold

    def test_temporal_iou_equal_to_the_threshold_is_passed_over(
            self, st_iou_calls):
        # 3 shared frames of a 10-frame union, identical boxes: the
        # st-IOU would be exactly 0.3, which is not above 0.3
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v", "a", 0, 6, box, 0.9)
        b = scored_tube("v", "b", 3, 7, box, 0.5)
        assert prune_overlapped([a, b], 0.3) == [a, b]
        assert prune_overlapped_reference([a, b], 0.3) == [a, b]
        assert st_iou_calls == []
        assert prune_overlapped([a, b], 0.29) == [a]
        assert len(st_iou_calls) == 1

    def test_hulls_sharing_one_edge_are_passed_over(self, st_iou_calls):
        a = scored_tube("v", "a", 0, 10, BoundingBox(0, 0, 20, 20), 0.9)
        b = scored_tube("v", "b", 0, 10, BoundingBox(20, 5, 40, 25), 0.5)
        c = scored_tube("v", "c", 0, 10, BoundingBox(5, 20, 15, 30), 0.4)
        assert prune_overlapped([a, b, c], 0.0) == [a, b, c]
        assert prune_overlapped_reference([a, b, c], 0.0) == [a, b, c]
        assert st_iou_calls == []

    def test_equal_scores_keep_input_order(self, st_iou_calls):
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v", "a", 0, 10, box, 0.5)
        b = scored_tube("v", "b", 0, 10, box, 0.5)
        assert prune_overlapped([b, a], 0.3) == [b]
        assert prune_overlapped_reference([b, a], 0.3) == [b]
        assert prune_overlapped([a, b], 1.0) == [a, b]


def test_score_stage_stores_the_exact_trajectory_score(tmp_path):
    # The pruners rank by the stored score, so it must equal a fresh one.
    config = apply_overrides(default_config(), [
        "synth.seed=4", "synth.video_count=4", "synth.frames_per_video=40",
        "synth.with_footprint=false", "synth.drift_rate=0.5",
        "synth.false_positive_rate=0.3"])
    for stage in (run_synth, run_fuse, run_track, run_score):
        stage(tmp_path, config)
    inputs = (formats.read_tubes(tmp_path / FILE_TRACKED)
              + formats.read_tubes(tmp_path / FILE_DRIFT))
    input_labels = {(t.video_id, t.tube_id): t.label for t in inputs}
    scored = formats.read_tubes(tmp_path / FILE_SCORED)
    clip_map = formats.read_clip_scores(tmp_path / FILE_CLIP_SCORES)
    assert len(scored) == len(inputs)
    assert any(t.tube_id.startswith("drift") for t in scored)
    for tube in scored:
        key = (tube.video_id, tube.tube_id)
        rescored = score_tube(tube, clip_map[key], label=tube.label)
        assert tube.label == input_labels[key] == rescored.label
        assert tube.score == rescored.score


def test_score_clips_bundles_intervals():
    rng = np.random.default_rng(31)
    w = random_weights(rng, d_in=3, classes=2)
    intervals = (FrameInterval(0, 16), FrameInterval(16, 32))
    seq = score_clips(rng.normal(size=(2, 3)), w, intervals, 16)
    assert seq.intervals == intervals
    assert len(seq) == 2
    assert seq.num_classes == 2
