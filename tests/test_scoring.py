import numpy as np
import pytest

from actiontubes.errors import InputError
from actiontubes.geometry import st_iou
from actiontubes.model import (BoundingBox, ClipScoreSequence, Detection,
                               FrameInterval, Tube)
from actiontubes.scoring import (RecurrentScorerWeights, TubeScore,
                                 prune_overlapped, recurrent_forward,
                                 score_clips, score_tube, slice_clips,
                                 softmax)
from oracles import recurrent_reference, softmax_reference


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
        out = recurrent_forward(rng.normal(size=(4, 5)), w)
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


def tube_with_scores(frame_scores, video="v", tube_id="t0", start=0):
    entries = tuple(
        Detection(start + i, BoundingBox(0, 0, 10, 10), scores)
        for i, scores in enumerate(frame_scores))
    return Tube(video, tube_id, entries)


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
    entries = tuple(
        Detection(start + i, box, (score, 0.0)) for i in range(length))
    tube = Tube(video, tube_id, entries, label=label)
    from actiontubes.scoring import TubeScore
    return tube, TubeScore((score, 0.0), (0.0, 0.0), (score, 0.0), label,
                           score)


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


def prune_reference(scored, threshold):
    """The all-pairs loop ``prune_overlapped`` replaces."""
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1].score, i))
    kept = []
    for idx in order:
        tube, ts = scored[idx]
        if not any(k.video_id == tube.video_id and st_iou(k, tube) > threshold
                   for k, _ in kept):
            kept.append((tube, ts))
    return kept


def random_scored(rng, count):
    out = []
    for i in range(count):
        start = int(rng.integers(0, 12))
        x, y = (float(v) for v in rng.integers(0, 30, 2))
        entries = []
        for f in range(start, start + int(rng.integers(1, 7))):
            dx, dy = (float(v) for v in rng.integers(-2, 3, 2))
            entries.append(Detection(
                f, BoundingBox(x + dx, y + dy, x + dx + 20, y + dy + 20),
                (1.0, 0.0)))
        tube = Tube(f"v{int(rng.integers(0, 3))}", f"t{i}", tuple(entries),
                    label=0)
        score = float(rng.choice([0.2, 0.5, 0.9]))   # ties are common
        out.append((tube, TubeScore((score, 0.0), (0.0, 0.0), (score, 0.0),
                                    0, score)))
    return out


class TestPruneMatchesAllPairs:
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_random_videos(self, threshold):
        rng = np.random.default_rng(59)
        for _ in range(40):
            scored = random_scored(rng, int(rng.integers(0, 25)))
            got = prune_overlapped(scored, threshold)
            want = prune_reference(scored, threshold)
            assert [t.tube_id for t, _ in got] == \
                [t.tube_id for t, _ in want]

    def test_abutting_extents_survive_threshold_zero(self):
        box = BoundingBox(0, 0, 20, 20)
        a = scored_tube("v", "a", 0, 5, box, 0.9)
        b = scored_tube("v", "b", 5, 3, box, 0.5)
        c = scored_tube("v", "c", 4, 2, box, 0.4)
        assert prune_overlapped([a, b, c], 0.0) == [a, b]
        assert prune_reference([a, b, c], 0.0) == [a, b]


def test_score_clips_bundles_intervals():
    rng = np.random.default_rng(31)
    w = random_weights(rng, d_in=3, classes=2)
    intervals = (FrameInterval(0, 16), FrameInterval(16, 32))
    seq = score_clips(rng.normal(size=(2, 3)), w, intervals, 16)
    assert seq.intervals == intervals
    assert len(seq) == 2
    assert seq.num_classes == 2
