import math
from dataclasses import replace

import pytest

from actiontubes import model
from actiontubes.errors import InputError
from actiontubes.model import (BoundingBox, ClipScoreSequence, Detection,
                               FrameInterval, GroundTruthTube, Source, Tube,
                               argmax_label)


def make_det(frame=0, box=(0, 0, 10, 10), scores=(0.5, 0.5)):
    return Detection(frame, BoundingBox(*box), tuple(scores))


def make_tube(start=0, length=1, box=(0, 0, 10, 10), scores=(0.5, 0.5)):
    return Tube("v0", "t0", start, (BoundingBox(*box),) * length,
                (tuple(scores),) * length, (Source.STATIC,) * length)


class TestBoundingBox:
    def test_area_and_center(self):
        b = BoundingBox(1.0, 2.0, 4.0, 8.0)
        assert b.area() == 18.0
        assert b.center() == (2.5, 5.0)

    @pytest.mark.parametrize("coords", [
        (0, 0, 0, 5), (0, 0, 5, 0), (3, 1, 2, 4), (0, 0, -1, 5),
    ])
    def test_rejects_degenerate(self, coords):
        with pytest.raises(InputError):
            BoundingBox(*coords)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            BoundingBox(0, 0, math.inf, 5)
        with pytest.raises(InputError):
            BoundingBox(0, math.nan, 5, 5)


class TestFrameInterval:
    def test_half_open_membership(self):
        iv = FrameInterval(3, 7)
        assert len(iv) == 4
        assert 3 in iv and 6 in iv
        assert 7 not in iv and 2 not in iv

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            FrameInterval(5, 5)
        with pytest.raises(InputError):
            FrameInterval(6, 5)


class TestDetection:
    def test_label_is_argmax_with_low_index_ties(self):
        assert make_det(scores=(0.2, 0.7, 0.1)).label == 1
        assert make_det(scores=(0.4, 0.4, 0.2)).label == 0
        assert argmax_label((1.0, 1.0, 1.0)) == 0

    def test_score_matches_label(self):
        d = make_det(scores=(0.2, 0.7, 0.1))
        assert d.score == 0.7
        assert d.score_for(2) == 0.1

    def test_label_and_score_follow_replace(self):
        d = make_det(scores=(0.2, 0.7, 0.1))
        e = replace(d, class_scores=(0.6, 0.1, 0.3))
        assert (e.label, e.score) == (0, 0.6)
        f = replace(e, frame_index=4, source=Source.MERGED)
        assert (f.label, f.score) == (0, 0.6)
        assert (d.label, d.score) == (1, 0.7)

    def test_cached_fields_do_not_change_equality_or_repr(self):
        a, b = make_det(scores=(0.2, 0.7)), make_det(scores=(0.2, 0.7))
        assert a == b and hash(a) == hash(b)
        assert "label" not in repr(a)

    def test_rejects_empty_scores(self):
        with pytest.raises(InputError):
            make_det(scores=())

    def test_rejects_out_of_range_class(self):
        with pytest.raises(InputError):
            make_det(scores=(0.5, 0.5)).score_for(2)


class TestClipScoreSequence:
    def test_accepts_distributions(self):
        seq = ClipScoreSequence(
            clip_length=4,
            intervals=(FrameInterval(0, 4), FrameInterval(4, 8)),
            scores=((0.25, 0.75), (1.0, 0.0)))
        assert seq.num_classes == 2
        assert len(seq) == 2
        assert seq.span() == FrameInterval(0, 8)

    def test_rejects_non_distribution(self):
        with pytest.raises(InputError):
            ClipScoreSequence(4, (FrameInterval(0, 4),), ((0.7, 0.7),))

    def test_rejects_gap_between_intervals(self):
        with pytest.raises(InputError):
            ClipScoreSequence(
                4, (FrameInterval(0, 4), FrameInterval(5, 9)),
                ((0.5, 0.5), (0.5, 0.5)))


class TestTube:
    def test_contiguous_entries(self):
        t = make_tube(start=3, length=3)
        assert t.interval() == FrameInterval(3, 6)
        assert t.box_at(4) == BoundingBox(0, 0, 10, 10)
        assert [f for f, _ in t.iter_frames()] == [3, 4, 5]

    def test_rejects_unequal_lengths(self):
        # frames are positions from ``start``, so a gap cannot be held;
        # the per-frame tuples must agree in length instead
        t = make_tube(length=3)
        for field in ("boxes", "class_scores", "sources"):
            with pytest.raises(InputError, match="3 boxes|2 boxes"):
                replace(t, **{field: getattr(t, field)[:2]})

    def test_rejects_unequal_class_counts(self):
        t = make_tube(length=2)
        with pytest.raises(InputError, match="class count"):
            replace(t, class_scores=((0.5, 0.5), (1.0,)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Tube("v0", "t0", 0, (), (), ())

    def test_box_at_outside_extent(self):
        t = make_tube(start=2)
        with pytest.raises(InputError):
            t.box_at(3)


    def test_labeled_checks_only_the_new_values(self, monkeypatch):
        tube = make_tube(length=3)
        calls = []
        checked = model._validated_scores
        monkeypatch.setattr(model, "_validated_scores",
                            lambda scores: calls.append(scores)
                            or checked(scores))
        out = tube.labeled(1, 0.75)
        assert calls == []
        assert out == replace(tube, label=1, score=0.75)
        assert (tube.label, tube.score) == (None, None)

    @pytest.mark.parametrize("label, score", [(-1, 0.5), (0, math.nan),
                                              (0, math.inf)])
    def test_labeled_rejects_bad_values(self, label, score):
        with pytest.raises(InputError):
            make_tube().labeled(label, score)


class TestGroundTruthTube:
    def test_interval_and_lookup(self):
        gt = GroundTruthTube("v0", "g0", 1, 10,
                             (BoundingBox(0, 0, 5, 5),
                              BoundingBox(1, 0, 6, 5)))
        assert gt.interval() == FrameInterval(10, 12)
        assert gt.box_at(11).x_min == 1
        assert list(gt.iter_frames())[0] == (10, BoundingBox(0, 0, 5, 5))

    def test_rejects_negative_label(self):
        with pytest.raises(InputError):
            GroundTruthTube("v0", "g0", -1, 0, (BoundingBox(0, 0, 1, 1),))


def test_source_round_trips_through_value():
    for src in Source:
        assert Source(src.value) is src
