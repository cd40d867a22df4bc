import numpy as np
import pytest
from hypothesis import given, strategies as st

from actiontubes.errors import InputError
from actiontubes.geometry import iou, nms, st_iou, temporal_iou
from actiontubes.model import (BoundingBox, Detection, FrameInterval,
                               GroundTruthTube, Source, Tube)
from oracles import (interval_iou_sets, lattice_iou, nms_reference,
                     st_iou_reference)


def int_box(rng, lo=0, hi=40, max_side=25):
    x1 = int(rng.integers(lo, hi))
    y1 = int(rng.integers(lo, hi))
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    return BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))


box_strategy = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(-30, 30), st.integers(-30, 30),
    st.integers(1, 40), st.integers(1, 40))


def float_box(rng):
    x, y = rng.uniform(0, 50, 2)
    w, h = rng.uniform(0.5, 30, 2)
    return BoundingBox(float(x), float(y), float(x + w), float(y + h))


class TestIou:
    def test_disjoint_is_zero(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    def test_identical_is_one(self):
        b = BoundingBox(2, 3, 9, 11)
        assert iou(b, b) == 1.0

    def test_known_value(self):
        # 10x10 boxes offset by 5 in x: inter 50, union 150
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_lattice_oracle_on_sample(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a, b = int_box(rng), int_box(rng)
            assert iou(a, b) == pytest.approx(lattice_iou(a, b), abs=1e-9)

    @given(box_strategy, box_strategy)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(box_strategy, st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariant(self, b, dx, dy):
        other = BoundingBox(b.x_min + 3, b.y_min + 3, b.x_max + 3, b.y_max + 3)

        def moved(box):
            return BoundingBox(box.x_min + dx, box.y_min + dy,
                               box.x_max + dx, box.y_max + dy)

        assert iou(b, other) == pytest.approx(
            iou(moved(b), moved(other)), abs=1e-12)

    def test_scalar_iou_keeps_area_arithmetic(self):
        # iou computes both areas inline; the result must equal the
        # formula written with BoundingBox.area().
        rng = np.random.default_rng(47)
        for _ in range(300):
            a, b = float_box(rng), float_box(rng)
            ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
            iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
            want = (0.0 if ix <= 0.0 or iy <= 0.0 else
                    ix * iy / (a.area() + b.area() - ix * iy))
            assert iou(a, b) == want


class TestTemporalIou:
    def test_disjoint(self):
        assert temporal_iou(FrameInterval(0, 5), FrameInterval(5, 9)) == 0.0

    def test_union_counts_distinct_frames(self):
        # [0,5) and [10,15): union is 10 frames, not the 15-frame hull
        a, b = FrameInterval(0, 5), FrameInterval(10, 15)
        assert temporal_iou(a, b) == 0.0
        assert interval_iou_sets(a, b) == 0.0

    def test_nested(self):
        assert temporal_iou(FrameInterval(0, 10), FrameInterval(2, 7)) == 0.5

    def test_matches_set_oracle_on_sample(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            s1, s2 = rng.integers(0, 30, size=2)
            a = FrameInterval(int(s1), int(s1) + int(rng.integers(1, 20)))
            b = FrameInterval(int(s2), int(s2) + int(rng.integers(1, 20)))
            assert temporal_iou(a, b) == pytest.approx(
                interval_iou_sets(a, b), abs=1e-12)


def random_gt_tube(rng, video="v0", label=0):
    start = int(rng.integers(0, 10))
    length = int(rng.integers(1, 12))
    boxes = tuple(int_box(rng) for _ in range(length))
    return GroundTruthTube(video, f"g{start}", label, start, boxes)


def layout_extents(rng, layout):
    """Two (start, length) extents placed as ``layout`` says."""
    sa, la = int(rng.integers(0, 10)), int(rng.integers(2, 12))
    if layout == "partial":
        sb = sa + int(rng.integers(1, la))
        lb = sa + la - sb + int(rng.integers(1, 6))
    elif layout == "nested":
        sb = sa + int(rng.integers(0, la))
        lb = int(rng.integers(1, sa + la - sb + 1))
    elif layout == "abutting":
        sb, lb = sa + la, int(rng.integers(1, 12))
    else:
        sb, lb = sa + la + int(rng.integers(1, 5)), int(rng.integers(1, 12))
    return (sa, la), (sb, lb)


def tube_of_kind(kind, rng, name, start, length):
    boxes = tuple(int_box(rng) for _ in range(length))
    if kind == "gt":
        return GroundTruthTube("v0", name, 0, start, boxes)
    return Tube("v0", name, start, boxes, ((1.0,),) * length,
                (Source.TRACKED,) * length)


class TestStIou:
    @pytest.mark.parametrize("kinds", [("tube", "tube"), ("tube", "gt"),
                                       ("gt", "gt")])
    @pytest.mark.parametrize("layout", ["partial", "nested", "abutting",
                                        "disjoint"])
    def test_tube_kinds_match_reference(self, kinds, layout):
        rng = np.random.default_rng(59)
        for _ in range(50):
            (sa, la), (sb, lb) = layout_extents(rng, layout)
            a = tube_of_kind(kinds[0], rng, "a", sa, la)
            b = tube_of_kind(kinds[1], rng, "b", sb, lb)
            want = st_iou_reference(a, b)
            assert st_iou(a, b) == pytest.approx(want, abs=1e-9)
            assert st_iou(b, a) == pytest.approx(want, abs=1e-9)
            if layout in ("abutting", "disjoint"):
                assert st_iou(a, b) == 0.0

    def test_no_temporal_overlap_is_zero(self):
        a = GroundTruthTube("v", "a", 0, 0, (BoundingBox(0, 0, 5, 5),))
        b = GroundTruthTube("v", "b", 0, 5, (BoundingBox(0, 0, 5, 5),))
        assert st_iou(a, b) == 0.0

    def test_identical_tube_is_one(self):
        rng = np.random.default_rng(3)
        t = random_gt_tube(rng)
        assert st_iou(t, t) == pytest.approx(1.0, abs=1e-12)

    def test_different_videos_rejected(self):
        a = GroundTruthTube("v1", "a", 0, 0, (BoundingBox(0, 0, 5, 5),))
        b = GroundTruthTube("v2", "b", 0, 0, (BoundingBox(0, 0, 5, 5),))
        with pytest.raises(InputError):
            st_iou(a, b)

    def test_matches_reference_on_sample(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b = random_gt_tube(rng), random_gt_tube(rng)
            assert st_iou(a, b) == pytest.approx(
                st_iou_reference(a, b), abs=1e-9)

    def test_worked_example(self):
        # Extents [0,4) and [2,6): temporal 2/6. Boxes overlap half on
        # both common frames, so the spatial mean is 1/3.
        a = GroundTruthTube("v", "a", 0, 0,
                            tuple(BoundingBox(0, 0, 10, 10) for _ in range(4)))
        b = GroundTruthTube("v", "b", 0, 2,
                            tuple(BoundingBox(5, 0, 15, 10) for _ in range(4)))
        assert st_iou(a, b) == pytest.approx((2 / 6) * (1 / 3), abs=1e-12)

    def test_works_on_mixed_tube_kinds(self):
        tube = Tube("v", "t", 0, (BoundingBox(0, 0, 10, 10),), ((1.0,),),
                    (Source.STATIC,))
        gt = GroundTruthTube("v", "g", 0, 0, (BoundingBox(0, 0, 10, 10),))
        assert st_iou(tube, gt) == 1.0


def random_detections(rng, count, classes=3):
    dets = []
    for _ in range(count):
        scores = tuple(float(s) for s in rng.uniform(0, 1, size=classes))
        dets.append(Detection(0, int_box(rng, hi=25, max_side=15), scores))
    return dets


class TestNms:
    def test_empty(self):
        assert nms([], 0, 0.3) == []

    def test_single_survivor_for_identical_boxes(self):
        a = Detection(0, BoundingBox(0, 0, 10, 10), (0.9,))
        b = Detection(0, BoundingBox(0, 0, 10, 10), (0.8,))
        assert nms([a, b], 0, 0.3) == [a]

    def test_disjoint_all_kept_sorted(self):
        a = Detection(0, BoundingBox(0, 0, 10, 10), (0.5,))
        b = Detection(0, BoundingBox(20, 20, 30, 30), (0.9,))
        assert nms([a, b], 0, 0.3) == [b, a]

    def test_suppresses_above_threshold_only(self):
        a = Detection(0, BoundingBox(0, 0, 10, 10), (0.9,))
        # iou with a: 1/3 > 0.3 for b, exactly 1/3 for the same box
        b = Detection(0, BoundingBox(5, 0, 15, 10), (0.8,))
        assert nms([a, b], 0, 0.3) == [a]
        assert nms([a, b], 0, 1.0 / 3.0) == [a, b]

    def test_score_ties_break_on_area_then_coords(self):
        small = Detection(0, BoundingBox(0, 0, 4, 4), (0.5,))
        big = Detection(0, BoundingBox(100, 100, 110, 110), (0.5,))
        out = nms([small, big], 0, 0.3)
        assert out == [big, small]

    def test_tied_duplicates_keep_input_order(self):
        # equal under the whole suppression key and under ==, so only
        # identity shows the order they come back in
        box = BoundingBox(0, 0, 10, 10)
        dets = [Detection(0, box, (0.7, 0.2)) for _ in range(4)]
        for given in (dets, dets[::-1]):
            out = nms(given, 0, 1.0)
            assert len(out) == len(given)
            assert all(a is b for a, b in zip(out, given))

    def test_matches_reference_on_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dets = random_detections(rng, int(rng.integers(0, 7)))
            cls = int(rng.integers(0, 3))
            thr = float(rng.uniform(0, 1))
            assert nms(dets, cls, thr) == nms_reference(dets, cls, thr)

    def test_idempotence_and_subset(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dets = random_detections(rng, 8)
            out = nms(dets, 1, 0.3)
            assert set(map(id, out)) <= set(map(id, dets))
            assert nms(out, 1, 0.3) == out

    def test_surviving_pairs_below_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dets = random_detections(rng, 10)
            thr = float(rng.uniform(0.1, 0.9))
            out = nms(dets, 0, thr)
            for i, a in enumerate(out):
                for b in out[i + 1:]:
                    assert iou(a.box, b.box) <= thr

    def test_rejects_bad_threshold(self):
        with pytest.raises(InputError):
            nms([], 0, 1.5)
        with pytest.raises(InputError):
            nms([], 0, -0.1)
