import hashlib
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actiontubes import formats
from actiontubes.config import apply_overrides, default_config
from actiontubes.errors import InputError
from actiontubes.fusion import (FlowMagnitudeGrid, late_fuse,
                                mean_magnitude_inside, merge_early_late,
                                saliency_prune)
from actiontubes.geometry import iou
from actiontubes.model import BoundingBox, Detection, Proposal, Source
from actiontubes.pipeline import (FILE_FLOW, FILE_SALIENT, run_fuse,
                                  run_synth, scenario_config)
from actiontubes.synth import generate, video_flow, video_id, video_order
from oracles import (flow_grids_float64, late_fuse_reference,
                     merge_early_late_reference, nms_reference,
                     pixel_mean_reference, saliency_prune_reference)
from test_golden import SCENARIOS


def flow_grid(frame, values):
    """The grid of a 2-d numpy array's values, in an ``array`` of the
    array's typecode."""
    values = np.asarray(values)
    return FlowMagnitudeGrid(
        frame, array(values.dtype.char, values.tobytes()), *values.shape)


def prop(x1, y1, x2, y2, frame=0):
    return Proposal(frame, BoundingBox(x1, y1, x2, y2), (1.0,))


def mean_inside_bruteforce(values, box):
    total, count = 0.0, 0
    h, w = values.shape
    for j in range(h):
        for i in range(w):
            cx, cy = i + 0.5, j + 0.5
            if box.x_min < cx < box.x_max and box.y_min < cy < box.y_max:
                total += values[j, i]
                count += 1
    return None if count == 0 else total / count


# values at the edges of "finite and >= 0", by name: (accepted, float32
# bits, float64 bits; None where the dtype cannot hold the value).  A
# check of each value's top byte alone gets these wrong: -0.0 has the
# sign bit set, and a finite value of 2**127 or more (2**1009 in float64)
# shares its top byte with the infinities.
FLOW_EDGES = {
    "negative zero": (True, 0x80000000, 0x8000000000000000),
    "largest float32": (True, 0x7F7FFFFF, 0x47EFFFFFE0000000),
    "largest float64": (True, None, 0x7FEFFFFFFFFFFFFF),
    "negative subnormal": (False, 0x80000001, 0x8000000000000001),
    "nan": (False, 0x7FC00000, 0x7FF8000000000000),
    "negative nan": (False, 0xFFC00000, 0xFFF8000000000000),
    "inf": (False, 0x7F800000, 0x7FF0000000000000),
    "-inf": (False, 0xFF800000, 0xFFF0000000000000),
}
EDGE_CASES = [(name, dtype) for name, (_, *bits) in FLOW_EDGES.items()
              for dtype, bit in zip((np.float32, np.float64), bits)
              if bit is not None]


def edge_grid(name, dtype):
    """A 2x3 grid of ones with the named edge value at row 1, column 1."""
    bits = FLOW_EDGES[name][1 if dtype == np.float32 else 2]
    values = np.ones(6, dtype=dtype)
    values[4:5] = np.array(
        [bits], dtype=np.uint32 if dtype == np.float32 else np.uint64
    ).view(dtype)
    return values.reshape(2, 3)


class TestSaliencyPrune:
    def test_uniform_grid_threshold_inclusive(self):
        flow = flow_grid(0, np.full((20, 20), 0.5))
        p = prop(2, 2, 10, 10)
        assert saliency_prune([p], flow, 0.5) == [p]
        assert saliency_prune([p], flow, 0.5000001) == []

    def test_moving_region_kept_static_dropped(self):
        values = np.zeros((20, 20))
        values[5:15, 5:15] = 2.0
        flow = flow_grid(0, values)
        moving = prop(5, 5, 15, 15)
        still = prop(0, 0, 4, 4)
        assert saliency_prune([moving, still], flow, 0.5) == [moving]

    def test_strict_interior_pixel_centers(self):
        values = np.zeros((4, 4))
        values[1, 1] = 8.0
        flow = flow_grid(0, values)
        # Box only admits center (1.5, 1.5): boundary centers excluded.
        only_one = prop(1.0, 1.0, 2.0, 2.0)
        assert mean_magnitude_inside(flow, only_one) == 8.0
        # Box too thin for any center.
        assert mean_magnitude_inside(flow, prop(1.1, 1.1, 1.4, 1.4)) is None

    def test_box_outside_grid_removed(self):
        flow = flow_grid(0, np.full((10, 10), 9.0))
        assert saliency_prune([prop(50, 50, 60, 60)], flow, 0.0) == []

    def test_zero_threshold_is_identity_for_covered_boxes(self):
        flow = flow_grid(0, np.zeros((10, 10)))
        props = [prop(0, 0, 5, 5), prop(3, 3, 9, 9)]
        assert saliency_prune(props, flow, 0.0) == props

    def test_frame_mismatch_rejected(self):
        flow = flow_grid(3, np.zeros((5, 5)))
        with pytest.raises(InputError):
            saliency_prune([prop(0, 0, 2, 2, frame=4)], flow)

    @pytest.mark.parametrize("threshold", [-0.5, np.nan, np.inf])
    def test_bad_threshold_rejected(self, threshold):
        flow = flow_grid(0, np.full((20, 20), 0.5))
        with pytest.raises(InputError, match="min_mean_magnitude"):
            saliency_prune([prop(2, 2, 10, 10)], flow, threshold)

    def test_rejects_negative_flow(self):
        with pytest.raises(InputError):
            flow_grid(0, np.full((3, 3), -1.0))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_float32_flow(self, bad):
        with pytest.raises(InputError):
            flow_grid(0, np.full((3, 3), bad, dtype=np.float32))

    @pytest.mark.parametrize("name, dtype", EDGE_CASES)
    def test_edge_values(self, name, dtype):
        values = edge_grid(name, dtype)
        if FLOW_EDGES[name][0]:
            grid = flow_grid(0, values)
            assert grid.values.tobytes() == values.tobytes()
        else:
            with pytest.raises(InputError) as info:
                flow_grid(0, values)
            assert str(info.value) == "flow magnitudes must be finite and >= 0"

    def test_float32_or_float64_array_held_as_given(self):
        for typecode in ("f", "d"):
            values = array(typecode, [0.25] * 6)
            assert FlowMagnitudeGrid(0, values, 2, 3).values is values
        for other in (array("i", [1] * 6), [0.25] * 6, np.ones((2, 3))):
            with pytest.raises(InputError, match="array\\('f'\\)"):
                FlowMagnitudeGrid(0, other, 2, 3)
        for height, width in ((0, 6), (6, 0), (3, 3), (1, 5)):
            with pytest.raises(InputError, match="2d array"):
                FlowMagnitudeGrid(0, array("f", [0.25] * 6), height, width)

    def test_float32_mean_accumulates_in_float64(self):
        """49 copies of float32(0.3) average to that value exactly in
        float64; summed in float32 they fall below it."""
        value = float(np.float32(0.3))
        values = np.full((7, 7), value, np.float32)
        flow = flow_grid(0, values)
        box = prop(0, 0, 7, 7)
        assert float(values.mean()) < value
        assert mean_magnitude_inside(flow, box) == value
        assert saliency_prune([box], flow, value) == [box]

    def test_mean_adds_row_sums_in_row_order(self):
        """Each row is summed exactly and rounded once, and the row sums
        are added in row order: 1 + (2**53 + 1, rounded to 2**53).  The
        six values summed in one pass, exactly or by numpy, give
        2**53 + 2."""
        values = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 2.0 ** 53]])
        flow, box = flow_grid(0, values), prop(0, 0, 3, 2)
        assert mean_magnitude_inside(flow, box) == 2.0 ** 53 / 6
        assert math.fsum(values.flat) == float(values.sum()) == 2.0 ** 53 + 2
        assert saliency_prune([box], flow, 2.0 ** 53 / 6) == [box]
        assert saliency_prune([box], flow, (2.0 ** 53 + 2) / 6) == []

    def test_mean_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 3, size=(16, 16))
        flow = flow_grid(0, values)
        for _ in range(300):
            x1, y1 = rng.uniform(-2, 14, size=2)
            w, h = rng.uniform(0.2, 10, size=2)
            box = BoundingBox(x1, y1, x1 + w, y1 + h)
            got = mean_magnitude_inside(flow, Proposal(0, box, (1.0,)))
            want = mean_inside_bruteforce(values, box)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)


# a few dyadic rationals: each is exact in float32, and every sum of up
# to 36 of them is exact in float64, so the pruner's sums are exact
DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 6.0)


def box_edge(size):
    """A box coordinate from 3 pixels before the grid to 3 after it: on
    a pixel centre ``k + 0.5``, on a pixel edge ``k``, or anywhere."""
    return st.one_of(st.integers(-3, size + 3).map(lambda k: k + 0.5),
                     st.integers(-3, size + 3).map(float),
                     st.floats(-3, size + 3))


@st.composite
def saliency_case(draw):
    """A float32 or float64 grid of dyadic values, proposals partly or
    wholly off it, and a threshold that is 0, a dyadic value, or some
    proposal's mean exactly."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.sampled_from(DYADIC), min_size=width,
                                  max_size=width),
                         min_size=height, max_size=height))
    props = []
    for _ in range(draw(st.integers(1, 6))):
        xs = sorted(draw(st.lists(box_edge(width), min_size=2, max_size=2,
                                  unique=True)))
        ys = sorted(draw(st.lists(box_edge(height), min_size=2, max_size=2,
                                  unique=True)))
        props.append(prop(xs[0], ys[0], xs[1], ys[1]))
    means = [m for m in (pixel_mean_reference(p.box, rows) for p in props)
             if m is not None]
    ties = [st.sampled_from(means)] if means else []
    threshold = draw(st.one_of(st.just(0.0), st.sampled_from(DYADIC),
                               *ties))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return np.array(rows, dtype=dtype), rows, props, threshold


class TestAgainstReference:
    @given(saliency_case())
    @settings(max_examples=200, deadline=None)
    def test_saliency_prune(self, case):
        """Pruning keeps what the exact pixel-centre reference of
        ``oracles`` keeps, means often exactly at the threshold."""
        values, rows, props, threshold = case
        flow = flow_grid(0, values)
        assert saliency_prune(props, flow, threshold) == \
            saliency_prune_reference(props, rows, threshold)


# sha256 of the golden noisy scenario's flow.atb as synth wrote it
# before flow grids were float32: every grid a float64 (code 0) array
FLOAT64_FLOW = ("ade941752f0cad3e86ce4391606d597f"
                "6cd266cc720bcd34a8889dc6e0d200b1")


def noisy_config():
    return apply_overrides(default_config(), [
        f"{key}={value}" for key, value in SCENARIOS["noisy"].items()])


def test_float32_grids_keep_every_float64_decision():
    """On the golden noisy scenario, each grid synth makes is its
    float64 draw rounded once, and every proposal is kept or dropped
    alike from the float32 and the float64 grid."""
    config = noisy_config()
    scenario = scenario_config(config)
    bundle = generate(scenario)
    threshold = config["fuse.min_mean_magnitude"]
    decisions = []
    for index, truth in enumerate(bundle.gt_tubes):
        proposals = bundle.proposals(index)
        for grid, (frame, wide) in zip(
                video_flow(scenario, index, truth),
                flow_grids_float64(scenario, index, truth), strict=True):
            assert grid.frame_index == frame
            assert grid.values.typecode == "f"
            assert (grid.height, grid.width) == wide.shape
            assert grid.values.tobytes() == wide.astype(np.float32).tobytes()
            wide = flow_grid(frame, wide)
            for p in proposals.get(frame, ()):
                kept = saliency_prune([p], grid, threshold) == [p]
                assert kept == (saliency_prune([p], wide, threshold) == [p])
                decisions.append(kept)
    assert True in decisions and False in decisions


def test_float64_flow_prunes_as_float32_flow(tmp_path):
    """A flow.atb of float64 grids, byte for byte as older synth runs
    wrote it, gives the same salient proposals as synth's float32 one."""
    config = noisy_config()
    run_synth(tmp_path, config)
    run_fuse(tmp_path, config)
    salient = (tmp_path / FILE_SALIENT).read_bytes()
    scenario = scenario_config(config)
    truth = generate(scenario).gt_tubes
    flow = tmp_path / FILE_FLOW
    formats.write_flow(flow, (
        (video_id(index), (flow_grid(frame, values)
                           for frame, values in flow_grids_float64(
                               scenario, index, truth[index])))
        for index in video_order(scenario.video_count)))
    assert hashlib.sha256(flow.read_bytes()).hexdigest() == FLOAT64_FLOW
    run_fuse(tmp_path, config)
    assert (tmp_path / FILE_SALIENT).read_bytes() == salient


def det(x1, y1, x2, y2, scores, source=Source.STATIC, frame=0):
    return Detection(frame, BoundingBox(x1, y1, x2, y2), scores, source)


class TestLateFuse:
    def test_identical_detection_in_both_streams(self):
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b = det(0, 0, 10, 10, (0.8, 0.2), Source.FLOW)
        out = late_fuse([a], [b], 0.3)
        assert len(out) == 1
        assert out[0].box == a.box
        assert out[0].class_scores == a.class_scores
        assert out[0].source is Source.LATE_FUSION

    def test_matches_nms_oracle_per_class(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            stream_a, stream_b = [], []
            for stream in (stream_a, stream_b):
                for _ in range(int(rng.integers(0, 5))):
                    x1, y1 = rng.uniform(0, 20, size=2)
                    w, h = rng.uniform(1, 12, size=2)
                    scores = tuple(float(v) for v in rng.uniform(0, 1, 3))
                    stream.append(det(x1, y1, x1 + w, y1 + h, scores))
            out = late_fuse(stream_a, stream_b, 0.3)
            pool = stream_a + stream_b
            expect = []
            for label in sorted({d.label for d in pool}):
                group = [d for d in pool if d.label == label]
                expect.extend(nms_reference(group, label, 0.3))
            assert [(d.box, d.class_scores) for d in out] == \
                [(d.box, d.class_scores) for d in expect]

    def test_disjoint_classes_never_suppress(self):
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b = det(0, 0, 10, 10, (0.1, 0.9), Source.FLOW)
        out = late_fuse([a], [b], 0.3)
        assert len(out) == 2

    def test_survivors_respect_threshold_within_class(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            stream = []
            for _ in range(8):
                x1, y1 = rng.uniform(0, 15, size=2)
                w, h = rng.uniform(2, 10, size=2)
                scores = tuple(float(v) for v in rng.uniform(0, 1, 2))
                stream.append(det(x1, y1, x1 + w, y1 + h, scores))
            out = late_fuse(stream, [], 0.3)
            for i, a in enumerate(out):
                for b in out[i + 1:]:
                    if a.label == b.label:
                        assert iou(a.box, b.box) <= 0.3

    def test_mixed_frames_rejected(self):
        a = det(0, 0, 10, 10, (1.0,), frame=0)
        b = det(0, 0, 10, 10, (1.0,), frame=1)
        with pytest.raises(InputError):
            late_fuse([a], [b])


class TestMergeEarlyLate:
    def test_empty_side_reduces_to_classwise_nms(self):
        rng = np.random.default_rng(37)
        stream = []
        for _ in range(6):
            x1, y1 = rng.uniform(0, 15, size=2)
            w, h = rng.uniform(2, 10, size=2)
            scores = tuple(float(v) for v in rng.uniform(0, 1, 2))
            stream.append(det(x1, y1, x1 + w, y1 + h, scores))
        left = merge_early_late(stream, [])
        right = merge_early_late([], stream)
        base = late_fuse(stream, [])
        strip = lambda ds: [(d.box, d.class_scores) for d in ds]
        assert strip(left) == strip(right) == strip(base)
        assert all(d.source is Source.MERGED for d in left)

    def test_empty_both(self):
        assert merge_early_late([], []) == []


# Boxes on a coarse lattice, so equal areas and overlaps exactly at the
# thresholds below are common, and few score values, so equal scores are
# too; two vectors may tie for a class yet differ in the other class.
FUSE_LATTICE = [BoundingBox(x, y, x + w, y + h) for x in (0, 2, 4)
                for y in (0, 2) for w in (2, 4) for h in (2, 4)]
FUSE_SCORES = (0.0, 0.5, 1.0)
FUSE_THRESHOLDS = (0.0, 0.2, 0.25, 1 / 3, 0.5, 1.0)


@st.composite
def fuse_streams(draw):
    """Two detection streams of one frame, either of them empty, with
    duplicates within and across streams, and a threshold that overlaps
    often equal."""
    frame = draw(st.integers(0, 3))
    made = st.builds(
        lambda box, scores, source: Detection(frame, box, scores, source),
        st.sampled_from(FUSE_LATTICE),
        st.tuples(*[st.sampled_from(FUSE_SCORES)] * 2),
        st.sampled_from([Source.STATIC, Source.FLOW, Source.EARLY_FUSION]))
    streams = [draw(st.lists(made, max_size=5)) for _ in range(2)]
    for i, stream in enumerate(streams):
        other = streams[draw(st.integers(0, 1))]
        stream += other[:draw(st.integers(0, len(other)))]
        streams[i] = draw(st.permutations(stream))
    threshold = draw(st.one_of(st.sampled_from(FUSE_THRESHOLDS),
                               st.floats(0.0, 1.0)))
    return streams, threshold


class TestFusionReference:
    """``late_fuse`` and ``merge_early_late`` against the references of
    ``oracles``, one decision at a time."""

    @given(fuse_streams())
    @settings(max_examples=400, deadline=None)
    def test_late_fuse_equals_reference(self, case):
        (static, flow), threshold = case
        assert late_fuse(static, flow, threshold) == \
            late_fuse_reference(static, flow, threshold)

    @given(fuse_streams())
    @settings(max_examples=400, deadline=None)
    def test_merge_early_late_equals_reference(self, case):
        (early, late), threshold = case
        assert merge_early_late(early, late, threshold) == \
            merge_early_late_reference(early, late, threshold)
