import hashlib

import numpy as np
import pytest

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
from oracles import flow_grids_float64, nms_reference
from test_golden import SCENARIOS


def prop(x1, y1, x2, y2, frame=0):
    return Proposal(frame, BoundingBox(x1, y1, x2, y2))


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


class TestSaliencyPrune:
    def test_uniform_grid_threshold_inclusive(self):
        flow = FlowMagnitudeGrid(0, np.full((20, 20), 0.5))
        p = prop(2, 2, 10, 10)
        assert saliency_prune([p], flow, 0.5) == [p]
        assert saliency_prune([p], flow, 0.5000001) == []

    def test_moving_region_kept_static_dropped(self):
        values = np.zeros((20, 20))
        values[5:15, 5:15] = 2.0
        flow = FlowMagnitudeGrid(0, values)
        moving = prop(5, 5, 15, 15)
        still = prop(0, 0, 4, 4)
        assert saliency_prune([moving, still], flow, 0.5) == [moving]

    def test_strict_interior_pixel_centers(self):
        values = np.zeros((4, 4))
        values[1, 1] = 8.0
        flow = FlowMagnitudeGrid(0, values)
        # Box only admits center (1.5, 1.5): boundary centers excluded.
        only_one = prop(1.0, 1.0, 2.0, 2.0)
        assert mean_magnitude_inside(flow, only_one) == 8.0
        # Box too thin for any center.
        assert mean_magnitude_inside(flow, prop(1.1, 1.1, 1.4, 1.4)) is None

    def test_box_outside_grid_removed(self):
        flow = FlowMagnitudeGrid(0, np.full((10, 10), 9.0))
        assert saliency_prune([prop(50, 50, 60, 60)], flow, 0.0) == []

    def test_zero_threshold_is_identity_for_covered_boxes(self):
        flow = FlowMagnitudeGrid(0, np.zeros((10, 10)))
        props = [prop(0, 0, 5, 5), prop(3, 3, 9, 9)]
        assert saliency_prune(props, flow, 0.0) == props

    def test_frame_mismatch_rejected(self):
        flow = FlowMagnitudeGrid(3, np.zeros((5, 5)))
        with pytest.raises(InputError):
            saliency_prune([prop(0, 0, 2, 2, frame=4)], flow)

    @pytest.mark.parametrize("threshold", [-0.5, np.nan, np.inf])
    def test_bad_threshold_rejected(self, threshold):
        flow = FlowMagnitudeGrid(0, np.full((20, 20), 0.5))
        with pytest.raises(InputError, match="min_mean_magnitude"):
            saliency_prune([prop(2, 2, 10, 10)], flow, threshold)

    def test_rejects_negative_flow(self):
        with pytest.raises(InputError):
            FlowMagnitudeGrid(0, np.full((3, 3), -1.0))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_float32_flow(self, bad):
        with pytest.raises(InputError):
            FlowMagnitudeGrid(0, np.full((3, 3), bad, dtype=np.float32))

    def test_float32_grid_kept_as_is_others_as_float64(self):
        values = np.full((3, 3), 0.25, dtype=np.float32)
        assert FlowMagnitudeGrid(0, values).values is values
        for other in (np.float16, np.int64):
            grid = FlowMagnitudeGrid(0, np.ones((3, 3), dtype=other))
            assert grid.values.dtype == np.float64

    def test_float32_mean_accumulates_in_float64(self):
        """49 copies of float32(0.3) average to that value exactly in
        float64; summed in float32 they fall below it."""
        value = float(np.float32(0.3))
        flow = FlowMagnitudeGrid(0, np.full((7, 7), value, np.float32))
        box = prop(0, 0, 7, 7)
        assert float(flow.values.mean()) < value
        assert mean_magnitude_inside(flow, box) == value
        assert saliency_prune([box], flow, value) == [box]

    def test_mean_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 3, size=(16, 16))
        flow = FlowMagnitudeGrid(0, values)
        for _ in range(300):
            x1, y1 = rng.uniform(-2, 14, size=2)
            w, h = rng.uniform(0.2, 10, size=2)
            box = BoundingBox(x1, y1, x1 + w, y1 + h)
            got = mean_magnitude_inside(flow, Proposal(0, box))
            want = mean_inside_bruteforce(values, box)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)


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
            assert grid.values.dtype == np.float32
            assert np.array_equal(grid.values, wide.astype(np.float32))
            wide = FlowMagnitudeGrid(frame, wide)
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
        (video_id(index), (FlowMagnitudeGrid(frame, values)
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
