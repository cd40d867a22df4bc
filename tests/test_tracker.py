import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actiontubes.errors import InputError, ProcessingError
from actiontubes.model import (BoundingBox, Detection, FrameInterval,
                               Proposal, Source)
from actiontubes.geometry import iou
from actiontubes.tracker import (PrecomputedMatcher, TrackerConfig,
                                 UntrackedPool, build_tubes,
                                 build_tubes_neighborhood, match_gate,
                                 match_ratio, query_matches, track_step)
from oracles import grow_tubes_reference

NO_MATCHES = np.empty((0, 4))


def rows(src, dst):
    return np.hstack([src, dst]).astype(np.float64)


def row_tuples(src, dst):
    """Match rows as matchers answer them: a list of float tuples."""
    return list(map(tuple, rows(src, dst).tolist()))


def grid_points(box, n=4):
    xs = np.linspace(box.x_min + 1, box.x_max - 1, n)
    ys = np.linspace(box.y_min + 1, box.y_max - 1, n)
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class ShiftMatcher:
    """Every point in the world translates by (dx, dy) per frame step."""

    def __init__(self, dx, dy):
        self.dx, self.dy = dx, dy

    def match(self, video_id, from_frame, to_frame, box):
        sign = to_frame - from_frame
        src = grid_points(box)
        dst = src + np.array([self.dx * sign, self.dy * sign])
        return rows(src, dst)


class WorldScorer:
    """Class scores are the overlap with per-class ground truth boxes."""

    def __init__(self, boxes_by_frame, num_classes=2, gt_class=0):
        self.boxes = boxes_by_frame
        self.num_classes = num_classes
        self.gt_class = gt_class

    def class_scores(self, video_id, frame_index, box):
        from actiontubes.geometry import iou
        scores = np.zeros(self.num_classes)
        gt = self.boxes.get(frame_index)
        if gt is not None:
            scores[self.gt_class] = iou(box, gt)
        return scores


def det(frame, box, scores=(1.0, 0.0), source=Source.MERGED):
    return Detection(frame, box, scores, source)


# Answers of a two-class scorer on a failing frame that are not one score
# per class, with the error each fails the tracker call with: too few
# classes is a bad input, anything but a 1-D vector of numbers (an
# array, or a list of lists) a processing fault.
SCORER_FAILURES = {
    "too_few_classes": (np.zeros(0), InputError),
    "scalar": (np.array(0.5), ProcessingError),
    "column": (np.zeros((2, 1)), ProcessingError),
    "row": (np.zeros((1, 2)), ProcessingError),
    "nested": ([[0.5, 0.5]], ProcessingError),
}


class FlakyScorer(WorldScorer):
    """Fails on frame 3 only: raises ``RuntimeError`` for ``"raise"``,
    else answers the failure's ``SCORER_FAILURES`` entry."""

    def __init__(self, boxes_by_frame, failure):
        super().__init__(boxes_by_frame)
        self.failure = failure

    def class_scores(self, video_id, frame_index, box):
        if frame_index != 3:
            return super().class_scores(video_id, frame_index, box)
        if self.failure == "raise":
            raise RuntimeError("no scores on this frame")
        return SCORER_FAILURES[self.failure][0]


def failure_error(failure):
    """The error a ``FlakyScorer`` fails a tracker call with, and its text."""
    if failure == "raise":
        return RuntimeError, "no scores on this frame"
    error = SCORER_FAILURES[failure][1]
    return error, "synth.num_classes" if error is InputError else "scorer"


class TestMatchRatio:
    def test_all_inside(self):
        box = BoundingBox(0, 0, 10, 10)
        m = rows(grid_points(box), grid_points(box))
        assert match_ratio(box, m) == 1.0

    def test_half_inside(self):
        src = np.array([[1.0, 1.0], [2.0, 2.0], [20.0, 20.0], [30.0, 30.0]])
        m = rows(src, src)
        assert match_ratio(BoundingBox(0, 0, 10, 10), m) == 0.5

    def test_empty_is_zero(self):
        assert match_ratio(BoundingBox(0, 0, 5, 5), NO_MATCHES) == 0.0

    def test_boundary_points_count(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        m = rows(pts, pts)
        assert match_ratio(BoundingBox(0, 0, 10, 10), m) == 1.0

    def test_list_rows_equal_array_rows(self):
        src = np.array([[1.0, 1.0], [2.0, 2.0], [20.0, 20.0]])
        dst = np.array([[0.0, 10.0], [10.5, 2.0], [3.0, 4.0]])
        m = rows(src, dst)
        box = BoundingBox(0, 0, 10, 10)
        assert match_ratio(box, m.tolist()) == match_ratio(box, m) == 2 / 3


class TestQueryMatches:
    def test_restrict_filters_from_points(self):
        src = np.array([[1.0, 1.0], [50.0, 50.0]])
        dst = np.array([[2.0, 2.0], [51.0, 51.0]])
        kept = query_matches(row_tuples(src, dst), 0, 1,
                             BoundingBox(0, 0, 10, 10))
        assert kept == [(1.0, 1.0, 2.0, 2.0)]

    def test_precomputed_reverses_direction(self):
        src = np.array([[5.0, 5.0]])
        dst = np.array([[8.0, 5.0]])
        matcher = PrecomputedMatcher({0: row_tuples(src, dst)})
        back = matcher.match("v", 1, 0, BoundingBox(6, 3, 10, 7))
        assert back == [(8.0, 5.0, 5.0, 5.0)]
        assert len(matcher.match("v", 4, 5, BoundingBox(0, 0, 9, 9))) == 0

    def test_closed_bounds_and_order_both_ways(self):
        pair = [(0.0, 0.0, 9.0, 9.0), (10.0, 10.0, 0.0, 0.0),
                (10.5, 0.0, 5.0, 5.0), (5.0, 5.0, 10.0, 10.5)]
        box = BoundingBox(0, 0, 10, 10)
        assert query_matches(pair, 3, 4, box) == [pair[0], pair[1], pair[3]]
        assert query_matches(pair, 4, 3, box) == [
            (9.0, 9.0, 0.0, 0.0), (0.0, 0.0, 10.0, 10.0),
            (5.0, 5.0, 10.5, 0.0)]

    def test_precomputed_rejects_non_adjacent(self):
        matcher = PrecomputedMatcher({})
        with pytest.raises(InputError):
            matcher.match("v", 0, 2, BoundingBox(0, 0, 5, 5))


class TestUntrackedPool:
    def test_seed_order_descending_score(self):
        a = det(0, BoundingBox(0, 0, 10, 10), (0.5, 0.0))
        b = det(1, BoundingBox(0, 0, 10, 10), (0.9, 0.0))
        pool = UntrackedPool({0: [a], 1: [b]})
        assert pool.take_best() is b
        assert pool.take_best() is a
        assert pool.take_best() is None

    def test_tie_prefers_earlier_frame(self):
        a = det(2, BoundingBox(0, 0, 10, 10))
        b = det(1, BoundingBox(0, 0, 10, 10))
        pool = UntrackedPool({2: [a], 1: [b]})
        assert pool.take_best() is b

    def test_discard_by_identity(self):
        a = det(0, BoundingBox(0, 0, 10, 10))
        twin = det(0, BoundingBox(0, 0, 10, 10))
        pool = UntrackedPool({0: [a, twin]})
        pool.discard(twin)
        assert pool.pending(0) == [a]
        with pytest.raises(InputError):
            pool.discard(twin)

    def test_mismatched_frame_key_rejected(self):
        with pytest.raises(InputError):
            UntrackedPool({1: [det(0, BoundingBox(0, 0, 5, 5))]})


def single_actor_world(frames=5, start=(10.0, 10.0), shift=(6.0, 0.0),
                       size=30.0):
    boxes = {}
    for f in range(frames):
        x = start[0] + shift[0] * f
        y = start[1] + shift[1] * f
        boxes[f] = BoundingBox(x, y, x + size, y + size)
    return boxes


class TestTrackStep:
    def setup_method(self):
        self.gt = single_actor_world()
        self.cfg = TrackerConfig()
        self.scorer = WorldScorer(self.gt)
        self.matcher = ShiftMatcher(6.0, 0.0)

    def test_follows_true_proposal(self):
        pool = UntrackedPool({})
        props = [Proposal(1, self.gt[1]), Proposal(1, BoundingBox(200, 200, 230, 230))]
        matches = self.matcher.match("v", 0, 1, self.gt[0])
        out = track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                        pool, self.cfg)
        assert out is not None
        assert out.box == self.gt[1]
        assert out.source is Source.TRACKED
        assert out.frame_index == 1

    def test_consumes_overlapping_detection(self):
        hit = det(1, self.gt[1], (0.8, 0.1))
        pool = UntrackedPool({1: [hit]})
        props = [Proposal(1, self.gt[1])]
        matches = self.matcher.match("v", 0, 1, self.gt[0])
        out = track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                        pool, self.cfg)
        assert out.source is Source.MERGED
        assert out.class_scores == hit.class_scores
        assert pool.pending(1) == []

    def test_other_class_detection_not_consumed(self):
        other = det(1, self.gt[1], (0.1, 0.8))
        pool = UntrackedPool({1: [other]})
        props = [Proposal(1, self.gt[1])]
        matches = self.matcher.match("v", 0, 1, self.gt[0])
        out = track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                        pool, self.cfg)
        assert out.source is Source.TRACKED
        assert pool.pending(1) == [other]

    def test_terminates_without_matches(self):
        pool = UntrackedPool({})
        props = [Proposal(1, self.gt[1])]
        assert track_step(self.gt[0], 0, 1, props, NO_MATCHES,
                          self.scorer, pool, self.cfg) is None

    def test_terminates_when_no_candidate_passes_ratio(self):
        pool = UntrackedPool({})
        props = [Proposal(1, BoundingBox(300, 300, 330, 330))]
        matches = self.matcher.match("v", 0, 1, self.gt[0])
        assert track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                          pool, self.cfg) is None

    def test_overlap_gate_blocks_distant_candidate(self):
        # Proposal catches the points but shares no area with the
        # previous region, so the continuity gate rejects it.
        far_matcher = ShiftMatcher(100.0, 0.0)
        near = self.gt[0]
        far_box = BoundingBox(near.x_min + 100.0, near.y_min,
                              near.x_max + 100.0, near.y_max)
        props = [Proposal(1, far_box)]
        matches = far_matcher.match("v", 0, 1, self.gt[0])
        pool = UntrackedPool({})
        assert track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                          pool, self.cfg) is None
        relaxed = TrackerConfig(min_prev_overlap=0.0)
        out = track_step(self.gt[0], 0, 1, props, matches, self.scorer,
                        pool, relaxed)
        assert out is not None and out.box == far_box


def gate_reference(region, proposals, matches, cfg):
    """The gate as its rule reads: match ratio, then overlap, per
    proposal index."""
    if not len(matches):
        return []
    return [i for i, p in enumerate(proposals)
            if match_ratio(p.box, matches) >= cfg.min_match_ratio
            and iou(p.box, region) >= cfg.min_prev_overlap]


def lattice_box(rng, lo=0, hi=30, max_side=12):
    x0, y0 = (int(v) for v in rng.integers(lo, hi, 2))
    w, h = (int(v) for v in rng.integers(1, max_side, 2))
    return BoundingBox(x0, y0, x0 + w, y0 + h)


class TestMatchGate:
    """``match_gate`` against the scalar ``match_ratio`` and ``iou``."""

    def gate(self, region, proposals, matches, cfg):
        """Indices of the proposals ``match_gate`` keeps, by identity."""
        index = {id(p): i for i, p in enumerate(proposals)}
        return [index[id(p)]
                for p in match_gate(region, proposals, matches, cfg)]

    def test_matches_scalar_loop_on_lattice(self):
        # Integer coordinates put many points exactly on box edges and
        # many ratios and overlaps exactly on round thresholds.
        rng = np.random.default_rng(41)
        for trial in range(300):
            region = lattice_box(rng)
            props = [Proposal(1, lattice_box(rng))
                     for _ in range(int(rng.integers(0, 8)))]
            pts = rng.integers(0, 40, (int(rng.integers(0, 12)), 2))
            matches = rows(pts, pts)
            cfg = TrackerConfig(
                min_match_ratio=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
                min_prev_overlap=float(rng.choice([0.0, 0.1, 0.2, 0.5])))
            assert self.gate(region, props, matches, cfg) == \
                gate_reference(region, props, matches, cfg), trial

    def test_points_on_edges_count(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0],
                        [10.0, 5.0]])
        matches = rows(pts, pts)
        cfg = TrackerConfig(min_match_ratio=1.0)
        assert self.gate(box, [Proposal(1, box)], matches, cfg) == [0]

    def test_ratio_exactly_at_threshold_passes(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[1.0, 1.0], [9.0, 9.0], [20.0, 1.0], [30.0, 1.0]])
        matches = rows(pts, pts)
        assert match_ratio(box, matches) == 0.5
        props = [Proposal(1, box)]
        assert self.gate(box, props, matches,
                         TrackerConfig(min_match_ratio=0.5)) == [0]
        assert self.gate(box, props, matches,
                         TrackerConfig(min_match_ratio=0.51)) == []

    def test_overlap_exactly_at_threshold_passes(self):
        region = BoundingBox(0, 0, 10, 10)
        strip = BoundingBox(0, 0, 10, 2)
        assert iou(strip, region) == 0.2
        pts = np.array([[5.0, 1.0]])
        matches = rows(pts, pts)
        props = [Proposal(1, strip)]
        assert self.gate(region, props, matches,
                         TrackerConfig(min_prev_overlap=0.2)) == [0]
        assert self.gate(region, props, matches,
                         TrackerConfig(min_prev_overlap=0.21)) == []

    def test_touching_boxes_overlap_zero(self):
        region = BoundingBox(0, 0, 10, 10)
        touching = BoundingBox(10, 0, 20, 10)
        pts = np.array([[10.0, 5.0]])
        matches = rows(pts, pts)
        props = [Proposal(1, touching)]
        for overlap in (0.0, 0.2):
            cfg = TrackerConfig(min_prev_overlap=overlap)
            assert self.gate(region, props, matches, cfg) == \
                gate_reference(region, props, matches, cfg)
        assert self.gate(region, props, matches,
                         TrackerConfig(min_prev_overlap=0.0)) == [0]
        assert self.gate(region, props, matches, TrackerConfig()) == []

    def test_keeps_proposal_order(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[5.0, 5.0]])
        matches = rows(pts, pts)
        props = [Proposal(1, box), Proposal(1, BoundingBox(50, 50, 60, 60)),
                 Proposal(1, BoundingBox(1, 1, 10, 10)), Proposal(1, box)]
        assert self.gate(box, props, matches, TrackerConfig()) == [0, 2, 3]

    def test_no_proposals_or_no_matches(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[5.0, 5.0]])
        assert self.gate(box, [], rows(pts, pts),
                         TrackerConfig()) == []
        assert self.gate(box, [Proposal(1, box)], NO_MATCHES,
                         TrackerConfig()) == []
        assert track_step(box, 0, 1, [], rows(pts, pts),
                          WorldScorer({}), UntrackedPool({}),
                          TrackerConfig()) is None


class TestBuildTubes:
    def make_inputs(self, frames=5, miss=()):
        gt = single_actor_world(frames)
        dets = {f: [det(f, gt[f], (0.9, 0.0))]
                for f in range(frames) if f not in miss}
        props = {f: [Proposal(f, gt[f]),
                     Proposal(f, BoundingBox(200, 200, 230, 230))]
                 for f in range(frames)}
        return gt, dets, props

    def test_single_actor_single_tube(self):
        gt, dets, props = self.make_inputs()
        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        assert len(tubes) == 1
        tube = tubes[0]
        assert tube.interval() == FrameInterval(0, 5)
        assert tube.label == 0
        assert list(tube.boxes) == [gt[f] for f in range(5)]
        assert all(s is not Source.TRACKED for s in tube.sources)

    def test_backward_extension_from_late_seed(self):
        gt, dets, props = self.make_inputs()
        # Make the last frame's detection the strongest seed.
        dets[4] = [det(4, gt[4], (0.99, 0.0))]
        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        assert len(tubes) == 1
        assert tubes[0].interval() == FrameInterval(0, 5)

    def test_every_detection_used_exactly_once(self):
        gt, dets, props = self.make_inputs()
        all_dets = [d for ds in dets.values() for d in ds]
        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        used = [s for t in tubes for s in t.sources
                if s is not Source.TRACKED]
        assert len(used) == len(all_dets)

    def test_predicted_gap_bridged(self):
        gt, dets, props = self.make_inputs(miss=(2,))
        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        assert len(tubes) == 1
        assert tubes[0].sources[2] is Source.TRACKED

    def test_max_predicted_run_caps_extension(self):
        frames = 15
        gt = single_actor_world(frames, shift=(2.0, 0.0))
        dets = {0: [det(0, gt[0], (0.9, 0.0))]}
        props = {f: [Proposal(f, gt[f])] for f in range(frames)}
        cfg = TrackerConfig(max_predicted_run=3)
        tubes = build_tubes("v", dets, props, FrameInterval(0, frames),
                            ShiftMatcher(2.0, 0.0), WorldScorer(gt), cfg)
        assert len(tubes) == 1
        assert len(tubes[0].boxes) == 4  # seed plus three predictions

    @pytest.mark.parametrize("answer", [tuple, list, np.array])
    def test_scorer_answer_types_give_identical_tubes(self, answer):
        # the gap at frame 2 is bridged with the scorer's own answer
        gt, dets, props = self.make_inputs(miss=(2,))

        class TypedScorer(WorldScorer):
            def class_scores(self, video_id, frame_index, box):
                scores = super().class_scores(video_id, frame_index, box)
                return answer(scores.tolist())

        run = lambda scorer: build_tubes(
            "v", dets, props, FrameInterval(0, 5), ShiftMatcher(6.0, 0.0),
            scorer)
        tubes = run(TypedScorer(gt))
        assert tubes == run(WorldScorer(gt))
        assert tubes[0].sources[2] is Source.TRACKED
        assert all(type(v) is float for v in tubes[0].class_scores[2])

    @pytest.mark.parametrize("failure", ["raise", *SCORER_FAILURES])
    def test_scorer_failure_keeps_partial_tube(self, failure):
        # No partial tube is kept: a failure on frame 3 fails the call.
        gt, dets, props = self.make_inputs()
        error, text = failure_error(failure)
        with pytest.raises(error, match=text):
            build_tubes("v", dets, props, FrameInterval(0, 5),
                        ShiftMatcher(6.0, 0.0), FlakyScorer(gt, failure))

    def test_scorer_input_error_fails_the_run(self):
        gt, dets, props = self.make_inputs()

        class UnknownVideoScorer(WorldScorer):
            def class_scores(self, video_id, frame_index, box):
                raise InputError(f"no ground truth for video {video_id!r}")

        with pytest.raises(InputError, match="'v'"):
            build_tubes("v", dets, props, FrameInterval(0, 5),
                        ShiftMatcher(6.0, 0.0), UnknownVideoScorer(gt))

    def test_deterministic_output(self):
        gt, dets, props = self.make_inputs()
        run = lambda: build_tubes("v", dets, props, FrameInterval(0, 5),
                                  ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        assert run() == run()


class TestNeighborhoodBaseline:
    def test_small_motion_tracked(self):
        gt = single_actor_world(5, shift=(6.0, 0.0))
        dets = {f: [det(f, gt[f], (0.9, 0.0))] for f in range(5)}
        props = {f: [Proposal(f, gt[f])] for f in range(5)}
        tubes = build_tubes_neighborhood("v", dets, props, FrameInterval(0, 5),
                                         WorldScorer(gt), search_radius=20.0)
        assert len(tubes) == 1
        assert tubes[0].interval() == FrameInterval(0, 5)

    def test_large_motion_breaks(self):
        gt = single_actor_world(5, shift=(80.0, 0.0))
        dets = {f: [det(f, gt[f], (0.9, 0.0))] for f in range(5)}
        props = {f: [Proposal(f, gt[f])] for f in range(5)}
        tubes = build_tubes_neighborhood("v", dets, props, FrameInterval(0, 5),
                                         WorldScorer(gt), search_radius=20.0)
        assert all(len(t.boxes) == 1 for t in tubes)
        # The point matcher handles the same motion.
        tracked = build_tubes("v", dets, props, FrameInterval(0, 5),
                              ShiftMatcher(80.0, 0.0), WorldScorer(gt),
                              TrackerConfig(min_prev_overlap=0.0))
        assert len(tracked) == 1
        assert tracked[0].interval() == FrameInterval(0, 5)

    def test_center_exactly_at_radius_is_kept(self):
        # The frame-1 proposal's center is 12 right and 16 down of the
        # seed's: exactly 20 px away.
        seed = BoundingBox(40, 40, 60, 60)
        moved = BoundingBox(52, 56, 72, 76)
        dets = {0: [det(0, seed, (0.9, 0.0))]}
        props = {1: [Proposal(1, moved)]}
        for radius, frames in ((20.0, 2), (19.999, 1)):
            tubes = build_tubes_neighborhood(
                "v", dets, props, FrameInterval(0, 2),
                WorldScorer({1: moved}), search_radius=radius)
            assert [len(t.boxes) for t in tubes] == [frames]

    @pytest.mark.parametrize("radius", [0.0, -20.0, float("nan"),
                                        float("inf")])
    def test_radius_not_finite_and_positive_rejected(self, radius):
        gt = single_actor_world(3, shift=(6.0, 0.0))
        dets = {0: [det(0, gt[0], (0.9, 0.0))]}
        props = {f: [Proposal(f, gt[f])] for f in range(3)}
        with pytest.raises(InputError, match="search_radius"):
            build_tubes_neighborhood("v", dets, props, FrameInterval(0, 3),
                                     WorldScorer(gt), search_radius=radius)

    def test_center_gate_picks_from_the_right_frame(self):
        # Gating runs on centers cached per frame; the candidate that
        # wins must be a proposal of the frame being extended into.  The
        # true box sits at a different index on every frame.
        gt = single_actor_world(4, shift=(6.0, 0.0))
        dets = {0: [det(0, gt[0], (0.9, 0.0))]}
        far = BoundingBox(200, 200, 230, 230)
        props = {f: [Proposal(f, far)] * f + [Proposal(f, gt[f])]
                 for f in range(4)}
        tubes = build_tubes_neighborhood("v", dets, props, FrameInterval(0, 4),
                                         WorldScorer(gt), search_radius=20.0)
        assert len(tubes) == 1
        assert list(tubes[0].boxes) == [gt[f] for f in range(4)]

    @pytest.mark.parametrize("failure", ["raise", *SCORER_FAILURES])
    def test_scorer_failure_keeps_partial_tube(self, failure):
        # No partial tube is kept: a failure on frame 3 fails the call.
        gt = single_actor_world(5, shift=(6.0, 0.0))
        dets = {f: [det(f, gt[f], (0.9, 0.0))] for f in range(5)}
        props = {f: [Proposal(f, gt[f])] for f in range(5)}
        error, text = failure_error(failure)
        with pytest.raises(error, match=text):
            build_tubes_neighborhood("v", dets, props, FrameInterval(0, 5),
                                     FlakyScorer(gt, failure),
                                     search_radius=20.0)


class CountingScorer(WorldScorer):
    """Counts the queries for each ``(video, frame, box)``."""

    def __init__(self, boxes_by_frame, **kwargs):
        super().__init__(boxes_by_frame, **kwargs)
        self.asked = {}

    def class_scores(self, video_id, frame_index, box):
        key = (video_id, frame_index, box)
        self.asked[key] = self.asked.get(key, 0) + 1
        return super().class_scores(video_id, frame_index, box)


class TestScoreMemo:
    """Each tracker call asks the scorer about a region at most once."""

    def crowded(self, frames=6):
        # three duplicate detections per frame seed three tubes that all
        # gate the same proposals
        gt = single_actor_world(frames, shift=(6.0, 0.0))
        dets = {f: [det(f, gt[f], (0.9 - 0.1 * k, 0.0)) for k in range(3)]
                for f in (0, frames - 1)}
        props = {f: [Proposal(f, gt[f]), Proposal(
                     f, BoundingBox(*(v + 2 for v in gt[f].as_tuple())))]
                 for f in range(frames)}
        return gt, dets, props

    def trackers(self, dets, props, frames):
        extent = FrameInterval(0, frames)
        yield lambda video_id, scorer: build_tubes(
            video_id, dets, props, extent, ShiftMatcher(6.0, 0.0), scorer)
        yield lambda video_id, scorer: build_tubes_neighborhood(
            video_id, dets, props, extent, scorer, search_radius=20.0)

    def test_each_region_scored_once_per_call(self):
        gt, dets, props = self.crowded()
        for track in self.trackers(dets, props, 6):
            scorer = CountingScorer(gt)
            tubes = track("v", scorer)
            assert len(tubes) == 3
            assert scorer.asked
            assert max(scorer.asked.values()) == 1

    def test_memo_matches_unmemoised_scoring(self):
        # the same tubes as asking the scorer afresh every time
        gt, dets, props = self.crowded()
        for track in self.trackers(dets, props, 6):
            assert track("v", CountingScorer(gt)) == \
                track("v", WorldScorer(gt))

    def test_nothing_kept_across_calls(self):
        gt, dets, props = self.crowded()
        for track in self.trackers(dets, props, 6):
            scorer = CountingScorer(gt)
            track("v", scorer)
            first = dict(scorer.asked)
            track("v", scorer)
            track("w", scorer)
            for (video_id, frame, box), count in first.items():
                assert scorer.asked[(video_id, frame, box)] == 2 * count
                assert scorer.asked[("w", frame, box)] == count


# Boxes on a coarse lattice, so equal areas and duplicate boxes are
# common, and few score values, so equal scores are too.
LATTICE = [BoundingBox(x, y, x + w, y + h)
           for x in (0, 4, 8) for y in (0, 4) for w in (4, 8) for h in (4, 8)]
VALUES = (0.0, 0.5, 1.0)
STEPS = (-4, 0, 4)


class LatticeScorer:
    """Two class scores read off a region's frame and integer coordinates."""

    def __init__(self, salt):
        self.salt = salt

    def class_scores(self, video_id, frame_index, box):
        x0, y0, x1, y1 = (int(v) for v in box.as_tuple())
        return (VALUES[(self.salt + x0 + y1 + frame_index) % 3],
                VALUES[(2 * self.salt + x1 + y0 + 2 * frame_index) % 3])


class LatticeMatcher:
    """A box's corners and center move by one step per frame pair.

    ``steps`` maps a pair's earlier frame to its ``(dx, dy)``; a pair
    mapped to ``None``, or absent, has no matches.
    """

    def __init__(self, steps):
        self.steps = steps

    def match(self, video_id, from_frame, to_frame, box):
        step = self.steps.get(min(from_frame, to_frame))
        if step is None:
            return []
        sign = to_frame - from_frame
        dx, dy = step[0] * sign, step[1] * sign
        cx, cy = box.center()
        points = [(box.x_min, box.y_min), (box.x_max, box.y_min),
                  (box.x_min, box.y_max), (box.x_max, box.y_max), (cx, cy)]
        return [(x, y, x + dx, y + dy) for x, y in points]


@st.composite
def growth_cases(draw):
    """Tie-heavy tracker inputs: equal scores and areas, duplicate
    detections (equal values, distinct objects) and empty frames."""
    start = draw(st.integers(0, 2))
    extent = FrameInterval(start, start + draw(st.integers(1, 6)))
    dets, props = {}, {}
    for frame in extent.frames():
        made = [Detection(frame, box, scores, source) for box, scores, source
                in draw(st.lists(st.tuples(
                    st.sampled_from(LATTICE),
                    st.tuples(st.sampled_from(VALUES),
                              st.sampled_from(VALUES)),
                    st.sampled_from([Source.STATIC, Source.FLOW])),
                    max_size=3))]
        made += [Detection(frame, d.box, d.class_scores, d.source)
                 for d in made[:draw(st.integers(0, len(made)))]]
        if made or draw(st.booleans()):
            dets[frame] = made
        boxes = draw(st.lists(st.sampled_from(LATTICE), max_size=4))
        if draw(st.booleans()):
            boxes += [d.box for d in made]
        boxes = draw(st.permutations(boxes))
        if boxes or draw(st.booleans()):
            props[frame] = [Proposal(frame, box) for box in boxes]
    steps = {frame: draw(st.one_of(st.none(), st.tuples(
                 st.sampled_from(STEPS), st.sampled_from(STEPS))))
             for frame in range(extent.start, extent.end - 1)}
    cfg = TrackerConfig(
        min_match_ratio=draw(st.sampled_from((0.0, 0.4, 0.6, 1.0))),
        min_prev_overlap=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        consume_overlap=draw(st.sampled_from((0.0, 0.5, 1.0))),
        max_predicted_run=draw(st.sampled_from((0, 1, 2, 8))))
    radius = draw(st.sampled_from((2.0, 4.0, 6.0, 20.0)))
    return (dets, props, extent, LatticeMatcher(steps),
            LatticeScorer(draw(st.integers(0, 5))), cfg, radius)


def tube_fields(tube):
    return (tube.tube_id, tube.start,
            tuple(box.as_tuple() for box in tube.boxes), tube.class_scores,
            tube.sources, tube.label)


class TestGrowthReference:
    """Both trackers against ``oracles.grow_tubes_reference``."""

    @settings(max_examples=400, deadline=None)
    @given(growth_cases())
    def test_point_matching_equals_reference(self, case):
        dets, props, extent, matcher, scorer, cfg, _ = case
        got = build_tubes("v", dets, props, extent, matcher, scorer, cfg)
        assert list(map(tube_fields, got)) == grow_tubes_reference(
            "v", dets, props, extent, scorer,
            consume_overlap=cfg.consume_overlap,
            max_predicted_run=cfg.max_predicted_run, matcher=matcher,
            min_match_ratio=cfg.min_match_ratio,
            min_prev_overlap=cfg.min_prev_overlap)

    @settings(max_examples=400, deadline=None)
    @given(growth_cases())
    def test_center_search_equals_reference(self, case):
        dets, props, extent, _, scorer, cfg, radius = case
        got = build_tubes_neighborhood("v", dets, props, extent, scorer, cfg,
                                       search_radius=radius)
        assert list(map(tube_fields, got)) == grow_tubes_reference(
            "v", dets, props, extent, scorer,
            consume_overlap=cfg.consume_overlap,
            max_predicted_run=cfg.max_predicted_run, search_radius=radius)
