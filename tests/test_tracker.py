import numpy as np
import pytest

from actiontubes.errors import InputError, ScorerError
from actiontubes.model import (BoundingBox, Detection, FrameInterval,
                               Proposal, Source)
from actiontubes.geometry import iou
from actiontubes.tracker import (EMPTY_MATCHES, PointMatchSet,
                                 PrecomputedMatcher, TrackerConfig,
                                 UntrackedPool, box_array, build_tubes,
                                 build_tubes_neighborhood, match_gate,
                                 match_ratio, track_step)


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
        return PointMatchSet(src, dst)


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


class TestMatchRatio:
    def test_all_inside(self):
        box = BoundingBox(0, 0, 10, 10)
        m = PointMatchSet(grid_points(box), grid_points(box))
        assert match_ratio(box, m) == 1.0

    def test_half_inside(self):
        src = np.array([[1.0, 1.0], [2.0, 2.0], [20.0, 20.0], [30.0, 30.0]])
        m = PointMatchSet(src, src)
        assert match_ratio(BoundingBox(0, 0, 10, 10), m) == 0.5

    def test_empty_is_zero(self):
        assert match_ratio(BoundingBox(0, 0, 5, 5), EMPTY_MATCHES) == 0.0

    def test_boundary_points_count(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        m = PointMatchSet(pts, pts)
        assert match_ratio(BoundingBox(0, 0, 10, 10), m) == 1.0


class TestPointMatchSet:
    def test_restrict_filters_from_points(self):
        src = np.array([[1.0, 1.0], [50.0, 50.0]])
        dst = np.array([[2.0, 2.0], [51.0, 51.0]])
        kept = PointMatchSet(src, dst).restrict(BoundingBox(0, 0, 10, 10))
        assert len(kept) == 1
        assert kept.to_points[0].tolist() == [2.0, 2.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            PointMatchSet(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_precomputed_reverses_direction(self):
        src = np.array([[5.0, 5.0]])
        dst = np.array([[8.0, 5.0]])
        matcher = PrecomputedMatcher(
            {("v", 0, 1): PointMatchSet(src, dst)})
        back = matcher.match("v", 1, 0, BoundingBox(6, 3, 10, 7))
        assert len(back) == 1
        assert back.to_points[0].tolist() == [5.0, 5.0]
        assert len(matcher.match("v", 4, 5, BoundingBox(0, 0, 9, 9))) == 0

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
        assert track_step(self.gt[0], 0, 1, props, EMPTY_MATCHES,
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
        far_box = self.gt[0].translated(100.0, 0.0)
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
    """The per-proposal loop ``match_gate`` replaces."""
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
        return match_gate(region, box_array(proposals), matches,
                          cfg).tolist()

    def test_matches_scalar_loop_on_lattice(self):
        # Integer coordinates put many points exactly on box edges and
        # many ratios and overlaps exactly on round thresholds.
        rng = np.random.default_rng(41)
        for trial in range(300):
            region = lattice_box(rng)
            props = [Proposal(1, lattice_box(rng))
                     for _ in range(int(rng.integers(0, 8)))]
            pts = rng.integers(0, 40, (int(rng.integers(0, 12)), 2))
            matches = PointMatchSet(pts, pts)
            cfg = TrackerConfig(
                min_match_ratio=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
                min_prev_overlap=float(rng.choice([0.0, 0.1, 0.2, 0.5])))
            assert self.gate(region, props, matches, cfg) == \
                gate_reference(region, props, matches, cfg), trial

    def test_points_on_edges_count(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0],
                        [10.0, 5.0]])
        matches = PointMatchSet(pts, pts)
        cfg = TrackerConfig(min_match_ratio=1.0)
        assert self.gate(box, [Proposal(1, box)], matches, cfg) == [0]

    def test_ratio_exactly_at_threshold_passes(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[1.0, 1.0], [9.0, 9.0], [20.0, 1.0], [30.0, 1.0]])
        matches = PointMatchSet(pts, pts)
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
        matches = PointMatchSet(pts, pts)
        props = [Proposal(1, strip)]
        assert self.gate(region, props, matches,
                         TrackerConfig(min_prev_overlap=0.2)) == [0]
        assert self.gate(region, props, matches,
                         TrackerConfig(min_prev_overlap=0.21)) == []

    def test_touching_boxes_overlap_zero(self):
        region = BoundingBox(0, 0, 10, 10)
        touching = BoundingBox(10, 0, 20, 10)
        pts = np.array([[10.0, 5.0]])
        matches = PointMatchSet(pts, pts)
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
        matches = PointMatchSet(pts, pts)
        props = [Proposal(1, box), Proposal(1, BoundingBox(50, 50, 60, 60)),
                 Proposal(1, BoundingBox(1, 1, 10, 10)), Proposal(1, box)]
        assert self.gate(box, props, matches, TrackerConfig()) == [0, 2, 3]

    def test_no_proposals_or_no_matches(self):
        box = BoundingBox(0, 0, 10, 10)
        pts = np.array([[5.0, 5.0]])
        assert self.gate(box, [], PointMatchSet(pts, pts),
                         TrackerConfig()) == []
        assert self.gate(box, [Proposal(1, box)], EMPTY_MATCHES,
                         TrackerConfig()) == []
        assert track_step(box, 0, 1, [], PointMatchSet(pts, pts),
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
        assert [e.box for e in tube.entries] == [gt[f] for f in range(5)]
        assert all(e.source is not Source.TRACKED for e in tube.entries)

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
        used = [e for t in tubes for e in t.entries
                if e.source is not Source.TRACKED]
        assert len(used) == len(all_dets)

    def test_predicted_gap_bridged(self):
        gt, dets, props = self.make_inputs(miss=(2,))
        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), WorldScorer(gt))
        assert len(tubes) == 1
        assert tubes[0].entries[2].source is Source.TRACKED

    def test_max_predicted_run_caps_extension(self):
        frames = 15
        gt = single_actor_world(frames, shift=(2.0, 0.0))
        dets = {0: [det(0, gt[0], (0.9, 0.0))]}
        props = {f: [Proposal(f, gt[f])] for f in range(frames)}
        cfg = TrackerConfig(max_predicted_run=3)
        tubes = build_tubes("v", dets, props, FrameInterval(0, frames),
                            ShiftMatcher(2.0, 0.0), WorldScorer(gt), cfg)
        assert len(tubes) == 1
        assert len(tubes[0].entries) == 4  # seed plus three predictions

    def test_scorer_failure_keeps_partial_tube(self):
        gt, dets, props = self.make_inputs()

        class FlakyScorer(WorldScorer):
            def __init__(self, boxes, fail_at):
                super().__init__(boxes)
                self.fail_at = fail_at

            def class_scores(self, video_id, frame_index, box):
                if frame_index == self.fail_at:
                    raise ScorerError("no scores on this frame")
                return super().class_scores(video_id, frame_index, box)

        tubes = build_tubes("v", dets, props, FrameInterval(0, 5),
                            ShiftMatcher(6.0, 0.0), FlakyScorer(gt, 3))
        # First tube stops before frame 3; the rest reseed.
        assert tubes[0].interval().end == 3
        covered = sorted(f for t in tubes for f in t.interval().frames())
        assert 3 in covered and 4 in covered

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
        assert all(len(t.entries) == 1 for t in tubes)
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
        moved = seed.translated(12.0, 16.0)
        dets = {0: [det(0, seed, (0.9, 0.0))]}
        props = {1: [Proposal(1, moved)]}
        for radius, frames in ((20.0, 2), (19.999, 1)):
            tubes = build_tubes_neighborhood(
                "v", dets, props, FrameInterval(0, 2),
                WorldScorer({1: moved}), search_radius=radius)
            assert [len(t.entries) for t in tubes] == [frames]

    def test_center_gate_picks_from_the_right_frame(self):
        # Gating runs on per-frame center arrays; the candidate that
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
        assert [e.box for e in tubes[0].entries] == [gt[f] for f in range(4)]

    @pytest.mark.parametrize("failure", ["raise", "too_few_classes"])
    def test_scorer_failure_keeps_partial_tube(self, failure):
        gt = single_actor_world(5, shift=(6.0, 0.0))
        dets = {f: [det(f, gt[f], (0.9, 0.0))] for f in range(5)}
        props = {f: [Proposal(f, gt[f])] for f in range(5)}

        class FlakyScorer(WorldScorer):
            def class_scores(self, video_id, frame_index, box):
                if frame_index != 3:
                    return super().class_scores(video_id, frame_index, box)
                if failure == "raise":
                    raise RuntimeError("no scores on this frame")
                return np.zeros(0)

        tubes = build_tubes_neighborhood("v", dets, props, FrameInterval(0, 5),
                                         FlakyScorer(gt), search_radius=20.0)
        # The first tube stops before frame 3 and is kept; reseeding
        # covers the rest.
        assert tubes[0].interval() == FrameInterval(0, 3)
        covered = {f for t in tubes for f in t.interval().frames()}
        assert {3, 4} <= covered
