"""Tests for the synthetic scenario generator."""

import numpy as np
import pytest

from actiontubes.errors import ConfigError, InputError
from actiontubes.geometry import iou, st_iou
from actiontubes.model import (BoundingBox, FrameInterval, GroundTruthTube,
                               Source)
from actiontubes.scoring import recurrent_forward, score_clips, score_tube, \
    slice_clips
from actiontubes.synth import (ActorSpec, ScenarioConfig,
                               SyntheticFeaturizer, SyntheticRegionScorer,
                               analytic_weights, generate, home_region,
                               inject_drift, is_injected)
from actiontubes.tracker import TrackerConfig, build_tubes, match_ratio


def small_config(**kwargs):
    base = dict(seed=3, video_count=6, frames_per_video=24, num_classes=3,
                clip_length=8, frame_size=(224, 224), with_footprint=False)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(video_count=0),
        dict(frames_per_video=1),
        dict(num_classes=0),
        dict(miss_rate=1.5),
        dict(jitter_sigma=-1.0),
        dict(span_fraction=0.0),
        dict(proposal_recall=0.0),
        dict(feature_dim=2, num_classes=3),
        dict(clip_length=0),
        dict(frame_size=(8, 8)),
        dict(drift_rate=-0.1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_actor_label_out_of_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(num_classes=2, actors=(ActorSpec(label=2),))

    def test_actor_too_big_for_home_region(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(frame_size=(100, 100), num_classes=4,
                           actors=(ActorSpec(label=0, size=60.0),))

    def test_bad_motion_name(self):
        with pytest.raises(ConfigError):
            ActorSpec(label=0, motion="teleport")


class TestHomeRegions:
    def test_regions_disjoint_across_classes(self):
        config = small_config()
        regions = [home_region(config, c) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = regions[i], regions[j]
                x_sep = a[2] <= b[0] or b[2] <= a[0]
                y_sep = a[3] <= b[1] or b[3] <= a[1]
                assert x_sep or y_sep

    def test_same_video_actors_of_distinct_classes_never_overlap(self):
        config = small_config(num_classes=2, actors_per_video=2,
                              video_count=2)
        bundle = generate(config)
        for video in bundle.videos:
            a, b = video.gt_tubes
            assert a.label != b.label
            for frame in video.extent.frames():
                assert iou(a.box_at(frame), b.box_at(frame)) == 0.0


class TestDeterminism:
    def test_same_seed_same_bundle(self):
        config = small_config(jitter_sigma=2.0, miss_rate=0.1,
                              false_positive_rate=0.2, drift_rate=0.4,
                              match_noise=0.5, with_flow=True,
                              with_footprint=True)
        a, b = generate(config), generate(config)
        assert len(a.videos) == len(b.videos)
        for va, vb in zip(a.videos, b.videos):
            assert va.gt_tubes == vb.gt_tubes
            for stream in va.detections:
                assert va.detections[stream] == vb.detections[stream]
            assert va.proposals == vb.proposals
            for frame in va.flow:
                assert np.array_equal(va.flow[frame].values,
                                      vb.flow[frame].values)
        assert a.drift_tubes == b.drift_tubes
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.gmm.means, b.gmm.means)

    def test_different_seed_different_noise(self):
        a = generate(small_config(seed=1, jitter_sigma=2.0))
        b = generate(small_config(seed=2, jitter_sigma=2.0))
        boxes_a = [d.box for d in a.videos[0].detections["static"]]
        boxes_b = [d.box for d in b.videos[0].detections["static"]]
        assert boxes_a != boxes_b


class TestDetections:
    def test_noiseless_detections_match_truth_exactly(self):
        bundle = generate(small_config())
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            for det in video.detections["static"]:
                assert det.box == gt.box_at(det.frame_index)
                assert det.score == 1.0
                assert det.label == gt.label

    def test_miss_rate_one_drops_everything(self):
        bundle = generate(small_config(miss_rate=1.0))
        for video in bundle.videos:
            for stream in video.detections.values():
                assert stream == ()

    def test_streams_report_their_source(self):
        video = generate(small_config()).videos[0]
        assert {d.source for d in video.detections["static"]} == {Source.STATIC}
        assert {d.source for d in video.detections["flow"]} == {Source.FLOW}
        assert {d.source for d in video.detections["early"]} == \
            {Source.EARLY_FUSION}

    def test_jitter_boxes_stay_close(self):
        bundle = generate(small_config(jitter_sigma=2.0))
        overlaps = []
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            for det in video.detections["static"]:
                overlaps.append(iou(det.box, gt.box_at(det.frame_index)))
        mean = float(np.mean(overlaps))
        assert 0.7 < mean < 0.999
        assert min(overlaps) > 0.3

    def test_score_tracks_overlap_with_truth(self):
        bundle = generate(small_config(jitter_sigma=2.0))
        video = bundle.videos[0]
        gt = video.gt_tubes[0]
        for det in video.detections["static"]:
            expected = max(iou(det.box, gt.box_at(det.frame_index)), 0.05)
            assert det.score == pytest.approx(expected)

    def test_label_confusion_flips_argmax(self):
        bundle = generate(small_config(label_confusion=1.0))
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            for det in video.detections["static"]:
                assert det.label != gt.label
                assert det.class_scores[gt.label] == \
                    pytest.approx(0.3 * det.score)

    def test_duplicate_label_rate_adds_shifted_twin(self):
        config = small_config(duplicate_label_rate=1.0)
        bundle = generate(config)
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            dets = video.detections["static"]
            assert len(dets) == 2 * config.frames_per_video
            dup_label = (gt.label + 1) % config.num_classes
            twins = [d for d in dets if d.label == dup_label]
            assert len(twins) == config.frames_per_video
            for twin in twins:
                assert twin.box == gt.box_at(twin.frame_index)
                assert twin.score == pytest.approx(0.9)

    def test_false_positive_rate_adds_extra_boxes(self):
        clean = generate(small_config())
        noisy = generate(small_config(false_positive_rate=1.0))
        for vc, vn in zip(clean.videos, noisy.videos):
            assert len(vn.detections["static"]) == \
                len(vc.detections["static"]) + len(vc.extent)

    def test_partial_span_centers_the_actor(self):
        config = small_config(span_fraction=0.5)
        bundle = generate(config)
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            assert len(gt.interval()) == 12
            assert gt.start == 6
            frames = {d.frame_index for d in video.detections["static"]}
            assert frames == set(gt.interval().frames())


class TestProposals:
    def test_exact_proposal_present_at_full_recall(self):
        bundle = generate(small_config())
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            for frame in gt.interval().frames():
                boxes = [p.box for p in video.proposals[frame]]
                assert gt.box_at(frame) in boxes

    def test_near_misses_survive_recall_gap(self):
        config = small_config(proposal_recall=5e-324, near_miss_count=3)
        bundle = generate(config)
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            for frame in gt.interval().frames():
                near = [p for p in video.proposals[frame]
                        if iou(p.box, gt.box_at(frame)) > 0.5]
                assert len(near) >= 3

    def test_distractor_count_honored(self):
        config = small_config(span_fraction=0.5, distractor_count=2)
        bundle = generate(config)
        video = bundle.videos[0]
        gt = video.gt_tubes[0]
        for frame in video.extent.frames():
            if frame not in gt.interval():
                assert len(video.proposals[frame]) == 2


class TestMatcher:
    def test_adjacent_only(self):
        bundle = generate(small_config())
        matcher = bundle.matcher()
        box = bundle.videos[0].gt_tubes[0].box_at(0)
        with pytest.raises(InputError):
            matcher.match("v000", 0, 2, box)

    def test_actor_points_follow_the_actor(self):
        bundle = generate(small_config())
        matcher = bundle.matcher()
        for video in bundle.videos[:3]:
            gt = video.gt_tubes[0]
            for frame in list(gt.interval().frames())[:-1]:
                matches = matcher.match(video.video_id, frame, frame + 1,
                                        gt.box_at(frame))
                assert len(matches) >= 9
                assert match_ratio(gt.box_at(frame + 1), matches) == 1.0

    def test_backward_equals_reversed_forward(self):
        bundle = generate(small_config(match_noise=0.3))
        matcher = bundle.matcher()
        gt = bundle.videos[0].gt_tubes[0]
        fwd = matcher.match("v000", 4, 5, gt.box_at(4))
        back = matcher.match("v000", 5, 4, gt.box_at(5))
        assert np.allclose(np.sort(fwd.to_points, axis=0),
                           np.sort(back.from_points, axis=0))

    def test_pure_across_instances_and_cache(self):
        bundle = generate(small_config(match_noise=0.4))
        box = bundle.videos[0].gt_tubes[0].box_at(7)
        a = bundle.matcher().match("v000", 7, 8, box)
        m = bundle.matcher()
        for frame in range(20):
            m.match("v000", frame, frame + 1, box)
        b = m.match("v000", 7, 8, box)
        assert np.array_equal(a.from_points, b.from_points)
        assert np.array_equal(a.to_points, b.to_points)

    def test_restrict_respected(self):
        bundle = generate(small_config())
        matcher = bundle.matcher()
        box = bundle.videos[0].gt_tubes[0].box_at(0)
        matches = matcher.match("v000", 0, 1, box)
        fp = matches.from_points
        assert np.all((fp[:, 0] >= box.x_min) & (fp[:, 0] <= box.x_max))
        assert np.all((fp[:, 1] >= box.y_min) & (fp[:, 1] <= box.y_max))

    def test_background_points_do_not_move(self):
        bundle = generate(small_config())
        matcher = bundle.matcher()
        video = bundle.videos[0]
        w, h = video.frame_size
        full = BoundingBox(0, 0, w, h)
        matches = matcher.match("v000", 0, 1, full)
        disp = np.linalg.norm(matches.to_points - matches.from_points, axis=1)
        assert np.sum(disp < 1e-12) > len(disp) / 2


def random_box(rng):
    x, y = (float(v) for v in rng.integers(0, 40, 2))
    return BoundingBox(x, y, x + float(rng.integers(5, 30)),
                       y + float(rng.integers(5, 30)))


def random_gt_tubes(rng, video_id, count=4):
    """Static ground truth with staggered spans over frames 0-20."""
    out = []
    for i in range(count):
        start = int(rng.integers(0, 12))
        box = random_box(rng)
        out.append(GroundTruthTube(video_id, f"g{i}", int(rng.integers(0, 3)),
                                   start, (box,) * int(rng.integers(1, 9))))
    return out


class TestRegionScorer:
    def test_exact_box_scores_one_for_true_class(self):
        bundle = generate(small_config())
        scorer = bundle.region_scorer()
        video = bundle.videos[0]
        gt = video.gt_tubes[0]
        scores = scorer.class_scores(video.video_id, 3, gt.box_at(3))
        assert scores[gt.label] == 1.0
        assert sum(scores) == 1.0

    def test_far_box_scores_zero(self):
        bundle = generate(small_config())
        scorer = bundle.region_scorer()
        scores = scorer.class_scores("v000", 3, BoundingBox(0, 0, 4, 4))
        assert scores == (0.0, 0.0, 0.0)

    def test_frame_index_equals_scan_over_all_tubes(self):
        # Truth with staggered spans and a repeated label, so frames
        # with none, some and all of it present are all queried.
        rng = np.random.default_rng(61)
        gt_map = {"v0": random_gt_tubes(rng, "v0"),
                  "v1": random_gt_tubes(rng, "v1")}
        scorer = SyntheticRegionScorer(small_config(), gt_map)
        for video_id, tubes in gt_map.items():
            for frame in range(-1, 22):
                box = random_box(rng)
                want = [0.0] * 3
                for gt in tubes:
                    if frame in gt.interval():
                        want[gt.label] = max(want[gt.label],
                                             iou(box, gt.box_at(frame)))
                assert scorer.class_scores(video_id, frame, box) == \
                    tuple(want)
        assert scorer.class_scores("v9", 3, box) == (0.0, 0.0, 0.0)


class TestFeaturizer:
    def test_clip_features_point_along_class_direction(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        video = bundle.videos[2]
        gt = video.gt_tubes[0]
        intervals = slice_clips(gt.interval(), config.clip_length)
        feats = featurizer.clip_features(video.video_id, dict(gt.iter_frames()),
                                         intervals)
        expected = np.zeros(config.feature_dim)
        expected[gt.label] = config.feature_margin
        assert np.allclose(feats, expected[None, :])

    def test_clip_features_equal_scan_over_tube_frames(self):
        config = small_config(feature_noise=0.0)
        rng = np.random.default_rng(67)
        for _ in range(20):
            tubes = random_gt_tubes(rng, "v0")
            featurizer = SyntheticFeaturizer(config, {"v0": tubes},
                                             {"v0": 0})
            # a tube wandering near the truth, with a gap in its boxes
            boxes = {f: tubes[f % len(tubes)].boxes[0].translated(
                         float(rng.integers(-4, 5)), 0.0)
                     for f in range(2, 20) if f != 9}
            intervals = slice_clips(FrameInterval(2, 20), 4)
            want = np.zeros((len(intervals), config.feature_dim))
            for t, interval in enumerate(intervals):
                best_label, best_ov = None, 0.0
                for gt in tubes:
                    overlaps = [iou(boxes[f], gt.box_at(f))
                                for f in interval.frames()
                                if f in boxes and f in gt.interval()]
                    if overlaps and float(np.mean(overlaps)) > best_ov:
                        best_label = gt.label
                        best_ov = float(np.mean(overlaps))
                if best_label is not None:
                    want[t] = featurizer.class_direction(best_label)
            got = featurizer.clip_features("v0", boxes, intervals)
            assert np.array_equal(got, want)

    def test_off_actor_boxes_give_null_features(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        video = bundle.videos[0]
        boxes = {f: BoundingBox(0, 0, 5, 5) for f in video.extent.frames()}
        intervals = slice_clips(video.extent, config.clip_length)
        feats = featurizer.clip_features(video.video_id, boxes, intervals)
        assert np.allclose(feats, 0.0)

    def test_feature_grid_marks_home_cells(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        video = bundle.videos[0]
        gt = video.gt_tubes[0]
        intervals = slice_clips(video.extent, config.clip_length)
        grid = featurizer.feature_grid(video.video_id, intervals)
        assert grid.shape == (len(intervals), config.layout.grid_side,
                              config.layout.grid_side, config.feature_dim)
        channel = grid[..., gt.label]
        assert channel.max() == pytest.approx(config.feature_margin)
        # noiseless grid holds only the class blob and the background
        background = featurizer.background_direction(video.video_id)
        assert np.linalg.norm(background) == pytest.approx(
            config.feature_margin)
        flat = grid.reshape(-1, config.feature_dim)
        on_blob = flat[:, gt.label] >= config.feature_margin
        assert on_blob.any() and not on_blob.all()
        assert np.allclose(flat[~on_blob], background)

    def test_background_differs_between_videos(self):
        config = small_config()
        bundle = generate(config)
        featurizer = bundle.featurizer()
        a = featurizer.background_direction(bundle.videos[0].video_id)
        b = featurizer.background_direction(bundle.videos[1].video_id)
        assert not np.allclose(a, b)

    def test_repeated_queries_identical(self):
        config = small_config(feature_noise=0.2)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        video = bundle.videos[1]
        gt = video.gt_tubes[0]
        intervals = slice_clips(gt.interval(), config.clip_length)
        a = featurizer.clip_features(video.video_id, dict(gt.iter_frames()),
                                     intervals)
        b = bundle.featurizer().clip_features(
            video.video_id, dict(gt.iter_frames()), intervals)
        assert np.array_equal(a, b)


class TestAnalyticWeights:
    def test_classifier_recovers_clip_labels(self):
        config = small_config(feature_noise=0.3)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        for video in bundle.videos:
            gt = video.gt_tubes[0]
            intervals = slice_clips(gt.interval(), config.clip_length)
            feats = featurizer.clip_features(
                video.video_id, dict(gt.iter_frames()), intervals)
            scores = recurrent_forward(feats, bundle.weights)
            assert np.all(np.argmax(scores, axis=1) == gt.label)

    def test_null_features_score_uniform(self):
        config = small_config()
        weights = analytic_weights(config)
        scores = recurrent_forward(np.zeros((1, config.feature_dim)), weights)
        assert np.allclose(scores, 1.0 / config.num_classes)


class TestDrift:
    def test_injected_count_and_isolation(self):
        config = small_config(drift_rate=0.5)
        bundle = generate(config)
        injected = [t for ts in bundle.drift_tubes.values() for t in ts]
        assert len(injected) == 3
        for tube in injected:
            assert is_injected(tube)
            video = next(v for v in bundle.videos
                         if v.video_id == tube.video_id)
            for gt in video.gt_tubes:
                assert st_iou(tube, gt) == 0.0

    def test_injected_label_matches_a_video_actor(self):
        config = small_config(drift_rate=1.0)
        bundle = generate(config)
        for video_id, tubes in bundle.drift_tubes.items():
            video = next(v for v in bundle.videos if v.video_id == video_id)
            labels = {gt.label for gt in video.gt_tubes}
            for tube in tubes:
                assert tube.label in labels

    def test_injected_boxes_avoid_the_label_home_region(self):
        config = small_config(drift_rate=1.0)
        bundle = generate(config)
        for tubes in bundle.drift_tubes.values():
            for tube in tubes:
                hx0, hy0, hx1, hy1 = home_region(config, tube.label)
                for entry in tube.entries:
                    b = entry.box
                    overlaps = (b.x_min < hx1 and hx0 < b.x_max
                                and b.y_min < hy1 and hy0 < b.y_max)
                    assert not overlaps

    def test_zero_rate_injects_nothing(self):
        bundle = generate(small_config(drift_rate=0.0))
        assert bundle.drift_tubes == {}
        again = inject_drift(bundle, 0.0)
        assert again is bundle

    def test_injected_tubes_span_the_video(self):
        bundle = generate(small_config(drift_rate=1.0))
        for video_id, tubes in bundle.drift_tubes.items():
            video = next(v for v in bundle.videos if v.video_id == video_id)
            for tube in tubes:
                assert tube.interval() == video.extent
                assert tube.score is None

    def test_real_tubes_not_flagged(self):
        from actiontubes.model import Detection, Tube
        tube = Tube("v000", "t0", (Detection(0, BoundingBox(0, 0, 5, 5),
                                             (1.0,)),))
        assert not is_injected(tube)


class TestFlowGrids:
    def test_actor_region_carries_motion_magnitude(self):
        config = small_config(with_flow=True,
                              actors=(ActorSpec(label=0, speed=4.0),
                                      ActorSpec(label=1, speed=4.0),
                                      ActorSpec(label=2, speed=4.0)))
        bundle = generate(config)
        video = bundle.videos[0]
        gt = video.gt_tubes[0]
        grid = video.flow[5]
        box = gt.box_at(5)
        ys = slice(int(box.y_min) + 2, int(box.y_max) - 2)
        xs = slice(int(box.x_min) + 2, int(box.x_max) - 2)
        inside = float(grid.values[ys, xs].mean())
        assert inside > 2.0
        assert float(np.median(grid.values)) < 0.5

    def test_without_flag_no_grids(self):
        bundle = generate(small_config())
        assert all(v.flow == {} for v in bundle.videos)


class TestFootprintStats:
    def test_alphas_cover_all_classes(self):
        config = small_config(with_footprint=True)
        bundle = generate(config)
        assert bundle.alphas is not None
        assert bundle.alphas.shape == (config.num_classes,
                                       config.layout.num_cells)
        assert np.all(bundle.alphas >= 0.0) and np.all(bundle.alphas <= 1.0)

    def test_alphas_none_when_split_misses_a_class(self):
        # Four videos cycling three classes: the even/odd split cannot
        # cover every class on both sides.
        config = small_config(video_count=4, with_footprint=True)
        bundle = generate(config)
        assert bundle.gmm is not None
        assert bundle.alphas is None


class TestEndToEnd:
    def test_noiseless_tracking_recovers_truth(self):
        config = small_config()
        bundle = generate(config)
        matcher, scorer = bundle.matcher(), bundle.region_scorer()
        featurizer = bundle.featurizer()
        for video in bundle.videos:
            by_frame = {}
            for det in video.detections["static"]:
                by_frame.setdefault(det.frame_index, []).append(det)
            tubes = build_tubes(video.video_id, by_frame, video.proposals,
                                video.extent, matcher, scorer,
                                TrackerConfig())
            assert len(tubes) == 1
            gt = video.gt_tubes[0]
            assert st_iou(tubes[0], gt) == pytest.approx(1.0)
            tube = tubes[0]
            intervals = slice_clips(tube.interval(), config.clip_length)
            feats = featurizer.clip_features(
                video.video_id, {e.frame_index: e.box for e in tube.entries},
                intervals)
            clips = score_clips(feats, bundle.weights, intervals,
                                config.clip_length)
            assert score_tube(tube, clips).label == gt.label
