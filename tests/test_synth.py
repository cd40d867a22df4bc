"""Tests for the synthetic scenario generator."""

from dataclasses import replace

import numpy as np
import pytest

from actiontubes import formats, synth
from actiontubes.config import PipelineConfig
from actiontubes.errors import ConfigError, InputError
from actiontubes.geometry import iou, st_iou
from actiontubes.model import (BoundingBox, FrameInterval, GroundTruthTube,
                               Source, Tube)
from actiontubes.pipeline import (FILE_CLIP_NOISE, FILE_DETECTIONS,
                                  FILE_DRIFT, FILE_FLOW, FILE_GT,
                                  FILE_MATCHES, FILE_PROPOSALS, run_synth,
                                  scenario_config)
from actiontubes.scenario import video_index
from actiontubes.scoring import recurrent_forward, score_clips, score_tube, \
    slice_clips
from actiontubes.synth import (STREAMS, ScenarioConfig,
                               SyntheticFeaturizer, SyntheticMatcher,
                               SyntheticRegionScorer, analytic_weights,
                               generate, home_region, inject_drift,
                               video_flow, video_id, video_order)
from actiontubes.tracker import (PrecomputedMatcher, TrackerConfig,
                                 build_tubes, match_ratio)
from test_io import iter_arrays


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

    def test_actor_too_big_for_home_region(self):
        with pytest.raises(ConfigError, match="does not fit"):
            ScenarioConfig(frame_size=(100, 100), num_classes=4,
                           actor_size=60.0)

    def test_bad_motion_name(self):
        with pytest.raises(ConfigError, match="unknown motion"):
            ScenarioConfig(actor_motion="teleport")

    @pytest.mark.parametrize("size", [0.0, -4.0, float("nan"), float("inf")])
    def test_bad_actor_size(self, size):
        with pytest.raises(ConfigError, match="actor size"):
            ScenarioConfig(actor_size=size)

    @pytest.mark.parametrize("speed", [-1.0, float("nan"), float("inf")])
    def test_bad_actor_speed(self, speed):
        with pytest.raises(ConfigError, match="actor_speed"):
            ScenarioConfig(actor_speed=speed)

    def test_actor_labels_cycle_the_classes(self):
        config = small_config(num_classes=3, actors_per_video=2,
                              video_count=3)
        labels = [[gt.label for gt in tubes]
                  for tubes in generate(config).gt_tubes]
        assert labels == [[0, 1], [2, 0], [1, 2]]


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
        for a, b in bundle.gt_tubes:
            assert a.label != b.label
            for frame in range(config.frames_per_video):
                assert iou(a.box_at(frame), b.box_at(frame)) == 0.0


class TestDeterminism:
    def test_same_seed_same_bundle(self):
        config = small_config(jitter_sigma=2.0, miss_rate=0.1,
                              false_positive_rate=0.2, drift_rate=0.4,
                              match_noise=0.5, with_footprint=True)
        a, b = generate(config), generate(replace(config))
        assert a.gt_tubes == b.gt_tubes
        for index in range(config.video_count):
            for stream in STREAMS:
                assert a.detections(stream, index) == \
                    b.detections(stream, index)
            assert a.proposals(index) == b.proposals(index)
            flow_a = list(a.flow(index))
            flow_b = list(b.flow(index))
            assert len(flow_a) == len(flow_b) == config.frames_per_video
            for ga, gb in zip(flow_a, flow_b):
                assert ga.frame_index == gb.frame_index
                assert np.array_equal(ga.values, gb.values)
        assert a.drift_tubes == b.drift_tubes
        assert np.array_equal(a.alphas, b.alphas)

    def test_videos_are_the_same_in_any_order(self):
        bundle = generate(small_config(jitter_sigma=2.0, miss_rate=0.1,
                                       false_positive_rate=0.2,
                                       match_noise=0.5))

        def inputs(index):
            return ([bundle.detections(stream, index) for stream in STREAMS],
                    bundle.proposals(index))

        forward = [inputs(index) for index in range(6)]
        assert [inputs(index) for index in reversed(range(6))] == \
            forward[::-1]
        again = generate(bundle.config)
        for index in (3, 0):
            a, b = bundle.matches(index), again.matches(index)
            assert list(a) == list(range(23))
            assert list(b) == list(a)
            assert all(np.array_equal(a[key], b[key]) for key in a)

    def test_different_seed_different_noise(self):
        a = generate(small_config(seed=1, jitter_sigma=2.0))
        b = generate(small_config(seed=2, jitter_sigma=2.0))
        boxes_a = [d.box for d in a.detections("static", 0)]
        boxes_b = [d.box for d in b.detections("static", 0)]
        assert boxes_a != boxes_b


class TestDetections:
    def test_noiseless_detections_match_truth_exactly(self):
        bundle = generate(small_config())
        for index, (gt,) in enumerate(bundle.gt_tubes):
            for det in bundle.detections("static", index):
                assert det.box == gt.box_at(det.frame_index)
                assert det.score == 1.0
                assert det.label == gt.label

    def test_miss_rate_one_drops_everything(self):
        bundle = generate(small_config(miss_rate=1.0))
        for index in range(bundle.config.video_count):
            for stream in STREAMS:
                assert bundle.detections(stream, index) == ()

    def test_streams_report_their_source(self):
        bundle = generate(small_config())
        assert {d.source for d in bundle.detections("static", 0)} == \
            {Source.STATIC}
        assert {d.source for d in bundle.detections("flow", 0)} == \
            {Source.FLOW}
        assert {d.source for d in bundle.detections("early", 0)} == \
            {Source.EARLY_FUSION}

    def test_jitter_boxes_stay_close(self):
        bundle = generate(small_config(jitter_sigma=2.0))
        overlaps = []
        for index, (gt,) in enumerate(bundle.gt_tubes):
            for det in bundle.detections("static", index):
                overlaps.append(iou(det.box, gt.box_at(det.frame_index)))
        mean = float(np.mean(overlaps))
        assert 0.7 < mean < 0.999
        assert min(overlaps) > 0.3

    def test_score_tracks_overlap_with_truth(self):
        bundle = generate(small_config(jitter_sigma=2.0))
        gt = bundle.gt_tubes[0][0]
        for det in bundle.detections("static", 0):
            expected = max(iou(det.box, gt.box_at(det.frame_index)), 0.05)
            assert det.score == pytest.approx(expected)

    def test_label_confusion_flips_argmax(self):
        bundle = generate(small_config(label_confusion=1.0))
        for index, (gt,) in enumerate(bundle.gt_tubes):
            for det in bundle.detections("static", index):
                assert det.label != gt.label
                assert det.class_scores[gt.label] == \
                    pytest.approx(0.3 * det.score)

    def test_duplicate_label_rate_adds_shifted_twin(self):
        config = small_config(duplicate_label_rate=1.0)
        bundle = generate(config)
        for index, (gt,) in enumerate(bundle.gt_tubes):
            dets = bundle.detections("static", index)
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
        for index in range(clean.config.video_count):
            assert len(noisy.detections("static", index)) == \
                len(clean.detections("static", index)) + \
                clean.config.frames_per_video

    def test_partial_span_centers_the_actor(self):
        config = small_config(span_fraction=0.5)
        bundle = generate(config)
        for index, (gt,) in enumerate(bundle.gt_tubes):
            assert len(gt.interval()) == 12
            assert gt.start == 6
            frames = {d.frame_index for d in bundle.detections("static",
                                                               index)}
            assert frames == set(gt.interval().frames())


class TestProposals:
    def test_exact_proposal_present_at_full_recall(self):
        bundle = generate(small_config())
        for index, (gt,) in enumerate(bundle.gt_tubes):
            proposals = bundle.proposals(index)
            for frame in gt.interval().frames():
                boxes = [p.box for p in proposals[frame]]
                assert gt.box_at(frame) in boxes

    def test_near_misses_survive_recall_gap(self):
        config = small_config(proposal_recall=5e-324, near_miss_count=3)
        bundle = generate(config)
        for index, (gt,) in enumerate(bundle.gt_tubes):
            proposals = bundle.proposals(index)
            for frame in gt.interval().frames():
                near = [p for p in proposals[frame]
                        if iou(p.box, gt.box_at(frame)) > 0.5]
                assert len(near) >= 3

    def test_distractor_count_honored(self):
        config = small_config(span_fraction=0.5, distractor_count=2)
        bundle = generate(config)
        gt = bundle.gt_tubes[0][0]
        proposals = bundle.proposals(0)
        for frame in range(config.frames_per_video):
            if frame not in gt.interval():
                assert len(proposals[frame]) == 2


def stored_matcher(bundle, index=0):
    """Video ``index``'s matches as ``track`` answers from them: rows of
    float tuples."""
    return PrecomputedMatcher({
        frame: list(map(tuple, rows.tolist()))
        for frame, rows in bundle.matches(index).items()})


class TestMatcher:
    def test_adjacent_only(self):
        bundle = generate(small_config())
        matcher = stored_matcher(bundle)
        box = bundle.gt_tubes[0][0].box_at(0)
        with pytest.raises(InputError):
            matcher.match("v000", 0, 2, box)

    def test_actor_points_follow_the_actor(self):
        bundle = generate(small_config())
        for index, (gt,) in enumerate(bundle.gt_tubes[:3]):
            matcher = stored_matcher(bundle, index)
            for frame in list(gt.interval().frames())[:-1]:
                matches = matcher.match(video_id(index), frame, frame + 1,
                                        gt.box_at(frame))
                assert len(matches) >= 9
                assert match_ratio(gt.box_at(frame + 1), matches) == 1.0

    def test_backward_equals_reversed_forward(self):
        bundle = generate(small_config(match_noise=0.3))
        matcher = stored_matcher(bundle)
        gt = bundle.gt_tubes[0][0]
        fwd = np.array(matcher.match("v000", 4, 5, gt.box_at(4)))
        back = np.array(matcher.match("v000", 5, 4, gt.box_at(5)))
        assert np.allclose(np.sort(fwd[:, 2:], axis=0),
                           np.sort(back[:, :2], axis=0))

    def test_pure_across_instances(self):
        """A field is the same whichever fields were made before it."""
        bundle = generate(small_config(match_noise=0.4))
        box = bundle.gt_tubes[0][0].box_at(7)
        truth = {"v000": bundle.gt_tubes[0]}
        a = SyntheticMatcher(bundle.config, truth).match("v000", 7, 8, box)
        m = SyntheticMatcher(bundle.config, truth)
        for frame in range(20):
            m.match("v000", frame, frame + 1, box)
        b = m.match("v000", 7, 8, box)
        assert a == b

    def test_restrict_respected(self):
        bundle = generate(small_config())
        matcher = stored_matcher(bundle)
        box = bundle.gt_tubes[0][0].box_at(0)
        matches = np.array(matcher.match("v000", 0, 1, box))
        fp = matches[:, :2]
        assert np.all((fp[:, 0] >= box.x_min) & (fp[:, 0] <= box.x_max))
        assert np.all((fp[:, 1] >= box.y_min) & (fp[:, 1] <= box.y_max))

    def test_background_points_do_not_move(self):
        bundle = generate(small_config())
        matcher = stored_matcher(bundle)
        w, h = bundle.config.frame_size
        full = BoundingBox(0, 0, w, h)
        matches = np.array(matcher.match("v000", 0, 1, full))
        disp = np.linalg.norm(matches[:, 2:] - matches[:, :2], axis=1)
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
        scorer = SyntheticRegionScorer(bundle.config,
                                       {"v000": bundle.gt_tubes[0]})
        gt = bundle.gt_tubes[0][0]
        scores = scorer.class_scores("v000", 3, gt.box_at(3))
        assert scores[gt.label] == 1.0
        assert sum(scores) == 1.0

    def test_far_box_scores_zero(self):
        bundle = generate(small_config())
        scorer = SyntheticRegionScorer(bundle.config,
                                       {"v000": bundle.gt_tubes[0]})
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
        with pytest.raises(InputError, match="'v9'"):
            scorer.class_scores("v9", 3, box)

    def test_truth_class_outside_num_classes_rejected(self):
        # classes 0..2 are scored; a class-3 actor fails at construction,
        # not on the first query that meets it
        box = BoundingBox(10, 10, 40, 40)
        truth = [GroundTruthTube("v0", "g0", 2, 0, (box,)),
                 GroundTruthTube("v0", "g1", 3, 0, (box,))]
        with pytest.raises(InputError) as err:
            SyntheticRegionScorer(small_config(), {"v0": truth})
        for part in ("g1", "'v0'", "class 3", "synth.num_classes is 3"):
            assert part in str(err.value)
        SyntheticRegionScorer(small_config(num_classes=4), {"v0": truth})


class TestFeaturizer:
    def test_clip_features_point_along_class_direction(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        gt = bundle.gt_tubes[2][0]
        intervals = slice_clips(gt.interval(), config.clip_length)
        feats = featurizer.clip_features(gt, intervals)
        expected = np.zeros(config.feature_dim)
        expected[gt.label] = config.feature_margin
        assert np.allclose(feats, expected[None, :])

    def test_clip_features_equal_scan_over_tube_frames(self):
        config = small_config(feature_noise=0.0)
        noisy = small_config(feature_noise=0.5)
        rng = np.random.default_rng(67)
        for _ in range(20):
            tubes = random_gt_tubes(rng, "v000")
            # a tube wandering near the truth over frames 2-19, scored
            # on clips that run past both of its ends
            boxes = []
            for f in range(2, 20):
                box = tubes[f % len(tubes)].boxes[0]
                dx = float(rng.integers(-4, 5))
                boxes.append(BoundingBox(box.x_min + dx, box.y_min,
                                         box.x_max + dx, box.y_max))
            boxes = tuple(boxes)
            tube = Tube("v000", "w", 2, boxes, ((1.0,),) * len(boxes),
                        (Source.TRACKED,) * len(boxes))
            # a truth right of the tube's hull, touching it at one edge
            right = max(b.x_max for b in boxes)
            top = min(b.y_min for b in boxes)
            tubes.append(GroundTruthTube(
                "v000", "edge", 1, 0,
                (BoundingBox(right, top, right + 10.0, top + 10.0),) * 22))
            featurizer = SyntheticFeaturizer(config, {"v000": tubes})
            intervals = slice_clips(FrameInterval(0, 22), 4)
            want = np.zeros((len(intervals), config.feature_dim))
            for t, interval in enumerate(intervals):
                best_label, best_ov = None, 0.0
                for gt in tubes:
                    overlaps = [iou(tube.box_at(f), gt.box_at(f))
                                for f in interval.frames()
                                if f in tube.interval() and f in gt.interval()]
                    if overlaps and float(np.mean(overlaps)) > best_ov:
                        best_label = gt.label
                        best_ov = float(np.mean(overlaps))
                if best_label is not None:
                    want[t] = featurizer.class_direction(best_label)
            got = featurizer.clip_features(tube, intervals)
            assert np.array_equal(got, want)

            # clip noise is the table's row at the clip start: a second
            # tube sharing the starts 4, 8, 12 and 16 gets the same bits
            table = synth.clip_noise(noisy, 0)
            other = Tube("v000", "u", 4, boxes[:14], ((1.0,),) * 14,
                         (Source.TRACKED,) * 14)
            for query, spans in ((tube, intervals),
                                 (other, slice_clips(other.interval(), 4))):
                clean = featurizer.clip_features(query, spans)
                assert featurizer.clip_features(query, spans, table) == [
                    [f + n for f, n in zip(row, table[span.start])]
                    for row, span in zip(clean, spans)]
            assert not np.array_equal(
                featurizer.clip_features(tube, intervals, table), got)
            with pytest.raises(InputError, match="clip start 20 of tube "
                               "'w' in 'v000' is outside the clip noise "
                               "table of 20 rows"):
                featurizer.clip_features(tube, intervals, table[:20])

    def test_off_actor_boxes_give_null_features(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        n = config.frames_per_video
        tube = Tube("v000", "t", 0, (BoundingBox(0, 0, 5, 5),) * n,
                    ((1.0,),) * n, (Source.TRACKED,) * n)
        intervals = slice_clips(FrameInterval(0, n), config.clip_length)
        feats = featurizer.clip_features(tube, intervals)
        assert np.allclose(feats, 0.0)

    def test_feature_grid_marks_home_cells(self):
        config = small_config(feature_noise=0.0)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        gt = bundle.gt_tubes[0][0]
        intervals = slice_clips(FrameInterval(0, config.frames_per_video),
                                config.clip_length)
        grid = featurizer.feature_grid("v000", intervals)
        assert grid.shape == (len(intervals), config.layout.grid_side,
                              config.layout.grid_side, config.feature_dim)
        channel = grid[..., gt.label]
        assert channel.max() == pytest.approx(config.feature_margin)
        # noiseless grid holds only the class blob and the background
        background = featurizer.background_direction("v000")
        assert np.linalg.norm(background) == pytest.approx(
            config.feature_margin)
        flat = grid.reshape(-1, config.feature_dim)
        on_blob = flat[:, gt.label] >= config.feature_margin
        assert on_blob.any() and not on_blob.all()
        assert np.allclose(flat[~on_blob], background)

    def test_video_outside_the_scenario_rejected(self):
        # a video the models hold no ground truth for, whether its id is
        # absent or names no tubes, is rejected, not made as background
        config = small_config(feature_noise=0.2, match_noise=1.0)
        bundle = generate(config)
        gt = bundle.gt_tubes[0][0]
        stray = replace(gt, video_id="v999")
        intervals = slice_clips(gt.interval(), 4)
        known = {"v000": bundle.gt_tubes[0]}
        for gt_map in (known, {**known, "v999": ()}):
            featurizer = SyntheticFeaturizer(config, gt_map)
            calls = (lambda: featurizer.clip_features(stray, intervals),
                     lambda: featurizer.feature_grid("v999", intervals),
                     lambda: featurizer.background_direction("v999"),
                     lambda: SyntheticMatcher(config, gt_map).match(
                         "v999", 0, 1, gt.boxes[0]),
                     lambda: SyntheticRegionScorer(
                         config, gt_map).class_scores("v999", 0, gt.boxes[0]))
            for call in calls:
                with pytest.raises(InputError,
                                   match="no ground truth for video 'v999'"):
                    call()

    def test_background_differs_between_videos(self):
        config = small_config()
        bundle = generate(config)
        featurizer = bundle.featurizer()
        a = featurizer.background_direction("v000")
        b = featurizer.background_direction("v001")
        assert not np.allclose(a, b)

    def test_repeated_queries_identical(self):
        config = small_config(feature_noise=0.2)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        gt = bundle.gt_tubes[1][0]
        intervals = slice_clips(gt.interval(), config.clip_length)
        a = featurizer.clip_features(gt, intervals, bundle.clip_noise(1))
        b = bundle.featurizer().clip_features(gt, intervals,
                                              bundle.clip_noise(1))
        assert a == b

    def test_clip_noise_rows_are_the_per_clip_draws(self):
        """Row ``s`` of a video's table is the draw keyed by (seed, clip,
        video, start) that clip features took before the table, so no
        clip feature moved when the noise moved into ``synth``."""
        from actiontubes.scenario import _CLIP, _rng
        config = small_config(feature_noise=0.2)
        for index in (0, 4):
            table = synth.clip_noise(config, index)
            assert table.shape == (config.frames_per_video,
                                   config.feature_dim)
            for start in (0, 9, config.frames_per_video - 1):
                draw = _rng(config.seed, _CLIP, index, start).normal(
                    0.0, config.feature_noise, config.feature_dim)
                assert np.array_equal(table[start], draw)
        assert not np.array_equal(synth.clip_noise(config, 0),
                                  synth.clip_noise(config, 1))
        quiet = synth.clip_noise(small_config(feature_noise=0.0), 0)
        assert not quiet.any() and not np.signbit(quiet).any()

    def test_synth_writes_each_video_noise_table(self, tmp_path):
        config = PipelineConfig({"synth.video_count": 3,
                                 "synth.frames_per_video": 12,
                                 "synth.with_footprint": False})
        run_synth(tmp_path, config)
        noise = formats.VideoArrays(tmp_path / FILE_CLIP_NOISE,
                                    "clip_noise")
        scenario = scenario_config(config)
        assert noise.video_ids == ["v000", "v001", "v002"]
        for index in range(3):
            assert noise.read(video_id(index), (12, 8)) == \
                synth.clip_noise(scenario, index).tolist()


class TestAnalyticWeights:
    def test_classifier_recovers_clip_labels(self):
        config = small_config(feature_noise=0.3)
        bundle = generate(config)
        featurizer = bundle.featurizer()
        for index, (gt,) in enumerate(bundle.gt_tubes):
            intervals = slice_clips(gt.interval(), config.clip_length)
            feats = featurizer.clip_features(gt, intervals,
                                             bundle.clip_noise(index))
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
            assert tube.tube_id.startswith("drift")
            for gt in bundle.gt_tubes[video_index(tube.video_id)]:
                assert st_iou(tube, gt) == 0.0

    def test_injected_label_matches_a_video_actor(self):
        config = small_config(drift_rate=1.0)
        bundle = generate(config)
        for vid, tubes in bundle.drift_tubes.items():
            labels = {gt.label for gt in bundle.gt_tubes[video_index(vid)]}
            for tube in tubes:
                assert tube.label in labels

    def test_injected_boxes_avoid_the_label_home_region(self):
        config = small_config(drift_rate=1.0)
        bundle = generate(config)
        for tubes in bundle.drift_tubes.values():
            for tube in tubes:
                hx0, hy0, hx1, hy1 = home_region(config, tube.label)
                for b in tube.boxes:
                    overlaps = (b.x_min < hx1 and hx0 < b.x_max
                                and b.y_min < hy1 and hy0 < b.y_max)
                    assert not overlaps

    def test_zero_rate_injects_nothing(self):
        bundle = generate(small_config(drift_rate=0.0))
        assert bundle.drift_tubes == {}
        again = inject_drift(bundle, 0.0)
        assert again is bundle

    def test_injecting_again_remakes_the_same_tubes(self):
        # the map is built from scratch: no drift id is repeated
        bundle = generate(small_config(drift_rate=0.5))
        again = inject_drift(bundle, 0.5)
        assert again.drift_tubes == bundle.drift_tubes
        for tubes in again.drift_tubes.values():
            ids = [tube.tube_id for tube in tubes]
            assert len(set(ids)) == len(ids)

    def test_injected_tubes_span_the_video(self):
        bundle = generate(small_config(drift_rate=1.0))
        for tubes in bundle.drift_tubes.values():
            for tube in tubes:
                assert tube.interval() == FrameInterval(
                    0, bundle.config.frames_per_video)
                assert tube.score is None

    def test_real_tubes_not_flagged(self):
        tube = Tube("v000", "t0", 0, (BoundingBox(0, 0, 5, 5),), ((1.0,),),
                    (Source.STATIC,))
        assert not tube.tube_id.startswith("drift")


class TestFlowGrids:
    def test_actor_region_carries_motion_magnitude(self):
        config = small_config(actor_speed=4.0)
        bundle = generate(config)
        gt = bundle.gt_tubes[0][0]
        grids = list(video_flow(config, 0, bundle.gt_tubes[0]))
        assert [g.frame_index for g in grids] == \
            list(range(config.frames_per_video))
        grid = grids[5]
        box = gt.box_at(5)
        ys = slice(int(box.y_min) + 2, int(box.y_max) - 2)
        xs = slice(int(box.x_min) + 2, int(box.x_max) - 2)
        values = np.frombuffer(grid.values, np.float32).reshape(
            grid.height, grid.width)
        inside = float(values[ys, xs].mean())
        assert inside > 2.0
        assert float(np.median(values)) < 0.5

    def test_without_flag_no_grids(self, tmp_path):
        config = PipelineConfig({"synth.video_count": 2,
                                 "synth.frames_per_video": 6,
                                 "synth.with_footprint": False})
        run_synth(tmp_path / "off", config)
        assert not (tmp_path / "off" / FILE_FLOW).exists()
        run_synth(tmp_path / "on",
                  config.with_values({"synth.with_flow": True}))
        flow = formats.VideoArrays(tmp_path / "on" / FILE_FLOW, "flow")
        assert [(v, g.frame_index)
                for v in flow.video_ids for g in flow.read(v)] == \
            [(f"v00{i}", f) for i in range(2) for f in range(6)]


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
        assert bundle.alphas is None


class TestEndToEnd:
    def test_noiseless_tracking_recovers_truth(self):
        config = small_config()
        bundle = generate(config)
        featurizer = bundle.featurizer()
        for index, (gt,) in enumerate(bundle.gt_tubes):
            vid = video_id(index)
            matcher = stored_matcher(bundle, index)
            scorer = SyntheticRegionScorer(config, {vid: (gt,)})
            by_frame = {}
            for det in bundle.detections("static", index):
                by_frame.setdefault(det.frame_index, []).append(det)
            tubes = build_tubes(vid, by_frame, bundle.proposals(index),
                                FrameInterval(0, config.frames_per_video),
                                matcher, scorer, TrackerConfig())
            assert len(tubes) == 1
            assert st_iou(tubes[0], gt) == pytest.approx(1.0)
            tube = tubes[0]
            intervals = slice_clips(tube.interval(), config.clip_length)
            feats = featurizer.clip_features(tube, intervals,
                                             bundle.clip_noise(index))
            clips = score_clips(feats, bundle.weights, intervals,
                                config.clip_length)
            assert score_tube(tube, clips).label == gt.label


class TestVideoOrder:
    def test_id_order_is_not_index_order_from_1000_videos(self):
        order = video_order(1001)
        assert sorted(order) == list(range(1001))
        ids = [video_id(i) for i in order]
        assert ids == sorted(ids)
        assert ids[ids.index("v100"):ids.index("v100") + 3] == \
            ["v100", "v1000", "v101"]
        assert video_order(1000) == list(range(1000))

    def test_id_inverts_to_its_index_whatever_the_order(self):
        """``score`` keys a video's noise by ``video_index``: at 1,001
        ids, where id order is not index order, each id maps back to the
        index synth made it from."""
        ids = [video_id(index) for index in video_order(1001)]
        assert [video_index(vid) for vid in ids] == video_order(1001)
        assert [video_index(video_id(i)) for i in range(1001)] == \
            list(range(1001))

    @pytest.mark.parametrize("bad", ["v01", "v0001", "v01000", "V001",
                                     "x001", "v-01", "v+01", "v 001",
                                     "v001 ", "v001\n", "v\u0661\u0662\u0663",
                                     "v1_0", "", "v"])
    def test_ids_synth_would_not_make_rejected(self, bad):
        with pytest.raises(InputError, match="not one synth makes"):
            video_index(bad)

    def test_every_file_is_written_in_id_order(self, tmp_path, monkeypatch):
        """With ids that sort against index order, every writer still
        gets its videos in ascending id order (a writer given them out of
        order raises)."""
        monkeypatch.setattr(synth, "video_id", lambda index: f"v{3 - index}")
        monkeypatch.setattr(synth, "video_index", lambda vid: 3 - int(vid[1:]))
        config = PipelineConfig({"synth.video_count": 4,
                                 "synth.frames_per_video": 6,
                                 "synth.with_footprint": False,
                                 "synth.with_flow": True,
                                 "synth.drift_rate": 1.0})
        run_synth(tmp_path, config)
        ids = ["v0", "v1", "v2", "v3"]
        written = {
            name: [row.split("\t")[0] for row in
                   (tmp_path / name).read_text().splitlines()[2:]]
            for name in (FILE_GT, FILE_PROPOSALS, FILE_DRIFT,
                         *FILE_DETECTIONS.values())}
        for name in (FILE_MATCHES, FILE_FLOW):
            written[name] = [array.partition("/")[0] for array, _ in
                             iter_arrays(tmp_path / name)]
        for name, videos in written.items():
            assert sorted(set(videos)) == ids, name
            assert videos == sorted(videos), name
        # v3 is video 0
        truth = generate(scenario_config(config)).gt_tubes[0]
        assert formats.read_gt_tubes(tmp_path / FILE_GT)[-len(truth):] == \
            list(truth)
