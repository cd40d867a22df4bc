"""Release acceptance checks, one test per shipped guarantee.

Each test prints a single PASS or FAIL line (run with ``-s`` to watch
them), so a full run reads as a checklist: geometry and suppression
against brute-force oracles, the perfect-input identity, the
large-displacement and noise-robustness properties, both pruning
mechanisms, the scorer and encoder against literal-formula oracles,
metric enumeration, temporal trimming laws, and the throughput target.
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from actiontubes import formats
from actiontubes.config import apply_overrides, default_config
from actiontubes.evaluation import (EvalConfig, MatchOutcome,
                                    auc_from_outcomes, average_precision,
                                    evaluate, match_and_label)
from actiontubes.footprint import (DiagonalGaussianMixture,
                                   build_footprint_map, fisher_vector,
                                   prune_drifted)
from actiontubes.geometry import iou, nms, st_iou, temporal_iou
from actiontubes.model import (BoundingBox, ClipScoreSequence, Detection,
                               FrameInterval, GroundTruthTube, Source, Tube)
from actiontubes.pipeline import (FILE_ALPHAS, FILE_DRIFT, FILE_FINAL,
                                  FILE_METRICS, FILE_SCORED, cell_layout,
                                  run_fuse, run_pipeline, run_score,
                                  run_synth, run_track)
from actiontubes.scoring import (RecurrentScorerWeights, prune_overlapped,
                                 recurrent_forward, score_clips, score_tube,
                                 slice_clips)
from actiontubes.synth import (ScenarioConfig, SyntheticFeaturizer,
                               generate, video_id)
from actiontubes.temporal import localize
from actiontubes.tracker import (PrecomputedMatcher, TrackerConfig,
                                 build_tubes, build_tubes_neighborhood)

from oracles import (ap_reference, fisher_reference, interval_iou_sets,
                     lattice_iou, nms_reference, recurrent_reference,
                     st_iou_reference)


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:02d} {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"\ncriterion {number:02d} {name}: PASS "
          f"({time.perf_counter() - start:.2f}s)")


def _int_box(rng) -> BoundingBox:
    x0 = int(rng.integers(0, 20))
    y0 = int(rng.integers(0, 20))
    return BoundingBox(float(x0), float(y0),
                       float(x0 + int(rng.integers(1, 14))),
                       float(y0 + int(rng.integers(1, 14))))


def _int_tube(rng, video_id="v") -> GroundTruthTube:
    start = int(rng.integers(0, 6))
    length = int(rng.integers(1, 6))
    boxes = tuple(_int_box(rng) for _ in range(length))
    return GroundTruthTube(video_id, "t", 0, start, boxes)


def test_criterion_01_geometry_matches_lattice_oracle():
    with criterion(1, "geometry oracles"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            a, b = _int_box(rng), _int_box(rng)
            assert iou(a, b) == pytest.approx(lattice_iou(a, b), abs=1e-9)
            ia = FrameInterval(int(rng.integers(0, 30)),
                               int(rng.integers(0, 30) + 31))
            ib = FrameInterval(int(rng.integers(0, 30)),
                               int(rng.integers(0, 30) + 31))
            assert temporal_iou(ia, ib) == pytest.approx(
                interval_iou_sets(ia, ib), abs=1e-9)
            ta, tb = _int_tube(rng), _int_tube(rng)
            assert st_iou(ta, tb) == pytest.approx(
                st_iou_reference(ta, tb), abs=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_nms_matches_exhaustive_suppression():
    with criterion(2, "NMS brute force"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(500):
            count = int(rng.integers(1, 7))
            num_classes = int(rng.integers(1, 4))
            class_index = int(rng.integers(0, num_classes))
            dets = []
            for _ in range(count):
                x0, y0 = rng.uniform(0, 60, size=2)
                w, h = rng.uniform(2, 40, size=2)
                scores = tuple(float(s) for s in
                               rng.uniform(0, 1, size=num_classes))
                dets.append(Detection(0, BoundingBox(
                    float(x0), float(y0), float(x0 + w), float(y0 + h)),
                    scores, Source.STATIC))
            threshold = float(rng.uniform(0.1, 0.7))
            assert nms(dets, class_index, threshold) == \
                nms_reference(dets, class_index, threshold)
        assert time.perf_counter() - start < 5.0


def test_criterion_03_noiseless_pipeline_is_perfect(tmp_path):
    with criterion(3, "perfect-pipeline identity"):
        config = apply_overrides(default_config(), [
            "synth.video_count=20", "synth.frames_per_video=80",
            "synth.num_classes=3", "synth.frame_width=224",
            "synth.frame_height=224"])
        start = time.perf_counter()
        report = run_pipeline(tmp_path, config)
        elapsed = time.perf_counter() - start
        assert report.recall_track == 1.0
        assert report.video_map[0.5] == 1.0
        assert report.frame_map[0.5] == 1.0
        fc = report.false_counts
        assert fc.false_cls == 0
        assert fc.false_bbox == 0
        assert fc.false_neg == 0
        assert elapsed < 10.0


def _label_by_mean_score(tubes):
    out = []
    for tube in tubes:
        mean = np.mean(tube.class_scores, axis=0)
        out.append(replace(tube, label=int(np.argmax(mean)),
                           score=float(np.max(mean))))
    return out


def _track_scenario(speed: float, baseline: bool) -> float:
    scenario = ScenarioConfig(
        seed=4, video_count=9, frames_per_video=40, num_classes=3,
        frame_size=(320, 240), actor_speed=speed, with_footprint=False)
    bundle = generate(scenario)
    tcfg = TrackerConfig(min_prev_overlap=0.0)
    extent = FrameInterval(0, scenario.frames_per_video)
    tubes = []
    for index in range(scenario.video_count):
        vid, proposals = video_id(index), bundle.proposals(index)
        by_frame: dict[int, list[Detection]] = {}
        for det in bundle.detections("static", index):
            by_frame.setdefault(det.frame_index, []).append(det)
        if baseline:
            built = build_tubes_neighborhood(
                vid, by_frame, proposals, extent, tcfg, search_radius=20.0)
        else:
            # the rows as track reads them from matches.atb
            matcher = PrecomputedMatcher({
                frame: list(map(tuple, rows.tolist()))
                for frame, rows in bundle.matches(index).items()})
            built = build_tubes(vid, by_frame, proposals, extent, matcher,
                                tcfg)
        tubes.extend(built)
    return evaluate(_label_by_mean_score(tubes), bundle.all_gt(),
                    EvalConfig(recall_track_sigma=0.5)).recall_track


def test_criterion_04_point_matching_survives_large_displacement():
    with criterion(4, "large displacement"):
        start = time.perf_counter()
        for speed in (10.0, 40.0, 80.0):
            assert _track_scenario(speed, baseline=False) >= 0.99, \
                f"matcher recall dropped at {speed} px/frame"
        assert _track_scenario(80.0, baseline=True) < 0.5, \
            "radius-limited baseline should lose actors at 80 px/frame"
        assert time.perf_counter() - start < 30.0


def test_criterion_05_noise_robustness(tmp_path):
    with criterion(5, "noise robustness"):
        config = apply_overrides(default_config(), [
            "synth.seed=0", "synth.video_count=18",
            "synth.frames_per_video=60", "synth.frame_width=224",
            "synth.frame_height=224", "synth.jitter_sigma=3.0",
            "synth.miss_rate=0.2", "synth.proposal_recall=0.9"])
        first = run_pipeline(tmp_path / "a", config)
        assert first.video_map[0.2] >= 0.9
        sigmas = sorted(first.video_map)
        values = [first.video_map[s] for s in sigmas]
        assert all(hi >= lo for hi, lo in zip(values, values[1:])), \
            f"mAP must not increase with sigma: {values}"
        second = run_pipeline(tmp_path / "b", config)
        assert second.video_map == first.video_map, \
            "re-run drifted; the pipeline must be deterministic"


def test_criterion_06_overlap_pruning_keeps_the_better_label():
    with criterion(6, "overlap pruning"):
        scenario = ScenarioConfig(
            seed=6, video_count=6, frames_per_video=32, num_classes=3,
            frame_size=(224, 224), with_footprint=False)
        bundle = generate(scenario)
        gt_map = {video_id(i): list(gt)
                  for i, gt in enumerate(bundle.gt_tubes)}
        featurizer = SyntheticFeaturizer(scenario, gt_map)

        scored = []
        for index, (gt,) in enumerate(bundle.gt_tubes):
            twin_label = (gt.label + 1) % scenario.num_classes
            for tag, label in (("own", gt.label), ("twin", twin_label)):
                onehot = tuple(1.0 if c == label else 0.0
                               for c in range(scenario.num_classes))
                n = len(gt.boxes)
                tube = Tube(gt.video_id, tag, gt.start, gt.boxes,
                            (onehot,) * n, (Source.TRACKED,) * n)
                intervals = slice_clips(tube.interval(),
                                        scenario.clip_length)
                features = featurizer.clip_features(
                    tube, intervals, bundle.clip_noise(index))
                clips = score_clips(features, bundle.weights, intervals,
                                    scenario.clip_length)
                ts = score_tube(tube, clips, label=label)
                scored.append(replace(tube, label=ts.label, score=ts.score))

        by_video: dict[str, list] = {}
        for tube in scored:
            by_video.setdefault(tube.video_id, []).append(tube)
        for twins in by_video.values():
            assert st_iou(twins[0], twins[1]) > 0.3

        kept = prune_overlapped(scored, 0.3)
        assert len(kept) == scenario.video_count, \
            "exactly one tube must survive per actor"
        for tube in kept:
            twins = by_video[tube.video_id]
            best = max(twins, key=lambda twin: twin.score)
            assert tube.tube_id == best.tube_id, \
                "the survivor must carry the higher trajectory score"
            assert tube.tube_id == "own"
            assert tube.label == gt_map[tube.video_id][0].label


def test_criterion_07_footprint_pruning_removes_drifted_tubes(tmp_path):
    with criterion(7, "footprint pruning"):
        config = apply_overrides(default_config(), [
            "synth.seed=2", "synth.video_count=120",
            "synth.frames_per_video=60", "synth.num_classes=4",
            "synth.frame_width=224", "synth.frame_height=224",
            "synth.drift_rate=0.42"])
        run_synth(tmp_path, config)
        run_fuse(tmp_path, config)
        run_track(tmp_path, config)
        run_score(tmp_path, config)

        injected_total = len(formats.read_tubes(tmp_path / FILE_DRIFT))
        assert injected_total == 50

        scored = formats.read_tubes(tmp_path / FILE_SCORED)
        kept = prune_overlapped(scored, config["prune.st_overlap"])
        fmap = build_footprint_map(
            formats.read_alphas(tmp_path / FILE_ALPHAS),
            cell_layout(config))
        surviving = prune_drifted(kept, fmap, (224.0, 224.0))

        def drifted(tube):
            return tube.tube_id.startswith("drift")

        injected_left = sum(1 for t in surviving if drifted(t))
        removed = injected_total - injected_left
        true_in = sum(1 for t in kept if not drifted(t))
        true_out = sum(1 for t in surviving if not drifted(t))
        assert removed >= 0.9 * injected_total, \
            f"only {removed} of {injected_total} injected tubes removed"
        assert true_in - true_out <= 0.05 * true_in, \
            f"footprint pruning ate {true_in - true_out} true tubes"


def test_criterion_08_recurrent_scorer_matches_matrix_oracle():
    with criterion(8, "recurrent scorer"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            hidden = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 5))
            classes = int(rng.integers(2, 5))
            steps = int(rng.integers(1, 7))
            activation = ("tanh", "relu", "logistic")[int(rng.integers(3))]
            weights = RecurrentScorerWeights(
                w_io=rng.normal(size=(hidden, dim)),
                w_hh=rng.normal(size=(hidden, hidden)) * 0.5,
                b_y=rng.normal(size=hidden),
                w_cls=rng.normal(size=(classes, hidden)),
                b_cls=rng.normal(size=classes),
                activation=activation)
            features = rng.normal(size=(steps, dim))
            got = recurrent_forward(features, weights)
            expected = recurrent_reference(
                features, weights.w_io, weights.w_hh, weights.b_y,
                activation, weights.w_cls, weights.b_cls)
            assert np.allclose(got, expected, atol=1e-9, rtol=0.0)

            memoryless = RecurrentScorerWeights(
                w_io=weights.w_io, w_hh=np.zeros((hidden, hidden)),
                b_y=weights.b_y, w_cls=weights.w_cls, b_cls=weights.b_cls,
                activation=activation)
            chained = recurrent_forward(features, memoryless)
            for t in range(steps):
                alone = recurrent_forward(features[t:t + 1], memoryless)
                assert np.array_equal(chained[t], alone[0]), \
                    "zero recurrence must score clips independently"


def test_criterion_09_fisher_vector_matches_formula_oracle():
    with criterion(9, "Fisher vector"):
        rng = np.random.default_rng(909)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 5))
            count = int(rng.integers(1, 11))
            raw = rng.uniform(0.2, 1.0, size=k)
            gmm = DiagonalGaussianMixture(
                weights=raw / raw.sum(),
                means=rng.normal(size=(k, dim)),
                variances=rng.uniform(0.2, 2.0, size=(k, dim)))
            descriptors = rng.normal(size=(count, dim))
            got = fisher_vector(descriptors, gmm)
            assert got.shape == (2 * k * dim,)
            expected = fisher_reference(descriptors, gmm.weights,
                                        gmm.means, gmm.variances)
            assert np.allclose(got, expected, atol=1e-9, rtol=0.0)


def test_criterion_10_ap_and_auc_match_enumeration():
    with criterion(10, "AP and AUC oracles"):
        for length in range(0, 9):
            for flags in itertools.product((False, True), repeat=length):
                tp = sum(flags)
                for num_gt in range(max(tp, 1), 5):
                    assert average_precision(flags, num_gt) == pytest.approx(
                        ap_reference(list(flags), num_gt), abs=1e-12)
        assert average_precision([True, False], 0) == 0.0

        def auc_sweep_reference(outcomes, num_gt, cap):
            total_fp = sum(1 for o in outcomes if not o.tp)
            if num_gt <= 0 or not outcomes:
                return 0.0
            if total_fp == 0:
                return sum(1 for o in outcomes if o.tp) / num_gt
            points = [(0.0, 0.0)]
            for t in sorted({o.score for o in outcomes}, reverse=True):
                admitted = [o for o in outcomes if o.score >= t]
                points.append(
                    (sum(1 for o in admitted if not o.tp) / total_fp,
                     sum(1 for o in admitted if o.tp) / num_gt))
            area = 0.0
            for (f0, t0), (f1, t1) in zip(points, points[1:]):
                hi = min(f1, cap)
                if hi <= f0:
                    continue
                t_hi = t0 + (t1 - t0) * (hi - f0) / (f1 - f0)
                area += (hi - f0) * (t0 + t_hi) / 2.0
            if points[-1][0] < cap:
                area += (cap - points[-1][0]) * points[-1][1]
            return area / cap

        rng = np.random.default_rng(1010)
        for _ in range(100):
            count = int(rng.integers(1, 13))
            outcomes = [MatchOutcome(0, float(rng.integers(1, 10)) / 10.0,
                                     bool(rng.integers(0, 2)), None)
                        for _ in range(count)]
            tp = sum(1 for o in outcomes if o.tp)
            num_gt = tp + int(rng.integers(0, 4))
            cap = (0.3, 0.6, 1.0)[int(rng.integers(3))]
            assert auc_from_outcomes(outcomes, num_gt, cap) == pytest.approx(
                auc_sweep_reference(outcomes, num_gt, cap), abs=1e-9)

        gt = [GroundTruthTube("v", "g", 0, 0,
                              tuple(BoundingBox(0.0, 0.0, 10.0, 10.0)
                                    for _ in range(4)))]
        boxes = tuple(BoundingBox(0.0, 0.0, 10.0, 10.0) for _ in range(4))
        tubes = [Tube("v", name, 0, boxes, ((1.0,),) * 4,
                      (Source.TRACKED,) * 4, label=0, score=score)
                 for name, score in (("a", 0.9), ("b", 0.4))]
        auc = evaluate(tubes, gt, EvalConfig(iou_thresholds=(0.5,),
                                             fpr_cap=0.6)).auc[0.5]
        result = match_and_label(tubes, gt, 0.5)
        assert auc == pytest.approx(
            auc_sweep_reference(result.outcomes, result.num_gt, 0.6),
            abs=1e-9)


def _clip_tube(values, clip_length, tail, label=0):
    frames = clip_length * (len(values) - 1) + tail
    box = BoundingBox(10.0, 10.0, 30.0, 30.0)
    intervals = []
    for i in range(len(values)):
        start = i * clip_length
        end = min(start + clip_length, frames)
        intervals.append(FrameInterval(start, end))
    clips = ClipScoreSequence(
        clip_length, tuple(intervals),
        tuple((float(v), float(1.0 - v)) for v in values))
    return Tube("v", "t", 0, (box,) * frames, ((1.0, 0.0),) * frames,
                (Source.TRACKED,) * frames, label=label, score=1.0), clips


def test_criterion_11_trimming_is_idempotent_and_monotone():
    with criterion(11, "temporal localization"):
        rng = np.random.default_rng(1111)
        for _ in range(1000):
            clip_length = int(rng.integers(1, 5))
            count = int(rng.integers(1, 7))
            tail = int(rng.integers(1, clip_length + 1))
            values = rng.uniform(0.0, 1.0, size=count)
            tube, clips = _clip_tube(values, clip_length, tail)
            lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))

            once = localize(tube, clips, tau=hi)
            if once is not None:
                kept = [i for i, clip in enumerate(clips.intervals)
                        if clip.start in once.interval()]
                survivors = ClipScoreSequence(
                    clip_length, clips.intervals[kept[0]:kept[-1] + 1],
                    clips.scores[kept[0]:kept[-1] + 1])
                again = localize(once, survivors, tau=hi)
                assert again == once, "trimming twice must change nothing"

            wide = localize(tube, clips, tau=lo)
            if once is not None:
                assert wide is not None, \
                    "a lower threshold cannot remove a surviving tube"
                assert wide.interval().start <= once.interval().start
                assert once.interval().end <= wide.interval().end

        tube, clips = _clip_tube((0.1, 0.5, 0.6, 0.2), 4, 4)
        trimmed = localize(tube, clips, tau=0.3)
        assert trimmed is not None
        assert trimmed.interval() == FrameInterval(4, 12)
        assert trimmed.boxes == tube.boxes[4:12]


def test_criterion_12_throughput_and_determinism(tmp_path):
    with criterion(12, "throughput"):
        config = apply_overrides(default_config(), [
            "synth.video_count=100", "synth.frames_per_video=100"])
        start = time.perf_counter()
        run_pipeline(tmp_path / "a", config)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
        run_pipeline(tmp_path / "b", config)
        for name in (FILE_FINAL, FILE_METRICS):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
