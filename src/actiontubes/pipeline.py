"""File-to-file pipeline stages over one working directory.

Every stage reads its inputs from the directory, transforms them, and
writes its outputs back under fixed names, so running a stage twice on
the same inputs produces byte-identical files.  Per-video work runs in
canonical video order.  Each stage imports the modules it runs inside
its driver, so a stage's process loads only those.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .config import PipelineConfig
from .errors import ConfigError, InputError
from .model import BoundingBox, Detection, FrameInterval, Tube

if TYPE_CHECKING:
    from .evaluation import EvalConfig, EvalReport
    from .footprint import CellLayout
    from .synth import ScenarioConfig
    from .tracker import TrackerConfig

FILE_GT = "gt_tubes.tsv"
FILE_DETECTIONS = {"static": "detections_static.tsv",
                   "flow": "detections_flow.tsv",
                   "early": "detections_early.tsv"}
FILE_FUSED = "detections_fused.tsv"
FILE_PROPOSALS = "proposals.tsv"
FILE_SALIENT = "proposals_salient.tsv"
FILE_MATCHES = "matches.atb"
FILE_FLOW = "flow.atb"
FILE_WEIGHTS = "weights.atb"
FILE_ALPHAS = "alphas.atb"
FILE_DRIFT = "drift_tubes.tsv"
FILE_TRACKED = "tubes_tracked.tsv"
FILE_SCORED = "tubes_scored.tsv"
FILE_CLIP_SCORES = "clip_scores.tsv"
FILE_PRUNED = "tubes_pruned.tsv"
FILE_FINAL = "tubes_final.tsv"
FILE_METRICS = "metrics.tsv"
FILE_REPORT = "report.txt"


def _require(directory: Path, name: str, producer: str) -> Path:
    path = directory / name
    if not path.exists():
        raise InputError(
            f"missing input file {name!r} in {directory}; run the "
            f"{producer!r} command first")
    return path


def _group_by_frame(detections) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for det in detections:
        out.setdefault(det.frame_index, []).append(det)
    return out


# -- bridges from the key registry into the modules' config types ------

def cell_layout(config: PipelineConfig) -> CellLayout:
    from .footprint import CellLayout
    try:
        return CellLayout(cell_size=config["cells.cell_size"],
                          map_side=config["cells.map_side"])
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def scenario_config(config: PipelineConfig) -> ScenarioConfig:
    from .synth import ActorSpec, ScenarioConfig
    actor = ActorSpec(label=0, size=config["synth.actor_size"],
                      motion=config["synth.actor_motion"],
                      speed=config["synth.actor_speed"])
    actors = tuple(
        ActorSpec(label=c, size=actor.size, motion=actor.motion,
                  speed=actor.speed)
        for c in range(config["synth.num_classes"]))
    return ScenarioConfig(
        seed=config["synth.seed"],
        video_count=config["synth.video_count"],
        frames_per_video=config["synth.frames_per_video"],
        frame_size=(config["synth.frame_width"],
                    config["synth.frame_height"]),
        num_classes=config["synth.num_classes"],
        actors=actors,
        actors_per_video=config["synth.actors_per_video"],
        span_fraction=config["synth.span_fraction"],
        jitter_sigma=config["synth.jitter_sigma"],
        miss_rate=config["synth.miss_rate"],
        false_positive_rate=config["synth.false_positive_rate"],
        label_confusion=config["synth.label_confusion"],
        duplicate_label_rate=config["synth.duplicate_label_rate"],
        match_noise=config["synth.match_noise"],
        proposal_recall=config["synth.proposal_recall"],
        near_miss_count=config["synth.near_miss_count"],
        distractor_count=config["synth.distractor_count"],
        drift_rate=config["synth.drift_rate"],
        clip_length=config["clip.length"],
        feature_dim=config["synth.feature_dim"],
        feature_noise=config["synth.feature_noise"],
        feature_margin=config["synth.feature_margin"],
        layout=cell_layout(config),
        gmm_components=config["synth.gmm_components"],
        descriptor_cap=config["synth.descriptor_cap"],
        with_footprint=config["synth.with_footprint"],
        with_flow=config["synth.with_flow"],
        grid_step=config["synth.grid_step"])


def tracker_config(config: PipelineConfig) -> TrackerConfig:
    from .tracker import TrackerConfig
    try:
        return TrackerConfig(
            min_match_ratio=config["track.min_match_ratio"],
            min_prev_overlap=config["track.min_prev_overlap"],
            consume_overlap=config["track.consume_overlap"],
            max_predicted_run=config["track.max_predicted_run"])
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def eval_config(config: PipelineConfig) -> EvalConfig:
    from .evaluation import EvalConfig
    try:
        return EvalConfig(
            iou_thresholds=config["eval.sigmas"],
            recall_track_sigma=config["eval.recall_sigma"],
            taxonomy_sigma=config["eval.taxonomy_sigma"],
            taxonomy_floor=config["eval.taxonomy_floor"],
            fpr_cap=config["eval.fpr_cap"])
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def run_synth(directory: Path, config: PipelineConfig) -> dict:
    """Generate the scenario and write every input artifact."""
    from .synth import generate
    directory.mkdir(parents=True, exist_ok=True)
    scenario = scenario_config(config)
    bundle = generate(scenario)
    formats.write_gt_tubes(directory / FILE_GT, bundle.all_gt())
    for stream, name in FILE_DETECTIONS.items():
        formats.write_detections(
            directory / name,
            {v.video_id: v.detections[stream] for v in bundle.videos})
    formats.write_proposals(directory / FILE_PROPOSALS,
                            {v.video_id: v.proposals for v in bundle.videos})
    matcher = bundle.matcher()
    width, height = scenario.frame_size
    full = BoundingBox(0.0, 0.0, float(width), float(height))

    pairs = {}
    for video in bundle.videos:
        for frame in list(video.extent.frames())[:-1]:
            pairs[(video.video_id, frame)] = matcher.match(
                video.video_id, frame, frame + 1, full)
    formats.write_matches(directory / FILE_MATCHES, pairs)
    formats.write_weights(directory / FILE_WEIGHTS, bundle.weights)
    if bundle.alphas is not None:
        formats.write_alphas(directory / FILE_ALPHAS, bundle.alphas)
    if scenario.with_flow:
        formats.write_flow(directory / FILE_FLOW,
                           {v.video_id: v.flow for v in bundle.videos})
    drift = [t for tubes in bundle.drift_tubes.values() for t in tubes]
    if drift:
        formats.write_tubes(directory / FILE_DRIFT, drift)
    return {"videos": len(bundle.videos),
            "gt_tubes": len(bundle.all_gt()),
            "drift_tubes": len(drift)}


def run_fuse(directory: Path, config: PipelineConfig) -> dict:
    """Combine the detection streams; prune static proposals by flow."""
    from .fusion import late_fuse, merge_early_late, saliency_prune
    streams = {
        stream: formats.read_detections(
            _require(directory, name, "synth"))
        for stream, name in FILE_DETECTIONS.items()}
    video_ids = sorted(set().union(*[set(s) for s in streams.values()]))
    overlap = config["fuse.nms_overlap"]
    enabled = config["fuse.enabled"]

    def fuse_one(video_id):
        by_frame = {stream: _group_by_frame(streams[stream].get(video_id, []))
                    for stream in streams}
        frames = sorted(set().union(*[set(b) for b in by_frame.values()]))
        out = []
        for frame in frames:
            static = by_frame["static"].get(frame, [])
            flow = by_frame["flow"].get(frame, [])
            early = by_frame["early"].get(frame, [])
            if not enabled:
                out.extend([*static, *flow, *early])
                continue
            late = late_fuse(static, flow, overlap)
            out.extend(merge_early_late(early, late, overlap))
        return out

    fused = {video_id: fuse_one(video_id) for video_id in video_ids}
    formats.write_detections(directory / FILE_FUSED, fused)
    result = {"videos": len(video_ids),
              "detections": sum(len(d) for d in fused.values())}
    flow_path = directory / FILE_FLOW
    if enabled and flow_path.exists():
        proposals = formats.read_proposals(
            _require(directory, FILE_PROPOSALS, "synth"))
        grids = formats.read_flow(flow_path)
        threshold = config["fuse.min_mean_magnitude"]

        def prune_one(video_id):
            frames = proposals.get(video_id, {})
            video_grids = grids.get(video_id, {})
            out = {}
            for frame, props in frames.items():
                grid = video_grids.get(frame)
                if grid is None:
                    out[frame] = props
                else:
                    out[frame] = tuple(saliency_prune(props, grid, threshold))
            return out

        salient = {video_id: prune_one(video_id)
                   for video_id in sorted(proposals)}
        formats.write_proposals(directory / FILE_SALIENT, salient)
        result["salient_proposals"] = sum(
            len(p) for frames in salient.values() for p in frames.values())
    return result


def run_track(directory: Path, config: PipelineConfig) -> dict:
    """Grow tubes from the fused detections, one pass per video."""
    from .synth import SyntheticRegionScorer
    from .tracker import (PrecomputedMatcher, build_tubes,
                          build_tubes_neighborhood)
    detections = formats.read_detections(
        _require(directory, FILE_FUSED, "fuse"))
    salient_path = directory / FILE_SALIENT
    if salient_path.exists():
        proposals = formats.read_proposals(salient_path)
    else:
        proposals = formats.read_proposals(
            _require(directory, FILE_PROPOSALS, "synth"))
    ground_truth = formats.read_gt_tubes(
        _require(directory, FILE_GT, "synth"))
    scenario = scenario_config(config)
    gt_map: dict[str, list] = {}
    for gt in ground_truth:
        gt_map.setdefault(gt.video_id, []).append(gt)
    scorer = SyntheticRegionScorer(scenario, gt_map)
    tcfg = tracker_config(config)
    baseline = config["track.baseline"]
    matcher = None
    if not baseline:
        matcher = PrecomputedMatcher(formats.read_matches(
            _require(directory, FILE_MATCHES, "synth")))

    def track_one(video_id):
        by_frame = _group_by_frame(detections.get(video_id, []))
        if not by_frame:
            return []
        frames = set(by_frame) | set(proposals.get(video_id, {}))
        extent = FrameInterval(min(frames), max(frames) + 1)
        props = proposals.get(video_id, {})
        if baseline:
            return build_tubes_neighborhood(
                video_id, by_frame, props, extent, scorer, tcfg,
                search_radius=config["track.search_radius"])
        return build_tubes(video_id, by_frame, props, extent, matcher,
                           scorer, tcfg)

    video_ids = sorted(detections)
    tubes = [tube for video_id in video_ids for tube in track_one(video_id)]
    formats.write_tubes(directory / FILE_TRACKED, tubes)
    return {"videos": len(video_ids), "tubes": len(tubes)}


def run_score(directory: Path, config: PipelineConfig) -> dict:
    """Label each tube from its clip features; injected tubes join here."""
    from .scoring import score_clips, score_tube, slice_clips
    from .synth import SyntheticFeaturizer
    tubes = formats.read_tubes(_require(directory, FILE_TRACKED, "track"))
    drift_path = directory / FILE_DRIFT
    if drift_path.exists():
        tubes = tubes + formats.read_tubes(drift_path)
    weights = formats.read_weights(
        _require(directory, FILE_WEIGHTS, "synth"))
    ground_truth = formats.read_gt_tubes(
        _require(directory, FILE_GT, "synth"))
    scenario = scenario_config(config)
    gt_map: dict[str, list] = {}
    for gt in ground_truth:
        gt_map.setdefault(gt.video_id, []).append(gt)
    indices = {video_id: i for i, video_id in enumerate(sorted(gt_map))}
    featurizer = SyntheticFeaturizer(scenario, gt_map, indices)
    clip_length = config["clip.length"]

    by_video: dict[str, list[Tube]] = {}
    for tube in tubes:
        by_video.setdefault(tube.video_id, []).append(tube)

    def score_one(video_id):
        out = []
        for tube in by_video[video_id]:
            intervals = slice_clips(tube.interval(), clip_length)
            features = featurizer.clip_features(
                video_id, {e.frame_index: e.box for e in tube.entries},
                intervals)
            clips = score_clips(features, weights, intervals, clip_length)
            ts = score_tube(tube, clips, label=tube.label)
            out.append((tube.with_label(ts.label, ts.score), clips))
        return out

    scored = [pair for video_id in sorted(by_video)
              for pair in score_one(video_id)]
    labeled = [tube for tube, _ in scored]
    clip_map = {(tube.video_id, tube.tube_id): clips
                for tube, clips in scored}
    formats.write_tubes(directory / FILE_SCORED, labeled)
    formats.write_clip_scores(directory / FILE_CLIP_SCORES, clip_map)
    return {"tubes": len(labeled)}


def run_prune(directory: Path, config: PipelineConfig) -> dict:
    """Drop overlap duplicates, then tubes off their class footprint."""
    from .footprint import build_footprint_map, prune_drifted
    from .scoring import prune_overlapped, require_scored
    tubes = formats.read_tubes(_require(directory, FILE_SCORED, "score"))
    for tube in tubes:
        require_scored(tube)
    removed_overlap = removed_footprint = 0
    if config["prune.enabled"]:
        kept = prune_overlapped(tubes, config["prune.st_overlap"])
        removed_overlap = len(tubes) - len(kept)
        tubes = kept
    alphas_path = directory / FILE_ALPHAS
    if config["prune.footprint"] and alphas_path.exists():
        fmap = build_footprint_map(formats.read_alphas(alphas_path),
                                   cell_layout(config))
        frame_size = (float(config["synth.frame_width"]),
                      float(config["synth.frame_height"]))
        kept = prune_drifted(tubes, fmap, frame_size)
        removed_footprint = len(tubes) - len(kept)
        tubes = kept
    formats.write_tubes(directory / FILE_PRUNED, tubes)
    return {"tubes": len(tubes), "removed_overlap": removed_overlap,
            "removed_footprint": removed_footprint}


def run_localize(directory: Path, config: PipelineConfig) -> dict:
    """Trim each tube to its confident clip span."""
    from .temporal import localize
    tubes = formats.read_tubes(_require(directory, FILE_PRUNED, "prune"))
    if not config["localize.enabled"]:
        formats.write_tubes(directory / FILE_FINAL, tubes)
        return {"tubes": len(tubes), "removed": 0}
    clip_map = formats.read_clip_scores(
        _require(directory, FILE_CLIP_SCORES, "score"))
    tau = config["localize.tau"]
    out = []
    for tube in tubes:
        clips = clip_map.get((tube.video_id, tube.tube_id))
        if clips is None:
            raise InputError(
                f"no clip scores for tube {tube.tube_id!r} in "
                f"{tube.video_id!r}; rerun the 'score' command")
        result = localize(tube, clips, tau=tau)
        if result is not None:
            out.append(result)
    formats.write_tubes(directory / FILE_FINAL, out)
    return {"tubes": len(out), "removed": len(tubes) - len(out)}


def _metric_rows(report: EvalReport, config: PipelineConfig) -> list[tuple]:
    rows = []
    for sigma in report.sigmas:
        s = repr(float(sigma))
        for label, ap in report.video_ap[sigma].items():
            rows.append(("ap", "video", s, str(label), repr(float(ap))))
        for label, ap in report.frame_ap[sigma].items():
            rows.append(("ap", "frame", s, str(label), repr(float(ap))))
        rows.append(("map", "video", s, "-",
                     repr(float(report.video_map[sigma]))))
        rows.append(("map", "frame", s, "-",
                     repr(float(report.frame_map[sigma]))))
        rows.append(("auc", "video", s, "-",
                     repr(float(report.auc[sigma]))))
    rows.append(("recall_track", "video",
                 repr(float(config["eval.recall_sigma"])), "-",
                 repr(float(report.recall_track))))
    taxonomy_sigma = repr(float(config["eval.taxonomy_sigma"]))
    fc = report.false_counts
    for name, value in (("false_cls", fc.false_cls),
                        ("false_bbox", fc.false_bbox),
                        ("false_neg", fc.false_neg),
                        ("true_positives", fc.true_positives)):
        rows.append((name, "frame", taxonomy_sigma, "-", str(value)))
    return rows


def run_evaluate(directory: Path, config: PipelineConfig) -> EvalReport:
    """Score the final tubes against the ground truth and write reports."""
    from .evaluation import evaluate
    tubes = formats.read_tubes(_require(directory, FILE_FINAL, "localize"))
    ground_truth = formats.read_gt_tubes(
        _require(directory, FILE_GT, "synth"))
    report = evaluate(tubes, ground_truth, eval_config(config))
    formats.write_metrics(directory / FILE_METRICS,
                          _metric_rows(report, config))
    with formats.atomic_open(directory / FILE_REPORT, "w", encoding="utf-8",
                             newline="\n") as fh:
        fh.write(report.to_text() + "\n")
    return report


STAGES = {
    "synth": run_synth,
    "fuse": run_fuse,
    "track": run_track,
    "score": run_score,
    "prune": run_prune,
    "localize": run_localize,
    "evaluate": run_evaluate,
}

PIPELINE_ORDER = ("synth", "fuse", "track", "score", "prune", "localize",
                  "evaluate")


def run_pipeline(directory: Path, config: PipelineConfig) -> EvalReport:
    """All stages in order on one directory; returns the final report."""
    result = None
    for stage in PIPELINE_ORDER:
        result = STAGES[stage](directory, config)
    return result
