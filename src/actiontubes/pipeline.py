"""File-to-file pipeline stages over one working directory.

Every stage reads its inputs from the directory, transforms them, and
writes its outputs back under fixed names, so running a stage twice on
the same inputs produces byte-identical files.  Per-video work runs in
canonical video order.  Each stage imports the modules it runs inside
its driver, so a stage's process loads only those.
"""

from __future__ import annotations

from contextlib import ExitStack
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .config import PipelineConfig
from .errors import ConfigError, InputError
from .model import BoundingBox, Detection, FrameInterval

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
    from .synth import generate, video_flow
    directory.mkdir(parents=True, exist_ok=True)
    scenario = scenario_config(config)
    bundle = generate(scenario)
    videos = sorted(bundle.videos, key=lambda v: v.video_id)
    formats.write_gt_tubes(directory / FILE_GT,
                           [(v.video_id, v.gt_tubes) for v in videos])
    for stream, name in FILE_DETECTIONS.items():
        formats.write_detections(
            directory / name,
            [(v.video_id, v.detections[stream]) for v in videos])
    formats.write_proposals(directory / FILE_PROPOSALS,
                            [(v.video_id, v.proposals) for v in videos])
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
    # an optional artifact this run does not write is removed, so a later
    # stage never reads one left by an earlier run
    if bundle.alphas is not None:
        formats.write_alphas(directory / FILE_ALPHAS, bundle.alphas)
    else:
        (directory / FILE_ALPHAS).unlink(missing_ok=True)
    if scenario.with_flow:
        # grids are made as they are written, in array-name order
        order = sorted(enumerate(bundle.videos), key=lambda p: p[1].video_id)
        formats.write_flow(directory / FILE_FLOW, (
            (video.video_id, grid) for index, video in order
            for grid in video_flow(scenario, index, video.gt_tubes)))
    else:
        (directory / FILE_FLOW).unlink(missing_ok=True)
    drift = sorted((video_id, tubes)
                   for video_id, tubes in bundle.drift_tubes.items() if tubes)
    if drift:
        formats.write_tubes(directory / FILE_DRIFT, drift)
    else:
        (directory / FILE_DRIFT).unlink(missing_ok=True)
    return {"videos": len(bundle.videos),
            "gt_tubes": len(bundle.all_gt()),
            "drift_tubes": sum(len(tubes) for _, tubes in drift)}


def _video_ids(*readers) -> list[str]:
    """Every video any of ``readers`` holds (``None`` holds none),
    ascending."""
    return sorted(set().union(*(r.video_ids for r in readers if r)))


def _in_video_order(video_ids: list[str], chunks, process):
    """``(video_id, process(video_id, chunk))`` for each of ``video_ids``.

    ``video_ids`` ascend.  ``chunks`` are an array container's
    ``(video_id, chunk)`` pairs, in its name order, where ``<video_id>/``
    sorts: ascending ids, unless one id extends another by ``-`` or
    ``.``.  Each chunk is processed as it is reached, and one of a video
    not in ``video_ids`` is passed over; a video without a chunk is
    processed with ``None`` once the container has gone past it.  A
    result reached before its turn is held until then, so with ids in
    the same order in both one result is held at a time.
    """
    wanted = set(video_ids)
    held = {}
    turn = 0

    def due(passed):
        nonlocal turn
        while turn < len(video_ids) and (video_ids[turn] in held
                                         or passed(video_ids[turn])):
            video_id = video_ids[turn]
            turn += 1
            yield video_id, (held.pop(video_id) if video_id in held
                             else process(video_id, None))

    for video_id, chunk in chunks:
        if video_id in wanted:
            held[video_id] = process(video_id, chunk)
        yield from due(lambda other: other + "/" < video_id + "/")
    yield from due(lambda other: True)


def run_fuse(directory: Path, config: PipelineConfig) -> dict:
    """Combine the detection streams; prune static proposals by flow."""
    from .fusion import late_fuse, merge_early_late, saliency_prune
    streams = [formats.VideoRecords(_require(directory, name, "synth"),
                                    "detections")
               for name in FILE_DETECTIONS.values()]
    overlap = config["fuse.nms_overlap"]
    enabled = config["fuse.enabled"]

    def fuse_one(video_id):
        by_frame = [_group_by_frame(s.read(video_id)) for s in streams]
        out = []
        for frame in sorted(set().union(*by_frame)):
            static, flow, early = (b.get(frame, []) for b in by_frame)
            if not enabled:
                out.extend([*static, *flow, *early])
                continue
            late = late_fuse(static, flow, overlap)
            out.extend(merge_early_late(early, late, overlap))
        return out

    video_ids = _video_ids(*streams)
    result = {"videos": len(video_ids), "detections": 0}
    flow_path = directory / FILE_FLOW
    # both outputs appear only once every input has been read through
    with ExitStack() as outputs:
        write_fused = outputs.enter_context(
            formats.record_writer(directory / FILE_FUSED, "detections"))
        for video_id in video_ids:
            fused = fuse_one(video_id)
            write_fused(video_id, fused)
            result["detections"] += len(fused)
        if enabled and flow_path.exists():
            proposals = formats.VideoRecords(
                _require(directory, FILE_PROPOSALS, "synth"), "proposals")
            threshold = config["fuse.min_mean_magnitude"]

            def prune(video_id, grids):
                # each grid prunes its frame as it is read and is then
                # dropped; frames without a grid keep their proposals
                frames = dict(proposals.read(video_id))
                for _, grid in grids or ():
                    props = frames.get(grid.frame_index)
                    if props is not None:
                        frames[grid.frame_index] = tuple(
                            saliency_prune(props, grid, threshold))
                return frames

            write_salient = outputs.enter_context(
                formats.record_writer(directory / FILE_SALIENT, "proposals"))
            result["salient_proposals"] = 0
            grids = groupby(formats.read_flow(flow_path), key=itemgetter(0))
            for video_id, frames in _in_video_order(proposals.video_ids,
                                                    grids, prune):
                write_salient(video_id, frames)
                result["salient_proposals"] += sum(map(len, frames.values()))
        else:
            # track reads salient proposals whenever they exist
            (directory / FILE_SALIENT).unlink(missing_ok=True)
    return result


def run_track(directory: Path, config: PipelineConfig) -> dict:
    """Grow tubes from the fused detections, one pass per video."""
    from .synth import SyntheticRegionScorer
    from .tracker import (PrecomputedMatcher, build_tubes,
                          build_tubes_neighborhood)
    detections = formats.VideoRecords(
        _require(directory, FILE_FUSED, "fuse"), "detections")
    salient_path = directory / FILE_SALIENT
    proposals = formats.VideoRecords(
        salient_path if salient_path.exists()
        else _require(directory, FILE_PROPOSALS, "synth"), "proposals")
    truth = formats.VideoRecords(_require(directory, FILE_GT, "synth"),
                                 "gttubes")
    scenario = scenario_config(config)
    tcfg = tracker_config(config)
    baseline = config["track.baseline"]
    matches = () if baseline else formats.matches_by_video(
        _require(directory, FILE_MATCHES, "synth"))

    def track_one(video_id, pairs):
        ground_truth = truth.read(video_id)
        props = proposals.read(video_id)
        by_frame = _group_by_frame(detections.read(video_id))
        if not by_frame:
            return []
        scorer = SyntheticRegionScorer(
            scenario, {video_id: ground_truth} if ground_truth else {})
        frames = set(by_frame) | set(props)
        extent = FrameInterval(min(frames), max(frames) + 1)
        if baseline:
            return build_tubes_neighborhood(
                video_id, by_frame, props, extent, scorer, tcfg,
                search_radius=config["track.search_radius"])
        return build_tubes(video_id, by_frame, props, extent,
                           PrecomputedMatcher(pairs or {}), scorer, tcfg)

    count = 0
    with formats.record_writer(directory / FILE_TRACKED, "tubes") as write:
        for video_id, tubes in _in_video_order(
                _video_ids(detections, proposals, truth), matches,
                track_one):
            write(video_id, tubes)
            count += len(tubes)
    return {"videos": len(detections.video_ids), "tubes": count}


def run_score(directory: Path, config: PipelineConfig) -> dict:
    """Label each tube from its clip features; injected tubes join here."""
    from .scoring import score_clips, score_tube, slice_clips
    from .synth import SyntheticFeaturizer
    tracked = formats.VideoRecords(
        _require(directory, FILE_TRACKED, "track"), "tubes")
    drift_path = directory / FILE_DRIFT
    drift = formats.VideoRecords(drift_path, "tubes") \
        if drift_path.exists() else None
    weights = formats.read_weights(
        _require(directory, FILE_WEIGHTS, "synth"))
    truth = formats.VideoRecords(_require(directory, FILE_GT, "synth"),
                                 "gttubes")
    scenario = scenario_config(config)
    indices = {video_id: i for i, video_id in enumerate(truth.video_ids)}
    clip_length = config["clip.length"]

    count = 0
    with formats.record_writer(directory / FILE_SCORED, "tubes") as \
            write_tubes, formats.record_writer(
                directory / FILE_CLIP_SCORES, "clipscores") as write_clips:
        for video_id in _video_ids(tracked, drift, truth):
            featurizer = SyntheticFeaturizer(
                scenario, {video_id: truth.read(video_id)}, indices)
            labeled, clip_map = [], {}
            for tube in tracked.read(video_id) + (
                    drift.read(video_id) if drift else []):
                intervals = slice_clips(tube.interval(), clip_length)
                features = featurizer.clip_features(tube, intervals)
                clips = score_clips(features, weights, intervals,
                                    clip_length)
                ts = score_tube(tube, clips, label=tube.label)
                labeled.append(tube.labeled(ts.label, ts.score))
                clip_map[(video_id, tube.tube_id)] = clips
            write_tubes(video_id, labeled)
            write_clips(video_id, clip_map)
            count += len(labeled)
    return {"tubes": count}


def run_prune(directory: Path, config: PipelineConfig) -> dict:
    """Drop overlap duplicates, then tubes off their class footprint."""
    from .footprint import build_footprint_map, prune_drifted
    from .scoring import prune_overlapped, require_scored
    scored = formats.VideoRecords(
        _require(directory, FILE_SCORED, "score"), "tubes")
    stats = {"removed_overlap": 0}
    # a footprint prune that did not run says why, so it never reads as
    # one that ran and kept every tube
    alphas_path = directory / FILE_ALPHAS
    fmap = None
    if not config["prune.footprint"]:
        stats["footprint"] = "skipped:disabled"
    elif not alphas_path.exists():
        stats["footprint"] = "skipped:no-alphas"
    else:
        fmap = build_footprint_map(formats.read_alphas(alphas_path),
                                   cell_layout(config))
        frame_size = (float(config["synth.frame_width"]),
                      float(config["synth.frame_height"]))
        stats["removed_footprint"] = 0
    count = 0
    with formats.record_writer(directory / FILE_PRUNED, "tubes") as write:
        for video_id, tubes in scored:
            for tube in tubes:
                require_scored(tube)
            if config["prune.enabled"]:
                kept = prune_overlapped(tubes, config["prune.st_overlap"])
                stats["removed_overlap"] += len(tubes) - len(kept)
                tubes = kept
            if fmap is not None:
                kept = prune_drifted(tubes, fmap, frame_size)
                stats["removed_footprint"] += len(tubes) - len(kept)
                tubes = kept
            write(video_id, tubes)
            count += len(tubes)
    return {"tubes": count, **stats}


def run_localize(directory: Path, config: PipelineConfig) -> dict:
    """Trim each tube to its confident clip span."""
    from .temporal import localize
    pruned = formats.VideoRecords(
        _require(directory, FILE_PRUNED, "prune"), "tubes")
    clip_scores = formats.VideoRecords(
        _require(directory, FILE_CLIP_SCORES, "score"), "clipscores") \
        if config["localize.enabled"] else None
    tau = config["localize.tau"]
    kept = removed = 0
    with formats.record_writer(directory / FILE_FINAL, "tubes") as write:
        for video_id in _video_ids(pruned, clip_scores):
            tubes = pruned.read(video_id)
            out = tubes
            if clip_scores is not None:
                clip_map = clip_scores.read(video_id)
                out = []
                for tube in tubes:
                    clips = clip_map.get((video_id, tube.tube_id))
                    if clips is None:
                        raise InputError(
                            f"no clip scores for tube {tube.tube_id!r} in "
                            f"{video_id!r}; rerun the 'score' command")
                    result = localize(tube, clips, tau=tau)
                    if result is not None:
                        out.append(result)
            write(video_id, out)
            kept += len(out)
            removed += len(tubes) - len(out)
    return {"tubes": kept, "removed": removed}


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
