"""File-to-file pipeline stages over one working directory.

Every stage reads its inputs from the directory, transforms them, and
writes its outputs back under fixed names, so running a stage twice on
the same inputs produces byte-identical files.  Per-video stages read
each input, record file or array container, through a reader of one
video at a time (``formats.VideoRecords``, ``formats.VideoArrays``) and
work through the union of their videos in ascending id order.  Each
stage imports the modules it runs inside its driver, so a stage's
process loads only those.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .config import PipelineConfig
from .errors import ConfigError, InputError, SchemaError
from .model import Detection, FrameInterval

if TYPE_CHECKING:
    from .evaluation import EvalConfig, EvalReport
    from .scenario import CellLayout, ScenarioConfig
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
FILE_CLIP_NOISE = "clip_noise.atb"
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

def _section(config: PipelineConfig, cls, section: str, **given):
    """A ``cls`` whose init fields come from keys ``<section>.<field>``,
    apart from those ``given``; its ``InputError`` is a ``ConfigError``."""
    values = {f.name: config[f"{section}.{f.name}"] for f in fields(cls)
              if f.init and f.name not in given}
    try:
        return cls(**values, **given)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def cell_layout(config: PipelineConfig) -> CellLayout:
    from .scenario import CellLayout
    return _section(config, CellLayout, "cells")


def scenario_config(config: PipelineConfig) -> ScenarioConfig:
    from .scenario import ScenarioConfig
    return _section(
        config, ScenarioConfig, "synth",
        frame_size=(config["synth.frame_width"],
                    config["synth.frame_height"]),
        clip_length=config["clip.length"], layout=cell_layout(config))


def tracker_config(config: PipelineConfig) -> TrackerConfig:
    from .tracker import TrackerConfig
    return _section(config, TrackerConfig, "track")


def eval_config(config: PipelineConfig) -> EvalConfig:
    from .evaluation import EvalConfig
    return _section(config, EvalConfig, "eval",
                    iou_thresholds=config["eval.sigmas"],
                    recall_track_sigma=config["eval.recall_sigma"])


def run_synth(directory: Path, config: PipelineConfig) -> dict:
    """Generate the scenario and write every input artifact.

    What spans videos (ground truth, weights, footprint statistics,
    drift tubes) is made before any file is written, so a scenario that
    cannot be made writes nothing.  Every other file is written from a
    generator that makes one video's records for it as the writer takes
    them, in video-id order, so the stage holds one video's records.
    """
    from .synth import generate, video_id, video_order
    directory.mkdir(parents=True, exist_ok=True)
    scenario = scenario_config(config)
    bundle = generate(scenario)
    order = video_order(scenario.video_count)

    def each_video(make):
        return ((video_id(index), make(index)) for index in order)

    formats.write_gt_tubes(directory / FILE_GT,
                           each_video(bundle.gt_tubes.__getitem__))
    for stream, name in FILE_DETECTIONS.items():
        formats.write_detections(directory / name,
                                 each_video(partial(bundle.detections,
                                                    stream)))
    formats.write_proposals(directory / FILE_PROPOSALS,
                            each_video(bundle.proposals))
    formats.write_matches(directory / FILE_MATCHES,
                          each_video(bundle.matches))
    formats.write_weights(directory / FILE_WEIGHTS, bundle.weights)
    formats.write_clip_noise(directory / FILE_CLIP_NOISE,
                             each_video(bundle.clip_noise))
    # an optional artifact this run does not write is removed, so a later
    # stage never reads one left by an earlier run
    if bundle.alphas is not None:
        formats.write_alphas(directory / FILE_ALPHAS, bundle.alphas)
    else:
        (directory / FILE_ALPHAS).unlink(missing_ok=True)
    if scenario.with_flow:
        # grids are made as they are written, in array-name order
        formats.write_flow(directory / FILE_FLOW, each_video(bundle.flow))
    else:
        (directory / FILE_FLOW).unlink(missing_ok=True)
    drift = sorted((video_id, tubes)
                   for video_id, tubes in bundle.drift_tubes.items() if tubes)
    if drift:
        formats.write_tubes(directory / FILE_DRIFT, drift)
    else:
        (directory / FILE_DRIFT).unlink(missing_ok=True)
    return {"videos": scenario.video_count,
            "gt_tubes": len(bundle.all_gt()),
            "drift_tubes": sum(len(tubes) for _, tubes in drift)}


def _video_ids(*readers) -> list[str]:
    """Every video any of ``readers`` holds (``None`` holds none),
    ascending: a record file's or an array container's, so an array of a
    video no record file names is still read and checked."""
    return sorted(set().union(*(r.video_ids for r in readers if r)))


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
            flow = formats.VideoArrays(flow_path, "flow")
            threshold = config["fuse.min_mean_magnitude"]
            write_salient = outputs.enter_context(
                formats.record_writer(directory / FILE_SALIENT, "proposals"))
            result["salient_proposals"] = 0
            for video_id in _video_ids(proposals, flow):
                # each grid prunes its frame as it is read and is then
                # dropped; frames without a grid keep their proposals
                frames = dict(proposals.read(video_id))
                for grid in flow.read(video_id):
                    props = frames.get(grid.frame_index)
                    if props is not None:
                        frames[grid.frame_index] = tuple(
                            saliency_prune(props, grid, threshold))
                write_salient(video_id, frames)
                result["salient_proposals"] += sum(map(len, frames.values()))
        else:
            # track reads salient proposals whenever they exist
            (directory / FILE_SALIENT).unlink(missing_ok=True)
    return result


def run_track(directory: Path, config: PipelineConfig) -> dict:
    """Grow tubes from the fused detections, one pass per video.

    Each proposal carries its class scores, so no ground truth is read;
    a video whose detections and proposals carry different class counts
    is rejected, naming both files.
    """
    from .tracker import (PrecomputedMatcher, build_tubes,
                          build_tubes_neighborhood, check_class_counts)
    detections = formats.VideoRecords(
        _require(directory, FILE_FUSED, "fuse"), "detections")
    salient_path = directory / FILE_SALIENT
    proposals = formats.VideoRecords(
        salient_path if salient_path.exists()
        else _require(directory, FILE_PROPOSALS, "synth"), "proposals")
    names = (detections.path.name, proposals.path.name)
    tcfg = tracker_config(config)
    baseline = config["track.baseline"]
    matches = None if baseline else formats.VideoArrays(
        _require(directory, FILE_MATCHES, "synth"), "matches")

    def track_one(video_id):
        # read first, so a video without detections has its matches checked
        pairs = matches.read(video_id) if matches else None
        props = proposals.read(video_id)
        by_frame = _group_by_frame(detections.read(video_id))
        check_class_counts(video_id, by_frame, props, names)
        if not by_frame:
            return []
        frames = set(by_frame) | set(props)
        extent = FrameInterval(min(frames), max(frames) + 1)
        if baseline:
            return build_tubes_neighborhood(
                video_id, by_frame, props, extent, tcfg,
                search_radius=config["track.search_radius"])
        return build_tubes(video_id, by_frame, props, extent,
                           PrecomputedMatcher(pairs), tcfg)

    count = 0
    with formats.record_writer(directory / FILE_TRACKED, "tubes") as write:
        for video_id in _video_ids(detections, proposals, matches):
            tubes = track_one(video_id)
            write(video_id, tubes)
            count += len(tubes)
    return {"videos": len(detections.video_ids), "tubes": count}


def run_score(directory: Path, config: PipelineConfig) -> dict:
    """Label each tube from its clip features; injected tubes join here.

    The clip noise comes from synth's ``clip_noise.atb``, one table per
    video, so the scores do not depend on this stage's seed.
    """
    from .scoring import score_clips, score_tube, slice_clips
    from .scenario import SyntheticFeaturizer
    tracked = formats.VideoRecords(
        _require(directory, FILE_TRACKED, "track"), "tubes")
    drift_path = directory / FILE_DRIFT
    drift = formats.VideoRecords(drift_path, "tubes") \
        if drift_path.exists() else None
    weights = formats.read_weights(
        _require(directory, FILE_WEIGHTS, "synth"))
    truth = formats.VideoRecords(_require(directory, FILE_GT, "synth"),
                                 "gttubes")
    noise = formats.VideoArrays(
        _require(directory, FILE_CLIP_NOISE, "synth"), "clip_noise")
    scenario = scenario_config(config)
    shape = (scenario.frames_per_video, scenario.feature_dim)
    clip_length = config["clip.length"]

    count = 0
    with formats.record_writer(directory / FILE_SCORED, "tubes") as \
            write_tubes, formats.record_writer(
                directory / FILE_CLIP_SCORES, "clipscores") as write_clips:
        for video_id in _video_ids(tracked, drift, truth, noise):
            table = noise.read(video_id, shape)
            featurizer = SyntheticFeaturizer(
                scenario, {video_id: truth.read(video_id)})
            tubes = tracked.read(video_id) + (
                drift.read(video_id) if drift else [])
            if tubes and table is None:
                raise SchemaError(f"no clip noise for video {video_id!r}",
                                  path=str(noise.path))
            labeled, clip_map = [], {}
            for tube in tubes:
                intervals = slice_clips(tube.interval(), clip_length)
                features = featurizer.clip_features(tube, intervals, table)
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
    from .geometry import prune_overlapped
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
        from .footprint import (build_footprint_map, prune_drifted,
                                uniform_classes)
        fmap = build_footprint_map(formats.read_alphas(alphas_path),
                                   cell_layout(config))
        frame_size = (float(config["synth.frame_width"]),
                      float(config["synth.frame_height"]))
        stats["removed_footprint"] = 0
        # a class whose map is the same in every cell is not pruned on
        # evidence, so the stats line names it
        stats["footprint_uniform"] = ",".join(
            map(str, uniform_classes(fmap))) or "none"
    count = 0
    with formats.record_writer(directory / FILE_PRUNED, "tubes") as write:
        for video_id, tubes in scored:
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
        _require(directory, FILE_CLIP_SCORES, "score"), "clipscores")
    tau = config["localize.tau"]
    kept = removed = 0
    with formats.record_writer(directory / FILE_FINAL, "tubes") as write:
        for video_id in _video_ids(pruned, clip_scores):
            tubes = pruned.read(video_id)
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
