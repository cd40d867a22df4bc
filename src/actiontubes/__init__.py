"""Detector-agnostic construction, scoring and evaluation of action tubes.

The package turns per-frame action-region detections into scored,
pruned, temporally trimmed spatio-temporal tubes.  The most used names
are re-exported here; the full surface lives in the topic modules
(geometry, fusion, tracker, scoring, footprint, temporal, evaluation,
synth, formats, pipeline, cli).
"""

from .config import (PipelineConfig, apply_overrides, default_config,
                     load_config)
from .errors import (ActionTubesError, ConfigError, InputError,
                     ProcessingError, SchemaError, ScorerError)
from .evaluation import (EvalConfig, EvalReport, FalseCounts,
                         average_precision, evaluate, recall_track)
from .footprint import (CellLayout, DiagonalGaussianMixture, FootprintMap,
                        build_footprint_map, fisher_vector, fit_gmm,
                        prune_drifted)
from .fusion import FlowMagnitudeGrid, late_fuse, merge_early_late
from .geometry import iou, nms, st_iou, temporal_iou
from .model import (BoundingBox, ClipScoreSequence, Detection, FrameInterval,
                    GroundTruthTube, Proposal, Source, Tube)
from .pipeline import PIPELINE_ORDER, STAGES, run_pipeline
from .scoring import (RecurrentScorerWeights, TubeScore, prune_overlapped,
                      recurrent_forward, score_clips, score_tube,
                      slice_clips)
from .synth import ActorSpec, ScenarioConfig, generate, inject_drift
from .temporal import localize
from .tracker import (PrecomputedMatcher, TrackerConfig, build_tubes,
                      build_tubes_neighborhood)

__version__ = "0.1.0"

__all__ = [
    "ActionTubesError", "ActorSpec", "BoundingBox", "CellLayout",
    "ClipScoreSequence", "ConfigError", "Detection",
    "DiagonalGaussianMixture", "EvalConfig", "EvalReport", "FalseCounts",
    "FlowMagnitudeGrid", "FootprintMap", "FrameInterval", "GroundTruthTube",
    "InputError", "PIPELINE_ORDER", "PipelineConfig", "PrecomputedMatcher",
    "ProcessingError", "Proposal",
    "RecurrentScorerWeights", "STAGES", "ScenarioConfig", "SchemaError",
    "ScorerError", "Source", "TrackerConfig", "Tube", "TubeScore",
    "apply_overrides", "average_precision",
    "build_footprint_map", "build_tubes", "build_tubes_neighborhood",
    "default_config", "evaluate", "fisher_vector", "fit_gmm", "generate",
    "inject_drift", "iou", "late_fuse", "load_config", "localize",
    "merge_early_late", "nms", "prune_drifted", "prune_overlapped",
    "recall_track", "recurrent_forward", "run_pipeline", "score_clips",
    "score_tube", "slice_clips", "st_iou", "temporal_iou",
]
