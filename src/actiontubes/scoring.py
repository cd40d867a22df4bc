"""Scoring tubes from frame scores and recurrent clip scores.

A tube's trajectory score combines the mean of its per-frame class
scores with the mean of per-clip distributions produced by a small
recurrent scorer running over externally supplied clip features:

    y_t = activation(W_io x_t + W_hh y_{t-1} + b_y),  y_0 = 0

followed by a linear classifier and a softmax per clip.  With W_hh set
to zero the scorer reduces exactly to a feed-forward network.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
# prune_overlapped is re-exported: the benchmark's tracer and the tests
# take it from here
from .geometry import prune_overlapped  # noqa: F401
from .model import ClipScoreSequence, FrameInterval, Tube

ACTIVATIONS = ("tanh", "relu", "logistic")


@dataclass(frozen=True, eq=False)
class RecurrentScorerWeights:
    """Weights of the clip scorer; shapes are validated on construction."""

    w_io: np.ndarray
    w_hh: np.ndarray
    b_y: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        arrays = {}
        for name in ("w_io", "w_hh", "b_y", "w_cls", "b_cls"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} contains non-finite values")
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        hidden = arrays["w_io"].shape[0]
        if arrays["w_io"].ndim != 2:
            raise InputError("w_io must be 2d")
        if arrays["w_hh"].shape != (hidden, hidden):
            raise InputError(
                f"w_hh shape {arrays['w_hh'].shape} does not match hidden "
                f"size {hidden}")
        if arrays["b_y"].shape != (hidden,):
            raise InputError(f"b_y shape {arrays['b_y'].shape} invalid")
        if arrays["w_cls"].ndim != 2 or arrays["w_cls"].shape[1] != hidden:
            raise InputError(
                f"w_cls shape {arrays['w_cls'].shape} does not match hidden "
                f"size {hidden}")
        if arrays["b_cls"].shape != (arrays["w_cls"].shape[0],):
            raise InputError(f"b_cls shape {arrays['b_cls'].shape} invalid")
        if self.activation not in ACTIVATIONS:
            raise InputError(
                f"unknown activation {self.activation!r}; expected one of "
                f"{ACTIVATIONS}")

    @property
    def input_size(self) -> int:
        return self.w_io.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0]


def _activate(values: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(values)
    if kind == "relu":
        return np.maximum(values, 0.0)
    return 1.0 / (1.0 + np.exp(-values))


def softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - np.max(values)
    e = np.exp(shifted)
    return e / np.sum(e)


def recurrent_forward(features: Sequence[Sequence[float]],
                      weights: RecurrentScorerWeights) -> np.ndarray:
    """Run the clip scorer over a feature sequence.

    Returns one softmax distribution per input vector, shape (T, K).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError(f"features must be a (T, d) array, got {x.shape}")
    if x.shape[1] != weights.input_size:
        raise InputError(
            f"feature size {x.shape[1]} does not match w_io input size "
            f"{weights.input_size}")
    if not np.all(np.isfinite(x)):
        raise InputError("clip features must be finite")
    state = np.zeros(weights.w_io.shape[0])
    out = np.empty((x.shape[0], weights.num_classes))
    for t in range(x.shape[0]):
        state = _activate(
            weights.w_io @ x[t] + weights.w_hh @ state + weights.b_y,
            weights.activation)
        out[t] = softmax(weights.w_cls @ state + weights.b_cls)
    return out


def slice_clips(extent: FrameInterval, clip_length: int) -> list[FrameInterval]:
    """Cut a frame extent into consecutive clips of ``clip_length``.

    A final remainder shorter than half a clip is absorbed into the
    previous clip; an extent shorter than one clip becomes a single
    clip covering all of it.
    """
    if clip_length < 1:
        raise InputError(f"clip_length must be >= 1, got {clip_length}")
    if len(extent) <= clip_length:
        return [extent]
    clips = []
    start = extent.start
    while start + clip_length <= extent.end:
        clips.append(FrameInterval(start, start + clip_length))
        start += clip_length
    remainder = extent.end - start
    if remainder:
        if 2 * remainder >= clip_length:
            clips.append(FrameInterval(start, extent.end))
        else:
            last = clips.pop()
            clips.append(FrameInterval(last.start, extent.end))
    return clips


def score_clips(features: Sequence[Sequence[float]],
                weights: RecurrentScorerWeights,
                intervals: Sequence[FrameInterval],
                clip_length: int) -> ClipScoreSequence:
    """Convenience wrapper bundling scorer output with its intervals."""
    if len(features) != len(intervals):
        raise InputError(
            f"{len(features)} feature vectors for {len(intervals)} clips")
    scores = recurrent_forward(features, weights)
    return ClipScoreSequence(
        clip_length=clip_length,
        intervals=tuple(intervals),
        scores=tuple(tuple(float(v) for v in row) for row in scores))


@dataclass(frozen=True)
class TubeScore:
    """Per-class trajectory score and the label it selects."""

    s_avg_cnn: tuple[float, ...]
    s_avg_rnn: tuple[float, ...]
    s_traj: tuple[float, ...]
    label: int
    score: float


def score_tube(tube: Tube, clip_scores: ClipScoreSequence,
               label: int | None = None) -> TubeScore:
    """Fuse mean frame scores with mean clip scores by addition.

    Without an explicit ``label`` the label is the argmax of the fused
    vector with ties resolved to the lowest class index; passing one
    pins the label and reports that class's fused value as the score,
    for tubes whose class is already decided.
    """
    if clip_scores.span() != tube.interval():
        raise InputError(
            f"clip span {clip_scores.span()} does not cover tube extent "
            f"{tube.interval()}")
    frame_scores = np.array(tube.class_scores, dtype=np.float64)
    if frame_scores.shape[1] != clip_scores.num_classes:
        raise InputError(
            f"frame scores have {frame_scores.shape[1]} classes, clip "
            f"scores have {clip_scores.num_classes}")
    avg_cnn = frame_scores.mean(axis=0)
    avg_rnn = np.array(clip_scores.scores, dtype=np.float64).mean(axis=0)
    traj = avg_cnn + avg_rnn
    if label is None:
        label = int(np.argmax(traj))
    elif not 0 <= label < traj.shape[0]:
        raise InputError(
            f"label {label} outside the {traj.shape[0]} scored classes")
    return TubeScore(
        s_avg_cnn=tuple(float(v) for v in avg_cnn),
        s_avg_rnn=tuple(float(v) for v in avg_rnn),
        s_traj=tuple(float(v) for v in traj),
        label=label,
        score=float(traj[label]))
