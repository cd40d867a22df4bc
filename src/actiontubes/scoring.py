"""Scoring tubes from frame scores and recurrent clip scores.

A tube's trajectory score combines the mean of its per-frame class
scores with the mean of per-clip distributions produced by a small
recurrent scorer running over externally supplied clip features:

    y_t = activation(W_io x_t + W_hh y_{t-1} + b_y),  y_0 = 0

followed by a linear classifier and a softmax per clip.  With W_hh set
to zero the scorer reduces exactly to a feed-forward network.

The scorer computes with Python floats and ``math``, no numpy: dot
products add left to right, means are ``model.mean_rows``, and each
sum numpy would take pairwise (the softmax's, a single column's mean)
is taken with ``model.pairwise_sum``.  Scores therefore do not depend on the SIMD
paths a host's numpy takes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Sequence

from .errors import InputError
# prune_overlapped is re-exported: the benchmark's tracer and the tests
# take it from here
from .geometry import prune_overlapped  # noqa: F401
from .model import (ClipScoreSequence, FrameInterval, Tube, argmax_label,
                    mean_rows, softmax)

ACTIVATIONS = ("tanh", "relu", "logistic")


def _nested(name: str, value) -> tuple[object, tuple[int, ...]]:
    """``value`` (nested sequences of numbers, or an array) as nested
    tuples of finite floats, and its shape; ragged nesting and empty
    sequences are rejected."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise InputError(f"{name} holds {value!r}, not a number") \
                from None
        if not math.isfinite(number):
            raise InputError(f"{name} contains non-finite values")
        return number, ()
    if not value:
        raise InputError(f"{name} has an empty axis")
    items = [_nested(name, v) for v in value]
    shapes = {shape for _, shape in items}
    if len(shapes) != 1:
        raise InputError(f"{name} is ragged")
    return tuple(v for v, _ in items), (len(items), *shapes.pop())


@dataclass(frozen=True, eq=False)
class RecurrentScorerWeights:
    """Weights of the clip scorer, held as tuples of floats: a matrix as
    one tuple per row.  Arrays or nested sequences are taken; shapes are
    validated on construction."""

    w_io: tuple[tuple[float, ...], ...]
    w_hh: tuple[tuple[float, ...], ...]
    b_y: tuple[float, ...]
    w_cls: tuple[tuple[float, ...], ...]
    b_cls: tuple[float, ...]
    activation: str = "tanh"

    def __post_init__(self):
        shapes = {}
        for name in ("w_io", "w_hh", "b_y", "w_cls", "b_cls"):
            values, shapes[name] = _nested(name, getattr(self, name))
            object.__setattr__(self, name, values)
        hidden = shapes["w_io"][0]
        if len(shapes["w_io"]) != 2:
            raise InputError("w_io must be 2d")
        if shapes["w_hh"] != (hidden, hidden):
            raise InputError(
                f"w_hh shape {shapes['w_hh']} does not match hidden "
                f"size {hidden}")
        if shapes["b_y"] != (hidden,):
            raise InputError(f"b_y shape {shapes['b_y']} invalid")
        if len(shapes["w_cls"]) != 2 or shapes["w_cls"][1] != hidden:
            raise InputError(
                f"w_cls shape {shapes['w_cls']} does not match hidden "
                f"size {hidden}")
        if shapes["b_cls"] != (shapes["w_cls"][0],):
            raise InputError(f"b_cls shape {shapes['b_cls']} invalid")
        if self.activation not in ACTIVATIONS:
            raise InputError(
                f"unknown activation {self.activation!r}; expected one of "
                f"{ACTIVATIONS}")

    @property
    def input_size(self) -> int:
        return len(self.w_io[0])

    @property
    def num_classes(self) -> int:
        return len(self.w_cls)


def _dot(row: Sequence[float], x: Sequence[float]) -> float:
    """``row . x`` added left to right from 0.0 (``sum`` would compensate
    on Python 3.12 and later)."""
    return reduce(add, map(mul, row, x), 0.0)


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:   # exp(-v) beyond the float range: 1 / inf
        return 0.0


def _activate(values: Sequence[float], kind: str) -> list[float]:
    if kind == "tanh":
        return list(map(math.tanh, values))
    if kind == "relu":
        # max keeps -0.0, as np.maximum does
        return [max(v, 0.0) for v in values]
    return list(map(_logistic, values))


def recurrent_forward(features: Sequence[Sequence[float]],
                      weights: RecurrentScorerWeights
                      ) -> list[list[float]]:
    """Run the clip scorer over a feature sequence.

    Returns one softmax distribution per input vector, (T, K) as a list
    of lists.
    """
    try:
        x = [tuple(map(float, row)) for row in features]
    except (TypeError, ValueError):
        raise InputError("features must be a (T, d) sequence of numbers") \
            from None
    if not x:
        raise InputError("features must be a (T, d) sequence, got no rows")
    for row in x:
        if len(row) != weights.input_size:
            raise InputError(
                f"feature size {len(row)} does not match w_io input size "
                f"{weights.input_size}")
        if not all(map(math.isfinite, row)):
            raise InputError("clip features must be finite")
    w = weights
    state = [0.0] * len(w.w_io)
    out = []
    for step in x:
        # (W_io x + W_hh y) + b_y, as numpy adds the three arrays
        state = _activate(
            [(_dot(w_x, step) + _dot(w_y, state)) + b
             for w_x, w_y, b in zip(w.w_io, w.w_hh, w.b_y)], w.activation)
        out.append(softmax([_dot(row, state) + b
                            for row, b in zip(w.w_cls, w.b_cls)]))
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
        scores=tuple(map(tuple, scores)))


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
    frame_scores = tube.class_scores
    classes = len(frame_scores[0])
    if classes != clip_scores.num_classes:
        raise InputError(
            f"frame scores have {classes} classes, clip scores have "
            f"{clip_scores.num_classes}")
    avg_cnn = mean_rows(frame_scores)
    avg_rnn = mean_rows(clip_scores.scores)
    traj = tuple(a + b for a, b in zip(avg_cnn, avg_rnn))
    if label is None:
        label = argmax_label(traj)
    elif not 0 <= label < classes:
        raise InputError(
            f"label {label} outside the {classes} scored classes")
    return TubeScore(s_avg_cnn=avg_cnn, s_avg_rnn=avg_rnn, s_traj=traj,
                     label=label, score=traj[label])
