"""Core value types for frame-level detections, flow grids and action tubes.

Everything here is an immutable dataclass validated on construction.
Frame intervals are half-open ``[start, end)`` over integer frame
indices; boxes are continuous pixel coordinates with the origin at the
top left corner.  Predicted and annotated tubes both keep their frames
as a start frame plus one box per consecutive frame, and share one
implementation of frame access.
"""
from __future__ import annotations

import copy
import math
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import add
from typing import Iterator, Sequence

from .errors import InputError

SCORE_SUM_TOL = 1e-6


class Source(str, Enum):
    """Which stage produced a detection."""

    STATIC = "static"
    FLOW = "flow"
    EARLY_FUSION = "early_fusion"
    LATE_FUSION = "late_fusion"
    MERGED = "merged"
    TRACKED = "tracked"


def _require_finite(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise InputError(f"{name} must be finite, got {bad!r}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with strictly positive extent on both axes."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.x_min, self.y_min, self.x_max, self.y_max
        if not (math.isfinite(x0) and math.isfinite(y0)
                and math.isfinite(x1) and math.isfinite(y1)):
            _require_finite("box coordinate", x0, y0, x1, y1)
        if not (x0 < x1 and y0 < y1):
            raise InputError(f"degenerate box ({x0}, {y0}, {x1}, {y1})")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max),
                0.5 * (self.y_min + self.y_max))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class FrameInterval:
    """Half-open, non-empty range of frame indices."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise InputError(
                f"empty frame interval [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, frame: int) -> bool:
        return self.start <= frame < self.end

    def frames(self) -> range:
        return range(self.start, self.end)


def _validated_scores(scores: Sequence[float]) -> tuple[float, ...]:
    out = tuple(map(float, scores))
    if not out:
        raise InputError("class score vector must be non-empty")
    _require_finite("class score", *out)
    return out


def pairwise_sum(values: Sequence[float]) -> float:
    """``values`` summed as numpy sums a float64 array, bit for bit.

    numpy's ``np.add.reduce`` (and so ``np.sum`` and ``np.mean``) adds
    its identity 0.0 to a pairwise sum: fewer than 8 items one by one;
    up to 128 items in 8 interleaved accumulators, combined as a tree,
    and then the rest one by one; above 128 items the sums of two parts,
    split at ``n // 2`` rounded down to a multiple of 8.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        stop = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = (
            reduce(add, values[lo + j:stop:8]) for j in range(8))
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[stop:lo + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def mean_rows(rows: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Column means of equally long ``rows``, each summed as numpy's mean
    over axis 0 sums it and divided once: row by row in order, but
    pairwise for a single column, which numpy reduces as one contiguous
    run."""
    n = len(rows)
    if len(rows[0]) == 1:
        return (pairwise_sum([row[0] for row in rows]) / n,)
    totals = list(rows[0])
    for row in rows[1:]:
        totals = [t + v for t, v in zip(totals, row)]
    return tuple(t / n for t in totals)


def softmax(values: Sequence[float]) -> list[float]:
    """``exp(v - max)`` divided by its sum in numpy's pairwise order, so
    each value keeps the bits that dividing by ``np.sum`` gave; an empty
    row gives an empty list."""
    if len(values) == 0:
        return []
    top = max(values)
    e = [math.exp(v - top) for v in values]
    total = pairwise_sum(e)
    return [v / total for v in e]


def argmax_label(scores: Sequence[float]) -> int:
    """Index of the highest score; ties resolve to the lowest index."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


@dataclass(frozen=True)
class Detection:
    """One scored action region on one frame.

    ``class_scores`` holds one real score per action class.  The
    detection's label is the argmax of that vector and its scalar score
    is the value at the label; both are computed once, on construction
    (``dataclasses.replace`` constructs anew, so they stay in step).
    """

    frame_index: int
    box: BoundingBox
    class_scores: tuple[float, ...]
    source: Source = Source.STATIC
    label: int = field(init=False, repr=False, compare=False)
    score: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = _validated_scores(self.class_scores)
        label = argmax_label(scores)
        object.__setattr__(self, "class_scores", scores)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "score", scores[label])

    def score_for(self, class_index: int) -> float:
        if not 0 <= class_index < len(self.class_scores):
            raise InputError(
                f"class index {class_index} out of range for "
                f"{len(self.class_scores)} classes")
        return self.class_scores[class_index]


@dataclass(frozen=True)
class Proposal:
    """Candidate region from the proposal stage, scored for every class.

    ``class_scores`` holds one real score per action class; a tracker
    continues a tube with the candidate scoring highest for its class.
    """

    frame_index: int
    box: BoundingBox
    class_scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_scores",
                           _validated_scores(self.class_scores))


@dataclass(frozen=True)
class ClipScoreSequence:
    """Per-clip class score distributions aligned with clip intervals.

    Each score vector must sum to 1 within ``SCORE_SUM_TOL``.  Intervals
    are consecutive and partition the frame span the clips cover.
    """

    clip_length: int
    intervals: tuple[FrameInterval, ...]
    scores: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.clip_length < 1:
            raise InputError(f"clip_length must be >= 1, got {self.clip_length}")
        if len(self.intervals) != len(self.scores):
            raise InputError(
                f"{len(self.intervals)} clip intervals but "
                f"{len(self.scores)} score vectors")
        if not self.scores:
            raise InputError("clip score sequence must be non-empty")
        object.__setattr__(
            self, "scores", tuple(map(_validated_scores, self.scores)))
        width = len(self.scores[0])
        for vec in self.scores:
            if len(vec) != width:
                raise InputError("clip score vectors differ in class count")
            total = sum(vec)
            if abs(total - 1.0) > SCORE_SUM_TOL:
                raise InputError(
                    f"clip scores sum to {total}, expected 1 within "
                    f"{SCORE_SUM_TOL}")
        for prev, cur in zip(self.intervals, self.intervals[1:]):
            if prev.end != cur.start:
                raise InputError("clip intervals must be consecutive")

    @property
    def num_classes(self) -> int:
        return len(self.scores[0])

    def __len__(self) -> int:
        return len(self.scores)

    def span(self) -> FrameInterval:
        return FrameInterval(self.intervals[0].start, self.intervals[-1].end)


class _FrameRun:
    """Frame access for both tube kinds: ``boxes`` on frames from ``start``."""

    def interval(self) -> FrameInterval:
        return FrameInterval(self.start, self.start + len(self.boxes))

    def box_at(self, frame: int) -> BoundingBox:
        if not (self.start <= frame < self.start + len(self.boxes)):
            raise InputError(f"frame {frame} outside tube {self.interval()}")
        return self.boxes[frame - self.start]

    def iter_frames(self) -> Iterator[tuple[int, BoundingBox]]:
        return enumerate(self.boxes, self.start)

    @cached_property
    def hull(self) -> tuple[float, float, float, float]:
        """The smallest box holding every box, as ``(x0, y0, x1, y1)``.

        Computed on first use and kept: the boxes never change.
        """
        boxes = self.boxes
        return (min(b.x_min for b in boxes), min(b.y_min for b in boxes),
                max(b.x_max for b in boxes), max(b.y_max for b in boxes))


def _check_label_score(label: int | None, score: float | None) -> None:
    """A tube's label, if any, is non-negative and its score finite."""
    if label is not None and label < 0:
        raise InputError(f"label must be non-negative, got {label}")
    if score is not None:
        _require_finite("tube score", score)


@dataclass(frozen=True)
class Tube(_FrameRun):
    """Spatio-temporal action tube over consecutive frames from ``start``.

    Each frame has a box, a class score vector and the stage that
    produced it, in the parallel tuples ``boxes``, ``class_scores`` and
    ``sources``; every score vector has the same class count.
    """

    video_id: str
    tube_id: str
    start: int
    boxes: tuple[BoundingBox, ...]
    class_scores: tuple[tuple[float, ...], ...]
    sources: tuple[Source, ...]
    label: int | None = None
    score: float | None = None

    def __post_init__(self):
        _check_label_score(self.label, self.score)
        n = len(self.boxes)
        if not n or not n == len(self.class_scores) == len(self.sources):
            raise InputError(
                f"tube has {n} boxes, {len(self.class_scores)} score vectors "
                f"and {len(self.sources)} sources, expected one per frame")
        scores = tuple(map(_validated_scores, self.class_scores))
        counts = sorted(set(map(len, scores)))
        if len(counts) != 1:
            raise InputError(
                f"tube class score vectors differ in class count: tube "
                f"{self.tube_id!r} of video {self.video_id!r} has vectors "
                f"of {' and '.join(map(str, counts))} classes")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "class_scores", scores)
        object.__setattr__(self, "sources", tuple(self.sources))

    def labeled(self, label: int, score: float) -> "Tube":
        """This tube with ``label`` and ``score``.

        Only the two new values are checked: the frames were checked when
        this tube was built, so they are not validated a second time.
        """
        _check_label_score(label, score)
        out = copy.copy(self)
        object.__setattr__(out, "label", label)
        object.__setattr__(out, "score", score)
        return out


def require_scored(tube: Tube) -> float:
    """The score the 'score' stage wrote onto a labeled tube.

    The pruners rank by it and select by the label, so a tube that
    never went through scoring is rejected rather than guessed at.
    """
    if tube.label is None or tube.score is None:
        raise InputError(
            f"tube {tube.tube_id!r} in {tube.video_id!r} has no label or "
            f"no score; run the 'score' command first")
    return tube.score


@dataclass(frozen=True)
class GroundTruthTube(_FrameRun):
    """Annotated tube: one box per consecutive frame plus a class label."""

    video_id: str
    tube_id: str
    label: int
    start: int
    boxes: tuple[BoundingBox, ...]

    def __post_init__(self):
        if not self.boxes:
            raise InputError("ground truth tube must contain boxes")
        if self.label < 0:
            raise InputError(f"label must be non-negative, got {self.label}")
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True, eq=False)
class FlowMagnitudeGrid:
    """Per-pixel optical flow magnitude for one frame: ``height`` rows of
    ``width`` values in one flat row-major ``array``, held as given.

    The array is float32 (typecode ``"f"``), as flow estimators and
    ``synth`` write grids, or float64 (``"d"``).
    """

    frame_index: int
    values: array
    height: int
    width: int

    def __post_init__(self):
        values = self.values
        if not isinstance(values, array) or values.typecode not in ("f", "d"):
            got = (f"array({values.typecode!r})" if isinstance(values, array)
                   else type(values).__name__)
            raise InputError(f"flow grid values must be an array('f') or "
                             f"array('d'), got {got}")
        if not (self.height > 0 and self.width > 0
                and len(values) == self.height * self.width):
            raise InputError(
                f"flow grid must be a non-empty 2d array, got shape "
                f"{(self.height, self.width)} of {len(values)} values")
        if not _finite_and_non_negative(values):
            raise InputError("flow magnitudes must be finite and >= 0")


def _finite_and_non_negative(values: array) -> bool:
    """Whether no value is infinite, NaN or ``< 0``; ``-0.0`` passes.

    A value's top byte holds its sign bit and high exponent bits: it is
    ``0x7f`` or ``0xff`` for every infinity and NaN, and at least
    ``0x80`` for every negative value.  A grid whose top bytes are all
    below ``0x7f`` passes on one check of those bytes at C speed; only a
    grid holding ``-0.0``, a value of 2**127 or more (2**1009 in
    float64) or a bad value is checked value by value.
    """
    size = values.itemsize
    top = values.tobytes()[size - 1 if sys.byteorder == "little" else 0::size]
    if top.isascii() and b"\x7f" not in top:
        return True
    return all(0.0 <= value < math.inf for value in values)
