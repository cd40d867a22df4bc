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
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InputError

# numpy is for annotations only: ``FlowMagnitudeGrid`` imports it, so the
# other types load without it.
if TYPE_CHECKING:
    import numpy as np

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

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x_min + dx, self.y_min + dy,
                           self.x_max + dx, self.y_max + dy)

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
    """Unscored candidate region from the proposal stage."""

    frame_index: int
    box: BoundingBox
    objectness: float = 0.0

    def __post_init__(self):
        _require_finite("objectness", self.objectness)


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
    clip_scores: ClipScoreSequence | None = None

    def __post_init__(self):
        _check_label_score(self.label, self.score)
        n = len(self.boxes)
        if not n or not n == len(self.class_scores) == len(self.sources):
            raise InputError(
                f"tube has {n} boxes, {len(self.class_scores)} score vectors "
                f"and {len(self.sources)} sources, expected one per frame")
        scores = tuple(map(_validated_scores, self.class_scores))
        if len(set(map(len, scores))) != 1:
            raise InputError("tube class score vectors differ in class count")
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
    """Per-pixel optical flow magnitude for one frame, row major."""

    frame_index: int
    values: np.ndarray

    def __post_init__(self):
        import numpy as np
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise InputError(
                f"flow grid must be a non-empty 2d array, got shape "
                f"{arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InputError("flow magnitudes must be finite and >= 0")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]
