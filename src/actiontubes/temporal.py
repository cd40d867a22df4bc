"""Trimming tubes to the clips where their action actually scores.

Leading and trailing clips whose score for the tube's label falls
below the threshold are dropped, and a tube with no clip left is
removed.
"""
from __future__ import annotations

from dataclasses import replace

from .errors import InputError
from .model import ClipScoreSequence, Tube


def _sliced(tube: Tube, clips: ClipScoreSequence, first: int,
            last: int) -> Tube:
    lo = clips.intervals[first].start - tube.start
    hi = clips.intervals[last].end - tube.start
    if lo == 0 and hi == len(tube.boxes):
        return tube
    return replace(tube, start=tube.start + lo, boxes=tube.boxes[lo:hi],
                   class_scores=tube.class_scores[lo:hi],
                   sources=tube.sources[lo:hi])


def localize(tube: Tube, clips: ClipScoreSequence,
             tau: float = 0.3) -> Tube | None:
    """Restrict a tube to its high scoring clip span, or remove it.

    ``clips`` are the tube's clip scores, spanning its frames.  Returns
    the localized tube, or None when every clip scores below ``tau``,
    which lies in [0, 1].
    """
    if not 0.0 <= tau <= 1.0:
        raise InputError(f"tau must be in [0, 1], got {tau}")
    if tube.label is None:
        raise InputError("tube must be labeled before temporal localization")
    if clips.span() != tube.interval():
        raise InputError(
            f"clip span {clips.span()} does not cover tube extent "
            f"{tube.interval()}")
    if tube.label >= clips.num_classes:
        raise InputError(
            f"tube label {tube.label} outside the {clips.num_classes} "
            f"scored classes")
    values = [vec[tube.label] for vec in clips.scores]
    above = [i for i, v in enumerate(values) if v >= tau]
    if not above:
        return None
    return _sliced(tube, clips, above[0], above[-1])
