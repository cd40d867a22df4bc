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
    if first == 0 and last == len(clips) - 1:
        return replace(tube, clip_scores=clips)
    kept = ClipScoreSequence(
        clip_length=clips.clip_length,
        intervals=clips.intervals[first:last + 1],
        scores=clips.scores[first:last + 1])
    span = kept.span()
    lo, hi = span.start - tube.start, span.end - tube.start
    return replace(tube, start=span.start, boxes=tube.boxes[lo:hi],
                   class_scores=tube.class_scores[lo:hi],
                   sources=tube.sources[lo:hi], clip_scores=kept)


def localize(tube: Tube, clips: ClipScoreSequence | None = None,
             tau: float = 0.3) -> Tube | None:
    """Restrict a tube to its high scoring clip span, or remove it.

    ``clips`` defaults to the tube's attached clip scores.  Returns the
    localized tube, or None when every clip scores below ``tau``.  The
    result carries the surviving clip scores, so localizing it again
    with the same threshold is the identity.
    """
    if tube.label is None:
        raise InputError("tube must be labeled before temporal localization")
    if clips is None:
        clips = tube.clip_scores
    if clips is None:
        raise InputError("tube has no clip scores to localize with")
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
