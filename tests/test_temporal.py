from dataclasses import replace

import numpy as np
import pytest

from actiontubes.errors import InputError
from actiontubes.model import (BoundingBox, ClipScoreSequence, FrameInterval,
                               Source, Tube)
from actiontubes.temporal import localize


def build(label_scores, clip_length=4, label=0, num_classes=2):
    """A tube and its clip scores: one clip per entry of label_scores,
    clip_length frames each."""
    frames = clip_length * len(label_scores)
    intervals = tuple(FrameInterval(i * clip_length, (i + 1) * clip_length)
                      for i in range(len(label_scores)))
    scores = tuple(
        (s,) + tuple((1.0 - s) / (num_classes - 1)
                     for _ in range(num_classes - 1))
        for s in label_scores)
    clips = ClipScoreSequence(clip_length, intervals, scores)
    return Tube("v", "t", 0, (BoundingBox(0, 0, 10, 10),) * frames,
                ((1.0, 0.0),) * frames, (Source.STATIC,) * frames,
                label=label), clips


class TestTrim:
    def test_worked_example(self):
        # Four clips scoring 0.1, 0.5, 0.6, 0.2 at tau 0.3 keep the
        # second and third clips.
        tube, clips = build([0.1, 0.5, 0.6, 0.2])
        out = localize(tube, clips, tau=0.3)
        assert out is not None
        assert out.interval() == FrameInterval(4, 12)
        assert out.boxes == tube.boxes[4:12]

    def test_all_below_removes_tube(self):
        assert localize(*build([0.1, 0.2, 0.05]), tau=0.3) is None

    def test_all_above_unchanged(self):
        tube, clips = build([0.5, 0.9, 0.4])
        assert localize(tube, clips, tau=0.3) == tube

    def test_interior_dip_survives(self):
        tube, clips = build([0.5, 0.1, 0.6])
        out = localize(tube, clips, tau=0.3)
        assert out.interval() == tube.interval()

    def test_threshold_inclusive(self):
        tube, clips = build([0.3, 0.5])
        out = localize(tube, clips, tau=0.3)
        assert out.interval() == tube.interval()

    def test_raising_tau_never_lengthens(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            tube, clips = build(list(np.round(rng.uniform(0, 1, n), 3)))
            taus = sorted(rng.uniform(0, 1, 2))
            lo = localize(tube, clips, tau=taus[0])
            hi = localize(tube, clips, tau=taus[1])
            if hi is None:
                continue
            assert lo is not None
            assert lo.interval().start <= hi.interval().start
            assert hi.interval().end <= lo.interval().end

    def test_surviving_extent_matches_clip_union(self):
        tube, clips = build([0.1, 0.8, 0.2, 0.9, 0.1])
        out = localize(tube, clips, tau=0.3)
        assert out.interval() == FrameInterval(4, 16)


class TestValidation:
    def test_unlabeled_tube_rejected(self):
        tube, clips = build([0.5])
        tube = replace(tube, label=None)
        with pytest.raises(InputError):
            localize(tube, clips)

    def test_span_mismatch_rejected(self):
        tube, _ = build([0.5, 0.5])
        foreign = ClipScoreSequence(4, (FrameInterval(0, 4),), ((0.5, 0.5),))
        with pytest.raises(InputError):
            localize(tube, foreign)
