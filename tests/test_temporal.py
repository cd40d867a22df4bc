from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actiontubes.errors import InputError
from actiontubes.model import (BoundingBox, ClipScoreSequence, FrameInterval,
                               Source, Tube)
from actiontubes.temporal import localize
from oracles import localize_reference


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

    @pytest.mark.parametrize("tau", [-0.1, 1.5, float("nan"),
                                     float("inf")])
    def test_tau_outside_unit_interval_rejected(self, tau):
        with pytest.raises(InputError, match="tau"):
            localize(*build([0.5]), tau=tau)

    def test_tau_bounds_accepted(self):
        tube, clips = build([1.0, 0.0])
        assert localize(tube, clips, tau=0.0) == tube
        assert localize(tube, clips, tau=1.0).interval() == \
            FrameInterval(0, 4)


# scores and thresholds on quarter steps, so that clip scores land
# exactly on tau and sum to 1 exactly
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def trim_case(draw):
    """A labeled tube of distinct boxes, its clip scores and a tau."""
    clip_length = draw(st.integers(1, 4))
    values = draw(st.lists(QUARTERS, min_size=1, max_size=6))
    last = draw(st.integers(1, clip_length))
    start = draw(st.integers(0, 5))
    ends = [start + clip_length * (k + 1) for k in range(len(values) - 1)]
    ends.append((ends[-1] if ends else start) + last)
    intervals = tuple(FrameInterval(a, b)
                      for a, b in zip([start, *ends], ends))
    clips = ClipScoreSequence(clip_length, intervals,
                              tuple((v, 1.0 - v) for v in values))
    n = ends[-1] - start
    tube = Tube("v", "t", start,
                tuple(BoundingBox(f, 0, f + 10, 10) for f in range(n)),
                tuple((float(f), 1.0) for f in range(n)),
                tuple(Source.TRACKED if f % 2 else Source.MERGED
                      for f in range(n)),
                label=draw(st.integers(0, 1)), score=0.5)
    return tube, clips, draw(QUARTERS)


class TestAgainstReference:
    @given(trim_case())
    @settings(max_examples=300, deadline=None)
    def test_localize(self, case):
        """Trimming equals the clip-at-a-time reference of ``oracles``,
        clip scores often exactly at tau."""
        tube, clips, tau = case
        want = localize_reference(tube, clips, tau)
        got = localize(tube, clips, tau=tau)
        if want is None:
            assert got is None
            return
        lo, hi = want[0] - tube.start, want[1] - tube.start
        assert got == replace(tube, start=want[0], boxes=tube.boxes[lo:hi],
                              class_scores=tube.class_scores[lo:hi],
                              sources=tube.sources[lo:hi])
