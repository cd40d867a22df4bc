"""Round-trip and validation tests for the on-disk formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actiontubes import formats
from actiontubes.errors import InputError, ProcessingError, SchemaError
from actiontubes.fusion import FlowMagnitudeGrid
from actiontubes.model import (BoundingBox, ClipScoreSequence, Detection,
                               FrameInterval, GroundTruthTube, Proposal,
                               Source, Tube)
from actiontubes.scoring import RecurrentScorerWeights
from actiontubes.synth import ScenarioConfig, generate, video_flow
from actiontubes.tracker import PrecomputedMatcher


@pytest.fixture(scope="module")
def bundle():
    return generate(ScenarioConfig(
        seed=11, video_count=3, frames_per_video=12, num_classes=2,
        clip_length=4, jitter_sigma=1.5, false_positive_rate=0.3,
        frame_size=(160, 120), with_footprint=False))


def by_video(tubes):
    """``(video_id, tubes)`` pairs in video order, as the writers take
    them."""
    groups = {}
    for tube in tubes:
        groups.setdefault(tube.video_id, []).append(tube)
    return sorted(groups.items())


def flow_grids(bundle):
    """Every ``(video_id, grid)`` of a bundle, in flow-file order."""
    return [(video.video_id, grid)
            for index, video in enumerate(bundle.videos)
            for grid in video_flow(bundle.config, index, video.gt_tubes)]


# header (magic, version 1, 3 arrays), then "a" (2 float64), "b" (1x2
# int64) and "c" (2 bytes)
GOLDEN_CONTAINER = (
    "4154424e01000300000001006100010200000000000000000000000000e03f00"
    "0000000000f4bf01006201020100000000000000020000000000000001000000"
    "00000000feffffffffffffff010063020102000000000000006f6b")


def coords(strategy_max=500.0):
    return st.floats(0.0, strategy_max, allow_nan=False,
                     allow_infinity=False, width=64)


def box_strategy():
    return st.tuples(coords(), coords(), st.floats(0.5, 80.0),
                     st.floats(0.5, 80.0)).map(
        lambda t: BoundingBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestDetectionsRoundTrip:
    def test_bundle_detections(self, bundle, tmp_path):
        path = tmp_path / "d.tsv"
        data = {v.video_id: v.detections["static"] for v in bundle.videos}
        formats.write_detections(path, sorted(data.items()))
        back = formats.read_detections(path)
        assert set(back) == set(data)
        for video_id in data:
            assert sorted(back[video_id],
                          key=lambda d: (d.frame_index, d.score)) == \
                sorted(data[video_id],
                       key=lambda d: (d.frame_index, d.score))

    def test_rewrite_is_byte_identical(self, bundle, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        data = {v.video_id: v.detections["early"] for v in bundle.videos}
        formats.write_detections(a, sorted(data.items()))
        formats.write_detections(b, formats.read_detections(a).items())
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_round_trips(self, tmp_path):
        path = tmp_path / "d.tsv"
        formats.write_detections(path, [])
        assert formats.read_detections(path) == {}

    @given(frame=st.integers(0, 10 ** 6), box=box_strategy(),
           scores=st.lists(st.floats(0.0, 1.0, width=64), min_size=1,
                           max_size=5),
           source=st.sampled_from(list(Source)))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_detection_round_trips(self, tmp_path_factory, frame,
                                             box, scores, source):
        path = tmp_path_factory.mktemp("io") / "d.tsv"
        det = Detection(frame, box, tuple(scores), source)
        formats.write_detections(path, [("v0", [det])])
        assert formats.read_detections(path) == {"v0": [det]}


class TestProposalsRoundTrip:
    def test_bundle_proposals(self, bundle, tmp_path):
        path = tmp_path / "p.tsv"
        data = {v.video_id: v.proposals for v in bundle.videos}
        formats.write_proposals(path, sorted(data.items()))
        back = formats.read_proposals(path)
        assert set(back) == set(data)
        for video_id, frames in data.items():
            for frame, props in frames.items():
                assert sorted(back[video_id][frame],
                              key=lambda p: p.objectness) == \
                    sorted(props, key=lambda p: p.objectness)

    def test_misfiled_proposal_rejected_on_write(self, tmp_path):
        """A proposal of frame 5 filed under frame 3 is not written as a
        proposal of frame 3."""
        path = tmp_path / "p.tsv"
        prop = Proposal(5, BoundingBox(0.0, 0.0, 5.0, 5.0), 0.5)
        with pytest.raises(InputError) as info:
            formats.write_proposals(path, [("v0", {3: (prop,)})])
        for needle in ("'v0'", "frame 5", "frame 3"):
            assert needle in str(info.value)
        assert not path.exists()


def lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


class TestMatchesRoundTrip:
    def test_matcher_equivalence(self, bundle, tmp_path):
        path = tmp_path / "m.atb"
        matcher = bundle.matcher()
        pairs = {}
        for video in bundle.videos:
            w, h = video.frame_size
            full = BoundingBox(0, 0, w, h)
            for frame in list(video.extent.frames())[:-1]:
                pairs[(video.video_id, frame)] = \
                    matcher.match(video.video_id, frame, frame + 1, full)
        formats.write_matches(path, pairs)
        reread = PrecomputedMatcher(formats.read_matches(path))
        answered = 0
        for video in bundle.videos:
            w, h = video.frame_size
            frames = list(video.extent.frames())
            for a, b in [*zip(frames, frames[1:]), *zip(frames[1:], frames)]:
                boxes = [BoundingBox(0, 0, w, h)] + [
                    gt.box_at(a) for gt in video.gt_tubes
                    if a in gt.interval()]
                for box in boxes:
                    want = matcher.match(video.video_id, a, b, box)
                    got = reread.match(video.video_id, a, b, box)
                    assert np.array_equal(lexsorted(got), lexsorted(want)), \
                        (video.video_id, a, b, box)
                    answered += len(got) > 0
        assert answered > 2 * sum(len(v.gt_tubes) for v in bundle.videos)

    def test_backward_queries_served_from_forward_records(self, tmp_path):
        path = tmp_path / "m.atb"
        formats.write_matches(path, {("v0", 3): [[1.0, 2.0, 5.0, 6.0]]})
        matcher = PrecomputedMatcher(formats.read_matches(path))
        back = matcher.match("v0", 4, 3, BoundingBox(0, 0, 10, 10))
        assert np.array_equal(back, [[5.0, 6.0, 1.0, 2.0]])

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "m.atb"
        rng = np.random.default_rng(3)
        pairs = {(vid, f): rng.normal(size=(n, 4))
                 for vid, f, n in (("v0", 0, 5), ("v0", 1, 0),
                                   ("v1.a", 7, 3))}
        formats.write_matches(path, pairs)
        back = formats.read_matches(path)
        assert set(back) == set(pairs)
        for key, rows in pairs.items():
            want = np.array(sorted(map(tuple, rows))).reshape(-1, 4)
            assert back[key].tobytes() == want.tobytes()

    def test_by_video_in_name_order(self, tmp_path):
        """Each video's pairs together, in array-name order, where
        ``v1-x/`` and ``v1.a/`` sort before ``v1/``."""
        path = tmp_path / "m.atb"
        pairs = {(vid, f): np.full((1, 4), float(f))
                 for vid in ("v1", "v1-x", "v1.a", "v10") for f in (0, 1)}
        formats.write_matches(path, pairs)
        chunks = list(formats.matches_by_video(path))
        assert [video_id for video_id, _ in chunks] == \
            ["v1-x", "v1.a", "v1", "v10"]
        for video_id, by_frame in chunks:
            assert sorted(by_frame) == [(video_id, 0), (video_id, 1)]

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.atb", tmp_path / "b.atb"
        rng = np.random.default_rng(5)
        pairs = {("v0", f): rng.uniform(size=(4, 4)) for f in range(3)}
        formats.write_matches(a, pairs)
        formats.write_matches(b, dict(reversed(pairs.items())))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("key, rows, word", [
        (("v0", 0), np.zeros((2, 2)), "(N, 4)"),
        (("v0", 0), np.zeros(4), "(N, 4)"),
        (("v0", 0), np.array([[0.0, 1.0, np.nan, 2.0]]), "finite"),
        (("v0", 0), np.array([[0.0, 1.0, np.inf, 2.0]]), "finite"),
        (("v0", -1), np.zeros((1, 4)), "negative"),
        (("v 0", 0), np.zeros((1, 4)), "identifier"),
    ])
    def test_invalid_matches_rejected_on_write(self, tmp_path, key, rows,
                                               word):
        path = tmp_path / "m.atb"
        with pytest.raises(InputError) as info:
            formats.write_matches(path, {key: rows})
        assert word in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["v0/x", "v0", "v 0/00000001",
                                      "v0/1", "/00000001"])
    def test_bad_array_name_rejected(self, tmp_path, name):
        path = tmp_path / "m.atb"
        formats.write_arrays(path, [(name, np.zeros((1, 4)))])
        with pytest.raises(SchemaError) as info:
            formats.read_matches(path)
        assert "name" in str(info.value)

    @pytest.mark.parametrize("rows", [np.zeros((2, 3)), np.zeros(4),
                                      np.zeros((2, 4), dtype=np.int64),
                                      np.zeros((1, 2, 4))])
    def test_bad_array_shape_or_dtype_rejected(self, tmp_path, rows):
        path = tmp_path / "m.atb"
        formats.write_arrays(path, [("v0/00000000", rows)])
        with pytest.raises(SchemaError) as info:
            formats.read_matches(path)
        assert "(N, 4)" in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, tmp_path, bad):
        path = tmp_path / "m.atb"
        formats.write_arrays(path,
                            [("v0/00000000", np.array([[0, 1, bad, 2]]))])
        with pytest.raises(SchemaError) as info:
            formats.read_matches(path)
        assert "finite" in str(info.value)

    def test_truncated_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.atb"
        formats.write_matches(path, {("v0", 0): np.ones((3, 4))})
        blob = path.read_bytes()
        for broken, word in ((blob[:-1], "truncated"),
                             (blob + b"\x00", "trailing")):
            path.write_bytes(broken)
            with pytest.raises(SchemaError) as info:
                formats.read_matches(path)
            assert word in str(info.value)


class TestTubesRoundTrip:
    def _tubes(self, bundle):
        tubes = []
        for i, video in enumerate(bundle.videos):
            gt = video.gt_tubes[0]
            frames = gt.interval().frames()
            label = None if i == 0 else 1
            score = None if i == 0 else 1.25
            tubes.append(Tube(
                video.video_id, f"t{i}", gt.start, gt.boxes,
                ((0.3, 0.7),) * len(frames),
                tuple(Source.TRACKED if f % 2 else Source.MERGED
                      for f in frames), label=label, score=score))
        return tubes

    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "t.tsv"
        tubes = self._tubes(bundle)
        formats.write_tubes(path, by_video(tubes))
        back = formats.read_tubes(path)
        assert back == sorted(tubes, key=lambda t: (t.video_id, t.tube_id))

    def test_round_trip_keeps_every_source(self, bundle, tmp_path):
        path = tmp_path / "t.tsv"
        tubes = self._tubes(bundle)
        formats.write_tubes(path, by_video(tubes))
        for tube, back in zip(tubes, formats.read_tubes(path)):
            assert back.sources == tube.sources
            assert set(back.sources) == {Source.TRACKED, Source.MERGED}

    def test_rewrite_is_byte_identical(self, bundle, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        formats.write_tubes(a, by_video(self._tubes(bundle)))
        formats.write_tubes(b, by_video(formats.read_tubes(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_tube_id_rejected_on_write(self, bundle, tmp_path):
        tube = self._tubes(bundle)[0]
        with pytest.raises(Exception):
            formats.write_tubes(tmp_path / "t.tsv", by_video([tube, tube]))

    def test_conflicting_label_rows_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        row = ("v0", "t0", "0", "0.0", "0.0", "5.0", "5.0", "static",
               "1.0", "0", "0.5")
        other = ("v0", "t0", "1", "0.0", "0.0", "5.0", "5.0", "static",
                 "1.0", "1", "0.5")
        formats.write_records(path, "tubes", [row, other])
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert info.value.field == "label"

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = [("v0", "t0", str(f), "0.0", "0.0", "5.0", "5.0", "static",
                 "1.0", "-1", "0.5") for f in (0, 1)]
        formats.write_records(path, "tubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert info.value.field == "label"
        assert info.value.line == 3

    def test_gap_in_frames_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = [("v0", "t0", str(f), "0.0", "0.0", "5.0", "5.0", "static",
                 "1.0", "-", "-") for f in (0, 2)]
        formats.write_records(path, "tubes", rows)
        with pytest.raises(SchemaError):
            formats.read_tubes(path)

    @pytest.mark.parametrize("x0", ["0.0", "1.0"])
    def test_repeated_frame_rejected(self, tmp_path, x0):
        path = tmp_path / "t.tsv"
        rows = [("v0", "t0", str(f), "0.0", "0.0", "5.0", "5.0", "static",
                 "1.0", "-", "-") for f in (2, 3, 4)]
        rows.insert(2, ("v0", "t0", "3", x0, "0.0", "5.0", "5.0", "static",
                        "1.0", "-", "-"))
        formats.write_records(path, "tubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert info.value.field == "frame"
        assert info.value.line == 5
        assert "repeats frame 3" in str(info.value)

    def test_unequal_class_counts_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = [("v0", "t0", str(f), "0.0", "0.0", "5.0", "5.0", "static",
                 scores, "-", "-")
                for f, scores in ((0, "0.2,0.3,0.5"), (1, "0.2,0.8"))]
        formats.write_records(path, "tubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert info.value.field == "scores"
        assert "class count" in str(info.value)


class TestGroundTruthRoundTrip:
    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "gt.tsv"
        tubes = [gt for v in bundle.videos for gt in v.gt_tubes]
        formats.write_gt_tubes(path, by_video(tubes))
        assert formats.read_gt_tubes(path) == \
            sorted(tubes, key=lambda t: (t.video_id, t.tube_id))

    def test_missing_frame_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        rows = [("v0", "a0", "1", str(f), "0.0", "0.0", "5.0", "5.0")
                for f in (3, 5)]
        formats.write_records(path, "gttubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_gt_tubes(path)
        assert "skips frame 4" in str(info.value)

    @pytest.mark.parametrize("x0", ["0.0", "1.0"])
    def test_repeated_frame_rejected(self, tmp_path, x0):
        path = tmp_path / "gt.tsv"
        rows = [("v0", "a0", "1", str(f), "0.0", "0.0", "5.0", "5.0")
                for f in (2, 3, 4)]
        rows.insert(2, ("v0", "a0", "1", "3", x0, "0.0", "5.0", "5.0"))
        formats.write_records(path, "gttubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_gt_tubes(path)
        assert info.value.field == "frame"
        assert info.value.line == 5
        assert "repeats frame 3" in str(info.value)

    @pytest.mark.parametrize("label, start", [(0, 2), (0, 3), (1, 2)])
    def test_repeated_tube_id_rejected_on_write(self, tmp_path, label,
                                                start):
        """A second v0/a0 is rejected, not read back as part of the first
        (same label, next frame) or reported as a frame gap."""
        path = tmp_path / "gt.tsv"
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tubes = [GroundTruthTube("v0", "a0", 0, 0, (box, box)),
                 GroundTruthTube("v0", "a0", label, start, (box,))]
        with pytest.raises(InputError, match="duplicate tube id 'a0' in"):
            formats.write_gt_tubes(path, by_video(tubes))
        assert not path.exists()

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        rows = [("v0", "a0", "1", "0", "0.0", "0.0", "5.0", "5.0"),
                ("v0", "a0", "2", "1", "0.0", "0.0", "5.0", "5.0")]
        formats.write_records(path, "gttubes", rows)
        with pytest.raises(SchemaError):
            formats.read_gt_tubes(path)


def _tube_rows():
    """Two valid tubes of one video: t0 on frames 0-2, t1 on 3-4."""
    return [
        ["v0", "t0", "0", "0.0", "0.0", "5.0", "5.0", "static", "0.2,0.8",
         "1", "0.5"],
        ["v0", "t0", "1", "1.0", "0.0", "6.0", "5.0", "merged", "0.3,0.7",
         "1", "0.5"],
        ["v0", "t0", "2", "2.0", "0.0", "7.0", "5.0", "tracked", "0.4,0.6",
         "1", "0.5"],
        ["v0", "t1", "3", "0.0", "1.0", "5.0", "6.0", "static", "0.9,0.1",
         "0", "0.25"],
        ["v0", "t1", "4", "0.0", "2.0", "5.0", "7.0", "static", "0.8,0.2",
         "0", "0.25"],
    ]


TUBE_COLUMNS = formats.SCHEMAS["tubes"].columns

# (rows, column) -> value edits; then the message, line and field the
# reader reports.  Rows 0-4 are file lines 3-7.
TUBE_CORRUPTIONS = {
    "video_id": ({(1, "video_id"): "v 0"},
                 "invalid identifier 'v 0'", 4, "video_id"),
    "tube_id": ({(1, "tube_id"): "t/1"},
                "invalid identifier 't/1'", 4, "tube_id"),
    "frame_not_integer": ({(1, "frame"): "1.5"},
                          "not an integer: '1.5'", 4, "frame"),
    "nan_coordinate": ({(1, "x1"): "nan"},
                       "non-finite value: 'nan'", 4, "x1"),
    "inf_coordinate": ({(3, "y0"): "-inf"},
                       "non-finite value: '-inf'", 6, "y0"),
    "bad_coordinate": ({(2, "y1"): "five"},
                       "not a number: 'five'", 5, "y1"),
    "degenerate_box": ({(2, "x1"): "2.0"},
                       "degenerate box (2.0, 0.0, 2.0, 5.0)", 5, "x0"),
    "unknown_source": ({(1, "source"): "magic"},
                       "unknown source 'magic'", 4, "source"),
    "bad_class_score": ({(1, "scores"): "0.3,x"},
                        "not a number: 'x'", 4, "scores"),
    "nan_class_score": ({(4, "scores"): "nan,0.2"},
                        "non-finite value: 'nan'", 7, "scores"),
    "empty_score": ({(0, "score"): "", (1, "score"): "", (2, "score"): ""},
                    "not a number: ''", 3, "score"),
    "nan_score": ({(3, "score"): "nan", (4, "score"): "nan"},
                  "non-finite value: 'nan'", 6, "score"),
    "bad_label": ({(3, "label"): "zero", (4, "label"): "zero"},
                  "not an integer: 'zero'", 6, "label"),
    "label_with_plus": ({(0, "label"): "+1", (1, "label"): "+1",
                         (2, "label"): "+1"},
                        "not an integer: '+1'", 3, "label"),
    "label_with_space": ({(3, "label"): " 0", (4, "label"): " 0"},
                         "not an integer: ' 0'", 6, "label"),
    "label_other_digits": ({(3, "label"): "٤", (4, "label"): "٤"},
                           "not an integer: '٤'", 6, "label"),
    "label_with_underscore": ({(0, "label"): "4_0", (1, "label"): "4_0",
                               (2, "label"): "4_0"},
                              "not an integer: '4_0'", 3, "label"),
    "unequal_class_counts": ({(1, "scores"): "0.3,0.6,0.1"},
                             "tube class score vectors differ in class "
                             "count", 3, "scores"),
    "conflicting_label": ({(2, "label"): "0"},
                          "tube 't0' carries conflicting label or score",
                          5, "label"),
    "conflicting_score": ({(4, "score"): "0.5"},
                          "tube 't1' carries conflicting label or score",
                          7, "label"),
    "repeated_frame": ({(2, "frame"): "1"},
                       "tube 't0' repeats frame 1", 5, "frame"),
    "skipped_frame": ({(4, "frame"): "5"},
                      "tube 't1' skips frame 4", 7, "frame"),
    "negative_label": ({(3, "label"): "-1", (4, "label"): "-1"},
                       "label must be non-negative, got -1", 6, "label"),
    "two_bad_rows": ({(1, "x0"): "nan", (3, "y1"): "inf"},
                     "non-finite value: 'nan'", 4, "x0"),
    "two_bad_rows_in_one_tube": ({(1, "x1"): "1.0", (2, "x1"): "2.0"},
                                 "degenerate box (1.0, 0.0, 1.0, 5.0)", 4,
                                 "x0"),
}


class TestTubeReaderErrors:
    """Each corruption is reported with the message, line and field of
    the row-by-row checks: identifiers and frames in file order, then
    each tube in id order, its rows by frame."""

    @pytest.mark.parametrize("case", sorted(TUBE_CORRUPTIONS))
    def test_corruption_reported_where_it_is(self, tmp_path, case):
        edits, message, line, field = TUBE_CORRUPTIONS[case]
        rows = _tube_rows()
        for (row, column), value in edits.items():
            rows[row][TUBE_COLUMNS.index(column)] = value
        path = tmp_path / "t.tsv"
        formats.write_records(path, "tubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert str(info.value).endswith(": " + message)
        assert (info.value.line, info.value.field) == (line, field)

    def test_clean_file_reads(self, tmp_path):
        path = tmp_path / "t.tsv"
        formats.write_records(path, "tubes", _tube_rows())
        tubes = formats.read_tubes(path)
        assert [(t.tube_id, t.start, len(t.boxes)) for t in tubes] == \
            [("t0", 0, 3), ("t1", 3, 2)]
        assert tubes[0].sources == (Source.STATIC, Source.MERGED,
                                    Source.TRACKED)
        assert tubes[1].class_scores == ((0.9, 0.1), (0.8, 0.2))
        assert (tubes[1].label, tubes[1].score) == (0, 0.25)

    def test_tubes_may_differ_in_class_count(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = _tube_rows()
        rows[3][8], rows[4][8] = "0.7,0.2,0.1", "0.6,0.3,0.1"
        formats.write_records(path, "tubes", rows)
        tubes = formats.read_tubes(path)
        assert tubes[0].class_scores[0] == (0.2, 0.8)
        assert tubes[1].class_scores == ((0.7, 0.2, 0.1), (0.6, 0.3, 0.1))

    def test_rows_out_of_order_are_grouped(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = _tube_rows()
        formats.write_records(path, "tubes", rows)
        expected = formats.read_tubes(path)
        formats.write_records(path, "tubes", rows[::-1])
        assert formats.read_tubes(path) == expected

    @pytest.mark.parametrize("case", sorted(TUBE_CORRUPTIONS))
    def test_corruption_reported_across_blocks(self, tmp_path, monkeypatch,
                                               case):
        """With blocks of two rows, tubes and bad rows straddle blocks;
        the report is the same."""
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        self.test_corruption_reported_where_it_is(tmp_path, case)

    def test_blocks_read_like_one_pass(self, tmp_path, monkeypatch):
        rows = _tube_rows()
        rows[3][8], rows[4][8] = "0.7,0.2,0.1", "0.6,0.3,0.1"
        lines = ["\t".join(row) for row in rows[::-1]]
        path = tmp_path / "t.tsv"
        formats.write_records(path, "tubes", [])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n" + "\n".join(lines[:2]) + "\n\n\n"
                     + "\n".join(lines[2:]) + "\n")
        expected = formats.read_tubes(path)
        assert [t.tube_id for t in expected] == ["t0", "t1"]
        for block in (1, 2, 3):
            monkeypatch.setattr(formats, "_BLOCK_ROWS", block)
            assert formats.read_tubes(path) == expected

    def test_rows_parsed_in_blocks(self, tmp_path, monkeypatch):
        """No column spans the whole file: each parse sees one block."""
        seen = []
        parse = formats._parse_tube_block

        def spy(text):
            seen.append(len(text["source"]))
            return parse(text)
        monkeypatch.setitem(formats._KINDS, "tubes",
                            formats._KINDS["tubes"]._replace(parse=spy))
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        path = tmp_path / "t.tsv"
        formats.write_records(path, "tubes", _tube_rows())
        formats.read_tubes(path)
        assert seen == [2, 2, 1]

    def test_ground_truth_blocks_read_like_one_pass(self, tmp_path,
                                                     monkeypatch):
        rows = [["v0", tube, "1", str(f), "0.0", "0.0", "5.0", "5.0"]
                for tube in ("a1", "a0") for f in (3, 1, 2)]
        path = tmp_path / "gt.tsv"
        formats.write_records(path, "gttubes", rows)
        expected = formats.read_gt_tubes(path)
        assert [(t.tube_id, t.start) for t in expected] == \
            [("a0", 1), ("a1", 1)]
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        assert formats.read_gt_tubes(path) == expected

    @pytest.mark.parametrize("kind", ["tubes", "gttubes", "detections",
                                      "proposals", "clipscores"])
    def test_disagreeing_checks_are_a_processing_error(
            self, tmp_path, monkeypatch, kind):
        """A clean file the column-wise checks reject is not reported
        as a schema error of some row."""
        def reject(column):
            raise ValueError("rejected")
        monkeypatch.setattr(formats, "_frame_column", reject)
        rows = {"tubes": _tube_rows(),
                "gttubes": [["v0", "a0", "1", "0", "0.0", "0.0", "5.0",
                             "5.0"]],
                **{name: clean()
                   for name, (clean, _) in RECORD_CORRUPTIONS.items()}}
        path = tmp_path / "t.tsv"
        formats.write_records(path, kind, rows[kind])
        reader = {"tubes": formats.read_tubes,
                  "gttubes": formats.read_gt_tubes, **RECORD_READERS}[kind]
        with pytest.raises(ProcessingError, match="rejected"):
            reader(path)

    @pytest.mark.parametrize("edits, message, line, field", [
        ({(1, 2): "x"}, "not an integer: 'x'", 4, "label"),
        ({(1, 2): "2"}, "ground truth tube 'a0' has conflicting labels",
         4, "label"),
        ({(0, 2): "-1", (1, 2): "-1"},
         "label must be non-negative, got -1", 3, "label"),
        ({(1, 5): "inf"}, "non-finite value: 'inf'", 4, "y0"),
        ({(1, 3): "3"}, "tube 'a0' skips frame 2", 4, "frame"),
        ({(0, 2): " 1", (1, 2): "+1"}, "not an integer: ' 1'", 3, "label"),
        ({(1, 2): "+1"}, "not an integer: '+1'", 4, "label"),
        ({(0, 2): "٤", (1, 2): "٤"}, "not an integer: '٤'", 3, "label"),
        ({(0, 2): "4_0", (1, 2): "4_0"}, "not an integer: '4_0'", 3,
         "label"),
    ])
    def test_ground_truth_corruption(self, tmp_path, edits, message, line,
                                     field):
        rows = [["v0", "a0", "1", str(f), "0.0", "0.0", "5.0", "5.0"]
                for f in (1, 2)]
        for (row, column), value in edits.items():
            rows[row][column] = value
        path = tmp_path / "gt.tsv"
        formats.write_records(path, "gttubes", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_gt_tubes(path)
        assert str(info.value).endswith(": " + message)
        assert (info.value.line, info.value.field) == (line, field)


def _detection_rows():
    """Five valid detections of two videos, interleaved."""
    return [
        ["v0", "0", "0.0", "0.0", "5.0", "5.0", "static", "0.2,0.8"],
        ["v0", "1", "1.0", "0.0", "6.0", "5.0", "flow", "0.3,0.7"],
        ["v1", "0", "2.0", "0.0", "7.0", "5.0", "merged", "0.4,0.6"],
        ["v0", "1", "0.0", "1.0", "5.0", "6.0", "early_fusion", "0.9,0.1"],
        ["v1", "2", "0.0", "2.0", "5.0", "7.0", "late_fusion", "0.8,0.2"],
    ]


def _proposal_rows():
    """Five valid proposals of two videos, interleaved."""
    return [
        ["v0", "0", "0.0", "0.0", "5.0", "5.0", "0.5"],
        ["v0", "1", "1.0", "0.0", "6.0", "5.0", "0.25"],
        ["v1", "0", "2.0", "0.0", "7.0", "5.0", "1.0"],
        ["v0", "0", "0.0", "1.0", "5.0", "6.0", "0.75"],
        ["v1", "3", "0.0", "2.0", "5.0", "7.0", "0.0"],
    ]


def _clip_rows():
    """Clips of three tubes: v0/t0 on 0-10 (rows 0, 1 and 3), v0/t1 on
    2-4, v1/t0 on 0-4."""
    return [
        ["v0", "t0", "4", "0", "4", "0.25,0.75"],
        ["v0", "t0", "4", "4", "8", "0.5,0.5"],
        ["v0", "t1", "2", "2", "4", "1.0,0.0"],
        ["v0", "t0", "4", "8", "10", "0.125,0.875"],
        ["v1", "t0", "4", "0", "4", "0.5,0.5"],
    ]


# kind -> (clean rows, {case: (rows, column) -> value edits; then the
# message, line and field the reader reports}).  Rows 0-4 are file lines
# 3-7; the column "+" appends a field to its row.
RECORD_CORRUPTIONS = {
    "detections": (_detection_rows, {
        "video_id": ({(1, "video_id"): "v 0"},
                     "invalid identifier 'v 0'", 4, "video_id"),
        "frame_not_integer": ({(2, "frame"): "1.5"},
                              "not an integer: '1.5'", 5, "frame"),
        "negative_frame": ({(3, "frame"): "-1"},
                           "not a non-negative base-10 integer: '-1'", 6,
                           "frame"),
        "bad_coordinate": ({(2, "y1"): "five"},
                           "not a number: 'five'", 5, "y1"),
        "nan_coordinate": ({(1, "x1"): "nan"},
                           "non-finite value: 'nan'", 4, "x1"),
        "inf_coordinate": ({(4, "y0"): "-inf"},
                           "non-finite value: '-inf'", 7, "y0"),
        "degenerate_box": ({(2, "x1"): "2.0"},
                           "degenerate box (2.0, 0.0, 2.0, 5.0)", 5, "x0"),
        "unknown_source": ({(1, "source"): "magic"},
                           "unknown source 'magic'", 4, "source"),
        "bad_class_score": ({(1, "scores"): "0.3,x"},
                            "not a number: 'x'", 4, "scores"),
        "nan_class_score": ({(4, "scores"): "nan,0.2"},
                            "non-finite value: 'nan'", 7, "scores"),
        "empty_scores": ({(3, "scores"): ""}, "not a number: ''", 6,
                         "scores"),
        "row_width": ({(3, "+"): "extra"},
                      "expected 8 fields, found 9", 6, None),
        "row_width_first": ({(1, "video_id"): "v 0", (4, "+"): "extra"},
                            "expected 8 fields, found 9", 7, None),
        "field_order": ({(1, "scores"): "x", (1, "x0"): "nan"},
                        "non-finite value: 'nan'", 4, "x0"),
        "box_before_source": ({(2, "x1"): "2.0", (2, "source"): "magic"},
                              "degenerate box (2.0, 0.0, 2.0, 5.0)", 5,
                              "x0"),
        "two_bad_rows": ({(1, "source"): "magic", (3, "video_id"): "v 0"},
                         "unknown source 'magic'", 4, "source"),
    }),
    "proposals": (_proposal_rows, {
        "video_id": ({(3, "video_id"): "v/0"},
                     "invalid identifier 'v/0'", 6, "video_id"),
        "frame_not_integer": ({(1, "frame"): "x"},
                              "not an integer: 'x'", 4, "frame"),
        "negative_frame": ({(4, "frame"): "-3"},
                           "not a non-negative base-10 integer: '-3'", 7,
                           "frame"),
        "bad_coordinate": ({(0, "x0"): "zero"},
                           "not a number: 'zero'", 3, "x0"),
        "inf_coordinate": ({(2, "y0"): "inf"},
                           "non-finite value: 'inf'", 5, "y0"),
        "degenerate_box": ({(1, "y1"): "0.0"},
                           "degenerate box (1.0, 0.0, 6.0, 0.0)", 4, "x0"),
        "bad_objectness": ({(2, "objectness"): "high"},
                           "not a number: 'high'", 5, "objectness"),
        "nan_objectness": ({(4, "objectness"): "nan"},
                           "non-finite value: 'nan'", 7, "objectness"),
        "empty_objectness": ({(1, "objectness"): ""},
                             "not a number: ''", 4, "objectness"),
        "row_width": ({(2, "+"): "extra"},
                      "expected 7 fields, found 8", 5, None),
        "two_bad_rows": ({(3, "objectness"): "x", (1, "frame"): "y"},
                         "not an integer: 'y'", 4, "frame"),
    }),
    "clipscores": (_clip_rows, {
        "video_id": ({(4, "video_id"): "v 1"},
                     "invalid identifier 'v 1'", 7, "video_id"),
        "tube_id": ({(2, "tube_id"): "t/1"},
                    "invalid identifier 't/1'", 5, "tube_id"),
        "bad_clip_length": ({(1, "clip_length"): "four"},
                            "not an integer: 'four'", 4, "clip_length"),
        "clip_length_with_plus": ({(1, "clip_length"): "+4"},
                                  "not an integer: '+4'", 4, "clip_length"),
        "clip_length_with_space": ({(0, "clip_length"): " 4"},
                                   "not an integer: ' 4'", 3,
                                   "clip_length"),
        "clip_length_other_digits": ({(4, "clip_length"): "٤"},
                                     "not an integer: '٤'", 7,
                                     "clip_length"),
        "clip_length_with_underscore": ({(4, "clip_length"): "4_0"},
                                        "not an integer: '4_0'", 7,
                                        "clip_length"),
        "bad_start": ({(3, "start"): "8.0"},
                      "not an integer: '8.0'", 6, "start"),
        "negative_end": ({(2, "end"): "-4"},
                         "not a non-negative base-10 integer: '-4'", 5,
                         "end"),
        "bad_score": ({(1, "scores"): "0.5,half"},
                      "not a number: 'half'", 4, "scores"),
        "nan_score": ({(4, "scores"): "nan,0.5"},
                      "non-finite value: 'nan'", 7, "scores"),
        "empty_scores": ({(0, "scores"): ""}, "not a number: ''", 3,
                         "scores"),
        "row_width": ({(0, "+"): "extra"},
                      "expected 6 fields, found 7", 3, None),
        "mixed_clip_lengths": ({(3, "clip_length"): "2"},
                               "tube 't0' mixes clip lengths", 6,
                               "clip_length"),
        "lengths_checked_row_by_row": ({(3, "clip_length"): "2",
                                        (4, "scores"): "x"},
                                       "tube 't0' mixes clip lengths", 6,
                                       "clip_length"),
        "non_consecutive_clips": ({(1, "start"): "5"},
                                  "clip intervals must be consecutive", 4,
                                  "start"),
        "empty_interval": ({(2, "start"): "4"},
                           "empty frame interval [4, 4)", 5, "start"),
        "zero_clip_length": ({(2, "clip_length"): "0"},
                             "clip_length must be >= 1, got 0", 5,
                             "clip_length"),
        "unequal_class_counts": ({(1, "scores"): "0.5,0.25,0.25"},
                                 "clip score vectors differ in class count",
                                 4, "scores"),
        "scores_not_normalized": ({(4, "scores"): "0.5,0.625"},
                                  "clip scores sum to 1.125, expected 1 "
                                  "within 1e-06", 7, "scores"),
        "two_bad_tubes": ({(4, "scores"): "0.5,0.625", (2, "start"): "4"},
                          "empty frame interval [4, 4)", 5, "start"),
        "rows_before_tubes": ({(2, "start"): "4", (4, "tube_id"): "t 0"},
                              "invalid identifier 't 0'", 7, "tube_id"),
    }),
}

RECORD_READERS = {"detections": formats.read_detections,
                  "proposals": formats.read_proposals,
                  "clipscores": formats.read_clip_scores}


def _write_rows(path, kind, rows):
    """A record file of ``kind`` holding ``rows`` as given, any width."""
    formats.write_records(path, kind, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


class TestRecordReaderErrors:
    """Each corruption is reported with the message, line and field of
    the row-by-row checks: row widths first, then row by row in file
    order, field by field within a row; clip scores then check each
    tube's clips in id order."""

    @pytest.mark.parametrize("kind, case", [
        (kind, case) for kind, (_, cases) in sorted(RECORD_CORRUPTIONS.items())
        for case in sorted(cases)])
    def test_corruption_reported_where_it_is(self, tmp_path, kind, case):
        clean, cases = RECORD_CORRUPTIONS[kind]
        edits, message, line, field = cases[case]
        columns = formats.SCHEMAS[kind].columns
        rows = clean()
        for (row, column), value in edits.items():
            if column == "+":
                rows[row].append(value)
            else:
                rows[row][columns.index(column)] = value
        path = tmp_path / "r.tsv"
        _write_rows(path, kind, rows)
        with pytest.raises(SchemaError) as info:
            RECORD_READERS[kind](path)
        assert str(info.value).endswith(": " + message)
        assert (info.value.line, info.value.field) == (line, field)

    @pytest.mark.parametrize("kind, case", [
        (kind, case) for kind, (_, cases) in sorted(RECORD_CORRUPTIONS.items())
        for case in sorted(cases)])
    def test_corruption_reported_across_blocks(self, tmp_path, monkeypatch,
                                               kind, case):
        monkeypatch.setattr(formats, "_BLOCK_ROWS", 2)
        self.test_corruption_reported_where_it_is(tmp_path, kind, case)

    def test_clean_files_read(self, tmp_path):
        box = BoundingBox
        path = tmp_path / "r.tsv"
        _write_rows(path, "detections", _detection_rows())
        assert formats.read_detections(path) == {
            "v0": [Detection(0, box(0, 0, 5, 5), (0.2, 0.8), Source.STATIC),
                   Detection(1, box(1, 0, 6, 5), (0.3, 0.7), Source.FLOW),
                   Detection(1, box(0, 1, 5, 6), (0.9, 0.1),
                             Source.EARLY_FUSION)],
            "v1": [Detection(0, box(2, 0, 7, 5), (0.4, 0.6), Source.MERGED),
                   Detection(2, box(0, 2, 5, 7), (0.8, 0.2),
                             Source.LATE_FUSION)]}
        _write_rows(path, "proposals", _proposal_rows())
        back = formats.read_proposals(path)
        assert back == {
            "v0": {0: (Proposal(0, box(0, 0, 5, 5), 0.5),
                       Proposal(0, box(0, 1, 5, 6), 0.75)),
                   1: (Proposal(1, box(1, 0, 6, 5), 0.25),)},
            "v1": {0: (Proposal(0, box(2, 0, 7, 5), 1.0),),
                   3: (Proposal(3, box(0, 2, 5, 7), 0.0),)}}
        assert [list(frames) for frames in back.values()] == [[0, 1], [0, 3]]
        _write_rows(path, "clipscores", _clip_rows())
        back = formats.read_clip_scores(path)
        assert back == {
            ("v0", "t0"): ClipScoreSequence(
                4, (FrameInterval(0, 4), FrameInterval(4, 8),
                    FrameInterval(8, 10)),
                ((0.25, 0.75), (0.5, 0.5), (0.125, 0.875))),
            ("v0", "t1"): ClipScoreSequence(2, (FrameInterval(2, 4),),
                                            ((1.0, 0.0),)),
            ("v1", "t0"): ClipScoreSequence(4, (FrameInterval(0, 4),),
                                            ((0.5, 0.5),))}
        assert list(back) == sorted(back)

    @pytest.mark.parametrize("kind", sorted(RECORD_READERS))
    def test_blocks_read_like_one_pass(self, tmp_path, monkeypatch, kind):
        rows = RECORD_CORRUPTIONS[kind][0]()
        path = tmp_path / "r.tsv"
        formats.write_records(path, kind, [])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + "\t".join(rows[0]) + "\n\n\n"
                     + "".join("\t".join(row) + "\n" for row in rows[1:]))
        reader = RECORD_READERS[kind]
        expected = reader(path)
        for block in (1, 2, 3):
            monkeypatch.setattr(formats, "_BLOCK_ROWS", block)
            assert reader(path) == expected


# Field values near the edges of what the column-wise and the row-wise
# parsers accept.
EDGE_VALUES = ["", " ", "-", "0", "07", "+1", "-1", " 1", "1.5", "-0.0",
               "1e400", "nan", "inf", "x", "٣", "1_0", "v 0", "static",
               "STATIC", "0.5,0.5", "1,", ",1", "0.5,0.25,0.25"]


@pytest.mark.parametrize("kind", ["detections", "proposals", "clipscores",
                                  "tubes", "gttubes"])
def test_column_and_row_checks_agree(tmp_path, kind):
    """Whatever one field holds, the column-wise reader accepts the file
    exactly when the row-wise checks do: a file it reads passes them, and
    one it rejects is their schema error, not a ``ProcessingError``."""
    clean = {"tubes": _tube_rows, **{
        name: rows for name, (rows, _) in RECORD_CORRUPTIONS.items()}}.get(
        kind, lambda: [["v0", "a0", "1", str(f), "0.0", "0.0", "5.0", "5.0"]
                       for f in (0, 1)])
    reader = {"tubes": formats.read_tubes,
              "gttubes": formats.read_gt_tubes, **RECORD_READERS}[kind]
    check = {"detections": formats._check_detections,
             "proposals": formats._check_proposals,
             "clipscores": formats._check_clip_scores,
             "tubes": formats._check_tubes,
             "gttubes": formats._check_gt_tubes}[kind]
    path = tmp_path / "r.tsv"
    for column in range(len(formats.SCHEMAS[kind].columns)):
        for value in EDGE_VALUES:
            rows = clean()
            rows[1][column] = value
            formats.write_records(path, kind, rows)
            try:
                reader(path)
            except SchemaError:
                continue
            check(path, formats.read_records(path, kind))


class TestFrameFields:
    """Frames are non-negative base-10 integers in every record kind."""

    ROWS = {
        "detections": ("v0", "{}", "0.0", "0.0", "5.0", "5.0", "static",
                       "1.0"),
        "proposals": ("v0", "{}", "0.0", "0.0", "5.0", "5.0", "0.5"),
        "tubes": ("v0", "t0", "{}", "0.0", "0.0", "5.0", "5.0", "static",
                  "1.0", "-", "-"),
        "gttubes": ("v0", "a0", "1", "{}", "0.0", "0.0", "5.0", "5.0"),
        "clipscores": ("v0", "t0", "4", "{}", "4", "1.0"),
    }
    READERS = {"detections": formats.read_detections,
               "proposals": formats.read_proposals,
               "tubes": formats.read_tubes,
               "gttubes": formats.read_gt_tubes,
               "clipscores": formats.read_clip_scores}
    FIELD = {"clipscores": "start"}

    @pytest.mark.parametrize("kind", sorted(ROWS))
    @pytest.mark.parametrize("value", ["-2", "+3", " 3", "3 ", "3_0",
                                       "٣", "３"])
    def test_other_integer_forms_rejected(self, tmp_path, kind, value):
        path = tmp_path / "r.tsv"
        row = tuple(f.format(value) for f in self.ROWS[kind])
        formats.write_records(path, kind, [row])
        with pytest.raises(SchemaError) as info:
            self.READERS[kind](path)
        assert info.value.field == self.FIELD.get(kind, "frame")
        assert info.value.line == 3
        assert f"not a non-negative base-10 integer: {value!r}" in \
            str(info.value)

    def test_clip_end_checked_too(self, tmp_path):
        path = tmp_path / "c.tsv"
        formats.write_records(path, "clipscores",
                              [("v0", "t0", "4", "0", "+4", "1.0")])
        with pytest.raises(SchemaError) as info:
            formats.read_clip_scores(path)
        assert info.value.field == "end"

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_leading_zeros_accepted(self, tmp_path, kind):
        path = tmp_path / "r.tsv"
        row = tuple(f.format("0003") for f in self.ROWS[kind])
        formats.write_records(path, kind, [row])
        self.READERS[kind](path)


class TestClipScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        clips = ClipScoreSequence(
            4, (FrameInterval(0, 4), FrameInterval(4, 10)),
            ((0.25, 0.75), (0.5, 0.5)))
        other = ClipScoreSequence(4, (FrameInterval(8, 12),),
                                  ((1.0, 0.0),))
        data = {("v0", "t0"): clips, ("v1", "t9"): other}
        formats.write_clip_scores(path, [("v0", {("v0", "t0"): clips}),
                                         ("v1", {("v1", "t9"): other})])
        assert formats.read_clip_scores(path) == data

    @given(st.lists(st.lists(st.floats(0.01, 1.0, width=64), min_size=3,
                             max_size=3), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_distributions_round_trip(self, tmp_path_factory,
                                                raw):
        path = tmp_path_factory.mktemp("io") / "c.tsv"
        scores = tuple(tuple(v / sum(vec) for v in vec) for vec in raw)
        intervals = tuple(FrameInterval(4 * i, 4 * (i + 1))
                          for i in range(len(scores)))
        clips = ClipScoreSequence(4, intervals, scores)
        formats.write_clip_scores(path, [("v0", {("v0", "t0"): clips})])
        assert formats.read_clip_scores(path) == {("v0", "t0"): clips}

    def test_mixed_clip_length_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        rows = [("v0", "t0", "4", "0", "4", "1.0"),
                ("v0", "t0", "8", "4", "12", "1.0")]
        formats.write_records(path, "clipscores", rows)
        with pytest.raises(SchemaError):
            formats.read_clip_scores(path)


class TestHeaderValidation:
    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "x.tsv"
        formats.write_detections(path, {})
        with pytest.raises(SchemaError) as info:
            formats.read_proposals(path)
        assert "detections" in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("#something else 1\n")
        with pytest.raises(SchemaError):
            formats.read_detections(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("#actiontubes detections 99\n#columns\ta\n")
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        assert "version" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            formats.read_detections(tmp_path / "absent.tsv")

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "x.tsv"
        formats.write_detections(path, {})
        with open(path, "a") as fh:
            fh.write("v0\t3\n")
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        assert info.value.line == 3

    def test_bad_number_names_field(self, tmp_path):
        path = tmp_path / "x.tsv"
        formats.write_records(
            path, "detections",
            [("v0", "zero", "0.0", "0.0", "5.0", "5.0", "static", "1.0")])
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        assert info.value.field == "frame"
        assert info.value.line == 3

    def test_bad_identifier_rejected(self, tmp_path):
        path = tmp_path / "x.tsv"
        formats.write_records(
            path, "detections",
            [("v 0", "0", "0.0", "0.0", "5.0", "5.0", "static", "1.0")])
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        assert info.value.field == "video_id"


def _gt_rows():
    """One ground-truth tube of label 1, v0/a0 on frames 0-4."""
    return [["v0", "a0", "1", str(f), "0.0", "0.0", "5.0", "5.0"]
            for f in range(5)]


class TestLineBreaks:
    """Rows end at ``\\n`` only: another line break is part of its row,
    so every report names the line an editor shows."""

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x1e",
                                     "\x85", "\u2028", "\r"])
    def test_other_breaks_do_not_shift_lines(self, tmp_path, brk):
        rows = _detection_rows()
        rows[1][7] += brk               # line 4, after a float
        rows[3][6] = "magic"            # line 6
        path = tmp_path / "d.tsv"
        _write_rows(path, "detections", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        try:                            # whitespace float() takes
            float("0.7" + brk)
            expected = (6, "source")
        except ValueError:
            expected = (4, "scores")
        assert (info.value.line, info.value.field) == expected

    def test_float_fields_take_surrounding_whitespace(self, tmp_path):
        rows = _detection_rows()
        rows[1][7] = " 0.3,0.7\x0c"
        path = tmp_path / "d.tsv"
        _write_rows(path, "detections", rows)
        assert formats.read_detections(path)["v0"][1].class_scores == \
            (0.3, 0.7)

    def test_break_inside_an_identifier_is_rejected(self, tmp_path):
        rows = _detection_rows()
        rows[2][0] = "v1\x0c"
        path = tmp_path / "d.tsv"
        _write_rows(path, "detections", rows)
        with pytest.raises(SchemaError) as info:
            formats.read_detections(path)
        assert (info.value.line, info.value.field) == (5, "video_id")


def _two_video_tube_rows():
    """The tubes of ``_tube_rows`` in v0 and a copy in v1, interleaved."""
    rows = []
    for row in _tube_rows():
        rows += [row, ["v1", *row[1:]]]
    return rows


def _two_video_gt_rows():
    return [[video, *row[1:]] for row in _gt_rows() for video in ("v1", "v0")]


class TestVideoRecords:
    """The per-video reader gives each video's records, whatever the row
    order, the chunk size of its first pass or the block size."""

    CLEAN = {"detections": _detection_rows, "proposals": _proposal_rows,
             "clipscores": _clip_rows, "tubes": _two_video_tube_rows,
             "gttubes": _two_video_gt_rows}

    @pytest.mark.parametrize("order", ["file", "reversed"])
    @pytest.mark.parametrize("kind", sorted(CLEAN))
    def test_sizes_do_not_change_the_records(self, tmp_path, monkeypatch,
                                             kind, order):
        rows = self.CLEAN[kind]()
        if order == "reversed":
            rows = rows[::-1]
        path = tmp_path / "r.tsv"
        formats.write_records(path, kind, [])
        with open(path, "a", encoding="utf-8") as fh:
            # blank lines, and a last row without its line break
            fh.write("\n" + "\n\n".join("\t".join(row) for row in rows))
        expected = list(formats.VideoRecords(path, kind))
        assert [video_id for video_id, _ in expected] == ["v0", "v1"]
        for chunk in (1, 2, 5, 64):
            for block in (1, 2):
                monkeypatch.setattr(formats, "_CHUNK_BYTES", chunk)
                monkeypatch.setattr(formats, "_BLOCK_ROWS", block)
                assert list(formats.VideoRecords(path, kind)) == expected

    def test_a_sorted_file_holds_one_range_per_video(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "t.tsv"
        formats.write_records(path, "tubes", sorted(_two_video_tube_rows()))
        monkeypatch.setattr(formats, "_CHUNK_BYTES", 16)
        ranges = formats._video_ranges(path, "tubes")
        assert {video: len(runs) for video, runs in ranges.items()} == \
            {"v0": 1, "v1": 1}

    def test_read_by_video_id(self, tmp_path):
        path = tmp_path / "r.tsv"
        _write_rows(path, "detections", _detection_rows())
        records = formats.VideoRecords(path, "detections")
        assert records.video_ids == ["v0", "v1"]
        assert records.read("v1") == formats.read_detections(path)["v1"]
        assert records.read("v9") == []

    def test_fault_in_a_later_video_reported_row_wise(self, tmp_path):
        """The first problem of the whole file is reported, in file
        order, whichever video is read first."""
        rows = _detection_rows()
        rows[2][2] = "x"                # v1, line 5
        rows[3][3] = "y"                # v0, line 6
        path = tmp_path / "d.tsv"
        _write_rows(path, "detections", rows)
        with pytest.raises(SchemaError) as info:
            formats.VideoRecords(path, "detections").read("v0")
        assert (info.value.line, info.value.field) == (5, "x0")


class TestVideoWriters:
    def test_videos_out_of_order_rejected_leaving_no_file(self, tmp_path):
        det = Detection(0, BoundingBox(0.0, 0.0, 5.0, 5.0), (1.0,))
        path = tmp_path / "d.tsv"
        with pytest.raises(InputError, match="ascending"):
            formats.write_detections(path, [("v1", [det]), ("v0", [det])])
        assert list(tmp_path.iterdir()) == []

    def test_tube_of_another_video_rejected(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tube = GroundTruthTube("v1", "a0", 0, 0, (box,))
        with pytest.raises(InputError, match="'v1' written with"):
            formats.write_gt_tubes(tmp_path / "gt.tsv", [("v0", [tube])])

    def test_clips_of_another_video_rejected(self, tmp_path):
        clips = ClipScoreSequence(4, (FrameInterval(0, 4),), ((1.0,),))
        with pytest.raises(InputError, match="'v1' written with"):
            formats.write_clip_scores(tmp_path / "c.tsv",
                                      [("v0", {("v1", "t0"): clips})])

    def test_chunks_write_the_bytes_of_one_sorted_write(self, bundle,
                                                        tmp_path):
        """Detections of one video may come in any order; the rows come
        out sorted, as a whole-scenario write sorted them."""
        path = tmp_path / "d.tsv"
        chunks = [(v.video_id, v.detections["static"][::-1])
                  for v in bundle.videos]
        formats.write_detections(path, chunks)
        rows = [fields for _, fields in
                formats.read_records(path, "detections")]
        keys = [(f[0], int(f[1]), max(map(float, f[7].split(","))))
                for f in rows]
        assert [k[:2] for k in keys] == sorted(k[:2] for k in keys)


class TestEncoding:
    """Record files are UTF-8: the first byte that is not is a schema
    error at its line, whatever the kind."""

    CLEAN = {"detections": _detection_rows, "proposals": _proposal_rows,
             "clipscores": _clip_rows, "tubes": _tube_rows,
             "gttubes": _gt_rows}
    READERS = {"tubes": formats.read_tubes,
               "gttubes": formats.read_gt_tubes, **RECORD_READERS}

    @pytest.mark.parametrize("byte", [b"\xff", b"\xe9"],
                             ids=["0xff", "0xe9"])
    @pytest.mark.parametrize("kind", sorted(CLEAN))
    def test_bad_byte_reported_at_its_line(self, tmp_path, kind, byte):
        path = tmp_path / "r.tsv"
        formats.write_records(path, kind, self.CLEAN[kind]())
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4][:3] + byte + lines[4][3:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SchemaError) as info:
            self.READERS[kind](path)
        assert str(info.value) == \
            f"{path}, line 5: not UTF-8: byte {byte[0]:#04x}"

    def test_bad_byte_in_header(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes(b"#actiontubes tubes 1\xff\n")
        with pytest.raises(SchemaError) as info:
            formats.read_tubes(path)
        assert (info.value.line, info.value.field) == (1, None)


class TestMetrics:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        rows = [("map", "video", "0.5", "-", "1.0"),
                ("ap", "video", "0.5", "0", "1.0")]
        formats.write_metrics(path, rows)
        assert [fields for _, fields in formats.read_records(path, "metrics")] \
            == sorted(tuple(r) for r in rows)


class TestArrayContainer:
    def test_round_trip_shapes_and_dtypes(self, tmp_path):
        path = tmp_path / "a.atb"
        arrays = {
            "floats": np.linspace(0, 1, 12).reshape(3, 4),
            "ints": np.arange(6, dtype=np.int64).reshape(2, 3, 1),
            "bytes": np.frombuffer(b"relu", dtype=np.uint8),
            "vector": np.array([1.5, -2.5]),
            "deep": np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2),
        }
        formats.write_arrays(path, sorted(arrays.items()))
        back = formats.read_arrays(path)
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == np.asarray(arr).dtype
            assert np.array_equal(back[name], arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.atb"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(SchemaError):
            formats.read_arrays(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("x", np.arange(10.0))])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(SchemaError) as info:
            formats.read_arrays(path)
        assert "truncated" in str(info.value)

    def test_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("x", np.arange(4.0)),
                                    ("y", np.eye(2, dtype=np.int64))])
        for arr in formats.read_arrays(path).values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7

    @pytest.mark.parametrize("name, word", [(b"a", "twice"),
                                            (b"\xff", "UTF-8")])
    def test_bad_array_name_detected(self, tmp_path, name, word):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("a", np.zeros(2)), ("b", np.zeros(2))])
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00" + name))
        with pytest.raises(SchemaError) as info:
            formats.read_arrays(path)
        assert word in str(info.value)

    def test_descending_names_detected(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("b", np.zeros(2)), ("c", np.zeros(2))])
        path.write_bytes(path.read_bytes().replace(b"\x01\x00c",
                                                   b"\x01\x00a"))
        with pytest.raises(SchemaError, match="'a' comes after 'b'"):
            formats.read_arrays(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("x", np.arange(4.0))])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SchemaError) as info:
            formats.read_arrays(path)
        assert "trailing" in str(info.value)

    def test_weights_round_trip(self, tmp_path):
        path = tmp_path / "w.atb"
        weights = RecurrentScorerWeights(
            w_io=np.eye(3), w_hh=np.zeros((3, 3)), b_y=np.zeros(3),
            w_cls=np.ones((2, 3)), b_cls=np.array([0.0, -1.0]),
            activation="logistic")
        formats.write_weights(path, weights)
        back = formats.read_weights(path)
        assert back.activation == "logistic"
        for name in ("w_io", "w_hh", "b_y", "w_cls", "b_cls"):
            assert np.array_equal(getattr(back, name),
                                  getattr(weights, name))

    def test_weights_missing_entry(self, tmp_path):
        path = tmp_path / "w.atb"
        formats.write_arrays(path, [("w_io", np.eye(2))])
        with pytest.raises(SchemaError) as info:
            formats.read_weights(path)
        assert "missing" in str(info.value)

    def test_alphas_round_trip(self, tmp_path):
        path = tmp_path / "al.atb"
        alphas = np.random.default_rng(0).uniform(size=(3, 49))
        formats.write_alphas(path, alphas)
        assert np.array_equal(formats.read_alphas(path), alphas)

    def test_flow_round_trip(self, bundle, tmp_path):
        path = tmp_path / "f.atb"
        data = flow_grids(bundle)
        formats.write_flow(path, (pair for pair in data))
        back = list(formats.read_flow(path))
        assert {v for v, _ in back} == {v for v, _ in data}
        for video_id in {v for v, _ in data}:
            assert [g.frame_index for v, g in back if v == video_id] == \
                [g.frame_index for v, g in data if v == video_id]
        for (_, got), (_, grid) in zip(back, data):
            assert np.array_equal(got.values, grid.values)

    @pytest.mark.parametrize("name", ["v0/\u00b2", "v0/1", "v 0/00000001"])
    def test_flow_bad_name_rejected(self, tmp_path, name):
        path = tmp_path / "f.atb"
        formats.write_arrays(path, [(name, np.ones((2, 2)))])
        with pytest.raises(SchemaError) as info:
            list(formats.read_flow(path))
        assert "name" in str(info.value)

    def test_flow_truncated_mid_grid_fails_when_reached(self, bundle,
                                                          tmp_path):
        path = tmp_path / "f.atb"
        formats.write_flow(path, flow_grids(bundle)[:3])
        path.write_bytes(path.read_bytes()[:-100])
        grids = formats.read_flow(path)
        assert [next(grids)[1].frame_index for _ in range(2)] == [0, 1]
        with pytest.raises(SchemaError) as info:
            next(grids)
        assert "truncated" in str(info.value)

    def test_flow_checks_every_grid(self, tmp_path):
        path = tmp_path / "f.atb"
        formats.write_arrays(path, [("v0/00000000", np.ones((2, 2))),
                                    ("v0/00000001", -np.ones((2, 2)))])
        with pytest.raises(SchemaError) as info:
            list(formats.read_flow(path))
        assert ">= 0" in str(info.value)

    @pytest.mark.parametrize("names", [("b", "a"), ("a", "a")])
    def test_unordered_names_rejected_leaving_no_file(self, tmp_path,
                                                      names):
        path = tmp_path / "a.atb"
        with pytest.raises(InputError) as info:
            formats.write_arrays(path, [(n, np.zeros(2)) for n in names])
        assert "ascending" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_streamed_bytes_equal_golden_container(self, tmp_path):
        path = tmp_path / "g.atb"
        arrays = {"b": np.array([[1, -2]], dtype=np.int64),
                  "a": np.array([0.5, -1.25]),
                  "c": np.frombuffer(b"ok", dtype=np.uint8)}
        formats.write_arrays(path, (pair for pair in sorted(arrays.items())))
        assert path.read_bytes() == bytes.fromhex(GOLDEN_CONTAINER)
        back = formats.read_arrays(path)
        for name, arr in arrays.items():
            assert np.array_equal(back[name], arr)

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False, width=64),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_floats_survive_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("io") / "x.atb"
        formats.write_arrays(path, [("v", np.asarray(values))])
        assert np.array_equal(formats.read_arrays(path)["v"],
                              np.asarray(values))


class TestAtomicWrites:
    def test_failed_record_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        rows = [("map", "video", "0.5", "-", "1.0")]
        formats.write_metrics(path, rows)
        good = path.read_bytes()
        with pytest.raises(InputError):
            formats.write_records(path, "metrics",
                                  [*rows, ("map", "video", "0.5")])
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["m.tsv"]

    def test_failed_record_write_leaves_no_file(self, tmp_path):
        with pytest.raises(InputError):
            formats.write_records(tmp_path / "m.tsv", "metrics",
                                  [("map", "video", "0.5", "-", "1.0"),
                                   ("short",)])
        assert list(tmp_path.iterdir()) == []

    def test_failed_array_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, [("x", np.arange(3.0))])
        good = path.read_bytes()
        with pytest.raises(InputError):
            formats.write_arrays(path, [("a", np.arange(3.0)),
                                        ("b", np.array(["text"]))])
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["a.atb"]
