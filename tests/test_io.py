"""Round-trip and validation tests for the on-disk formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actiontubes import formats
from actiontubes.errors import InputError, SchemaError
from actiontubes.fusion import FlowMagnitudeGrid
from actiontubes.model import (BoundingBox, ClipScoreSequence, Detection,
                               FrameInterval, GroundTruthTube, Proposal,
                               Source, Tube)
from actiontubes.scoring import RecurrentScorerWeights
from actiontubes.synth import ScenarioConfig, generate
from actiontubes.tracker import PrecomputedMatcher


@pytest.fixture(scope="module")
def bundle():
    return generate(ScenarioConfig(
        seed=11, video_count=3, frames_per_video=12, num_classes=2,
        clip_length=4, jitter_sigma=1.5, false_positive_rate=0.3,
        frame_size=(160, 120), with_footprint=False, with_flow=True))


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
        formats.write_detections(path, data)
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
        formats.write_detections(a, data)
        formats.write_detections(b, formats.read_detections(a))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_round_trips(self, tmp_path):
        path = tmp_path / "d.tsv"
        formats.write_detections(path, {})
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
        formats.write_detections(path, {"v0": [det]})
        assert formats.read_detections(path) == {"v0": [det]}


class TestProposalsRoundTrip:
    def test_bundle_proposals(self, bundle, tmp_path):
        path = tmp_path / "p.tsv"
        data = {v.video_id: v.proposals for v in bundle.videos}
        formats.write_proposals(path, data)
        back = formats.read_proposals(path)
        assert set(back) == set(data)
        for video_id, frames in data.items():
            for frame, props in frames.items():
                assert sorted(back[video_id][frame],
                              key=lambda p: p.objectness) == \
                    sorted(props, key=lambda p: p.objectness)


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
        formats.write_arrays(path, {name: np.zeros((1, 4))})
        with pytest.raises(SchemaError) as info:
            formats.read_matches(path)
        assert "name" in str(info.value)

    @pytest.mark.parametrize("rows", [np.zeros((2, 3)), np.zeros(4),
                                      np.zeros((2, 4), dtype=np.int64),
                                      np.zeros((1, 2, 4))])
    def test_bad_array_shape_or_dtype_rejected(self, tmp_path, rows):
        path = tmp_path / "m.atb"
        formats.write_arrays(path, {"v0/00000000": rows})
        with pytest.raises(SchemaError) as info:
            formats.read_matches(path)
        assert "(N, 4)" in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, tmp_path, bad):
        path = tmp_path / "m.atb"
        formats.write_arrays(path, {"v0/00000000": np.array([[0, 1, bad, 2]])})
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
            entries = tuple(
                Detection(f, video.gt_tubes[0].box_at(f), (0.3, 0.7),
                          Source.TRACKED if f % 2 else Source.MERGED)
                for f in video.gt_tubes[0].interval().frames())
            label = None if i == 0 else 1
            score = None if i == 0 else 1.25
            tubes.append(Tube(video.video_id, f"t{i}", entries,
                              label=label, score=score))
        return tubes

    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "t.tsv"
        tubes = self._tubes(bundle)
        formats.write_tubes(path, tubes)
        back = formats.read_tubes(path)
        assert back == sorted(tubes, key=lambda t: (t.video_id, t.tube_id))

    def test_rewrite_is_byte_identical(self, bundle, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        formats.write_tubes(a, self._tubes(bundle))
        formats.write_tubes(b, formats.read_tubes(a))
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_tube_id_rejected_on_write(self, bundle, tmp_path):
        tube = self._tubes(bundle)[0]
        with pytest.raises(Exception):
            formats.write_tubes(tmp_path / "t.tsv", [tube, tube])

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


class TestGroundTruthRoundTrip:
    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "gt.tsv"
        tubes = [gt for v in bundle.videos for gt in v.gt_tubes]
        formats.write_gt_tubes(path, tubes)
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

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        rows = [("v0", "a0", "1", "0", "0.0", "0.0", "5.0", "5.0"),
                ("v0", "a0", "2", "1", "0.0", "0.0", "5.0", "5.0")]
        formats.write_records(path, "gttubes", rows)
        with pytest.raises(SchemaError):
            formats.read_gt_tubes(path)


class TestClipScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        clips = ClipScoreSequence(
            4, (FrameInterval(0, 4), FrameInterval(4, 10)),
            ((0.25, 0.75), (0.5, 0.5)))
        other = ClipScoreSequence(4, (FrameInterval(8, 12),),
                                  ((1.0, 0.0),))
        data = {("v0", "t0"): clips, ("v1", "t9"): other}
        formats.write_clip_scores(path, data)
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
        formats.write_clip_scores(path, {("v0", "t0"): clips})
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


class TestMetrics:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        rows = [("map", "video", "0.5", "-", "1.0"),
                ("ap", "video", "0.5", "0", "1.0")]
        formats.write_metrics(path, rows)
        assert formats.read_metrics(path) == sorted(tuple(r) for r in rows)


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
        formats.write_arrays(path, arrays)
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
        formats.write_arrays(path, {"x": np.arange(10.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(SchemaError) as info:
            formats.read_arrays(path)
        assert "truncated" in str(info.value)

    def test_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, {"x": np.arange(4.0),
                                    "y": np.eye(2, dtype=np.int64)})
        for arr in formats.read_arrays(path).values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7

    @pytest.mark.parametrize("name, word", [(b"a", "twice"),
                                            (b"\xff", "UTF-8")])
    def test_bad_array_name_detected(self, tmp_path, name, word):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, {"a": np.zeros(2), "b": np.zeros(2)})
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00" + name))
        with pytest.raises(SchemaError) as info:
            formats.read_arrays(path)
        assert word in str(info.value)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "a.atb"
        formats.write_arrays(path, {"x": np.arange(4.0)})
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
        formats.write_arrays(path, {"w_io": np.eye(2)})
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
        data = {v.video_id: v.flow for v in bundle.videos}
        formats.write_flow(path, data)
        back = formats.read_flow(path)
        assert set(back) == set(data)
        for video_id, grids in data.items():
            assert set(back[video_id]) == set(grids)
            for frame, grid in grids.items():
                assert np.array_equal(back[video_id][frame].values,
                                      grid.values)

    @pytest.mark.parametrize("name", ["v0/\u00b2", "v0/1", "v 0/00000001"])
    def test_flow_bad_name_rejected(self, tmp_path, name):
        path = tmp_path / "f.atb"
        formats.write_arrays(path, {name: np.ones((2, 2))})
        with pytest.raises(SchemaError) as info:
            formats.read_flow(path)
        assert "name" in str(info.value)

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False, width=64),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_floats_survive_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("io") / "x.atb"
        formats.write_arrays(path, {"v": np.asarray(values)})
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
        formats.write_arrays(path, {"x": np.arange(3.0)})
        good = path.read_bytes()
        with pytest.raises(InputError):
            formats.write_arrays(path, {"a": np.arange(3.0),
                                        "b": np.array(["text"])})
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["a.atb"]
