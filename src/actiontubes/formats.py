"""On-disk formats: versioned record files and a binary array container.

Sparse records (detections, proposals, tube entries, ground truth, clip
scores, metrics) live in tab-separated text files with a two-line
header naming the record kind, format version and column layout.
Dense numeric payloads (point matches, flow grids, scorer weights,
cell accuracies) live in a little-endian container of named arrays,
read back as read-only views of the file's bytes.  Writers emit
records and arrays in a canonical order so identical data always
produces identical bytes, and every file is written to a temp file
beside its target and then renamed onto it, so a failed write never
leaves a truncated file.  See FORMATS.md for the field-by-field
reference.
"""

from __future__ import annotations

import math
import os
import re
import struct
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SchemaError
from .model import (BoundingBox, ClipScoreSequence, Detection,
                    FlowMagnitudeGrid, FrameInterval, GroundTruthTube,
                    Proposal, Source, Tube)

MAGIC_WORD = "actiontubes"
FORMAT_VERSION = 1

_ID_PATTERN = re.compile(r"[A-Za-z0-9_.:-]+\Z")


@dataclass(frozen=True)
class RecordSchema:
    kind: str
    columns: tuple[str, ...]


SCHEMAS = {
    "detections": RecordSchema("detections", (
        "video_id", "frame", "x0", "y0", "x1", "y1", "source", "scores")),
    "proposals": RecordSchema("proposals", (
        "video_id", "frame", "x0", "y0", "x1", "y1", "objectness")),
    "tubes": RecordSchema("tubes", (
        "video_id", "tube_id", "frame", "x0", "y0", "x1", "y1", "source",
        "scores", "label", "score")),
    "gttubes": RecordSchema("gttubes", (
        "video_id", "tube_id", "label", "frame", "x0", "y0", "x1", "y1")),
    "clipscores": RecordSchema("clipscores", (
        "video_id", "tube_id", "clip_length", "start", "end", "scores")),
    "metrics": RecordSchema("metrics", (
        "metric", "mode", "sigma", "class_label", "value")),
}


def _format_float(value) -> str:
    return repr(float(value))


def _format_scores(scores: Sequence[float]) -> str:
    return ",".join(_format_float(s) for s in scores)


def _check_id(value: str, path, line: int | None, field: str) -> str:
    if not _ID_PATTERN.match(value):
        raise SchemaError(f"invalid identifier {value!r}",
                          path=path, line=line, field=field)
    return value


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs) -> Iterator:
    """A file opened beside ``path`` that replaces it only on success.

    The body writes to a temp file in the same directory, private to
    this process and thread; a normal exit renames it onto ``path`` with
    ``os.replace``, an exception removes it.  A failed write therefore
    leaves no partial ``path`` and keeps any previous one intact.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    temp = os.path.join(
        head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fh = open(temp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise


def write_records(path, kind: str, rows: Iterable[Sequence[str]]) -> None:
    schema = SCHEMAS[kind]
    width = len(schema.columns)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#{MAGIC_WORD} {schema.kind} {FORMAT_VERSION}\n")
        fh.write("#columns\t" + "\t".join(schema.columns) + "\n")
        for row in rows:
            if len(row) != width:
                raise InputError(
                    f"{kind} row has {len(row)} fields, expected {width}")
            fh.write("\t".join(row) + "\n")


def read_records(path, kind: str) -> list[tuple[int, tuple[str, ...]]]:
    """Header-checked rows of a record file, as (line number, fields)."""
    schema = SCHEMAS[kind]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path=str(path))
    if not lines:
        raise SchemaError("empty file, expected a header", path=str(path))
    head = lines[0].split(" ")
    if len(head) != 3 or head[0] != f"#{MAGIC_WORD}":
        raise SchemaError(f"bad header line {lines[0]!r}",
                          path=str(path), line=1)
    if head[1] != schema.kind:
        raise SchemaError(
            f"file holds {head[1]!r} records, expected {schema.kind!r}",
            path=str(path), line=1)
    if head[2] != str(FORMAT_VERSION):
        raise SchemaError(f"unsupported format version {head[2]}",
                          path=str(path), line=1)
    if len(lines) < 2 or lines[1].split("\t") != \
            ["#columns", *schema.columns]:
        raise SchemaError("column header does not match the schema",
                          path=str(path), line=2)
    out = []
    width = len(schema.columns)
    for number, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != width:
            raise SchemaError(
                f"expected {width} fields, found {len(fields)}",
                path=str(path), line=number)
        out.append((number, fields))
    return out


def _parse_int(value: str, path, line: int, field: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"not an integer: {value!r}",
                          path=str(path), line=line, field=field) from None


def _parse_float(value: str, path, line: int, field: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise SchemaError(f"not a number: {value!r}",
                          path=str(path), line=line, field=field) from None
    if not math.isfinite(out):
        raise SchemaError(f"non-finite value: {value!r}",
                          path=str(path), line=line, field=field)
    return out


def _parse_scores(value: str, path, line: int) -> tuple[float, ...]:
    return tuple(_parse_float(part, path, line, "scores")
                 for part in value.split(","))


def _parse_source(value: str, path, line: int) -> Source:
    try:
        return Source[value.upper()]
    except KeyError:
        raise SchemaError(f"unknown source {value!r}",
                          path=str(path), line=line, field="source") from None


def _parse_box(fields: Sequence[str], start: int, path,
               line: int) -> BoundingBox:
    names = ("x0", "y0", "x1", "y1")
    coords = [_parse_float(fields[start + i], path, line, names[i])
              for i in range(4)]
    try:
        return BoundingBox(*coords)
    except InputError as exc:
        raise SchemaError(str(exc), path=str(path), line=line,
                          field="x0") from None


# -- detections ---------------------------------------------------------

def write_detections(path,
                     by_video: Mapping[str, Iterable[Detection]]) -> None:
    rows = []
    for video_id, dets in by_video.items():
        _check_id(video_id, str(path), None, "video_id")
        for det in dets:
            rows.append((video_id, det.frame_index, det.score,
                         det.box.as_tuple(), det.source.name.lower(),
                         det.class_scores))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5]))
    write_records(path, "detections", (
        (vid, str(frame), *map(_format_float, box), source,
         _format_scores(scores))
        for vid, frame, _, box, source, scores in rows))


def read_detections(path) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    for line, fields in read_records(path, "detections"):
        video_id = _check_id(fields[0], str(path), line, "video_id")
        frame = _parse_int(fields[1], path, line, "frame")
        box = _parse_box(fields, 2, path, line)
        source = _parse_source(fields[6], path, line)
        scores = _parse_scores(fields[7], path, line)
        try:
            det = Detection(frame, box, scores, source)
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path), line=line,
                              field="scores") from None
        out.setdefault(video_id, []).append(det)
    return out


# -- proposals ----------------------------------------------------------

def write_proposals(
        path,
        by_video: Mapping[str, Mapping[int, Iterable[Proposal]]]) -> None:
    rows = []
    for video_id, frames in by_video.items():
        _check_id(video_id, str(path), None, "video_id")
        for frame, props in frames.items():
            for prop in props:
                rows.append((video_id, frame, prop.objectness,
                             prop.box.as_tuple()))
    rows.sort()
    write_records(path, "proposals", (
        (vid, str(frame), *map(_format_float, box), _format_float(obj))
        for vid, frame, obj, box in rows))


def read_proposals(path) -> dict[str, dict[int, tuple[Proposal, ...]]]:
    acc: dict[str, dict[int, list[Proposal]]] = {}
    for line, fields in read_records(path, "proposals"):
        video_id = _check_id(fields[0], str(path), line, "video_id")
        frame = _parse_int(fields[1], path, line, "frame")
        box = _parse_box(fields, 2, path, line)
        objectness = _parse_float(fields[6], path, line, "objectness")
        try:
            prop = Proposal(frame, box, objectness)
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path), line=line,
                              field="objectness") from None
        acc.setdefault(video_id, {}).setdefault(frame, []).append(prop)
    return {vid: {frame: tuple(props) for frame, props in frames.items()}
            for vid, frames in acc.items()}


# -- tubes --------------------------------------------------------------

def write_tubes(path, tubes: Iterable[Tube]) -> None:
    ordered = sorted(tubes, key=lambda t: (t.video_id, t.tube_id))
    seen = set()
    rows = []
    for tube in ordered:
        key = (tube.video_id, tube.tube_id)
        if key in seen:
            raise InputError(
                f"duplicate tube id {tube.tube_id!r} in {tube.video_id!r}")
        seen.add(key)
        _check_id(tube.video_id, str(path), None, "video_id")
        _check_id(tube.tube_id, str(path), None, "tube_id")
        label = "-" if tube.label is None else str(tube.label)
        score = "-" if tube.score is None else _format_float(tube.score)
        for entry in tube.entries:
            rows.append((tube.video_id, tube.tube_id,
                         str(entry.frame_index),
                         *map(_format_float, entry.box.as_tuple()),
                         entry.source.name.lower(),
                         _format_scores(entry.class_scores), label, score))
    write_records(path, "tubes", rows)


def read_tubes(path) -> list[Tube]:
    groups: dict[tuple[str, str], list] = {}
    meta: dict[tuple[str, str], tuple[str, str, int]] = {}
    for line, fields in read_records(path, "tubes"):
        video_id = _check_id(fields[0], str(path), line, "video_id")
        tube_id = _check_id(fields[1], str(path), line, "tube_id")
        frame = _parse_int(fields[2], path, line, "frame")
        box = _parse_box(fields, 3, path, line)
        source = _parse_source(fields[7], path, line)
        scores = _parse_scores(fields[8], path, line)
        key = (video_id, tube_id)
        if key in meta and meta[key][:2] != (fields[9], fields[10]):
            raise SchemaError(
                f"tube {tube_id!r} carries conflicting label or score",
                path=str(path), line=line, field="label")
        meta.setdefault(key, (fields[9], fields[10], line))
        try:
            entry = Detection(frame, box, scores, source)
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path), line=line,
                              field="scores") from None
        groups.setdefault(key, []).append(entry)
    tubes = []
    for key in sorted(groups):
        label_text, score_text, first_line = meta[key]
        label = None if label_text == "-" else \
            _parse_int(label_text, path, first_line, "label")
        score = None if score_text == "-" else \
            _parse_float(score_text, path, first_line, "score")
        entries = sorted(groups[key], key=lambda e: e.frame_index)
        try:
            tubes.append(Tube(key[0], key[1], tuple(entries),
                              label=label, score=score))
        except InputError as exc:
            bad = "label" if label is not None and label < 0 else "frame"
            raise SchemaError(str(exc), path=str(path), line=first_line,
                              field=bad) from None
    return tubes


# -- ground truth -------------------------------------------------------

def write_gt_tubes(path, tubes: Iterable[GroundTruthTube]) -> None:
    ordered = sorted(tubes, key=lambda t: (t.video_id, t.tube_id))
    rows = []
    for tube in ordered:
        _check_id(tube.video_id, str(path), None, "video_id")
        _check_id(tube.tube_id, str(path), None, "tube_id")
        for frame, box in tube.iter_frames():
            rows.append((tube.video_id, tube.tube_id, str(tube.label),
                         str(frame), *map(_format_float, box.as_tuple())))
    write_records(path, "gttubes", rows)


def read_gt_tubes(path) -> list[GroundTruthTube]:
    groups: dict[tuple[str, str], list[tuple[int, BoundingBox]]] = {}
    labels: dict[tuple[str, str], tuple[int, int]] = {}
    for line, fields in read_records(path, "gttubes"):
        video_id = _check_id(fields[0], str(path), line, "video_id")
        tube_id = _check_id(fields[1], str(path), line, "tube_id")
        label = _parse_int(fields[2], path, line, "label")
        frame = _parse_int(fields[3], path, line, "frame")
        box = _parse_box(fields, 4, path, line)
        key = (video_id, tube_id)
        if key in labels and labels[key][0] != label:
            raise SchemaError(
                f"ground truth tube {tube_id!r} has conflicting labels",
                path=str(path), line=line, field="label")
        labels.setdefault(key, (label, line))
        groups.setdefault(key, []).append((frame, box))
    tubes = []
    for key in sorted(groups):
        label, first_line = labels[key]
        frames = sorted(groups[key])
        start = frames[0][0]
        for offset, (frame, _) in enumerate(frames):
            if frame != start + offset:
                raise SchemaError(
                    f"ground truth tube {key[1]!r} skips frame "
                    f"{start + offset}",
                    path=str(path), line=first_line, field="frame")
        try:
            tubes.append(GroundTruthTube(
                key[0], key[1], label, start,
                tuple(box for _, box in frames)))
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path), line=first_line,
                              field="label") from None
    return tubes


# -- clip scores --------------------------------------------------------

def write_clip_scores(
        path,
        by_tube: Mapping[tuple[str, str], ClipScoreSequence]) -> None:
    rows = []
    for (video_id, tube_id), clips in sorted(by_tube.items()):
        _check_id(video_id, str(path), None, "video_id")
        _check_id(tube_id, str(path), None, "tube_id")
        for interval, scores in zip(clips.intervals, clips.scores):
            rows.append((video_id, tube_id, str(clips.clip_length),
                         str(interval.start), str(interval.end),
                         _format_scores(scores)))
    write_records(path, "clipscores", rows)


def read_clip_scores(path) -> dict[tuple[str, str], ClipScoreSequence]:
    acc: dict[tuple[str, str], list] = {}
    lengths: dict[tuple[str, str], tuple[int, int]] = {}
    for line, fields in read_records(path, "clipscores"):
        video_id = _check_id(fields[0], str(path), line, "video_id")
        tube_id = _check_id(fields[1], str(path), line, "tube_id")
        clip_length = _parse_int(fields[2], path, line, "clip_length")
        start = _parse_int(fields[3], path, line, "start")
        end = _parse_int(fields[4], path, line, "end")
        scores = _parse_scores(fields[5], path, line)
        key = (video_id, tube_id)
        if key in lengths and lengths[key][0] != clip_length:
            raise SchemaError(
                f"tube {tube_id!r} mixes clip lengths",
                path=str(path), line=line, field="clip_length")
        lengths.setdefault(key, (clip_length, line))
        acc.setdefault(key, []).append((start, end, scores))
    out = {}
    for key in sorted(acc):
        clip_length, first_line = lengths[key]
        clips = sorted(acc[key])
        try:
            out[key] = ClipScoreSequence(
                clip_length,
                tuple(FrameInterval(s, e) for s, e, _ in clips),
                tuple(scores for _, _, scores in clips))
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path), line=first_line,
                              field="start") from None
    return out


# -- metrics ------------------------------------------------------------

def write_metrics(path, rows: Iterable[Sequence[str]]) -> None:
    write_records(path, "metrics", sorted(tuple(r) for r in rows))


def read_metrics(path) -> list[tuple[str, ...]]:
    return [fields for _, fields in read_records(path, "metrics")]


# -- binary array container ---------------------------------------------

BINARY_MAGIC = b"ATBN"
_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "|u1"}
_CODE_FOR_KIND = {"f": 0, "i": 1, "u": 2}


def write_arrays(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Named arrays to the binary container, sorted by name."""
    with atomic_open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            code = _CODE_FOR_KIND.get(arr.dtype.kind)
            if code is None:
                raise InputError(
                    f"array {name!r} has unsupported dtype {arr.dtype}")
            arr = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.data)


def read_arrays(path) -> dict[str, np.ndarray]:
    """Named arrays of a container, as read-only views of its bytes."""
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path=str(path))
    if blob[:4] != BINARY_MAGIC:
        raise SchemaError("not an array container (bad magic)",
                          path=str(path))
    offset = 4

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(blob):
            raise SchemaError(
                f"truncated container at byte {offset}", path=str(path))
        out = blob[offset:offset + count]
        offset += count
        return out

    version, count = struct.unpack("<HI", take(6))
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported container version {version}",
                          path=str(path))
    arrays = {}
    for _ in range(count):
        name_len, = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise SchemaError(f"array name at byte {offset - name_len} is "
                              f"not UTF-8", path=str(path)) from None
        if name in arrays:
            raise SchemaError(f"array {name!r} appears twice",
                              path=str(path))
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _DTYPE_CODES:
            raise SchemaError(f"array {name!r} has unknown dtype code "
                              f"{code}", path=str(path))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        dtype = np.dtype(_DTYPE_CODES[code])
        total = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        data = take(total * dtype.itemsize)
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape)
    if offset != len(blob):
        raise SchemaError(
            f"{len(blob) - offset} trailing bytes after the last array",
            path=str(path))
    return arrays


# -- typed container views ----------------------------------------------

def write_weights(path, weights) -> None:
    write_arrays(path, {
        "w_io": weights.w_io, "w_hh": weights.w_hh, "b_y": weights.b_y,
        "w_cls": weights.w_cls, "b_cls": weights.b_cls,
        "activation": np.frombuffer(weights.activation.encode("utf-8"),
                                    dtype=np.uint8),
    })


def read_weights(path):
    from .scoring import RecurrentScorerWeights
    arrays = read_arrays(path)
    required = {"w_io", "w_hh", "b_y", "w_cls", "b_cls", "activation"}
    missing = required - arrays.keys()
    if missing:
        raise SchemaError(f"weights container missing {sorted(missing)}",
                          path=str(path))
    try:
        return RecurrentScorerWeights(
            w_io=arrays["w_io"], w_hh=arrays["w_hh"], b_y=arrays["b_y"],
            w_cls=arrays["w_cls"], b_cls=arrays["b_cls"],
            activation=arrays["activation"].tobytes().decode("utf-8"))
    except InputError as exc:
        raise SchemaError(str(exc), path=str(path)) from None


_FRAME_NAME = re.compile(r"([A-Za-z0-9_.:-]+)/([0-9]+)\Z")


def _parse_frame_name(name: str, path, kind: str) -> tuple[str, int]:
    """``(video_id, frame)`` of a per-frame array name ``<id>/<frame:08d>``."""
    found = _FRAME_NAME.match(name)
    if found is None or name != f"{found[1]}/{int(found[2]):08d}":
        raise SchemaError(f"bad {kind} array name {name!r}, expected "
                          f"<video_id>/<frame:08d>", path=str(path))
    return found[1], int(found[2])


def write_matches(path,
                  pairs: Mapping[tuple[str, int], np.ndarray]) -> None:
    """One (N, 4) array per adjacent frame pair, named by its earlier frame.

    ``pairs`` maps ``(video_id, frame)`` to the matches from ``frame``
    to ``frame + 1``.  Columns are ``from_x from_y to_x to_y`` and rows
    are sorted lexicographically.
    """
    arrays = {}
    for (video_id, frame), rows in pairs.items():
        _check_id(video_id, str(path), None, "video_id")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise InputError(f"matches at frame {frame} of {video_id!r} "
                             f"are {rows.shape}, expected (N, 4)")
        if not np.all(np.isfinite(rows)):
            raise InputError(f"matches at frame {frame} of {video_id!r} "
                             f"are not all finite")
        if frame < 0:
            raise InputError(f"matches in {video_id!r} start at negative "
                             f"frame {frame}")
        arrays[f"{video_id}/{frame:08d}"] = rows[np.lexsort(rows.T[::-1])]
    write_arrays(path, arrays)


def read_matches(path) -> dict[tuple[str, int], np.ndarray]:
    """``(video_id, frame) -> rows`` as written by ``write_matches``."""
    out = {}
    for name, rows in read_arrays(path).items():
        video_id, frame = _parse_frame_name(name, path, "match")
        if rows.dtype.kind != "f" or rows.ndim != 2 or rows.shape[1] != 4:
            raise SchemaError(
                f"match array {name!r} is {rows.dtype} {rows.shape}, "
                f"expected (N, 4) float64", path=str(path))
        if not np.all(np.isfinite(rows)):
            raise SchemaError(f"match array {name!r}: match points must "
                              f"be finite", path=str(path))
        out[(video_id, frame)] = rows
    return out


def write_alphas(path, alphas: np.ndarray) -> None:
    write_arrays(path, {"alphas": alphas})


def read_alphas(path) -> np.ndarray:
    arrays = read_arrays(path)
    if "alphas" not in arrays:
        raise SchemaError("alphas container missing 'alphas'",
                          path=str(path))
    return arrays["alphas"]


def write_flow(path, by_video: Mapping[str, Mapping[int, FlowMagnitudeGrid]]
               ) -> None:
    arrays = {}
    for video_id, grids in by_video.items():
        _check_id(video_id, str(path), None, "video_id")
        for frame, grid in grids.items():
            arrays[f"{video_id}/{frame:08d}"] = grid.values
    write_arrays(path, arrays)


def read_flow(path) -> dict[str, dict[int, FlowMagnitudeGrid]]:
    out: dict[str, dict[int, FlowMagnitudeGrid]] = {}
    for name, values in read_arrays(path).items():
        video_id, frame = _parse_frame_name(name, path, "flow grid")
        try:
            grid = FlowMagnitudeGrid(frame, values)
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path)) from None
        out.setdefault(video_id, {})[frame] = grid
    return out
