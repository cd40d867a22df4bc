"""On-disk formats: versioned record files and a binary array container.

Sparse records (detections, proposals, tube frames, ground truth, clip
scores, metrics) live in tab-separated text files with a two-line
header naming the record kind, format version and column layout.
Dense numeric payloads (point matches, flow grids, scorer weights,
cell accuracies) live in a little-endian container of named arrays,
written and read back one read-only array at a time.  Writers emit
records and arrays in a canonical order so identical data always
produces identical bytes, and every file is written to a temp file
beside its target and then renamed onto it, so a failed write never
leaves a truncated file.  See FORMATS.md for the field-by-field
reference.
"""

from __future__ import annotations

import math
import operator
import os
import re
import struct
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
from typing import TYPE_CHECKING

from .errors import (ActionTubesError, InputError, ProcessingError,
                     SchemaError)
from .model import (BoundingBox, ClipScoreSequence, Detection,
                    FlowMagnitudeGrid, FrameInterval, GroundTruthTube,
                    Proposal, Source, Tube)

# numpy is for annotations only: the array container functions import it,
# so the record files load without it.
if TYPE_CHECKING:
    import numpy as np

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


@contextmanager
def _record_file(path, kind: str) -> Iterator:
    """An atomically written record file of ``kind``, its header written."""
    schema = SCHEMAS[kind]
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#{MAGIC_WORD} {schema.kind} {FORMAT_VERSION}\n")
        fh.write("#columns\t" + "\t".join(schema.columns) + "\n")
        yield fh


def write_records(path, kind: str, rows: Iterable[Sequence[str]]) -> None:
    width = len(SCHEMAS[kind].columns)
    with _record_file(path, kind) as fh:
        for row in rows:
            if len(row) != width:
                raise InputError(
                    f"{kind} row has {len(row)} fields, expected {width}")
            fh.write("\t".join(row) + "\n")


def _record_lines(path, kind: str) -> list[str]:
    """The lines after a record file's checked header, from line 3 on."""
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
    del lines[:2]
    return lines


def read_records(path, kind: str) -> list[tuple[int, tuple[str, ...]]]:
    """Header-checked rows of a record file, as (line number, fields)."""
    out = []
    width = len(SCHEMAS[kind].columns)
    for number, line in enumerate(_record_lines(path, kind), start=3):
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


def _parse_frame(value: str, path, line: int, field: str = "frame") -> int:
    """A frame index: a non-negative integer in ASCII base-10 digits."""
    if not (value.isascii() and value.isdigit()):
        _parse_int(value, path, line, field)
        raise SchemaError(f"not a non-negative base-10 integer: {value!r}",
                          path=str(path), line=line, field=field)
    return _parse_int(value, path, line, field)


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
        frame = _parse_frame(fields[1], path, line)
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
        frame = _parse_frame(fields[1], path, line)
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

# Rows a tube reader splits and parses at a time.  Columns of the whole
# file would leave megabytes of freed heap behind, which the C allocator
# returns or keeps depending on the heap's layout, so the peak RSS of
# the work that follows would swing by ~3 MiB between runs of one input
# (crowd-12 `score`).  Blocks keep every list but the per-row results
# small.
_BLOCK_ROWS = 1024


def _tube_columns(path, kind: str, parse):
    """A tube file's parsed columns plus each tube's rows, checked
    column-wise.

    The rows are taken in blocks of ``_BLOCK_ROWS``: a block's lines are
    split in one pass over their join and sliced into columns, and
    ``parse`` turns the columns but the ids and the frame into a dict of
    per-row lists, which grow block by block.  Unless the file already
    is, the rows are then put in (video_id, tube_id, frame) order,
    keeping file order among equals.  Returns ``(columns, tubes)``:
    ``columns`` is the parsed dict in that order, and ``tubes`` lists
    ``(video_id, tube_id, start, rows)`` in id order, ``rows`` being the
    slice of the tube's rows.  Identifiers, frame syntax and frame runs
    (consecutive, each exactly once) are checked here; a failed check
    raises ``ValueError`` and leaves the report to ``_tube_error``.
    """
    names = SCHEMAS[kind].columns
    lines = _record_lines(path, kind)
    keys: list[tuple[str, str]] = []
    frames: list[int] = []
    columns: dict[str, list] = {}
    for at in range(0, len(lines), _BLOCK_ROWS):
        block = list(filter(None, lines[at:at + _BLOCK_ROWS]))
        if not block:
            continue
        if set(map(str.count, block, repeat("\t"))) != {len(names) - 1}:
            raise ValueError("row width")
        fields = "\t".join(block).split("\t")
        text = {name: fields[i::len(names)] for i, name in enumerate(names)}
        del block, fields
        video_ids, tube_ids = text.pop("video_id"), text.pop("tube_id")
        if not all(map(_ID_PATTERN.match, {*video_ids, *tube_ids})):
            raise ValueError("invalid identifier")
        frame_text = text.pop("frame")
        digits = "".join(frame_text)
        if not (digits.isascii() and digits.isdigit() and all(frame_text)):
            raise ValueError("invalid frame")
        keys += zip(video_ids, tube_ids)
        frames += map(int, frame_text)
        for name, values in parse(text).items():
            columns.setdefault(name, []).extend(values)
    del lines
    if not keys:
        return {}, []
    order = list(zip(keys, frames))
    if not all(map(operator.le, order, order[1:])):
        order = sorted(range(len(order)), key=order.__getitem__)
        keys = [keys[i] for i in order]
        frames = [frames[i] for i in order]
        columns = {name: [column[i] for i in order]
                   for name, column in columns.items()}
    del order
    starts = [0, *compress(count(1), map(operator.ne, keys[1:], keys))]
    tubes = []
    for a, b in zip(starts, [*starts[1:], len(keys)]):
        start = frames[a]
        if frames[a:b] != list(range(start, start + b - a)):
            raise ValueError("broken frame run")
        tubes.append((*keys[a], start, slice(a, b)))
    return columns, tubes


def _box_column(columns: dict) -> list[BoundingBox]:
    """One box per row, consuming the four coordinate columns."""
    coords = [list(map(float, columns.pop(name)))
              for name in ("x0", "y0", "x1", "y1")]
    return list(map(BoundingBox, *coords))


def _score_column(column: Sequence[str]) -> list[tuple[float, ...]]:
    """One class score tuple per row of a comma-separated column."""
    values = list(map(float, ",".join(column).split(",")))
    commas = map(str.count, column, repeat(","))
    ends = list(accumulate(c + 1 for c in commas))
    return [tuple(values[a:b]) for a, b in zip([0, *ends], ends)]


def _tube_error(path, kind: str, check_tube, failure: Exception
                ) -> ActionTubesError:
    """The error a tube file's row-by-row checks meet first.

    Called once a column-wise check has failed, it reports the failure
    with the per-field parsers: identifiers and frames in file order,
    then tube by tube in id order its frame run and
    ``check_tube(path, video_id, tube_id, start, rows)``, ``rows`` being
    the tube's ``(line, fields)`` by frame.  Should every row pass, the
    two readers disagree about the file; that is a fault of this module,
    reported with the column-wise ``failure``.
    """
    frame_column = SCHEMAS[kind].columns.index("frame")
    groups: dict[tuple[str, str], list] = {}
    try:
        for line, fields in read_records(path, kind):
            key = (_check_id(fields[0], str(path), line, "video_id"),
                   _check_id(fields[1], str(path), line, "tube_id"))
            frame = _parse_frame(fields[frame_column], path, line)
            groups.setdefault(key, []).append((frame, line, fields))
        for (video_id, tube_id), rows in sorted(groups.items()):
            rows.sort(key=lambda row: row[0])
            start = rows[0][0]
            for offset, (frame, line, _) in enumerate(rows):
                if frame != start + offset:
                    problem = "repeats" if frame < start + offset else "skips"
                    raise SchemaError(
                        f"tube {tube_id!r} {problem} frame "
                        f"{min(frame, start + offset)}",
                        path=str(path), line=line, field="frame")
            check_tube(path, video_id, tube_id, start,
                       [(line, fields) for _, line, fields in rows])
    except SchemaError as exc:
        return exc
    return ProcessingError(
        f"{path}: the column-wise {kind} reader rejected the file "
        f"({failure!r}) but every row passes the row-wise checks")


def write_tubes(path, tubes: Iterable[Tube]) -> None:
    ordered = sorted(tubes, key=lambda t: (t.video_id, t.tube_id))
    previous = None
    with _record_file(path, "tubes") as fh:
        for tube in ordered:
            key = (tube.video_id, tube.tube_id)
            if key == previous:
                raise InputError(f"duplicate tube id {tube.tube_id!r} in "
                                 f"{tube.video_id!r}")
            previous = key
            _check_id(tube.video_id, str(path), None, "video_id")
            _check_id(tube.tube_id, str(path), None, "tube_id")
            head = f"{tube.video_id}\t{tube.tube_id}\t"
            label = "-" if tube.label is None else tube.label
            score = "-" if tube.score is None else _format_float(tube.score)
            tail = f"\t{label}\t{score}\n"
            fh.write("".join([
                f"{head}{frame}\t{float(box.x_min)!r}\t{float(box.y_min)!r}"
                f"\t{float(box.x_max)!r}\t{float(box.y_max)!r}"
                f"\t{source.value}\t{','.join(map(repr, scores))}{tail}"
                for frame, box, scores, source in zip(
                    count(tube.start), tube.boxes, tube.class_scores,
                    tube.sources)]))


def read_tubes(path) -> list[Tube]:
    try:
        columns, groups = _tube_columns(path, "tubes", _parse_tube_block)
        if not groups:
            return []
        boxes, sources = columns["boxes"], columns["sources"]
        scores, tails = columns["scores"], columns["tails"]
        tubes = []
        for video_id, tube_id, start, rows in groups:
            if len(set(tails[rows])) != 1:
                raise ValueError("conflicting label or score")
            label, score = tails[rows.start]
            tubes.append(Tube(
                video_id, tube_id, start, boxes[rows], scores[rows],
                sources[rows], label=None if label == "-" else int(label),
                score=None if score == "-" else float(score)))
        return tubes
    except SchemaError:
        raise
    except (ValueError, KeyError) as exc:
        raise _tube_error(path, "tubes", _check_tube, exc) from None


def _parse_tube_block(text: dict) -> dict[str, list]:
    """A block's boxes, sources, score tuples and (label, score) text."""
    names = text["source"]
    known = {name: Source[name.upper()] for name in set(names)}
    return {"boxes": _box_column(text),
            "sources": list(map(known.__getitem__, names)),
            "scores": _score_column(text["scores"]),
            "tails": list(zip(text["label"], text["score"]))}


def _check_tube(path, video_id: str, tube_id: str, start: int,
                rows: Sequence[tuple[int, Sequence[str]]]) -> None:
    """Raises the ``SchemaError`` of one tube's first bad field."""
    first_line, first = rows[0]
    for line, fields in rows:
        if fields[9:] != first[9:]:
            raise SchemaError(
                f"tube {tube_id!r} carries conflicting label or score",
                path=str(path), line=line, field="label")
    label = None if first[9] == "-" else \
        _parse_int(first[9], path, first_line, "label")
    score = None if first[10] == "-" else \
        _parse_float(first[10], path, first_line, "score")
    boxes = [_parse_box(f, 3, path, line) for line, f in rows]
    sources = [_parse_source(f[7], path, line) for line, f in rows]
    scores = [_parse_scores(f[8], path, line) for line, f in rows]
    try:
        Tube(video_id, tube_id, start, boxes, scores, sources, label=label,
             score=score)
    except InputError as exc:
        bad = "label" if label is not None and label < 0 else "scores"
        raise SchemaError(str(exc), path=str(path), line=first_line,
                          field=bad) from None


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
    try:
        columns, groups = _tube_columns(path, "gttubes", _parse_gt_block)
        if not groups:
            return []
        boxes, labels = columns["boxes"], columns["labels"]
        tubes = []
        for video_id, tube_id, start, rows in groups:
            if len(set(labels[rows])) != 1:
                raise ValueError("conflicting labels")
            tubes.append(GroundTruthTube(
                video_id, tube_id, labels[rows.start], start, boxes[rows]))
        return tubes
    except SchemaError:
        raise
    except (ValueError, KeyError) as exc:
        raise _tube_error(path, "gttubes", _check_gt_tube, exc) from None


def _parse_gt_block(text: dict) -> dict[str, list]:
    """A block's boxes and labels."""
    return {"boxes": _box_column(text),
            "labels": list(map(int, text["label"]))}


def _check_gt_tube(path, video_id: str, tube_id: str, start: int,
                   rows: Sequence[tuple[int, Sequence[str]]]) -> None:
    """Raises the ``SchemaError`` of one ground truth tube's first bad
    field."""
    first_line, first = rows[0]
    label = _parse_int(first[2], path, first_line, "label")
    for line, fields in rows:
        if _parse_int(fields[2], path, line, "label") != label:
            raise SchemaError(
                f"ground truth tube {tube_id!r} has conflicting labels",
                path=str(path), line=line, field="label")
    boxes = [_parse_box(f, 4, path, line) for line, f in rows]
    try:
        GroundTruthTube(video_id, tube_id, label, start, boxes)
    except InputError as exc:
        raise SchemaError(str(exc), path=str(path), line=first_line,
                          field="label") from None


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
        start = _parse_frame(fields[3], path, line, "start")
        end = _parse_frame(fields[4], path, line, "end")
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


def write_arrays(path, arrays: Iterable[tuple[str, np.ndarray]]) -> None:
    """``(name, array)`` pairs to the binary container, one at a time.

    Names must come in strictly ascending order; a mapping's caller
    passes ``sorted(mapping.items())``.  Each array is written as it
    arrives and the array count is patched into the header at the end,
    so a generator of pairs is never held in memory as a whole.
    """
    import numpy as np
    with atomic_open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, 0))
        count = 0
        previous = None
        for name, arr in arrays:
            if previous is not None and name <= previous:
                raise InputError(f"array {name!r} comes after {previous!r}; "
                                 f"names must be strictly ascending")
            previous = name
            arr = np.asarray(arr)
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
            count += 1
        fh.seek(len(BINARY_MAGIC) + 2)
        fh.write(struct.pack("<I", count))


def iter_arrays(path) -> Iterator[tuple[str, np.ndarray]]:
    """``(name, array)`` pairs of a container, in file order.

    The file is walked once and each array is read into its own
    read-only buffer, so a consumer that drops an array before taking
    the next holds one at a time.  Damage is reported where the walk
    finds it: only a consumer that exhausts the iterator has seen every
    check, trailing bytes included.
    """
    import numpy as np
    try:
        fh = open(path, "rb")
        size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path=str(path))
    with fh:
        if fh.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
            raise SchemaError("not an array container (bad magic)",
                              path=str(path))
        offset = len(BINARY_MAGIC)

        def take(count: int, alloc=bytearray):
            """The next ``count`` bytes, read into a new ``alloc(count)``.

            The file size is checked first, so a damaged length never
            allocates a buffer the file cannot fill.
            """
            nonlocal offset
            if offset + count <= size:
                buffer = alloc(count)
                if fh.readinto(buffer) == count:
                    offset += count
                    return buffer
            raise SchemaError(
                f"truncated container at byte {offset}", path=str(path))

        version, count = struct.unpack("<HI", take(6))
        if version != FORMAT_VERSION:
            raise SchemaError(f"unsupported container version {version}",
                              path=str(path))
        seen = set()
        for _ in range(count):
            name_len, = struct.unpack("<H", take(2))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise SchemaError(f"array name at byte {offset - name_len} "
                                  f"is not UTF-8", path=str(path)) from None
            if name in seen:
                raise SchemaError(f"array {name!r} appears twice",
                                  path=str(path))
            seen.add(name)
            code, ndim = struct.unpack("<BB", take(2))
            if code not in _DTYPE_CODES:
                raise SchemaError(f"array {name!r} has unknown dtype code "
                                  f"{code}", path=str(path))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            dtype = np.dtype(_DTYPE_CODES[code])
            nbytes = math.prod(shape) * dtype.itemsize
            arr = take(nbytes, lambda _: np.empty(shape, dtype))
            arr.flags.writeable = False
            yield name, arr
        if offset != size:
            raise SchemaError(
                f"{size - offset} trailing bytes after the last array",
                path=str(path))


def read_arrays(path) -> dict[str, np.ndarray]:
    """Every named array of a container, read-only."""
    return dict(iter_arrays(path))


# -- typed container views ----------------------------------------------

def write_weights(path, weights) -> None:
    import numpy as np
    write_arrays(path, sorted({
        "w_io": weights.w_io, "w_hh": weights.w_hh, "b_y": weights.b_y,
        "w_cls": weights.w_cls, "b_cls": weights.b_cls,
        "activation": np.frombuffer(weights.activation.encode("utf-8"),
                                    dtype=np.uint8),
    }.items()))


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
    import numpy as np
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
    write_arrays(path, sorted(arrays.items()))


def read_matches(path) -> dict[tuple[str, int], np.ndarray]:
    """``(video_id, frame) -> rows`` as written by ``write_matches``."""
    import numpy as np
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
    write_arrays(path, [("alphas", alphas)])


def read_alphas(path) -> np.ndarray:
    arrays = read_arrays(path)
    if "alphas" not in arrays:
        raise SchemaError("alphas container missing 'alphas'",
                          path=str(path))
    return arrays["alphas"]


def write_flow(path, grids: Iterable[tuple[str, FlowMagnitudeGrid]]
               ) -> None:
    """``(video_id, grid)`` pairs to a flow container, one at a time.

    Pairs must come in array-name order, video by video and frame by
    frame, so a generator of grids is written without holding them.
    """
    def arrays():
        for video_id, grid in grids:
            _check_id(video_id, str(path), None, "video_id")
            yield f"{video_id}/{grid.frame_index:08d}", grid.values
    write_arrays(path, arrays())


def read_flow(path) -> Iterator[tuple[str, FlowMagnitudeGrid]]:
    """``(video_id, grid)`` pairs of a flow container, in file order.

    Grids are read and validated one at a time; the container's own
    checks finish only when the iterator is exhausted, so a consumer
    must exhaust it before it writes anything derived from the grids.
    """
    for name, values in iter_arrays(path):
        video_id, frame = _parse_frame_name(name, path, "flow grid")
        try:
            grid = FlowMagnitudeGrid(frame, values)
        except InputError as exc:
            raise SchemaError(str(exc), path=str(path)) from None
        yield video_id, grid
