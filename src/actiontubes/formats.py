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

Record files are read and written one video at a time.  A reader
(``VideoRecords``) first finds where each video's lines are, then hands
one video's lines to the kind's reader (``read_tubes`` …), which parses
lines column-wise, in blocks of rows, whether they are one video's or
the whole file's; any failed check hands the whole file to one
row-wise fallback, which reports the first problem in the order
FORMATS.md gives under "Which problem is reported".  A writer takes
``(video_id, records)`` pairs in ascending video order; a stage's
``record_writer`` writes each video through the kind's writer
(``write_tubes`` …), so every per-video read and write is a call of a
public ``read_*``/``write_*`` function, as ``perfbench/trace_stage.py``
times them.
"""

from __future__ import annotations

import math
import operator
import os
import re
import shutil
import struct
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, compress, count, groupby, repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, ProcessingError, SchemaError
from .model import (SCORE_SUM_TOL, BoundingBox, ClipScoreSequence,
                    Detection, FlowMagnitudeGrid, FrameInterval,
                    GroundTruthTube, Proposal, Source, Tube)

# numpy is for annotations only: the array container functions import it,
# so the record files load without it.
if TYPE_CHECKING:
    import numpy as np

MAGIC_WORD = "actiontubes"
FORMAT_VERSION = 1

_ID_PATTERN = re.compile(r"[A-Za-z0-9_.:-]+\Z")
_INT_PATTERN = re.compile(r"-?[0-9]+\Z")


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


def _header(kind: str) -> tuple[str, str]:
    """The two header lines of a ``kind`` file, without their ``\\n``."""
    schema = SCHEMAS[kind]
    return (f"#{MAGIC_WORD} {schema.kind} {FORMAT_VERSION}",
            "#columns\t" + "\t".join(schema.columns))


@contextmanager
def _record_file(path, kind: str) -> Iterator:
    """An atomically written record file of ``kind``, its header written."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header(kind)) + "\n")
        yield fh


def write_records(path, kind: str, rows: Iterable[Sequence[str]]) -> None:
    width = len(SCHEMAS[kind].columns)
    with _record_file(path, kind) as fh:
        for row in rows:
            if len(row) != width:
                raise InputError(
                    f"{kind} row has {len(row)} fields, expected {width}")
            fh.write("\t".join(row) + "\n")


def _open_bytes(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path=str(path)) from None


def _record_lines(path, kind: str) -> list[str]:
    """The lines after a record file's checked header, from line 3 on.

    Lines end at ``\\n`` only.  A byte that is not UTF-8 is reported at
    its line.
    """
    schema = SCHEMAS[kind]
    with _open_bytes(path) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: byte {data[exc.start]:#04x}",
                          path=str(path),
                          line=data.count(b"\n", 0, exc.start) + 1) from None
    del data    # no more than the text and its lines held at once
    if not text:
        raise SchemaError("empty file, expected a header", path=str(path))
    lines = text.split("\n")
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
    if len(lines) < 2 or lines[1] != _header(kind)[1]:
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


def _integer(value: str) -> int:
    """A label or clip length: ASCII base-10 digits after at most one
    leading ``-``; ``ValueError`` otherwise."""
    if _INT_PATTERN.match(value) is None:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _parse_int(value: str, path, line: int, field: str) -> int:
    try:
        return _integer(value)
    except ValueError as exc:
        raise SchemaError(str(exc), path=str(path), line=line,
                          field=field) from None


def _parse_frame(value: str, path, line: int, field: str = "frame") -> int:
    """A frame index: a non-negative integer in ASCII base-10 digits.

    A value Python reads as an integer in another form (``-2``, ``+3``,
    `` 3``) is reported as such, anything else as not an integer.
    """
    if value.isascii() and value.isdigit():
        return int(value)
    try:
        int(value)
    except ValueError:
        raise SchemaError(f"not an integer: {value!r}",
                          path=str(path), line=line, field=field) from None
    raise SchemaError(f"not a non-negative base-10 integer: {value!r}",
                      path=str(path), line=line, field=field)


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


# -- column-wise reading, one video at a time ----------------------------

# Rows a reader splits and parses at a time.  Columns of a whole video
# would leave megabytes of freed heap behind, which the C allocator
# returns or keeps depending on the heap's layout, so the peak RSS of
# the work that follows would swing by ~3 MiB between runs of one input
# (crowd-12 `score`).  Blocks keep every list but the per-row results
# small.
_BLOCK_ROWS = 1024

# Bytes the pass that finds each video's lines reads at a time.
_CHUNK_BYTES = 1 << 20

# A record file's rows as ``read_records`` gives them: (line, fields).
_Rows = Iterable[tuple[int, Sequence[str]]]


def _video_ranges(path, kind: str) -> dict[str, list[list[int]]]:
    """Where each video's lines lie in a record file, as byte ranges.

    One pass reads the file in chunks of ``_CHUNK_BYTES`` and splits
    them at ``\\n``.  Each run of lines that start with the same
    ``video_id`` field becomes one ``[start, end)`` range, merged into
    the video's range before it when only a line break parts them, so a
    file sorted by video holds one range per video.  Blank lines belong
    to no video.  A header that is not exactly the kind's raises
    ``ValueError`` and leaves the report to ``_row_checks``.
    """
    ranges: dict[bytes, list[list[int]]] = {}
    with _open_bytes(path) as fh:
        head = [fh.readline().removesuffix(b"\n") for _ in range(2)]
        if head != [line.encode("utf-8") for line in _header(kind)]:
            raise ValueError("header")
        offset, rest = fh.tell(), b""
        while True:
            data = fh.read(_CHUNK_BYTES)
            lines = (rest + data).split(b"\n")
            # a chunk's last line may go on in the next chunk; the file's
            # last line may end without a line break
            rest = lines.pop() if data else b""
            offset = _add_runs(ranges, lines, offset)
            if not data:
                break
    return {video_id.decode("utf-8"): runs
            for video_id, runs in ranges.items()}


def _add_runs(ranges: dict, lines: list[bytes], offset: int) -> int:
    """Adds each run of ``lines`` that share a video id to ``ranges``.

    ``offset`` is where the first line starts; returns where the line
    after the last one starts.
    """
    starts = list(map(operator.add,
                      accumulate(map(len, lines), initial=offset), count()))
    ids = [line.partition(b"\t")[0] for line in lines]
    bounds = list(compress(count(), map(operator.ne, ids, [None, *ids])))
    for a, b in zip(bounds, [*bounds[1:], len(lines)]):
        if not ids[a] and not any(lines[a:b]):
            continue
        start, end = starts[a], starts[b] - 1
        runs = ranges.setdefault(ids[a], [])
        if runs and runs[-1][1] + 1 == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])
    return starts[-1]


def _range_lines(path, ranges: Iterable[Sequence[int]]) -> list[str]:
    """The lines in ``ranges`` of a record file, decoded."""
    lines: list[str] = []
    with _open_bytes(path) as fh:
        for start, end in ranges:
            fh.seek(start)
            lines += fh.read(end - start).decode("utf-8").split("\n")
    return lines


def _read_columns(lines: list[str], kind: str, parse) -> dict[str, list]:
    """Record lines as typed per-row lists, read block-wise.

    Each block of ``_BLOCK_ROWS`` lines is split in one pass over its
    join and sliced into text columns by name, which ``parse`` turns
    into a dict of per-row lists.  The lists grow block by block, and a
    list no row reached reads as empty.  A failed check raises
    ``ValueError`` or ``KeyError`` and leaves the report to
    ``_row_checks``.
    """
    names = SCHEMAS[kind].columns
    columns: dict[str, list] = defaultdict(list)
    for at in range(0, len(lines), _BLOCK_ROWS):
        block = list(filter(None, lines[at:at + _BLOCK_ROWS]))
        if not block:
            continue
        if set(map(str.count, block, repeat("\t"))) != {len(names) - 1}:
            raise ValueError("row width")
        fields = "\t".join(block).split("\t")
        text = {name: fields[i::len(names)] for i, name in enumerate(names)}
        del block, fields
        for name, values in parse(text).items():
            columns[name] += values
    return columns


@contextmanager
def _row_checks(path, kind: str) -> Iterator[None]:
    """Reports a failed column-wise read of a ``kind`` file row-wise.

    Should the body raise ``ValueError`` or ``KeyError``, the kind's
    row-wise check runs the per-field parsers over the whole file's
    ``read_records`` rows and raises the ``SchemaError`` of the first
    bad field, in its kind's order.  Should every row pass, the two
    paths disagree about the file: a fault of this module.
    """
    try:
        yield
    except SchemaError:
        raise
    except (ValueError, KeyError) as failure:
        _KINDS[kind].check(path, read_records(path, kind))
        raise ProcessingError(
            f"{path}: the column-wise {kind} reader rejected the file "
            f"({failure!r}) but every row passes the row-wise checks"
        ) from None


def _read(path, kind: str, ranges: Iterable[Sequence[int]] | None):
    """The records of a ``kind`` file, in its reader's shape: of every
    line, or of the lines in ``ranges`` alone."""
    parse, build = _KINDS[kind].parse, _KINDS[kind].build
    with _row_checks(path, kind):
        lines = _record_lines(path, kind) if ranges is None \
            else _range_lines(path, ranges)
        columns = _read_columns(lines, kind, parse)
        del lines
        return build(columns)


class VideoRecords:
    """A record file read one video at a time.

    Building it makes one pass over the file's bytes that keeps where
    each video's lines are, not the lines.  ``read(video_id)`` then
    hands that video's lines alone to the kind's reader and gives its
    records, empty for a video the file does not hold; iterating gives
    ``(video_id, records)`` for every video in ascending id order.  Rows
    may come in any order.  Should any check fail, the whole file is
    checked row by row and its first problem reported, in the order
    FORMATS.md gives.
    """

    def __init__(self, path, kind: str):
        self.path = path
        self.kind = kind
        with _row_checks(path, kind):
            self._ranges = _video_ranges(path, kind)
        self.video_ids = sorted(self._ranges)

    def read(self, video_id: str):
        kind = _KINDS[self.kind]
        # looked up at each call, so a wrapped reader is the one called
        found = globals()[kind.reader](self.path,
                                       self._ranges.get(video_id, []))
        if kind.by_video is None:
            return found
        return found.get(video_id, kind.by_video())

    def __iter__(self) -> Iterator[tuple[str, object]]:
        for video_id in self.video_ids:
            yield video_id, self.read(video_id)


def _next_video(path, previous: str | None, video_id: str) -> str:
    """``video_id``, checked to be an identifier after ``previous``."""
    _check_id(video_id, str(path), None, "video_id")
    if previous is not None and video_id <= previous:
        raise InputError(
            f"video {video_id!r} written after {previous!r}; "
            f"videos must come in strictly ascending order")
    return video_id


def _write_videos(path, kind: str, chunks: Iterable[tuple[str, object]]
                  ) -> None:
    text = _KINDS[kind].text
    with _record_file(path, kind) as fh:
        previous = None
        for video_id, records in chunks:
            previous = _next_video(path, previous, video_id)
            fh.write(text(path, video_id, records))


@contextmanager
def record_writer(path, kind: str) -> Iterator:
    """``put(video_id, records)`` into a ``kind`` file, video by video.

    Videos must come in strictly ascending id order, so the file holds
    the bytes of one whole-scenario write.  Each video is written by the
    kind's writer (``write_tubes`` …) as a one-video file beside
    ``path``, whose rows are then appended to ``path``'s temp file: each
    per-video write is then one call that writes one whole file, which
    is what ``perfbench/trace_stage.py`` times and sizes.  The file
    appears, atomically, when the body ends without an error.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    part = os.path.join(
        head, f".{name}.{os.getpid()}.{threading.get_ident()}.part")
    header = ("\n".join(_header(kind)) + "\n").encode("utf-8")
    with atomic_open(path, "wb") as out:
        out.write(header)
        previous = None

        def put(video_id: str, records) -> None:
            nonlocal previous
            previous = _next_video(path, previous, video_id)
            globals()[_KINDS[kind].writer](part, [(video_id, records)])
            with open(part, "rb") as fh:
                fh.seek(len(header))
                shutil.copyfileobj(fh, out)
            # gone before the next video's part is renamed onto its name:
            # renaming onto an existing file makes the file system start
            # writing the new one's data to disk
            os.unlink(part)
        try:
            yield put
        finally:
            try:
                os.unlink(part)
            except FileNotFoundError:
                pass


def _id_column(values: list[str]) -> list[str]:
    if not all(map(_ID_PATTERN.match, set(values))):
        raise ValueError("invalid identifier")
    return values


def _key_column(text: dict) -> list[tuple[str, str]]:
    return list(zip(_id_column(text["video_id"]),
                    _id_column(text["tube_id"])))


def _frame_column(values: list[str]) -> list[int]:
    """Frame indices, each in ASCII base-10 digits as ``_parse_frame``
    takes them."""
    digits = "".join(values)
    if not (digits.isascii() and digits.isdigit() and all(values)):
        raise ValueError("invalid frame")
    return list(map(int, values))


def _int_column(values: list[str]) -> list[int]:
    """Integers, each in the form ``_integer`` takes."""
    if not all(map(_INT_PATTERN.match, set(values))):
        raise ValueError("invalid integer")
    return list(map(int, values))


def _box_column(text: dict) -> list[BoundingBox]:
    """One box per row, consuming the four coordinate columns."""
    coords = [list(map(float, text.pop(name)))
              for name in ("x0", "y0", "x1", "y1")]
    return list(map(BoundingBox, *coords))


def _source_column(names: list[str]) -> list[Source]:
    known = {name: Source[name.upper()] for name in set(names)}
    return list(map(known.__getitem__, names))


def _score_column(column: Sequence[str]) -> list[tuple[float, ...]]:
    """One class score tuple per row of a comma-separated column."""
    values = list(map(float, ",".join(column).split(",")))
    commas = map(str.count, column, repeat(","))
    ends = list(accumulate(c + 1 for c in commas))
    return [tuple(values[a:b]) for a, b in zip([0, *ends], ends)]


# -- detections ---------------------------------------------------------

def write_detections(
        path, chunks: Iterable[tuple[str, Iterable[Detection]]]) -> None:
    """``(video_id, detections)`` pairs, in ascending video order."""
    _write_videos(path, "detections", chunks)


def _detection_text(path, video_id: str, dets: Iterable[Detection]) -> str:
    rows = sorted((det.frame_index, det.score, det.box.as_tuple(),
                   det.source.value, det.class_scores) for det in dets)
    return "".join([
        f"{video_id}\t{frame}\t{float(x0)!r}\t{float(y0)!r}"
        f"\t{float(x1)!r}\t{float(y1)!r}\t{source}"
        f"\t{','.join(map(repr, scores))}\n"
        for frame, _, (x0, y0, x1, y1), source, scores in rows])


def read_detections(path, ranges=None) -> dict[str, list[Detection]]:
    """Each video's detections, videos ascending, rows in file order."""
    return _read(path, "detections", ranges)


def _parse_detection_block(text: dict) -> dict[str, list]:
    """A block's video ids and detections."""
    return {"video_ids": _id_column(text["video_id"]),
            "detections": list(map(
                Detection, _frame_column(text["frame"]), _box_column(text),
                _score_column(text["scores"]),
                _source_column(text["source"])))}


def _by_video(video_ids: list[str], records: list) -> dict[str, list]:
    """Each video's records, videos ascending, records in row order."""
    out: dict[str, list] = {}
    for video_id, record in zip(video_ids, records):
        out.setdefault(video_id, []).append(record)
    return dict(sorted(out.items()))


def _detections_of(columns: dict) -> dict[str, list[Detection]]:
    return _by_video(columns["video_ids"], columns["detections"])


def _check_detections(path, rows: _Rows) -> None:
    """Raises the ``SchemaError`` of the first bad field, row by row."""
    for line, fields in rows:
        _check_id(fields[0], str(path), line, "video_id")
        _parse_frame(fields[1], path, line)
        _parse_box(fields, 2, path, line)
        _parse_source(fields[6], path, line)
        _parse_scores(fields[7], path, line)


# -- proposals ----------------------------------------------------------

def write_proposals(
        path,
        chunks: Iterable[tuple[str, Mapping[int, Iterable[Proposal]]]]
) -> None:
    """``(video_id, {frame: proposals})`` pairs, in ascending video
    order."""
    _write_videos(path, "proposals", chunks)


def _proposal_text(path, video_id: str,
                   frames: Mapping[int, Iterable[Proposal]]) -> str:
    rows = []
    for frame, props in frames.items():
        for prop in props:
            if prop.frame_index != frame:
                raise InputError(
                    f"proposal at frame {prop.frame_index} of "
                    f"{video_id!r} filed under frame {frame}")
            rows.append((frame, prop.objectness, prop.box.as_tuple()))
    rows.sort()
    return "".join([
        f"{video_id}\t{frame}\t{float(x0)!r}\t{float(y0)!r}"
        f"\t{float(x1)!r}\t{float(y1)!r}\t{float(obj)!r}\n"
        for frame, obj, (x0, y0, x1, y1) in rows])


def read_proposals(path, ranges=None
                   ) -> dict[str, dict[int, tuple[Proposal, ...]]]:
    """Each video's proposals by frame, videos ascending, frames in file
    order."""
    return _read(path, "proposals", ranges)


def _parse_proposal_block(text: dict) -> dict[str, list]:
    """A block's video ids and proposals."""
    return {"video_ids": _id_column(text["video_id"]),
            "proposals": list(map(
                Proposal, _frame_column(text["frame"]), _box_column(text),
                map(float, text["objectness"])))}


def _proposals_of(columns: dict
                  ) -> dict[str, dict[int, tuple[Proposal, ...]]]:
    out = {}
    for video_id, props in _by_video(columns["video_ids"],
                                     columns["proposals"]).items():
        frames: dict[int, list[Proposal]] = {}
        for prop in props:
            frames.setdefault(prop.frame_index, []).append(prop)
        out[video_id] = {frame: tuple(ps) for frame, ps in frames.items()}
    return out


def _check_proposals(path, rows: _Rows) -> None:
    """Raises the ``SchemaError`` of the first bad field, row by row."""
    for line, fields in rows:
        _check_id(fields[0], str(path), line, "video_id")
        _parse_frame(fields[1], path, line)
        _parse_box(fields, 2, path, line)
        _parse_float(fields[6], path, line, "objectness")


# -- tubes --------------------------------------------------------------

def _tube_runs(columns: dict) -> Iterator[tuple[str, str, int, slice]]:
    """Each tube's ids, start frame and slice of rows, in id order.

    Every column is first put in (video_id, tube_id, frame) order,
    unless it already is, keeping file order among equals.  A tube
    whose frames do not run consecutively, each once, raises
    ``ValueError(message, row)`` when reached, ``row`` being the index
    of its first row out of step.
    """
    keys, frames = columns["keys"], columns["frames"]
    order = list(zip(keys, frames))
    if not all(map(operator.le, order, order[1:])):
        order = sorted(range(len(order)), key=order.__getitem__)
        for name in list(columns):
            columns[name] = [columns[name][i] for i in order]
        keys, frames = columns["keys"], columns["frames"]
    del order
    starts = list(compress(count(), map(operator.ne, keys, [None, *keys])))
    for a, b in zip(starts, [*starts[1:], len(keys)]):
        start = frames[a]
        if frames[a:b] != list(range(start, start + b - a)):
            row, want = next((row, want) for row, want in zip(
                range(a, b), count(start)) if frames[row] != want)
            problem = "repeats" if frames[row] < want else "skips"
            raise ValueError(f"tube {keys[a][1]!r} {problem} frame "
                             f"{min(frames[row], want)}", row)
        yield (*keys[a], start, slice(a, b))


def _tube_rows(path, rows: _Rows, frame_column: int) -> Iterator[tuple]:
    """``_tube_runs`` of rows checked row-wise: each tube's
    ``(video_id, tube_id, start, rows)``, its ``(line, fields)`` by frame.

    Identifiers and frames are checked in file order first, then each
    tube's frame run as it is reached.
    """
    columns: dict[str, list] = defaultdict(list)
    for line, fields in rows:
        columns["keys"].append(
            (_check_id(fields[0], str(path), line, "video_id"),
             _check_id(fields[1], str(path), line, "tube_id")))
        columns["frames"].append(
            _parse_frame(fields[frame_column], path, line))
        columns["rows"].append((line, fields))
    try:
        for video_id, tube_id, start, run in _tube_runs(columns):
            yield video_id, tube_id, start, columns["rows"][run]
    except ValueError as exc:
        message, row = exc.args
        raise SchemaError(message, path=str(path),
                          line=columns["rows"][row][0],
                          field="frame") from None


def _video_tubes(path, video_id: str, tubes: Iterable) -> list:
    """One video's tubes by tube id, each of that video and its id
    checked, none repeated."""
    out = sorted(tubes, key=lambda t: t.tube_id)
    previous = None
    for tube in out:
        if tube.video_id != video_id:
            raise InputError(f"tube {tube.tube_id!r} of {tube.video_id!r} "
                             f"written with the tubes of {video_id!r}")
        _check_id(tube.tube_id, str(path), None, "tube_id")
        if tube.tube_id == previous:
            raise InputError(f"duplicate tube id {tube.tube_id!r} in "
                             f"{video_id!r}")
        previous = tube.tube_id
    return out


def write_tubes(path, chunks: Iterable[tuple[str, Iterable[Tube]]]) -> None:
    """``(video_id, tubes)`` pairs, in ascending video order."""
    _write_videos(path, "tubes", chunks)


def _tube_text(path, video_id: str, tubes: Iterable[Tube]) -> str:
    rows = []
    for tube in _video_tubes(path, video_id, tubes):
        head = f"{video_id}\t{tube.tube_id}\t"
        label = "-" if tube.label is None else tube.label
        score = "-" if tube.score is None else repr(float(tube.score))
        tail = f"\t{label}\t{score}\n"
        rows += [
            f"{head}{frame}\t{float(box.x_min)!r}\t{float(box.y_min)!r}"
            f"\t{float(box.x_max)!r}\t{float(box.y_max)!r}"
            f"\t{source.value}\t{','.join(map(repr, scores))}{tail}"
            for frame, box, scores, source in zip(
                count(tube.start), tube.boxes, tube.class_scores,
                tube.sources)]
    return "".join(rows)


def read_tubes(path, ranges=None) -> list[Tube]:
    """Tubes by (video_id, tube_id)."""
    return _read(path, "tubes", ranges)


def _tubes_of(columns: dict) -> list[Tube]:
    tubes = []
    for video_id, tube_id, start, rows in _tube_runs(columns):
        tails = columns["tails"][rows]
        if len(set(tails)) != 1:
            raise ValueError("conflicting label or score")
        label, score = tails[0]
        tubes.append(Tube(
            video_id, tube_id, start, columns["boxes"][rows],
            columns["scores"][rows], columns["sources"][rows],
            label=None if label == "-" else _integer(label),
            score=None if score == "-" else float(score)))
    return tubes


def _parse_tube_block(text: dict) -> dict[str, list]:
    """A block's keys, frames, boxes, sources, score tuples and
    (label, score) text."""
    return {"keys": _key_column(text), "frames": _frame_column(text["frame"]),
            "boxes": _box_column(text),
            "sources": _source_column(text["source"]),
            "scores": _score_column(text["scores"]),
            "tails": list(zip(text["label"], text["score"]))}


def _check_tubes(path, rows: _Rows) -> None:
    """Raises the ``SchemaError`` of the first bad field, tube by tube."""
    for video_id, tube_id, start, rows in _tube_rows(path, rows, 2):
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
            Tube(video_id, tube_id, start, boxes, scores, sources,
                 label=label, score=score)
        except InputError as exc:
            bad = "label" if label is not None and label < 0 else "scores"
            raise SchemaError(str(exc), path=str(path), line=first_line,
                              field=bad) from None


# -- ground truth -------------------------------------------------------

def write_gt_tubes(
        path, chunks: Iterable[tuple[str, Iterable[GroundTruthTube]]]
) -> None:
    """``(video_id, tubes)`` pairs, in ascending video order."""
    _write_videos(path, "gttubes", chunks)


def _gt_text(path, video_id: str, tubes: Iterable[GroundTruthTube]) -> str:
    rows = []
    for tube in _video_tubes(path, video_id, tubes):
        head = f"{video_id}\t{tube.tube_id}\t{tube.label}\t"
        rows += [
            f"{head}{frame}\t{float(box.x_min)!r}\t{float(box.y_min)!r}"
            f"\t{float(box.x_max)!r}\t{float(box.y_max)!r}\n"
            for frame, box in tube.iter_frames()]
    return "".join(rows)


def read_gt_tubes(path, ranges=None) -> list[GroundTruthTube]:
    """Ground-truth tubes by (video_id, tube_id)."""
    return _read(path, "gttubes", ranges)


def _gt_tubes_of(columns: dict) -> list[GroundTruthTube]:
    tubes = []
    for video_id, tube_id, start, rows in _tube_runs(columns):
        labels = set(columns["labels"][rows])
        if len(labels) != 1:
            raise ValueError("conflicting labels")
        tubes.append(GroundTruthTube(video_id, tube_id, *labels, start,
                                     columns["boxes"][rows]))
    return tubes


def _parse_gt_block(text: dict) -> dict[str, list]:
    """A block's keys, frames, boxes and labels."""
    return {"keys": _key_column(text), "frames": _frame_column(text["frame"]),
            "boxes": _box_column(text),
            "labels": _int_column(text["label"])}


def _check_gt_tubes(path, rows: _Rows) -> None:
    """Raises the ``SchemaError`` of the first bad field, tube by tube."""
    for video_id, tube_id, start, rows in _tube_rows(path, rows, 3):
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
        chunks: Iterable[tuple[str, Mapping[tuple[str, str],
                                            ClipScoreSequence]]]) -> None:
    """``(video_id, {(video_id, tube_id): clips})`` pairs, in ascending
    video order."""
    _write_videos(path, "clipscores", chunks)


def _clip_text(path, video_id: str,
               by_tube: Mapping[tuple[str, str], ClipScoreSequence]) -> str:
    rows = []
    for (tube_video, tube_id), clips in sorted(by_tube.items()):
        if tube_video != video_id:
            raise InputError(f"clip scores of tube {tube_id!r} of "
                             f"{tube_video!r} written with the clip scores "
                             f"of {video_id!r}")
        _check_id(tube_id, str(path), None, "tube_id")
        head = f"{video_id}\t{tube_id}\t{clips.clip_length}\t"
        rows += [f"{head}{interval.start}\t{interval.end}"
                 f"\t{','.join(map(repr, scores))}\n"
                 for interval, scores in zip(clips.intervals, clips.scores)]
    return "".join(rows)


def read_clip_scores(path, ranges=None
                     ) -> dict[tuple[str, str], ClipScoreSequence]:
    """Clip score sequences by (video_id, tube_id), keys ascending."""
    return _read(path, "clipscores", ranges)


def _clip_scores_of(columns: dict) -> dict[tuple[str, str],
                                            ClipScoreSequence]:
    lengths: dict[tuple[str, str], int] = {}
    clips: dict[tuple[str, str], list] = {}
    for key, length, *clip in zip(
            columns["keys"], columns["lengths"], columns["starts"],
            columns["ends"], columns["scores"]):
        if lengths.setdefault(key, length) != length:
            raise ValueError("mixed clip lengths")
        clips.setdefault(key, []).append(clip)
    return {key: _clip_sequence(lengths[key], clips[key])
            for key in sorted(clips)}


def _parse_clip_block(text: dict) -> dict[str, list]:
    """A block's keys, clip lengths, clip starts and ends and score
    tuples."""
    return {"keys": _key_column(text),
            "lengths": _int_column(text["clip_length"]),
            "starts": _frame_column(text["start"]),
            "ends": _frame_column(text["end"]),
            "scores": _score_column(text["scores"])}


def _clip_sequence(clip_length: int, clips: Iterable[Sequence]
                   ) -> ClipScoreSequence:
    """The sequence of one tube's ``(start, end, scores)`` clips, which
    may come in any order."""
    clips = sorted(clips)
    return ClipScoreSequence(
        clip_length, tuple(FrameInterval(s, e) for s, e, _ in clips),
        tuple(scores for _, _, scores in clips))


def _check_clip_scores(path, rows: _Rows) -> None:
    """Raises the ``SchemaError`` of the first bad field, row by row,
    then of the first bad clip sequence, tube by tube in id order, at
    the clip that carries the fault."""
    firsts: dict[tuple[str, str], tuple[int, int]] = {}
    clips: dict[tuple[str, str], list] = {}
    for line, fields in rows:
        key = (_check_id(fields[0], str(path), line, "video_id"),
               _check_id(fields[1], str(path), line, "tube_id"))
        clip_length = _parse_int(fields[2], path, line, "clip_length")
        start = _parse_frame(fields[3], path, line, "start")
        end = _parse_frame(fields[4], path, line, "end")
        scores = _parse_scores(fields[5], path, line)
        if firsts.setdefault(key, (clip_length, line))[0] != clip_length:
            raise SchemaError(
                f"tube {key[1]!r} mixes clip lengths",
                path=str(path), line=line, field="clip_length")
        clips.setdefault(key, []).append((start, end, scores, line))
    for key in sorted(clips):
        clip_length, first_line = firsts[key]
        ordered = sorted(clips[key])
        try:
            _clip_sequence(clip_length, [clip[:3] for clip in ordered])
        except InputError as exc:
            line, field = _clip_fault(clip_length, first_line, ordered)
            raise SchemaError(str(exc), path=str(path), line=line,
                              field=field) from None


def _clip_fault(clip_length: int, first_line: int,
                clips: list[tuple]) -> tuple[int, str]:
    """The line and field of the fault ``ClipScoreSequence`` reports
    first for one tube's sorted ``(start, end, scores, line)`` clips:
    an empty interval, a clip length below 1 (at the tube's first
    line), a score vector's class count or sum, then a clip that does
    not start where the one before it ends."""
    for start, end, _, line in clips:
        if start >= end:
            return line, "start"
    if clip_length < 1:
        return first_line, "clip_length"
    width = len(clips[0][2])
    for _, _, scores, line in clips:
        if len(scores) != width or abs(sum(scores) - 1.0) > SCORE_SUM_TOL:
            return line, "scores"
    gaps = (line for (_, end, _, _), (start, _, _, line)
            in zip(clips, clips[1:]) if end != start)
    return next(gaps, first_line), "start"


# -- the record kinds ---------------------------------------------------

class _Kind(NamedTuple):
    """How one record kind is read and written."""

    parse: Callable     # a block's text columns -> typed per-row lists
    build: Callable     # those lists -> records, in the reader's shape
    check: Callable     # raises the whole file's first bad field, row-wise
    text: Callable      # one video's records -> their rows
    reader: str         # names of the kind's reader and writer
    writer: str
    # for a reader that keys its records by video, the type of one
    # video's records
    by_video: type | None


_KINDS = {
    "detections": _Kind(_parse_detection_block, _detections_of,
                        _check_detections, _detection_text,
                        "read_detections", "write_detections", list),
    "proposals": _Kind(_parse_proposal_block, _proposals_of,
                       _check_proposals, _proposal_text,
                       "read_proposals", "write_proposals", dict),
    "tubes": _Kind(_parse_tube_block, _tubes_of, _check_tubes, _tube_text,
                   "read_tubes", "write_tubes", None),
    "gttubes": _Kind(_parse_gt_block, _gt_tubes_of, _check_gt_tubes,
                     _gt_text, "read_gt_tubes", "write_gt_tubes", None),
    "clipscores": _Kind(_parse_clip_block, _clip_scores_of,
                        _check_clip_scores, _clip_text,
                        "read_clip_scores", "write_clip_scores", None),
}


# -- metrics ------------------------------------------------------------

def write_metrics(path, rows: Iterable[Sequence[str]]) -> None:
    write_records(path, "metrics", sorted(tuple(r) for r in rows))


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
        previous = None
        for _ in range(count):
            name_len, = struct.unpack("<H", take(2))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise SchemaError(f"array name at byte {offset - name_len} "
                                  f"is not UTF-8", path=str(path)) from None
            if previous is not None and name <= previous:
                raise SchemaError(
                    f"array {name!r} appears twice" if name == previous
                    else f"array {name!r} comes after {previous!r}; names "
                    f"must be strictly ascending", path=str(path))
            previous = name
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


def read_matches(path, arrays=None) -> dict[tuple[str, int], np.ndarray]:
    """``(video_id, frame) -> rows`` as written by ``write_matches``.

    ``arrays``, if given, are some of the container's ``(name, array)``
    pairs as ``iter_arrays`` reads them, and only those are read.
    """
    import numpy as np
    out = {}
    for name, rows in iter_arrays(path) if arrays is None else arrays:
        video_id, frame = _parse_frame_name(name, path, "match")
        if rows.dtype.kind != "f" or rows.ndim != 2 or rows.shape[1] != 4:
            raise SchemaError(
                f"match array {name!r} is {rows.dtype} {rows.shape}, "
                f"expected (N, 4) float64", path=str(path))
        if not np.all(np.isfinite(rows)):
            raise SchemaError(f"match array {name!r}: match points "
                              f"must be finite", path=str(path))
        out[(video_id, frame)] = rows
    return out


def matches_by_video(path) -> Iterator[
        tuple[str, dict[tuple[str, int], np.ndarray]]]:
    """Each video's ``{(video_id, frame): rows}`` of a matches container,
    read by ``read_matches``.

    Videos come one at a time in file order.  Array names ascend, so a
    video's arrays are contiguous and videos come in the order of
    ``<video_id>/``: ascending ids, unless one id extends another by
    ``-`` or ``.`` (``a-b/`` sorts before ``a/``).
    """
    def video_of(pair):
        return pair[0].partition("/")[0]

    for video_id, arrays in groupby(iter_arrays(path), key=video_of):
        yield video_id, read_matches(path, arrays)


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
