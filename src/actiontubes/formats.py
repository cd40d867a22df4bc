"""On-disk formats: versioned record files and a binary array container.

Sparse records (detections, proposals, tube frames, ground truth, clip
scores, metrics) live in tab-separated text files with a two-line
header naming the record kind, format version and column layout.
Dense numeric payloads (point matches, flow grids, scorer weights,
clip noise, cell accuracies) live in a little-endian container of
named arrays, written one array at a time and read back one at a time
without numpy: flow grids as flat standard-library ``array``s,
everything else as Python floats.  Writers emit records and arrays in
a canonical order so identical data always produces identical bytes,
and every file is written to a temp file beside its target and then
renamed onto it, so a failed write never leaves a truncated file.  See
FORMATS.md for the field-by-field reference.

Record files and per-frame array containers are read one video at a
time.  A reader (``VideoRecords``, ``VideoArrays``) first finds where
each video's lines or arrays are, then hands one video's to the kind's
reader (``read_tubes``, ``read_matches`` …).  A record reader parses
lines column-wise, in blocks of rows, whether they are one video's or
the whole file's, with one parser per field.  Should any check fail,
the same parsers run again over the whole file one row at a time,
with the checks that span rows, to report its first problem in the
order FORMATS.md gives under "Which problem is reported".  A writer takes
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
import sys
import threading
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress, count, repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, ProcessingError, SchemaError
from .model import (SCORE_SUM_TOL, BoundingBox, ClipScoreSequence,
                    Detection, FlowMagnitudeGrid, FrameInterval,
                    GroundTruthTube, Proposal, Source, Tube)

# numpy is for annotations only: the container writers import it, so the
# record files and every container reader load without it.
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


def _check_id(value: str, path, field: str) -> None:
    """Rejects an identifier a writer was given that no reader takes."""
    if not _ID_PATTERN.match(value):
        raise SchemaError(f"invalid identifier {value!r}", path=str(path),
                          field=field)


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


# -- column-wise reading, one video at a time ----------------------------

# Rows a reader splits and parses at a time.  Columns of a whole video
# would leave megabytes of freed heap behind, which the C allocator
# returns or keeps depending on the heap's layout, so the peak RSS of
# the work that follows would swing by ~3 MiB between runs of one input
# (crowd-12 `score`).  Blocks keep every list but the per-row results
# small.
_BLOCK_ROWS = 1024



def _video_ranges(path, kind: str) -> dict[str, list[list[int]]]:
    """Where each video's lines lie in a record file, as byte ranges.

    One loop over the lines makes each run of lines that start with the
    same ``video_id`` field one ``[start, end)`` range, ending before
    the run's last line break, so a sorted file holds one range per
    video.  Blank lines belong to no video; a last line may lack its
    line break.  A header that is not exactly the kind's raises
    ``ValueError`` and leaves the report to ``_located``.
    """
    ranges: dict[bytes, list[list[int]]] = {}
    with _open_bytes(path) as fh:
        head = [fh.readline().removesuffix(b"\n") for _ in range(2)]
        if head != [line.encode("utf-8") for line in _header(kind)]:
            raise ValueError("header")
        offset, video, run = fh.tell(), None, None
        for line in fh:
            start, offset = offset, offset + len(line)
            if line == b"\n":
                video = None
                continue
            end = offset - line.endswith(b"\n")
            name = line.partition(b"\t")[0].removesuffix(b"\n")
            if name == video:
                run[1] = end
            else:
                video, run = name, [start, end]
                ranges.setdefault(name, []).append(run)
    return {video_id.decode("utf-8"): runs
            for video_id, runs in ranges.items()}


def _range_lines(path, ranges: Iterable[Sequence[int]]) -> list[str]:
    """The lines in ``ranges`` of a record file, decoded."""
    lines: list[str] = []
    with _open_bytes(path) as fh:
        for start, end in ranges:
            fh.seek(start)
            lines += fh.read(end - start).decode("utf-8").split("\n")
    return lines


def _read_columns(lines: list[str], kind: str, fields: Sequence[tuple],
                  rows: int, check: Callable | None = None
                  ) -> dict[str, list]:
    """Record lines as the typed lists of ``fields``, read block-wise.

    Each block of ``rows`` lines is split in one pass over its join and
    sliced into text columns by name for ``_parse``.  The lists grow
    block by block; a list no row reached reads as empty.  A fault
    raises at its block's first row, after ``check`` of the lists of the
    blocks before it; with none, ``check`` of every block's ends the read.
    """
    names = SCHEMAS[kind].columns
    columns: dict[str, list] = defaultdict(list)
    for at in range(0, len(lines), rows):
        block = list(filter(None, lines[at:at + rows]))
        if not block:
            continue
        tabs = set(map(str.count, block, repeat("\t"))) - {len(names) - 1}
        if tabs:
            raise _Fault(f"expected {len(names)} fields, found "
                         f"{max(tabs) + 1}", at)
        split = "\t".join(block).split("\t")
        text = {name: split[i::len(names)] for i, name in enumerate(names)}
        del block, split
        try:
            parsed = _parse(fields, text)
        except _Fault as fault:
            fault.row += at
            if check is not None:
                check(columns)
            raise
        for name, values in parsed.items():
            columns[name] += values
    if check is not None:
        check(columns)
    return columns


@contextmanager
def _located(path, kind: str) -> Iterator[None]:
    """Reports a failed read of a ``kind`` file at its first problem,
    in the order FORMATS.md gives under "Which problem is reported": the
    encoding and header (``_record_lines``), each row's field count,
    then the kind's ``locate``, which runs the field parsers one row at
    a time and the checks that span rows.  Should no row be at fault,
    the block pass failed on its own: a fault of this module.
    """
    try:
        yield
    except SchemaError:
        raise
    except ValueError as failure:
        numbered = [(number, line) for number, line in enumerate(
            _record_lines(path, kind), start=3) if line]
        lines = [line for _, line in numbered]
        try:
            _read_columns(lines, kind, (), 1)      # every row's width first
            _KINDS[kind].locate(kind, lines)
        except _Fault as fault:
            raise SchemaError(str(fault), path=str(path),
                              line=numbered[fault.row][0],
                              field=fault.field) from None
        raise ProcessingError(
            f"{path}: the {kind} reader rejected the file ({failure!r}) "
            f"but no row of it is at fault") from None


def _read(path, kind: str, ranges: Iterable[Sequence[int]] | None):
    """The records of a ``kind`` file, in its reader's shape: of every
    line, or of the lines in ``ranges`` alone."""
    with _located(path, kind):
        lines = _record_lines(path, kind) if ranges is None \
            else _range_lines(path, ranges)
        columns = _read_columns(lines, kind, _KINDS[kind].fields,
                                _BLOCK_ROWS)
        del lines
        return _KINDS[kind].build(columns)


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
        with _located(path, kind):
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
    _check_id(video_id, path, "video_id")
    if previous is not None and video_id <= previous:
        raise InputError(
            f"video {video_id!r} written after {previous!r}; "
            f"videos must come in strictly ascending order")
    return video_id


def _check_first_frame(what: str, video_id: str, frame: int) -> None:
    """Rejects records that start before frame 0, which every reader
    rejects; ``what`` names them, as in "matches"."""
    if frame < 0:
        raise InputError(f"{what} in {video_id!r} start at negative "
                         f"frame {frame}")


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


# -- one parser per field -------------------------------------------------

class _Fault(ValueError):
    """A bad value or row: the message that reports it, the index of its
    row where the check knows it, and its field unless the parser's.

    A column parser checks a column of one field's text values in bulk;
    should that fail, it parses them one at a time, so that the field's
    one-value parser raises a ``_Fault`` at the first bad one.
    """

    def __init__(self, message: str, row: int = 0, field: str | None = None):
        super().__init__(message)
        self.row, self.field = row, field


def _by_set(parse: Callable, values: list[str]) -> list:
    """``parse`` of each value of a column, run once per distinct value."""
    try:
        known = {value: parse(value) for value in set(values)}
    except _Fault:
        return list(map(parse, values))
    return list(map(known.__getitem__, values))


def _identifier(value: str) -> str:
    if _ID_PATTERN.match(value) is None:
        raise _Fault(f"invalid identifier {value!r}")
    return value


def _id_column(values: list[str]) -> list[str]:
    if not all(map(_ID_PATTERN.match, set(values))):
        for value in values:
            _identifier(value)
    return values


def _frame(value: str) -> int:
    """A frame index: a non-negative integer in ASCII base-10 digits.

    A value Python reads as an integer in another form (``-2``, ``+3``,
    `` 3``) is reported as such, anything else as not an integer.
    """
    if value.isascii() and value.isdigit():
        return int(value)
    try:
        int(value)
    except ValueError:
        raise _Fault(f"not an integer: {value!r}") from None
    raise _Fault(f"not a non-negative base-10 integer: {value!r}")


def _integer(value: str) -> int:
    """A label or clip length: ASCII base-10 digits after at most one
    leading ``-``."""
    if _INT_PATTERN.match(value) is None:
        raise _Fault(f"not an integer: {value!r}")
    return int(value)


def _source(value: str) -> Source:
    try:
        return Source[value.upper()]
    except KeyError:
        raise _Fault(f"unknown source {value!r}") from None


def _finite(value: str, field: str | None = None) -> float:
    """A float ``float()`` reads, but not NaN or an infinity."""
    try:
        out = float(value)
    except ValueError:
        raise _Fault(f"not a number: {value!r}", field=field) from None
    if not math.isfinite(out):
        raise _Fault(f"non-finite value: {value!r}", field=field)
    return out


def _float_column(values: list[str]) -> list[float]:
    """Finite floats.  Should one not parse, or their sum not be finite
    (a NaN, an infinity, or an overflow), each value is parsed alone."""
    try:
        out = list(map(float, values))
        if math.isfinite(sum(out)):
            return out
    except ValueError:
        pass
    return list(map(_finite, values))


def _box(*coords: str) -> BoundingBox:
    """A box of its coordinates' text; a degenerate one is reported at
    ``x0``."""
    try:
        return BoundingBox(*map(_finite, coords, ("x0", "y0", "x1", "y1")))
    except InputError as exc:
        raise _Fault(str(exc), field="x0") from None


def _box_column(*coords: list[str]) -> list[BoundingBox]:
    try:
        return list(map(BoundingBox, *[list(map(float, c)) for c in coords]))
    except ValueError:          # a coordinate float() rejects, a bad box
        return list(map(_box, *coords))


def _score_column(column: list[str]) -> list[tuple[float, ...]]:
    """One class score tuple per row of a comma-separated column."""
    values = _float_column(",".join(column).split(","))
    ends = list(accumulate(c + 1 for c in map(str.count, column,
                                              repeat(","))))
    return [tuple(values[a:b]) for a, b in zip([0, *ends], ends)]


def _parse(fields: Sequence[tuple], text: dict[str, list[str]]
           ) -> dict[str, list]:
    """The typed lists of ``fields`` (a kind's, or some of them) of the
    rows whose text columns ``text`` holds, each text column dropped
    from ``text`` as it is parsed."""
    out = {}
    for name, columns, parse in fields:
        try:
            out[name] = parse(*[text.pop(column) for column in columns])
        except _Fault as fault:
            fault.field = fault.field or columns[0]
            raise
    return out


def _locate_rows(kind: str, lines: list[str], check: Callable | None = None
                 ) -> None:
    """Every field of every row in row order, with ``check`` of each row
    against the rows before it; then the checks of the kind's build."""
    _KINDS[kind].build(_read_columns(lines, kind, _KINDS[kind].fields, 1,
                                     check))


# -- detections ---------------------------------------------------------

def write_detections(
        path, chunks: Iterable[tuple[str, Iterable[Detection]]]) -> None:
    """``(video_id, detections)`` pairs, in ascending video order."""
    _write_videos(path, "detections", chunks)


def _detection_text(path, video_id: str, dets: Iterable[Detection]) -> str:
    rows = sorted((det.frame_index, det.score, det.box.as_tuple(),
                   det.source.value, det.class_scores) for det in dets)
    if rows:
        _check_first_frame("detections", video_id, rows[0][0])
    return "".join([
        f"{video_id}\t{frame}\t{float(x0)!r}\t{float(y0)!r}"
        f"\t{float(x1)!r}\t{float(y1)!r}\t{source}"
        f"\t{','.join(map(repr, scores))}\n"
        for frame, _, (x0, y0, x1, y1), source, scores in rows])


def read_detections(path, ranges=None) -> dict[str, list[Detection]]:
    """Each video's detections, videos ascending, rows in file order."""
    return _read(path, "detections", ranges)


def _by_video(video_ids: list[str], records: Iterable) -> dict[str, list]:
    """Each video's records, videos ascending, records in row order."""
    out: dict[str, list] = {}
    for video_id, record in zip(video_ids, records):
        out.setdefault(video_id, []).append(record)
    return dict(sorted(out.items()))


def _detections_of(columns: dict) -> dict[str, list[Detection]]:
    return _by_video(columns["video_ids"], map(
        Detection, columns["frames"], columns["boxes"], columns["scores"],
        columns["sources"]))


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
    if rows:
        _check_first_frame("proposals", video_id, rows[0][0])
    return "".join([
        f"{video_id}\t{frame}\t{float(x0)!r}\t{float(y0)!r}"
        f"\t{float(x1)!r}\t{float(y1)!r}\t{float(obj)!r}\n"
        for frame, obj, (x0, y0, x1, y1) in rows])


def read_proposals(path, ranges=None
                   ) -> dict[str, dict[int, tuple[Proposal, ...]]]:
    """Each video's proposals by frame, videos ascending, frames in file
    order."""
    return _read(path, "proposals", ranges)


def _proposals_of(columns: dict
                  ) -> dict[str, dict[int, tuple[Proposal, ...]]]:
    out = {}
    for video_id, props in _by_video(columns["video_ids"], map(
            Proposal, columns["frames"], columns["boxes"],
            columns["objectness"])).items():
        frames: dict[int, list[Proposal]] = {}
        for prop in props:
            frames.setdefault(prop.frame_index, []).append(prop)
        out[video_id] = {frame: tuple(ps) for frame, ps in frames.items()}
    return out


# -- tubes --------------------------------------------------------------

def _tube_runs(columns: dict) -> Iterator[tuple[str, str, int, slice]]:
    """Each tube's ids, start frame and slice of rows, in id order.

    Every column is first put in (video_id, tube_id, frame) order,
    unless it already is, keeping file order among equals.  A tube
    whose frames do not run consecutively, each once, raises ``_Fault``
    when reached, at its first row out of step.
    """
    order = list(zip(columns["video_ids"], columns["tube_ids"],
                     columns["frames"]))
    if not all(map(operator.le, order, order[1:])):
        order = sorted(range(len(order)), key=order.__getitem__)
        for name in list(columns):
            columns[name] = [columns[name][i] for i in order]
    del order
    keys = list(zip(columns["video_ids"], columns["tube_ids"]))
    frames = columns["frames"]
    starts = list(compress(count(), map(operator.ne, keys, [None, *keys])))
    for a, b in zip(starts, [*starts[1:], len(keys)]):
        start = frames[a]
        if frames[a:b] != list(range(start, start + b - a)):
            row, want = next((row, want) for row, want in zip(
                range(a, b), count(start)) if frames[row] != want)
            problem = "repeats" if frames[row] < want else "skips"
            raise _Fault(f"tube {keys[a][1]!r} {problem} frame "
                         f"{min(frames[row], want)}", row, "frame")
        yield (*keys[a], start, slice(a, b))


def _agreed(values: list, rows: slice, message: str, tube_id: str):
    """The value the ``rows`` of ``values`` share; the first row whose
    value differs from the first's raises ``message``, formatted with
    the tube's id, at ``label``."""
    run = values[rows]
    if len(set(run)) > 1:
        row = next(row for row, value in enumerate(run) if value != run[0])
        raise _Fault(message.format(tube_id), rows.start + row, "label")
    return run[0] if run else None


def _locate_tubes(kind: str, lines: list[str], agreed: Callable) -> None:
    """Tubes and ground truth: ``video_id``, ``tube_id`` and ``frame`` of
    every row, in row order.  Then tube by tube in id order, its rows by
    frame: its frame run; its next field row by row, and whether the
    rows agree on it (``agreed``); every other field, field by field;
    then the checks of the kind's build."""
    fields, build = _KINDS[kind].fields, _KINDS[kind].build
    columns = _read_columns(lines, kind, fields[:3], 1)
    columns.update(lines=lines, rows=list(range(len(lines))))
    name = fields[3][0]
    try:
        for _, tube_id, _, rows in _tube_runs(columns):
            tube = {key: values[rows] for key, values in columns.items()}
            try:
                tube.update(_read_columns(
                    tube["lines"], kind, fields[3:4], 1, lambda parsed:
                    agreed(parsed[name], slice(0, None), tube_id)))
                for field in fields[4:]:
                    tube.update(_read_columns(tube["lines"], kind, (field,),
                                              1))
                build(tube)
            except _Fault as fault:
                fault.row += rows.start
                raise
    except _Fault as fault:
        fault.row = columns["rows"][fault.row]
        raise


def _video_tubes(path, video_id: str, tubes: Iterable) -> list:
    """One video's tubes by tube id, each of that video, its id checked
    and starting at frame 0 or later, none repeated."""
    out = sorted(tubes, key=lambda t: t.tube_id)
    previous = None
    for tube in out:
        if tube.video_id != video_id:
            raise InputError(f"tube {tube.tube_id!r} of {tube.video_id!r} "
                             f"written with the tubes of {video_id!r}")
        _check_id(tube.tube_id, path, "tube_id")
        _check_first_frame(f"frames of tube {tube.tube_id!r}", video_id,
                           tube.start)
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


def _tail_of(tails: list, rows: slice, tube_id: str
             ) -> tuple[int | None, float | None]:
    """A tube's label and score, ``None`` for ``-``, of the ``(label,
    score)`` text its ``rows`` of ``tails`` share."""
    label, score = _agreed(
        tails, rows, "tube {!r} carries conflicting label or score", tube_id)
    try:
        return (None if label == "-" else _integer(label),
                None if score == "-" else _finite(score, "score"))
    except _Fault as fault:
        fault.row, fault.field = rows.start, fault.field or "label"
        raise


def _tubes_of(columns: dict) -> list[Tube]:
    tubes = []
    for video_id, tube_id, start, rows in _tube_runs(columns):
        label, score = _tail_of(columns["tails"], rows, tube_id)
        try:
            tubes.append(Tube(
                video_id, tube_id, start, columns["boxes"][rows],
                columns["scores"][rows], columns["sources"][rows],
                label=label, score=score))
        except InputError as exc:
            raise _Fault(str(exc), rows.start, "label" if label is not None
                         and label < 0 else "scores") from None
    return tubes


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


def _label_of(labels: list[int], rows: slice, tube_id: str) -> int:
    return _agreed(labels, rows,
                   "ground truth tube {!r} has conflicting labels", tube_id)


def _gt_tubes_of(columns: dict) -> list[GroundTruthTube]:
    tubes = []
    for video_id, tube_id, start, rows in _tube_runs(columns):
        label = _label_of(columns["labels"], rows, tube_id)
        try:
            tubes.append(GroundTruthTube(video_id, tube_id, label, start,
                                         columns["boxes"][rows]))
        except InputError as exc:
            raise _Fault(str(exc), rows.start, "label") from None
    return tubes


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
        _check_id(tube_id, path, "tube_id")
        _check_first_frame(f"clip scores of tube {tube_id!r}", video_id,
                           clips.intervals[0].start)
        head = f"{video_id}\t{tube_id}\t{clips.clip_length}\t"
        rows += [f"{head}{interval.start}\t{interval.end}"
                 f"\t{','.join(map(repr, scores))}\n"
                 for interval, scores in zip(clips.intervals, clips.scores)]
    return "".join(rows)


def read_clip_scores(path, ranges=None
                     ) -> dict[tuple[str, str], ClipScoreSequence]:
    """Clip score sequences by (video_id, tube_id), keys ascending."""
    return _read(path, "clipscores", ranges)


def _clips_by_tube(columns: dict) -> dict[tuple[str, str], list]:
    """Each tube's clip length, its first row's, followed by its
    ``(start, end, scores, row)`` clips; a row whose clip length differs
    from its tube's first row's raises."""
    tubes: dict[tuple[str, str], list] = {}
    for key, length, *clip in zip(
            zip(columns["video_ids"], columns["tube_ids"]),
            columns["lengths"], columns["starts"], columns["ends"],
            columns["scores"], count()):
        tube = tubes.setdefault(key, [length])
        if tube[0] != length:
            raise _Fault(f"tube {key[1]!r} mixes clip lengths", clip[3],
                         "clip_length")
        tube.append(clip)
    return tubes


def _clip_scores_of(columns: dict) -> dict[tuple[str, str],
                                            ClipScoreSequence]:
    tubes = _clips_by_tube(columns)
    return {key: _clip_sequence(*tubes[key]) for key in sorted(tubes)}


def _clip_sequence(clip_length: int, *clips: tuple) -> ClipScoreSequence:
    """The sequence of one tube's ``(start, end, scores, row)`` clips,
    which may come in any order.  A fault ``ClipScoreSequence`` finds
    raises at the clip that carries it, in the order it checks them: an
    empty interval, a clip length below 1 (at the tube's first row),
    each score vector's class count and sum, then a clip that does not
    start where the one before it ends."""
    clips = sorted(clips)
    try:
        return ClipScoreSequence(
            clip_length, tuple(FrameInterval(s, e) for s, e, _, _ in clips),
            tuple(scores for _, _, scores, _ in clips))
    except InputError as exc:
        message = str(exc)
    width = len(clips[0][2])
    faults = [(row, "start") for start, end, _, row in clips if start >= end]
    if clip_length < 1:
        faults.append((min(row for *_, row in clips), "clip_length"))
    faults += [(row, "scores") for _, _, scores, row in clips
               if len(scores) != width
               or abs(sum(scores) - 1.0) > SCORE_SUM_TOL]
    faults += [(row, "start") for (_, end, _, _), (start, _, _, row)
               in zip(clips, clips[1:]) if end != start]
    raise _Fault(message, *faults[0])


# -- the record kinds ---------------------------------------------------

class _Kind(NamedTuple):
    """How one record kind is read and written."""

    # ``(name, columns, parser)`` of each field, in the order a row's are
    # checked: the parser takes the text columns, gives the typed list
    # ``name``, and serves both the block pass and ``_located``
    fields: tuple
    build: Callable     # the typed lists -> records, in the reader's shape
    locate: Callable    # (kind, the file's rows) -> raises the first fault
    text: Callable      # one video's records -> their rows
    reader: str         # names of the kind's reader and writer
    writer: str
    # for a reader that keys its records by video, the type of one
    # video's records
    by_video: type | None


_KINDS = {
    "detections": _Kind((
        ("video_ids", ("video_id",), _id_column),
        ("frames", ("frame",), partial(_by_set, _frame)),
        ("boxes", ("x0", "y0", "x1", "y1"), _box_column),
        ("sources", ("source",), partial(_by_set, _source)),
        ("scores", ("scores",), _score_column),
    ), _detections_of, _locate_rows, _detection_text,
        "read_detections", "write_detections", list),
    "proposals": _Kind((
        ("video_ids", ("video_id",), _id_column),
        ("frames", ("frame",), partial(_by_set, _frame)),
        ("boxes", ("x0", "y0", "x1", "y1"), _box_column),
        ("objectness", ("objectness",), _float_column),
    ), _proposals_of, _locate_rows, _proposal_text,
        "read_proposals", "write_proposals", dict),
    "tubes": _Kind((
        ("video_ids", ("video_id",), _id_column),
        ("tube_ids", ("tube_id",), _id_column),
        ("frames", ("frame",), partial(_by_set, _frame)),
        # checked tube by tube, by ``_tail_of``
        ("tails", ("label", "score"),
         lambda labels, scores: list(zip(labels, scores))),
        ("boxes", ("x0", "y0", "x1", "y1"), _box_column),
        ("sources", ("source",), partial(_by_set, _source)),
        ("scores", ("scores",), _score_column),
    ), _tubes_of, partial(_locate_tubes, agreed=_tail_of), _tube_text,
        "read_tubes", "write_tubes", None),
    "gttubes": _Kind((
        ("video_ids", ("video_id",), _id_column),
        ("tube_ids", ("tube_id",), _id_column),
        ("frames", ("frame",), partial(_by_set, _frame)),
        ("labels", ("label",), partial(_by_set, _integer)),
        ("boxes", ("x0", "y0", "x1", "y1"), _box_column),
    ), _gt_tubes_of, partial(_locate_tubes, agreed=_label_of), _gt_text,
        "read_gt_tubes", "write_gt_tubes", None),
    "clipscores": _Kind((
        ("video_ids", ("video_id",), _id_column),
        ("tube_ids", ("tube_id",), _id_column),
        ("lengths", ("clip_length",), partial(_by_set, _integer)),
        ("starts", ("start",), partial(_by_set, _frame)),
        ("ends", ("end",), partial(_by_set, _frame)),
        ("scores", ("scores",), _score_column),
    ), _clip_scores_of, partial(_locate_rows, check=_clips_by_tube),
        _clip_text, "read_clip_scores", "write_clip_scores", None),
}


# -- metrics ------------------------------------------------------------

def write_metrics(path, rows: Iterable[Sequence[str]]) -> None:
    write_records(path, "metrics", sorted(tuple(r) for r in rows))


# -- binary array container ---------------------------------------------

BINARY_MAGIC = b"ATBN"
_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "|u1", 3: "<f4"}
# each stored dtype as numpy names it, for readers that use no numpy
_DTYPE_NAMES = {"<f8": "float64", "<i8": "int64", "|u1": "uint8",
                "<f4": "float32"}
# every float dtype but float32 is stored as float64, every signed integer
# dtype as int64, and unsigned bytes as bytes
_CODE_FOR_KIND = {"f": 0, "i": 1, "u": 2}
_F4 = 3


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
            code = _F4 if (arr.dtype.kind, arr.dtype.itemsize) == ("f", 4) \
                else _CODE_FOR_KIND.get(arr.dtype.kind)
            # a wider unsigned integer would wrap when cast to bytes
            if code is None or (code == 2 and arr.dtype.itemsize > 1):
                raise InputError(
                    f"array {name!r} has unsupported dtype {arr.dtype}")
            arr = np.asarray(arr, dtype=_DTYPE_CODES[code], order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.data)
            count += 1
        fh.seek(len(BINARY_MAGIC) + 2)
        fh.write(struct.pack("<I", count))


class _Entry(NamedTuple):
    """Where one array of a container is: its record starts at byte
    ``start`` and its data at ``offset``."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    start: int


def _walk(path, fh, start: int | None = None,
          count: int = 0) -> Iterator[_Entry]:
    """Each array's entry, in file order: of the whole container, or of
    the ``count`` arrays whose records follow one another from byte
    ``start``.

    One pass over the open container ``fh`` makes every structural check
    where it finds the damage and skips each array's data.  A bad length
    is caught against the file size, so no buffer is ever sized by it.
    Only a walk of the whole container checks the header and trailing
    bytes.
    """
    size = os.fstat(fh.fileno()).st_size
    offset = start or 0

    def take(count: int) -> bytes:
        nonlocal offset
        data = fh.read(count) if offset + count <= size else b""
        if len(data) != count:
            raise SchemaError(f"truncated container at byte {offset}",
                              path=str(path))
        offset += count
        return data

    if start is None:
        if fh.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
            raise SchemaError("not an array container (bad magic)",
                              path=str(path))
        offset = len(BINARY_MAGIC)
        version, count = struct.unpack("<HI", take(6))
        if version != FORMAT_VERSION:
            raise SchemaError(f"unsupported container version {version}",
                              path=str(path))
    else:
        fh.seek(start)
    previous = None
    for _ in range(count):
        record = offset
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
        dtype = _DTYPE_CODES[code]
        # the item size is the code's digits: "<f8" -> 8 bytes
        nbytes = math.prod(shape) * int(dtype[2:])
        if offset + nbytes > size:
            raise SchemaError(f"truncated container at byte {offset}",
                              path=str(path))
        yield _Entry(name, dtype, shape, offset, record)
        offset += nbytes
        fh.seek(offset)
    if start is None and offset != size:
        raise SchemaError(
            f"{size - offset} trailing bytes after the last array",
            path=str(path))


class VideoArrays:
    """A container of ``<video_id>/<frame:08d>`` arrays, or of one array
    per video named ``<video_id>``, read one video at a time, as
    ``VideoRecords`` reads a record file.

    Building it walks the container once and makes every structural
    check.  It keeps, per video, where the video's first array record
    starts and how many arrays follow, not their values: every name of
    a video starts with ``<video_id>/`` or is the id, so the video's
    arrays are contiguous in name order.  ``read(video_id)`` walks those records
    again and hands their entries alone to the kind's reader
    (``read_matches``, ``read_flow`` or ``read_clip_noise``), which
    checks each array's name,
    dtype and values; a video the container does not hold reads as
    empty.
    """

    def __init__(self, path, kind: str):
        self.path = path
        self.kind = kind
        # video -> [start of its first array record, its array count]
        self._spans: dict[str, list[int]] = {}
        video = None
        with _open_bytes(path) as fh:
            for entry in _walk(path, fh):
                previous, video = video, entry.name.partition("/")[0]
                if video == previous:
                    self._spans[video][1] += 1
                elif video in self._spans:
                    # only a name without "/" can sort apart from the
                    # names of its video
                    raise SchemaError(
                        f"array {entry.name!r} is apart from the other "
                        f"arrays of video {video!r}", path=str(path))
                else:
                    self._spans[video] = [entry.start, 1]
        self.video_ids = sorted(self._spans)

    def read(self, video_id: str, *args):
        """The video's arrays as the kind's reader returns them, called
        with ``args`` after the entries."""
        entries = []
        if video_id in self._spans:
            with _open_bytes(self.path) as fh:
                entries = list(_walk(self.path, fh,
                                     *self._spans[video_id]))
        # looked up at each call, so a wrapped reader is the one called
        return globals()[f"read_{self.kind}"](self.path, entries, *args)


# -- typed container views ----------------------------------------------

def _check_dtype(path, name: str, dtype: str, *dtypes: str) -> None:
    """Rejects an array whose dtype is none of ``dtypes`` (numpy names):
    each typed reader takes only the codes its data is written in."""
    if dtype not in dtypes:
        raise SchemaError(f"array {name!r} is {dtype}, expected "
                          f"{' or '.join(dtypes)}", path=str(path))


def _read_array(path, fh, entry: _Entry) -> array:
    """A float64 or float32 array's values as one ``array("d")`` or
    ``array("f")``, in row-major order, read from the open container
    ``fh`` without numpy."""
    values = array("f" if entry.dtype == "<f4" else "d")
    fh.seek(entry.offset)
    try:
        values.fromfile(fh, math.prod(entry.shape))
    except EOFError:
        raise SchemaError(f"truncated container at byte {entry.offset}",
                          path=str(path)) from None
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _read_floats(path, fh, entry: _Entry) -> list[float]:
    """A float64 array's values as Python floats, in row-major order."""
    return _read_array(path, fh, entry).tolist()


def write_weights(path, weights) -> None:
    import numpy as np
    write_arrays(path, sorted({
        "w_io": weights.w_io, "w_hh": weights.w_hh, "b_y": weights.b_y,
        "w_cls": weights.w_cls, "b_cls": weights.b_cls,
        "activation": np.frombuffer(weights.activation.encode("utf-8"),
                                    dtype=np.uint8),
    }.items()))


def read_weights(path):
    """The scorer weights, as tuples of floats; read without numpy."""
    from .scoring import RecurrentScorerWeights
    required = {"w_io", "w_hh", "b_y", "w_cls", "b_cls", "activation"}
    with _open_bytes(path) as fh:
        entries = {entry.name: entry for entry in _walk(path, fh)}
        missing = required - entries.keys()
        if missing:
            raise SchemaError(f"weights container missing {sorted(missing)}",
                              path=str(path))
        for name in sorted(required):
            _check_dtype(path, name, _DTYPE_NAMES[entries[name].dtype],
                         "uint8" if name == "activation" else "float64")
        arrays = {name: _nest(_read_floats(path, fh, entries[name]),
                              entries[name].shape)
                  for name in sorted(required - {"activation"})}
        text = entries["activation"]
        fh.seek(text.offset)
        raw = fh.read(math.prod(text.shape))
    try:
        activation = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaError("array 'activation' is not UTF-8 text",
                          path=str(path)) from None
    try:
        return RecurrentScorerWeights(**arrays, activation=activation)
    except InputError as exc:
        raise SchemaError(str(exc), path=str(path)) from None


def _nest(values: list[float], shape: tuple[int, ...]):
    """Row-major ``values`` as nested lists of ``shape``: a 0-d array as
    its value, an array with an empty axis as ``[]``."""
    if not shape:
        return values[0]
    for size in reversed(shape[1:]):
        if not size:
            return []
        values = [values[i:i + size] for i in range(0, len(values), size)]
    return values


_FRAME_NAME = re.compile(r"([A-Za-z0-9_.:-]+)/([0-9]+)\Z")


def _parse_frame_name(name: str, path, kind: str) -> tuple[str, int]:
    """``(video_id, frame)`` of a per-frame array name ``<id>/<frame:08d>``."""
    found = _FRAME_NAME.match(name)
    if found is None or name != f"{found[1]}/{int(found[2]):08d}":
        raise SchemaError(f"bad {kind} array name {name!r}, expected "
                          f"<video_id>/<frame:08d>", path=str(path))
    return found[1], int(found[2])


def write_matches(
        path, chunks: Iterable[tuple[str, Mapping[int, np.ndarray]]]
) -> None:
    """``(video_id, {frame: rows})`` pairs, one video at a time.

    ``rows`` are the (N, 4) matches from ``frame`` to ``frame + 1``,
    columns ``from_x from_y to_x to_y``; each is written as one array
    named by its earlier frame, rows sorted lexicographically, frames
    ascending.  Videos must come in array-name order, the order of
    ``<video_id>/``: ascending ids, unless one id extends another by
    ``-`` or ``.``.  A video out of order is an ``InputError``.  One
    video's arrays are held at a time.
    """
    import numpy as np

    def arrays():
        previous = None
        for video_id, pairs in chunks:
            _check_id(video_id, path, "video_id")
            if previous is not None and video_id + "/" <= previous + "/":
                raise InputError(
                    f"matches of video {video_id!r} written after "
                    f"{previous!r}; videos must come in array-name order")
            previous = video_id
            named = {}
            for frame, rows in pairs.items():
                rows = np.asarray(rows, dtype=np.float64)
                if rows.ndim != 2 or rows.shape[1] != 4:
                    raise InputError(
                        f"matches at frame {frame} of {video_id!r} are "
                        f"{rows.shape}, expected (N, 4)")
                if not np.all(np.isfinite(rows)):
                    raise InputError(f"matches at frame {frame} of "
                                     f"{video_id!r} are not all finite")
                _check_first_frame("matches", video_id, frame)
                named[f"{video_id}/{frame:08d}"] = \
                    rows[np.lexsort(rows.T[::-1])]
            yield from sorted(named.items())
    write_arrays(path, arrays())


def read_matches(path, entries: Iterable[_Entry]
                 ) -> dict[int, list[tuple[float, float, float, float]]]:
    """One video's ``frame -> rows`` as written by ``write_matches``, of
    the ``entries`` a ``VideoArrays`` found for it; each row is a
    ``(from_x, from_y, to_x, to_y)`` tuple of floats."""
    out = {}
    with _open_bytes(path) as fh:
        for entry in entries:
            name = entry.name
            frame = _parse_frame_name(name, path, "match")[1]
            if entry.dtype != "<f8" or len(entry.shape) != 2 \
                    or entry.shape[1] != 4:
                raise SchemaError(
                    f"match array {name!r} is {_DTYPE_NAMES[entry.dtype]} "
                    f"{entry.shape}, expected (N, 4) float64",
                    path=str(path))
            values = _read_floats(path, fh, entry)
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"match array {name!r}: match points "
                                  f"must be finite", path=str(path))
            points = iter(values)
            out[frame] = list(zip(points, points, points, points))
    return out


def write_alphas(path, alphas: np.ndarray) -> None:
    write_arrays(path, [("alphas", alphas)])


def read_alphas(path) -> tuple[tuple[float, ...], ...]:
    """The per-cell classifier accuracies, one tuple of floats per class;
    each must be finite and in [0, 1]."""
    with _open_bytes(path) as fh:
        entries = {entry.name: entry for entry in _walk(path, fh)}
        if "alphas" not in entries:
            raise SchemaError("alphas container missing 'alphas'",
                              path=str(path))
        entry = entries["alphas"]
        _check_dtype(path, "alphas", _DTYPE_NAMES[entry.dtype], "float64")
        if len(entry.shape) != 2:
            raise SchemaError(f"array 'alphas' is {entry.shape}, expected "
                              f"(classes, cells)", path=str(path))
        values = _read_floats(path, fh, entry)
    classes, cells = entry.shape
    for index, value in enumerate(values):
        if not 0.0 <= value <= 1.0:
            raise SchemaError(
                f"alpha of class {index // cells}, cell {index % cells} is "
                f"{value!r}; cell accuracies must be finite and in [0, 1]",
                path=str(path))
    return tuple(tuple(values[c * cells:(c + 1) * cells])
                 for c in range(classes))


def write_flow(
        path, chunks: Iterable[tuple[str, Iterable[FlowMagnitudeGrid]]]
) -> None:
    """``(video_id, grids)`` pairs, videos in array-name order and grids
    in frame order, written one grid at a time, so generators of grids
    are never held.  Each grid is stored in its own dtype: float32 (code
    3) as ``synth`` makes it, float64 (code 0) as older files hold it."""
    import numpy as np

    def arrays():
        for video_id, grids in chunks:
            _check_id(video_id, path, "video_id")
            for grid in grids:
                yield (f"{video_id}/{grid.frame_index:08d}",
                       np.frombuffer(grid.values, grid.values.typecode)
                       .reshape(grid.height, grid.width))
    write_arrays(path, arrays())


def read_flow(path, entries: Iterable[_Entry]) -> Iterator[FlowMagnitudeGrid]:
    """One video's grids, in frame order, of the ``entries`` a
    ``VideoArrays`` found for it: each read and validated as it is
    reached, float32 or float64 as stored, without numpy."""
    with _open_bytes(path) as fh:
        for entry in entries:
            frame = _parse_frame_name(entry.name, path, "flow grid")[1]
            _check_dtype(path, entry.name, _DTYPE_NAMES[entry.dtype],
                         "float32", "float64")
            if len(entry.shape) != 2:
                raise SchemaError(f"flow grid must be a non-empty 2d array, "
                                  f"got shape {entry.shape}", path=str(path))
            try:
                grid = FlowMagnitudeGrid(frame, _read_array(path, fh, entry),
                                         *entry.shape)
            except InputError as exc:
                raise SchemaError(str(exc), path=str(path)) from None
            yield grid


def write_clip_noise(path, tables: Iterable[tuple[str, np.ndarray]]) -> None:
    """``(video_id, table)`` pairs, ascending ids, one array per video
    named by its id: the (frames, feature_dim) float64 clip noise, row
    ``s`` for a clip starting at frame ``s``."""
    import numpy as np

    def arrays():
        for video_id, table in tables:
            _check_id(video_id, path, "video_id")
            yield video_id, np.asarray(table, dtype=np.float64)
    write_arrays(path, arrays())


def read_clip_noise(path, entries: Sequence[_Entry],
                    shape: tuple[int, int] | None = None
                    ) -> list[list[float]] | None:
    """One video's clip noise table, one list of floats per clip start,
    of the ``entries`` a ``VideoArrays`` found for it; ``None`` when the
    container holds no table for the video.  The table must be a finite
    2-d float64 array named by the video's id, of ``shape`` if given."""
    if not entries:
        return None
    for entry in entries:
        if not _ID_PATTERN.match(entry.name):
            raise SchemaError(f"bad clip noise array name {entry.name!r}, "
                              f"expected <video_id>", path=str(path))
    # a name without "/" is the video's id itself, so it is the only one
    entry, = entries
    _check_dtype(path, entry.name, _DTYPE_NAMES[entry.dtype], "float64")
    if len(entry.shape) != 2 or shape is not None and entry.shape != shape:
        raise SchemaError(
            f"clip noise of video {entry.name!r} is {entry.shape}, expected "
            f"{'2-d' if shape is None else shape} (frames_per_video, "
            f"feature_dim)", path=str(path))
    with _open_bytes(path) as fh:
        values = _read_floats(path, fh, entry)
    for index, value in enumerate(values):
        if not math.isfinite(value):
            start, column = divmod(index, entry.shape[1])
            raise SchemaError(
                f"clip noise of video {entry.name!r} at clip start {start}, "
                f"column {column} is {value!r}; noise must be finite",
                path=str(path))
    return _nest(values, entry.shape)
