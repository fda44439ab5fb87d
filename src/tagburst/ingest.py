"""Parsing, validation, and serialization of tagged upload event streams.

The canonical time axis is fractional days since the stream origin (the
earliest record's timestamp).  Raw timestamps are quantized to integer
microseconds on parse so that a serialize -> parse cycle reproduces the
stream exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Event",
    "EventStream",
    "ParseError",
    "parse_events",
    "write_events",
]

MICROS_PER_DAY = 86_400_000_000
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# the record schema: the keys of a JSONL record, the columns of a CSV file
_CSV_COLUMNS = ("video_id", "ts", "uploader_id", "tags", "views", "comments")


class ParseError(ValueError):
    """Malformed input; carries the offending line number and field."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)
        self.line = line
        self.field = field


class Event(NamedTuple):
    """One upload: identity, time in days since stream origin, and metadata."""

    video_id: str
    upload_time: float
    uploader_id: str
    tags: frozenset[str]
    n_views: int
    n_comments: int


@dataclass(frozen=True)
class EventStream:
    """Events sorted by (upload_time, video_id) plus the observation window.

    ``origin`` is the absolute timestamp (epoch seconds, UTC) that anchors
    ``upload_time == 0``; for parsed files this is the earliest record.
    ``horizon_T`` is the end of the observation window in days.
    """

    origin: float
    events: tuple[Event, ...]
    horizon_T: float

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def times(self) -> np.ndarray:
        arr = np.array([e.upload_time for e in self.events], dtype=float)
        arr.flags.writeable = False
        return arr


# the stream order of events; video ids are unique, so it is total
_stream_order = operator.attrgetter("upload_time", "video_id")


def _micros_from_ts(value: object, line: int) -> int:
    """Normalize an ISO-8601 string or epoch-seconds number to integer microseconds."""
    kind = type(value)  # the exact types a reader yields; a bool is no timestamp
    if kind is float or kind is int:
        if kind is float and not math.isfinite(value):  # an int is always finite
            raise ParseError("timestamp is not finite", line=line, field="ts")
        try:
            return round(value * 1e6)
        except OverflowError:  # its microseconds pass the float range
            raise ParseError("timestamp out of range", line=line, field="ts") from None
    if kind is str:
        text = value.strip()
        if not text:
            raise ParseError("empty timestamp", line=line, field="ts")
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            try:
                seconds = float(text)
            except ValueError:
                seconds = math.nan  # unparseable, as are 'nan' and 'inf'
            if not math.isfinite(seconds):
                raise ParseError(f"unparseable timestamp {text!r}", line=line, field="ts") from None
            return _micros_from_ts(seconds, line)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        delta = dt - _EPOCH
        return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds
    raise ParseError("timestamp must be a string or number", line=line, field="ts")


def _require_str(value: object, name: str, line: int) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(f"{name} must be a non-empty string", line=line, field=name)
    return value


def _require_count(value: object, name: str, line: int) -> int:
    kind = type(value)  # the exact types a reader yields; a bool is no count
    if kind is str:
        try:
            value = int(value)
        except ValueError:
            raise ParseError(f"{name} must be an integer", line=line, field=name) from None
    elif kind is not int:
        raise ParseError(f"{name} must be an integer", line=line, field=name)
    if value < 0:
        raise ParseError(f"{name} must be >= 0", line=line, field=name)
    return value


def _require_tags(raw: object, line: int, shared: dict[frozenset[str], frozenset[str]]) \
        -> frozenset[str]:
    """The tag set of one record, as the one object ``shared`` already holds
    for an equal set, so records with equal tag lists share one frozenset."""
    if isinstance(raw, str):
        parts = raw.split("|") if raw else []
    elif isinstance(raw, list):
        parts = raw
    else:
        raise ParseError("tags must be a list of strings", line=line, field="tags")
    if not parts:
        raise ParseError("record has no tags", line=line, field="tags")
    for t in parts:
        if not isinstance(t, str) or not t:
            raise ParseError("tags must be non-empty strings", line=line, field="tags")
    tags = frozenset(parts)
    return shared.setdefault(tags, tags)


def _utf8_line(line: str, lineno: int) -> str:
    """The line, read with errors="surrogateescape", once it is checked to
    hold no byte that is not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:  # a byte that failed to decode, escaped
            byte = ord(line[exc.start]) - 0xDC00
            raise ParseError(f"invalid UTF-8 byte 0x{byte:02x}", line=lineno) from None
    return line


def _records_from_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line, decoding a line
    only when the previous record has been consumed."""
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not _utf8_line(raw, lineno).strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record must be a JSON object", line=lineno)
            yield lineno, rec


def _records_from_csv(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each data row, after checking the header."""
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(_utf8_line(line, n) for n, line in enumerate(fh, start=1))
        if reader.fieldnames is None:
            return
        missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing column(s): {', '.join(missing)}", line=1)
        for rec in reader:
            if rec.get(None):
                raise ParseError("too many fields", line=reader.line_num)
            yield reader.line_num, rec


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown format {fmt!r}: expected 'jsonl' or 'csv'")
        return fmt
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer format from {path.name!r}; pass format='jsonl' or 'csv'")


def parse_events(path: str | Path, format: str | None = None,
                 horizon_T: float | None = None) -> EventStream:
    """Read upload records and normalize times to days since the earliest record.

    Records need video_id, ts (ISO-8601 or epoch seconds), uploader_id, tags,
    views, and comments.  Events are sorted by (upload_time, video_id); the
    horizon defaults to the last event time unless overridden.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    fmt = _infer_format(path, format)
    records = _records_from_jsonl(path) if fmt == "jsonl" else _records_from_csv(path)

    # One pass: each record is checked, field by field in a fixed order, as it
    # is read and reduced to a row, so the first bad line in the file is the
    # one reported and no decoded record outlives its line.  Closing the
    # reader on an error releases the file before the error propagates.
    seen: dict[str, int] = {}
    shared_tags: dict[frozenset[str], frozenset[str]] = {}
    rows = []
    with contextlib.closing(records):
        for lineno, rec in records:
            vid = _require_str(rec.get("video_id"), "video_id", lineno)
            first = seen.setdefault(vid, lineno)
            if first != lineno:
                raise ParseError(
                    f"duplicate video_id {vid!r} (first seen at line {first})", line=lineno,
                    field="video_id")
            rows.append((
                _micros_from_ts(rec.get("ts"), lineno), vid,
                _require_str(rec.get("uploader_id"), "uploader_id", lineno),
                _require_tags(rec.get("tags"), lineno, shared_tags),
                _require_count(rec.get("views"), "views", lineno),
                _require_count(rec.get("comments"), "comments", lineno)))
    if not rows:
        raise ParseError(f"empty input file: {path}")

    base = min(row[0] for row in rows)
    events = tuple(sorted([
        Event(vid, (micros - base) / MICROS_PER_DAY, uploader, tags, views, comments)
        for micros, vid, uploader, tags, views, comments in rows], key=_stream_order))
    last = events[-1].upload_time
    if horizon_T is None:
        horizon_T = last
    elif horizon_T < last:
        raise ValueError(f"horizon_T={horizon_T} is before the last event at {last}")
    return EventStream(origin=base / 1e6, events=events, horizon_T=float(horizon_T))


def _atomic_write_text(path: Path, text: str) -> None:
    """Replace path with text in one step, so a reader sees the old file or
    the new one and a failed write leaves no temporary file.  The file gets
    the mode a new file from open(path, "w") gets under the current umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def write_events(stream: EventStream, path: str | Path, format: str | None = None) -> None:
    """Serialize a stream back to the record schema (absolute epoch-second ts).
    A stream without events is refused, since parse_events rejects its file."""
    path = Path(path)
    if not stream.events:
        raise ValueError(f"refusing to write {path}: the stream has no events")
    fmt = _infer_format(path, format)
    origin_us = round(stream.origin * 1e6)
    rows = [(e.video_id, (origin_us + round(e.upload_time * MICROS_PER_DAY)) / 1e6,
             e.uploader_id, sorted(e.tags), e.n_views, e.n_comments) for e in stream.events]
    if fmt == "jsonl":
        encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
        _atomic_write_text(path, "".join([
            encode(dict(zip(_CSV_COLUMNS, row))) + "\n" for row in rows]))
        return
    if any("|" in t for row in rows for t in row[3]):
        raise ValueError("CSV output cannot represent tags containing '|'")
    _write_csv(path, _CSV_COLUMNS, [(vid, ts, uploader, "|".join(tags), views, comments)
                                    for vid, ts, uploader, tags, views, comments in rows])
