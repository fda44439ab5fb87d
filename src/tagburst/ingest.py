"""Parsing, validation, and serialization of tagged upload event streams.

The canonical time axis is fractional days since the stream origin (the
earliest record's timestamp).  Raw timestamps are quantized to integer
microseconds on parse so that a serialize -> parse cycle reproduces the
stream exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

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


@dataclass(frozen=True)
class Event:
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


def _micros_from_ts(value: object, line: int) -> int:
    """Normalize an ISO-8601 string or epoch-seconds number to integer microseconds."""
    if isinstance(value, bool):
        raise ParseError("timestamp must be a string or number", line=line, field="ts")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ParseError("timestamp is not finite", line=line, field="ts")
        return round(float(value) * 1e6)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ParseError("empty timestamp", line=line, field="ts")
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            try:
                return _micros_from_ts(float(text), line)
            except (ValueError, ParseError):
                raise ParseError(f"unparseable timestamp {text!r}", line=line, field="ts") from None
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
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"{name} must be an integer", line=line, field=name) from None
        else:
            raise ParseError(f"{name} must be an integer", line=line, field=name)
    if value < 0:
        raise ParseError(f"{name} must be >= 0", line=line, field=name)
    return int(value)


def _require_tags(raw: object, line: int) -> frozenset[str]:
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
    return frozenset(parts)


def _records_from_jsonl(path: Path) -> list[tuple[int, dict]]:
    out = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record must be a JSON object", line=lineno)
            out.append((lineno, rec))
    return out


def _records_from_csv(path: Path) -> list[tuple[int, dict]]:
    out = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing column(s): {', '.join(missing)}", line=1)
        for rec in reader:
            if rec.get(None):
                raise ParseError("too many fields", line=reader.line_num)
            out.append((reader.line_num, rec))
    return out


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
    raw = _records_from_jsonl(path) if fmt == "jsonl" else _records_from_csv(path)
    if not raw:
        raise ParseError(f"empty input file: {path}")

    seen: dict[str, int] = {}
    parsed = []
    for lineno, rec in raw:
        vid = _require_str(rec.get("video_id"), "video_id", lineno)
        if vid in seen:
            raise ParseError(
                f"duplicate video_id {vid!r} (first seen at line {seen[vid]})", line=lineno,
                field="video_id")
        seen[vid] = lineno
        micros = _micros_from_ts(rec.get("ts"), lineno)
        uploader = _require_str(rec.get("uploader_id"), "uploader_id", lineno)
        tags = _require_tags(rec.get("tags"), lineno)
        views = _require_count(rec.get("views"), "views", lineno)
        comments = _require_count(rec.get("comments"), "comments", lineno)
        parsed.append((vid, micros, uploader, tags, views, comments))

    base = min(p[1] for p in parsed)
    events = tuple(sorted(
        (Event(vid, (micros - base) / MICROS_PER_DAY, uploader, tags, views, comments)
         for vid, micros, uploader, tags, views, comments in parsed),
        key=lambda e: (e.upload_time, e.video_id)))
    last = events[-1].upload_time
    if horizon_T is None:
        horizon_T = last
    elif horizon_T < last:
        raise ValueError(f"horizon_T={horizon_T} is before the last event at {last}")
    return EventStream(origin=base / 1e6, events=events, horizon_T=float(horizon_T))


def write_events(stream: EventStream, path: str | Path, format: str | None = None) -> None:
    """Serialize a stream back to the record schema (absolute epoch-second ts)."""
    path = Path(path)
    fmt = _infer_format(path, format)
    origin_us = round(stream.origin * 1e6)
    rows = []
    for e in stream.events:
        ts = (origin_us + round(e.upload_time * MICROS_PER_DAY)) / 1e6
        rows.append((e.video_id, ts, e.uploader_id, sorted(e.tags), e.n_views, e.n_comments))

    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for vid, ts, uploader, tags, views, comments in rows:
                fh.write(json.dumps({
                    "video_id": vid, "ts": ts, "uploader_id": uploader,
                    "tags": tags, "views": views, "comments": comments,
                }, sort_keys=True))
                fh.write("\n")
        return

    for _, _, _, tags, _, _ in rows:
        if any("|" in t for t in tags):
            raise ValueError("CSV output cannot represent tags containing '|'")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for vid, ts, uploader, tags, views, comments in rows:
        writer.writerow([vid, repr(ts), uploader, "|".join(tags), views, comments])
    path.write_text(buf.getvalue(), encoding="utf-8")
