"""Parsing, normalization, and round-trip behavior of event streams."""

import codecs
import csv
import inspect
import io
import json
import random
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from oracles import reference_parse_events, validate_stream
from tagburst.cli import main
from tagburst.ingest import Event, EventStream, ParseError, parse_events, write_events


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def record(video_id, ts, uploader="u1", tags=("a", "b"), views=3, comments=1):
    return {"video_id": video_id, "ts": ts, "uploader_id": uploader,
            "tags": list(tags), "views": views, "comments": comments}


class TestParsing:
    def test_dates_normalize_to_days_since_first(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", "2011-04-30"), record("v2", "2011-05-02")])
        s = parse_events(path)
        assert [e.upload_time for e in s.events] == [0.0, 2.0]
        assert s.horizon_T == 2.0

    def test_epoch_seconds_accepted(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 1000.0), record("v2", 1000.0 + 86400.0)])
        s = parse_events(path)
        assert [e.upload_time for e in s.events] == [0.0, 1.0]
        assert s.origin == 1000.0

    def test_events_sorted_by_time_then_video_id(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("vB", 86400.0), record("vC", 0.0), record("vA", 86400.0)])
        s = parse_events(path)
        assert [e.video_id for e in s.events] == ["vC", "vA", "vB"]

    def test_pairwise_gaps_preserved(self, tmp_path):
        rng = np.random.default_rng(11)
        epochs = np.sort(rng.uniform(1.6e9, 1.7e9, size=40))
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record(f"v{i}", float(ts)) for i, ts in enumerate(epochs)])
        times = parse_events(path).times
        np.testing.assert_allclose(np.diff(times) * 86400.0, np.diff(epochs),
                                   rtol=1e-9, atol=1e-5)

    def test_csv_round_trips_jsonl(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(
            "video_id,ts,uploader_id,tags,views,comments\n"
            "v1,2011-04-30,u1,a|b,5,2\n"
            "v2,2011-05-02T12:00:00,u2,b,0,0\n")
        s = parse_events(path)
        assert s.events[0].tags == frozenset({"a", "b"})
        assert s.events[1].upload_time == 2.5
        assert s.events[0].n_views == 5

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_leading_byte_order_mark_is_accepted(self, tmp_path, fmt):
        """A file that starts with a UTF-8 BOM, as Excel's "CSV UTF-8" export
        does, parses to the stream of the same file without it, and a bad
        byte after the BOM still names its line."""
        plain = tmp_path / f"plain.{fmt}"
        write_jsonl(plain.with_suffix(".jsonl"), [
            record("v1", 0.0, tags=("café",)), record("v2", 60.0), record("v3", 120.0)])
        if fmt == "csv":
            write_events(parse_events(plain.with_suffix(".jsonl")), plain)
        marked = tmp_path / f"marked.{fmt}"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse_events(marked) == parse_events(plain)
        marked.write_bytes(marked.read_bytes().replace(b"u1", b"u\xff"))
        with pytest.raises(ParseError, match=r"invalid UTF-8 byte 0xff") as err:
            parse_events(marked)
        assert err.value.line == (1 if fmt == "jsonl" else 2)  # the CSV header is line 1

    def test_horizon_defaults_to_last_event_and_is_overridable(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v2", 86400.0)])
        assert parse_events(path).horizon_T == 1.0

    def test_parse_is_deterministic(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v2", 100.0), record("v1", 50.0), record("v3", 100.0)])
        assert parse_events(path) == parse_events(path)


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        for name in ("ev.jsonl", "ev.csv"):
            path = tmp_path / name
            path.write_text("")
            with pytest.raises(ParseError, match="empty"):
                parse_events(path)

    def test_csv_header_missing_a_column(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(csv_text([["video_id", "ts", "uploader_id", "tags", "views"],
                                  ["v1", "0", "u1", "a|b", "3"]]))
        with pytest.raises(ParseError, match="missing column.s.: comments") as err:
            parse_events(path)
        assert err.value.line == 1

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ParseError, match="nope.jsonl"):
            parse_events(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("name, message", [
        ("ev.txt", "cannot infer format from 'ev.txt'; expected .jsonl, .json, .ndjson or .csv"),
    ], ids=["unknown-suffix"])
    def test_format_neither_inferred_nor_known(self, tmp_path, name, message):
        path = tmp_path / name
        write_jsonl(path, [record("v1", 0.0)])
        with pytest.raises(ValueError) as err:
            parse_events(path)
        assert str(err.value) == message

    def test_duplicate_video_id(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v1", 86400.0)])
        with pytest.raises(ParseError, match="duplicate video_id 'v1'"):
            parse_events(path)

    def test_empty_tags_names_line_and_field(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v2", 86400.0, tags=())])
        with pytest.raises(ParseError, match=r"line 2.*field 'tags'|field 'tags'.*line 2"):
            parse_events(path)

    @pytest.mark.parametrize("bad, field", [
        ({"ts": "not-a-date"}, "ts"),
        ({"views": -1}, "views"),
        ({"comments": "x"}, "comments"),
        ({"video_id": ""}, "video_id"),
        ({"uploader_id": ""}, "uploader_id"),
        ({"tags": ["ok", ""]}, "tags"),
    ])
    def test_malformed_record_names_field(self, tmp_path, bad, field):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), {**record("v2", 86400.0), **bad}])
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert err.value.line == 2
        assert err.value.field == field

    @pytest.mark.parametrize("ts", [1e303, 10 ** 400], ids=["float", "int"])
    def test_timestamp_past_the_microsecond_range_jsonl(self, tmp_path, capsys, ts):
        # finite seconds whose microseconds overflow a float
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v2", ts)])
        with pytest.raises(ParseError, match="timestamp out of range") as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (2, "ts")
        assert main(["cluster", "--input", str(path), "--out", str(tmp_path),
                     "--eta", "1"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_timestamp_past_the_microsecond_range_csv(self, tmp_path, capsys):
        path = tmp_path / "ev.csv"
        path.write_text(csv_text([["video_id", "ts", "uploader_id", "tags", "views", "comments"],
                                  ["v1", "0", "u1", "a|b", "3", "1"],
                                  ["v2", "1e303", "u1", "a|b", "3", "1"]]))
        with pytest.raises(ParseError, match="timestamp out of range") as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (3, "ts")
        assert main(["cluster", "--input", str(path), "--out", str(tmp_path),
                     "--eta", "1"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("cell", ["inf", "-1e400"])
    def test_non_finite_timestamp_string_is_unparseable(self, tmp_path, cell):
        path = tmp_path / "ev.csv"
        path.write_text(csv_text([["video_id", "ts", "uploader_id", "tags", "views", "comments"],
                                  ["v1", "0", "u1", "a|b", "3", "1"],
                                  ["v2", cell, "u1", "a|b", "3", "1"]]))
        with pytest.raises(ParseError, match=f"unparseable timestamp '{cell}'"):
            parse_events(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_undecodable_byte_names_its_line(self, tmp_path, capsys, fmt):
        """A byte that is not UTF-8 on a middle line is reported with that
        line; valid multi-byte UTF-8 on the line before it still parses."""
        path = tmp_path / f"ev.{fmt}"
        write_jsonl(path.with_suffix(".jsonl"), [
            record("v1", 0.0), record("v2", 60.0, tags=("café",)), record("v3", 120.0),
            record("v4", 180.0)])
        if fmt == "csv":
            write_events(parse_events(path.with_suffix(".jsonl")), path)
        lines = path.read_bytes().split(b"\n")
        bad = 3 if fmt == "jsonl" else 4  # the CSV header is line 1
        lines[bad - 1] = lines[bad - 1].replace(b"u1", b"u\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=r"invalid UTF-8 byte 0xff") as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (bad, None)
        assert main(["cluster", "--input", str(path), "--out", str(tmp_path / "out"),
                     "--eta", "1"]) == 1
        assert capsys.readouterr().err == \
            f"error: invalid UTF-8 byte 0xff (line {bad})\n"

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text(json.dumps(record("v1", 0.0)) + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_events(path)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_serialize_then_parse_is_identity(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        epochs = rng.uniform(1.3e9, 1.4e9, size=60)
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record(f"v{i:03d}", float(ts), uploader=f"u{i % 7}",
                                  tags=("x", f"t{i % 5}"), views=i, comments=i % 3)
                           for i, ts in enumerate(epochs)])
        stream = parse_events(path)
        out = tmp_path / f"round.{fmt}"
        write_events(stream, out)
        again = parse_events(out)
        assert again == stream

    def test_csv_refuses_a_tag_holding_its_separator(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0, tags=("a|b", "c"))])
        stream = parse_events(path)
        with pytest.raises(ValueError, match=r"CSV output cannot represent tags containing '\|'"):
            write_events(stream, tmp_path / "ev.csv")
        assert not (tmp_path / "ev.csv").exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_stream_without_events_is_refused(self, tmp_path, fmt):
        """parse_events rejects a file without records, so write_events
        refuses to write one and creates nothing."""
        path = tmp_path / "out" / f"ev.{fmt}"
        with pytest.raises(ValueError, match=re.escape(
                f"refusing to write {path}: the stream has no events")):
            write_events(EventStream(origin=0.0, events=(), horizon_T=1.0), path)
        assert not path.parent.exists()


class TestValidateStream:
    def make_stream(self, events, horizon=10.0):
        return EventStream(origin=0.0, events=tuple(events), horizon_T=horizon)

    def ev(self, vid="v1", t=1.0, uploader="u", tags=frozenset({"a"}), views=0, comments=0):
        return Event(vid, t, uploader, tags, views, comments)

    def test_valid_stream_has_no_violations(self, tmp_path):
        s = self.make_stream([self.ev("v1", 1.0), self.ev("v2", 2.0)])
        assert validate_stream(s) == []

    def test_each_violation_reported_once_with_index(self):
        s = self.make_stream([
            self.ev("v1", 5.0),
            self.ev("v2", 2.0),              # out of order
            self.ev("v3", 3.0, tags=frozenset()),  # no tags
            self.ev("v4", 99.0),             # beyond horizon
            self.ev("v4", 99.5, views=-1),   # duplicate id and negative views
        ])
        messages = validate_stream(s)
        assert any("event 1" in m and "order" in m for m in messages)
        assert any("event 2" in m and "tags" in m for m in messages)
        assert any("event 3" in m and "horizon" in m for m in messages)
        assert any("event 4" in m and "duplicate" in m for m in messages)
        assert any("event 4" in m and "n_views" in m for m in messages)

    def test_tie_order_violation_detected(self):
        s = self.make_stream([self.ev("vB", 1.0), self.ev("vA", 1.0)])
        assert any("order" in m for m in validate_stream(s))


@pytest.fixture(scope="module")
def readme_lines(tmp_path_factory):
    """The README corpus (simulate --seed 0 --t-days 120) as JSONL lines and
    as CSV rows (header first)."""
    out = tmp_path_factory.mktemp("readme")
    assert main(["simulate", "--out", str(out), "--seed", "0", "--t-days", "120"]) == 0
    write_events(parse_events(out / "events.jsonl"), out / "events.csv")
    jsonl = (out / "events.jsonl").read_text().splitlines()
    rows = list(csv.reader(io.StringIO((out / "events.csv").read_text())))
    return jsonl, rows


def outcome(parser, path):
    """The stream a parser returns, or the type, message, line and field of
    the exception it raises."""
    try:
        return parser(path)
    except Exception as exc:  # any exception type is part of the outcome
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)


def csv_text(rows, newline="\n"):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=newline).writerows(rows)
    return buf.getvalue()


def without(rec, field):
    return {k: v for k, v in rec.items() if k != field}


# Each fault maps (record, another line's video_id) to the faulty line's text.
JSONL_FAULTS = {
    "bad_json": lambda rec, other: json.dumps(rec)[:-1],
    "not_an_object": lambda rec, other: json.dumps([rec["video_id"]]),
    "scalar_record": lambda rec, other: "3",
    "missing_video_id": lambda rec, other: json.dumps(without(rec, "video_id")),
    "empty_video_id": lambda rec, other: json.dumps({**rec, "video_id": ""}),
    "numeric_video_id": lambda rec, other: json.dumps({**rec, "video_id": 7}),
    "duplicate_video_id": lambda rec, other: json.dumps({**rec, "video_id": other}),
    "missing_uploader": lambda rec, other: json.dumps(without(rec, "uploader_id")),
    "bool_ts": lambda rec, other: json.dumps({**rec, "ts": True}),
    "bool_views": lambda rec, other: json.dumps({**rec, "views": False}),
    "nan_ts": lambda rec, other: json.dumps({**rec, "ts": float("nan")}),
    "infinite_ts": lambda rec, other: json.dumps({**rec, "ts": float("inf")}),
    "empty_ts": lambda rec, other: json.dumps({**rec, "ts": ""}),
    "garbage_ts": lambda rec, other: json.dumps({**rec, "ts": "yesterday"}),
    "null_ts": lambda rec, other: json.dumps({**rec, "ts": None}),
    "negative_views": lambda rec, other: json.dumps({**rec, "views": -1}),
    "fractional_comments": lambda rec, other: json.dumps({**rec, "comments": 2.5}),
    "word_comments": lambda rec, other: json.dumps({**rec, "comments": "many"}),
    "null_views": lambda rec, other: json.dumps({**rec, "views": None}),
    "empty_tags": lambda rec, other: json.dumps({**rec, "tags": []}),
    "empty_tag": lambda rec, other: json.dumps({**rec, "tags": [*rec["tags"], ""]}),
    "non_string_tag": lambda rec, other: json.dumps({**rec, "tags": [*rec["tags"], 7]}),
    "nested_tag_list": lambda rec, other: json.dumps({**rec, "tags": [rec["tags"]]}),
    "tags_object": lambda rec, other: json.dumps({**rec, "tags": {"a": 1}}),
    "piped_tags": lambda rec, other: json.dumps({**rec, "tags": "|".join(rec["tags"])}),
    "empty_piped_tag": lambda rec, other: json.dumps({**rec, "tags": "a||b"}),
    "empty_string_tags": lambda rec, other: json.dumps({**rec, "tags": ""}),
}

# A bad value for each field, in the order the parser checks them (which is
# also the CSV column order); "bad_from_<field>" spoils that field and every
# later one, so the field reported first pins the order of the checks.
BAD_VALUES = {"video_id": None, "ts": "x", "uploader_id": "", "tags": [], "views": -1,
              "comments": "x"}


def bad_from(field):
    """A fault that spoils field and every field checked after it."""
    later = list(BAD_VALUES)[list(BAD_VALUES).index(field):]

    def spoil(rec, other):
        return {**rec, **{k: other if k == "video_id" else BAD_VALUES[k] for k in later}}
    return spoil


def jsonl_bad_from(field):
    spoil = bad_from(field)
    return lambda rec, other: json.dumps(spoil(rec, other))


def csv_bad_from(field):
    spoil = bad_from(field)

    def fault(row, other):
        rec = spoil(dict(zip(BAD_VALUES, row)), other)
        return ["|".join(v) if isinstance(v, list) else str(v) for v in rec.values()]
    return fault


JSONL_FAULTS.update({f"bad_from_{field}": jsonl_bad_from(field) for field in BAD_VALUES})

# Each fault maps (row in _CSV_COLUMNS order, another row's video_id) to the faulty row.
CSV_FAULTS = {
    "too_many_fields": lambda row, other: [*row, "extra"],
    "short_row": lambda row, other: row[:4],
    "empty_video_id": lambda row, other: ["", *row[1:]],
    "duplicate_video_id": lambda row, other: [other, *row[1:]],
    "empty_uploader": lambda row, other: [*row[:2], "", *row[3:]],
    "empty_ts": lambda row, other: [row[0], "", *row[2:]],
    "blank_ts": lambda row, other: [row[0], "  ", *row[2:]],
    "garbage_ts": lambda row, other: [row[0], "yesterday", *row[2:]],
    "nan_ts": lambda row, other: [row[0], "nan", *row[2:]],
    "negative_views": lambda row, other: [*row[:4], "-1", row[5]],
    "fractional_comments": lambda row, other: [*row[:5], "2.5"],
    "bool_views": lambda row, other: [*row[:4], "True", row[5]],
    "empty_tags": lambda row, other: [*row[:3], "", *row[4:]],
    "empty_piped_tag": lambda row, other: [*row[:3], "a||b", *row[4:]],
    "trailing_pipe": lambda row, other: [*row[:3], row[3] + "|", *row[4:]],
}
CSV_FAULTS.update({f"bad_from_{field}": csv_bad_from(field) for field in BAD_VALUES})


class TestAgainstReferenceParser:
    """The streaming parser against the parser it replaced
    (oracles.reference_parse_events): one fault at a random line gives the
    same exception type, message, line and field; clean files give equal
    streams."""

    @pytest.mark.parametrize("fault", sorted(JSONL_FAULTS))
    def test_jsonl_fault_at_a_random_line(self, tmp_path, readme_lines, fault):
        lines = readme_lines[0]
        rng = random.Random(f"jsonl-{fault}")
        for at in [0, len(lines) - 1, *rng.sample(range(1, len(lines) - 1), 3)]:
            faulty = list(lines)
            other = json.loads(lines[rng.choice([i for i in range(len(lines)) if i != at])])
            faulty[at] = JSONL_FAULTS[fault](json.loads(lines[at]), other["video_id"])
            path = tmp_path / f"{fault}.jsonl"
            path.write_text("\n".join(faulty) + "\n")
            expected = outcome(reference_parse_events, path)
            assert outcome(parse_events, path) == expected, (fault, at + 1)

    @pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
    def test_csv_fault_at_a_random_row(self, tmp_path, readme_lines, fault):
        header, *rows = readme_lines[1]
        rng = random.Random(f"csv-{fault}")
        for at in [0, len(rows) - 1, *rng.sample(range(1, len(rows) - 1), 3)]:
            faulty = list(rows)
            other = rows[rng.choice([i for i in range(len(rows)) if i != at])][0]
            faulty[at] = CSV_FAULTS[fault](rows[at], other)
            path = tmp_path / f"{fault}.csv"
            path.write_text(csv_text([header, *faulty]))
            expected = outcome(reference_parse_events, path)
            assert outcome(parse_events, path) == expected, (fault, at + 2)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_clean_files_parse_to_equal_streams(self, tmp_path, readme_lines, newline):
        """ISO timestamps (with Z, an offset, or naive), string counts and
        blank lines, in both formats and with either line ending."""
        def iso(ts, k):
            text = datetime.fromtimestamp(ts, timezone.utc).isoformat()
            return [text, text.replace("+00:00", "Z"), text[:-6]][k % 3]

        jsonl, (header, *rows) = readme_lines
        records = [json.loads(line) for line in jsonl]
        for k, rec in enumerate(records):
            if k % 4 == 1:
                rec["ts"] = iso(rec["ts"], k)
            if k % 5 == 2:
                rec["views"], rec["comments"] = str(rec["views"]), str(rec["comments"])
        text = newline.join(json.dumps(r) + (newline if k % 50 == 7 else "")
                            for k, r in enumerate(records)) + newline
        rows = [[row[0], iso(float(row[1]), k), *row[2:]] if k % 4 == 1 else row
                for k, row in enumerate(rows)]
        table = csv_text([header] + [r for k, row in enumerate(rows)
                                     for r in ([row, []] if k % 50 == 7 else [row])], newline)
        for fmt, content in (("jsonl", text), ("csv", table)):
            path = tmp_path / f"clean.{fmt}"
            path.write_bytes(content.encode())
            stream = parse_events(path)
            assert stream == reference_parse_events(path)
            assert len(stream) == len(records) and validate_stream(stream) == []


def genre_corpus(path, n_events=10_000, n_genres=40, seed=17, own_tag=False):
    """A JSONL corpus in which each genre's videos draw 3 of its 6 tags and one
    of its 12 uploaders, so tag sets repeat; with ``own_tag`` each video also
    carries a tag of its own, so no two tag sets are equal."""
    rng = np.random.default_rng(seed)
    genres = rng.integers(n_genres, size=n_events)
    with path.open("w", encoding="utf-8") as fh:
        for k, g in enumerate(genres.tolist()):
            tags = sorted(f"g{g:02d}t{t}" for t in rng.choice(6, size=3, replace=False))
            if own_tag:
                tags.append(f"v{k:05d}")
            fh.write(json.dumps({
                "video_id": f"v{k:05d}", "ts": 1.6e9 + 3153.6 * k + float(rng.uniform(0, 60)),
                "uploader_id": f"g{g:02d}u{int(rng.integers(12)):02d}", "tags": tags,
                "views": int(rng.poisson(50)), "comments": int(rng.poisson(5))}) + "\n")


def traced_memory(parse, path):
    """(bytes still allocated while the parsed stream is alive, peak bytes)."""
    tracemalloc.start()
    try:
        stream = parse(path)  # noqa: F841 -- kept alive for the first figure
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestStreamingDesign:
    @pytest.mark.parametrize("own_tag", [False, True], ids=["repeated-tags", "distinct-tags"])
    def test_peak_allocation_against_the_reference(self, tmp_path, own_tag):
        """Beyond the stream it returns, a parse allocates at most a quarter of
        what the reference does; where tag sets repeat, sharing them also
        brings the peak to at most half the reference's."""
        path = tmp_path / "genres.jsonl"
        genre_corpus(path, own_tag=own_tag)
        kept, peak = traced_memory(parse_events, path)
        ref_kept, ref_peak = traced_memory(reference_parse_events, path)
        assert peak - kept <= 0.25 * (ref_peak - ref_kept)
        if not own_tag:
            assert peak <= 0.5 * ref_peak

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_tag_lists_share_one_frozenset(self, tmp_path, fmt):
        path = tmp_path / f"ev.{fmt}"
        write_jsonl(path.with_suffix(".jsonl"), [
            record("v1", 0.0, tags=("a", "b")), record("v2", 60.0, tags=("c",)),
            record("v3", 120.0, tags=("a", "b")), record("v4", 180.0, tags=("b", "a"))])
        if fmt == "csv":
            write_events(parse_events(path.with_suffix(".jsonl")), path)
        v1, v2, v3, v4 = parse_events(path).events
        assert v1.tags is v3.tags is v4.tags and v1.tags == frozenset({"a", "b"})
        assert v2.tags == frozenset({"c"})

    def test_first_bad_line_wins(self, tmp_path):
        """A field error on line 2 outranks invalid JSON on line 4, which the
        reference, decoding every line before checking any field, reported."""
        path = tmp_path / "ev.jsonl"
        path.write_text("\n".join([json.dumps(record("v1", 0.0)),
                                   json.dumps(record("v2", 60.0, views=-1)),
                                   json.dumps(record("v3", 120.0)), "{broken"]) + "\n")
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (2, "views")
        with pytest.raises(ParseError) as err:
            reference_parse_events(path)
        assert (err.value.line, err.value.field) == (4, None)

    def test_first_bad_row_wins_in_csv(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("video_id,ts,uploader_id,tags,views,comments\n"
                        "v1,0,u1,a,1,0\n"
                        "v2,60,u1,a,x,0\n"
                        "v3,120,u1,a,1,0,surplus\n")
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (3, "views")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_failed_parse_closes_its_reader(self, tmp_path, fmt):
        """The reader, and with it the input file, is closed when a field
        error stops the parse, though the error's traceback is still held."""
        path = tmp_path / f"ev.{fmt}"
        write_jsonl(path.with_suffix(".jsonl"), [record("v1", 0.0), record("v2", 60.0)])
        if fmt == "csv":
            write_events(parse_events(path.with_suffix(".jsonl")), path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record("v3", 120.0, views=-1)) if fmt == "jsonl"
                     else "v3,120,u1,a,-1,0")
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert (err.value.line, err.value.field) == (3 if fmt == "jsonl" else 4, "views")
        tb = err.tb
        while tb.tb_frame.f_code.co_name != "parse_events":
            tb = tb.tb_next
        assert inspect.getgeneratorstate(tb.tb_frame.f_locals["records"]) == \
            inspect.GEN_CLOSED
