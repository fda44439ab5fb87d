"""Parsing, normalization, and round-trip behavior of event streams."""

import json

import numpy as np
import pytest

from oracles import validate_stream
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

    def test_horizon_defaults_to_last_event_and_is_overridable(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v2", 86400.0)])
        assert parse_events(path).horizon_T == 1.0
        assert parse_events(path, horizon_T=30.0).horizon_T == 30.0
        with pytest.raises(ValueError):
            parse_events(path, horizon_T=0.5)

    def test_parse_is_deterministic(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v2", 100.0), record("v1", 50.0), record("v3", 100.0)])
        assert parse_events(path) == parse_events(path)


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            parse_events(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ParseError, match="nope.jsonl"):
            parse_events(tmp_path / "nope.jsonl")

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
        write_events(stream, out, format=fmt)
        again = parse_events(out, format=fmt)
        assert again == stream

    def test_overridden_horizon_round_trips_when_passed(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, [record("v1", 0.0), record("v2", 86400.0)])
        stream = parse_events(path, horizon_T=10.0)
        out = tmp_path / "round.jsonl"
        write_events(stream, out)
        assert parse_events(out, horizon_T=10.0) == stream


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
