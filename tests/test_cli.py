"""End-to-end behavior of the pipeline commands (in-process)."""

import codecs
import csv
import dataclasses
import json
import os
import re

import pytest

from oracles import drift_log_likelihood
from tagburst.attribution import attribution_report
from tagburst.baselines import fit_nhpp_drift
from tagburst.cli import _write_json, main
from tagburst.forecast import default_split, split_stream
from tagburst.hawkes import HawkesParams, fit_mle, log_likelihood
from tagburst.ingest import parse_events, write_events
from tagburst.taggraph import extract_clusters


def run(*argv):
    return main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "run"
    assert run("simulate", "--out", str(out), "--seed", "7", "--t-days", "150") == 0
    return out


@pytest.fixture
def small_cluster_corpus(tmp_path):
    """The README corpus plus four uploads on tags of their own by the metal
    genre's only uploader, inside the 60-day training window: too few events
    for a self-exciting fit, and views that raise that uploader's average."""
    out = tmp_path / "small"
    assert run("simulate", "--out", str(out), "--seed", "0", "--t-days", "120") == 0
    events = out / "events.jsonl"
    records = [json.loads(line) for line in events.read_text().splitlines()]
    start = min(r["ts"] for r in records)
    records += [{"video_id": f"extra{k}", "ts": start + 86400.0 * (50 + k),
                 "uploader_id": "solo_uploader", "tags": ["x", "y"], "views": 10 ** 7,
                 "comments": 0} for k in range(4)]
    events.write_text("".join(json.dumps(r) + "\n" for r in records))
    return out


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_toy_events(path):
    # two tag pairs that each co-occur twice; eta=2 keeps both components
    rows = [
        {"video_id": "v1", "ts": 1000.0, "uploader_id": "u1",
         "tags": ["a", "b"], "views": 3, "comments": 0},
        {"video_id": "v2", "ts": 2000.0, "uploader_id": "u2",
         "tags": ["a", "b"], "views": 5, "comments": 1},
        {"video_id": "v3", "ts": 3000.0, "uploader_id": "u1",
         "tags": ["x", "y"], "views": 2, "comments": 0},
        {"video_id": "v4", "ts": 4000.0, "uploader_id": "u3",
         "tags": ["x", "y"], "views": 9, "comments": 2},
        {"video_id": "v5", "ts": 5000.0, "uploader_id": "u2",
         "tags": ["a"], "views": 1, "comments": 0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


class TestSimulate:
    def test_writes_events_and_truth(self, corpus):
        assert (corpus / "events.jsonl").is_file()
        truth = read_json(corpus / "ground_truth.json")
        assert len(truth["clusters"]) == 3
        assert truth["labels"]

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--out", str(a), "--seed", "3")
        run("simulate", "--out", str(b), "--seed", "3")
        assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()
        assert (a / "ground_truth.json").read_bytes() == \
            (b / "ground_truth.json").read_bytes()

    def test_a_window_without_events_writes_nothing(self, tmp_path, capsys):
        # the reader rejects an empty event file, so simulate writes none
        out = tmp_path / "run"
        assert run("simulate", "--out", str(out), "--t-days", "0.001") == 1
        assert capsys.readouterr().err == \
            f"error: refusing to write {out / 'events.jsonl'}: the stream has no events\n"
        assert not (out / "events.jsonl").exists()
        assert not (out / "ground_truth.json").exists()


class TestCluster:
    def test_toy_fixture_two_components_at_eta_two(self, tmp_path):
        events = tmp_path / "toy.jsonl"
        write_toy_events(events)
        out = tmp_path / "out"
        assert run("cluster", "--input", str(events), "--out", str(out),
                   "--eta", "2") == 0
        meta = read_json(out / "clusters.json")
        assert meta["n_components"] == 2
        assert [c["tags"] for c in meta["clusters"]] == [["a", "b"], ["x", "y"]]
        rows = read_csv(out / "assignments.csv")
        assert {r["video_id"]: r["cluster_id"] for r in rows} == {
            "v1": "0", "v2": "0", "v3": "1", "v4": "1", "v5": "0"}

    def test_summary_has_counts_and_time_span(self, tmp_path):
        events = tmp_path / "toy.jsonl"
        write_toy_events(events)
        out = tmp_path / "out"
        run("cluster", "--input", str(events), "--out", str(out), "--eta", "1")
        for c in read_json(out / "clusters.json")["clusters"]:
            assert c["n_events"] > 0
            assert 0.0 <= c["first_time"] <= c["last_time"]

    def test_sweep_rows_and_monotone_components(self, corpus):
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--sweep", "1:5") == 0
        rows = read_csv(corpus / "eta_sweep.csv")
        assert [r["eta"] for r in rows] == ["1", "2", "3", "4", "5"]
        counts = [int(r["n_components"]) for r in rows]
        assert counts == sorted(counts)

    def test_requires_eta_or_sweep(self, corpus, capsys):
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus)) == 1
        assert "--eta" in capsys.readouterr().err

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert run("cluster", "--input", str(missing), "--out", str(tmp_path),
                   "--eta", "1") == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_bad_sweep_syntax_is_usage_error(self, corpus):
        for sweep in ("5:1", "a:b"):
            with pytest.raises(SystemExit) as exc:
                run("cluster", "--input", str(corpus / "events.jsonl"),
                    "--out", str(corpus), "--sweep", sweep)
            assert exc.value.code == 2

    def test_flags_checked_before_any_file_is_read(self, tmp_path, capsys):
        assert run("cluster", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out"), "--eta", "0") == 1
        assert capsys.readouterr().err == "error: eta must be a positive integer, got 0\n"

    def test_bad_eta_writes_no_sweep(self, tmp_path, capsys):
        events = tmp_path / "toy.jsonl"
        write_toy_events(events)
        out = tmp_path / "out"
        out.mkdir()
        assert run("cluster", "--input", str(events), "--out", str(out),
                   "--eta", "0", "--sweep", "1:2") == 1
        assert capsys.readouterr().err == "error: eta must be a positive integer, got 0\n"
        assert list(out.iterdir()) == []


def clustered(corpus):
    run("cluster", "--input", str(corpus / "events.jsonl"), "--out", str(corpus),
        "--eta", "2")
    return corpus


def fitted(corpus):
    clustered(corpus)
    run("fit", "--input", str(corpus / "events.jsonl"), "--out", str(corpus))
    return corpus


class TestFit:
    def test_requires_cluster_artifacts(self, corpus, capsys):
        assert run("fit", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus)) == 1
        assert "tagburst cluster" in capsys.readouterr().err

    def test_assignments_lacking_a_video_fail(self, corpus, capsys):
        clustered(corpus)
        path = corpus / "assignments.csv"
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rest))
        video = first.split(",")[0]
        assert run("fit", "--input", str(corpus / "events.jsonl"), "--out", str(corpus)) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: lacks video {video!r}; rerun 'tagburst cluster'\n"

    def test_writes_both_models_per_cluster(self, corpus):
        fitted(corpus)
        doc = read_json(corpus / "fits.json")
        assert len(doc["clusters"]) == 3
        for entry in doc["clusters"]:
            assert entry["hawkes"]["model"] == "hawkes"
            assert entry["hawkes"]["aic"] == pytest.approx(
                2 * 3 - 2 * entry["hawkes"]["loglik"])
            assert entry["poisson"]["model"] == "poisson"
            assert entry["poisson"]["n_params"] == 1

    def test_rerun_is_byte_identical(self, corpus):
        fitted(corpus)
        first = (corpus / "fits.json").read_bytes()
        run("fit", "--input", str(corpus / "events.jsonl"), "--out", str(corpus))
        assert (corpus / "fits.json").read_bytes() == first


    def test_reported_loglik_is_the_public_likelihood(self, tmp_path):
        # the README corpus: every fit, on the full stream and on the forecast window
        out = tmp_path / "readme"
        run("simulate", "--out", str(out), "--seed", "0", "--t-days", "120")
        fitted(out)
        stream = parse_events(out / "events.jsonl")
        clusters = extract_clusters(stream, 2)
        entries = read_json(out / "fits.json")["clusters"]
        assert [e["cluster_id"] for e in entries] == [c.cluster_id for c in clusters]
        spec = default_split(stream.horizon_T, 60.0)
        offset = spec.split_point - spec.train_days
        for c, entry in zip(clusters, entries):
            train = split_stream(c.events.times, spec)[0] - offset
            for times, T in ((c.events.times, c.events.horizon_T), (train, spec.train_days)):
                hawkes = fit_mle(times, T)
                assert hawkes.log_likelihood == log_likelihood(
                    HawkesParams(**hawkes.params), times, T)
                drift = fit_nhpp_drift(times, T)
                assert drift.log_likelihood == pytest.approx(drift_log_likelihood(
                    drift.params["mu_slope"], drift.params["b_intercept"], times, T),
                    rel=1e-12)
            h = entry["hawkes"]
            assert h["loglik"] == log_likelihood(
                HawkesParams(h["mu"], h["beta"], h["omega"]), c.events.times,
                c.events.horizon_T)


class TestForecast:
    def test_requires_fits(self, corpus, capsys):
        clustered(corpus)
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--train-days", "60") == 1
        assert "tagburst fit" in capsys.readouterr().err

    def test_writes_table_and_aggregates(self, corpus):
        fitted(corpus)
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--train-days", "60") == 0
        doc = read_json(corpus / "forecast.json")
        assert doc["train_days"] == 60.0
        models = {r["model"] for r in doc["rows"]}
        assert models == {"arima_lite", "hawkes", "nhpp_drift", "pc_nhpp", "poisson"}
        assert doc["aggregates"]
        assert doc["aic_differences"]
        rows = read_csv(corpus / "forecast.csv")
        assert len(rows) == len(doc["rows"])
        assert {r["cluster_id"] for r in rows} == {"0", "1", "2"}
        # the fit's route goes to the JSON rows only, null where no maximizer ran
        for r in doc["rows"]:
            optimized = r["model"] == "hawkes"
            assert (r["optimizer"] is not None) == (r["grad_max"] is not None) == optimized
        assert list(rows[0]) == ["cluster_id", "model", "train_days", "horizon_days",
                                 "loglik", "aic", "predicted", "actual", "abs_error",
                                 "rel_error", "status", "note"]

    def test_csv_cells_equal_json_values(self, small_cluster_corpus):
        out = fitted(small_cluster_corpus)
        assert run("forecast", "--input", str(out / "events.jsonl"), "--out", str(out),
                   "--train-days", "60", "--models",
                   "arima_lite,hawkes,hawkes_global,nhpp_drift,pc_nhpp,poisson") == 0
        doc_rows = read_json(out / "forecast.json")["rows"]
        csv_rows = read_csv(out / "forecast.csv")
        assert len(csv_rows) == len(doc_rows)
        assert any(r["status"] == "failed" for r in doc_rows)  # null cells occur
        for csv_row, doc_row in zip(csv_rows, doc_rows):
            for key, cell in csv_row.items():
                value = doc_row[key]
                assert cell == ("" if value is None else
                                repr(value) if isinstance(value, float) else str(value))

    def test_unknown_model_fails_cleanly(self, corpus, capsys):
        fitted(corpus)
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--train-days", "60",
                   "--models", "hawkes,sarima") == 1
        assert "sarima" in capsys.readouterr().err

    def test_empty_model_list_fails_cleanly(self, corpus, capsys):
        fitted(corpus)
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--train-days", "60", "--models", ",") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --models") and err.count("\n") == 1
        assert not (corpus / "forecast.csv").exists()

    def test_bad_bin_width_fails_cleanly(self, corpus, capsys):
        fitted(corpus)
        for value in ("0", "-7", "nan"):
            capsys.readouterr()
            assert run("forecast", "--input", str(corpus / "events.jsonl"),
                       "--out", str(corpus), "--train-days", "60",
                       f"--bin-width={value}") == 1
            err = capsys.readouterr().err
            assert err == f"error: bin_width must be positive, got {float(value)}\n"
            assert not (corpus / "forecast.csv").exists()

    def test_refused_rows_are_counted(self, corpus, capsys, monkeypatch):
        fitted(corpus)

        def supercritical(times, T):
            return dataclasses.replace(fit_mle(times, T), warnings=("supercritical",))
        monkeypatch.setattr("tagburst.forecast.fit_mle", supercritical)
        capsys.readouterr()
        assert run("forecast", "--input", str(corpus / "events.jsonl"), "--out", str(corpus),
                   "--train-days", "60", "--models", "hawkes,poisson") == 0
        assert capsys.readouterr().out == \
            f"wrote {corpus / 'forecast.csv'} (6 rows, 3 refused)\n"
        assert [r["status"] for r in read_csv(corpus / "forecast.csv")] == \
            ["refused", "ok"] * 3

    def test_missing_train_days_fails(self, corpus, capsys):
        fitted(corpus)
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus)) == 1
        assert "--train-days" in capsys.readouterr().err

    def test_horizon_longer_than_the_stream_is_named(self, corpus, capsys):
        fitted(corpus)
        horizon_T = parse_events(corpus / "events.jsonl").horizon_T
        assert run("forecast", "--input", str(corpus / "events.jsonl"), "--out", str(corpus),
                   "--train-days", "60", "--horizon-days", "200") == 1
        assert capsys.readouterr().err == ("error: horizon_days=200.0 must be shorter than "
                                           f"the stream (horizon_T={horizon_T})\n")
        assert not (corpus / "forecast.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        ((), "--train-days"), (("--train-days", "60", "--models", ","), "--models"),
        (("--train-days", "60", "--models", "hawkes,sarima"), "unknown model(s): sarima"),
        (("--train-days", "0"), "train_days must be positive"),
        (("--train-days", "60", "--horizon-days=-1"), "horizon_days must be positive"),
        (("--train-days", "60", "--horizon-days", "0"), "horizon_days must be positive"),
        (("--train-days", "60", "--horizon-days", "nan"), "horizon_days must be positive"),
        (("--train-days", "60", "--bin-width", "0"), "bin_width must be positive")])
    def test_flags_checked_before_any_file_is_read(self, tmp_path, capsys, flags, named):
        assert run("forecast", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert named in err and "nope.jsonl" not in err and "fits.json" not in err
        assert err.count("\n") == 1


class TestAttribute:
    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_flags_checked_before_any_file_is_read(self, tmp_path, capsys, value):
        assert run("attribute", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out"), f"--w-comments={value}") == 1
        assert capsys.readouterr().err == \
            f"error: w_comments must be >= 0, got {float(value)}\n"

    def test_shares_written_and_sum_to_one(self, corpus):
        fitted(corpus)
        assert run("attribute", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus)) == 0
        doc = read_json(corpus / "attribution.json")
        assert len(doc["clusters"]) == 3
        for r in doc["clusters"]:
            if r["attributable"]:
                assert r["s_self"] + r["s_pop"] + r["s_exo"] == 1.0
        rows = read_csv(corpus / "attribution_factors.csv")
        attributable = [r for r in doc["clusters"] if r["attributable"]]
        assert len(rows) == 3 * len(attributable)

    def test_scope_flag_round_trips(self, corpus):
        fitted(corpus)
        run("attribute", "--input", str(corpus / "events.jsonl"),
            "--out", str(corpus), "--pop-scope", "cluster", "--w-comments", "2.5")
        doc = read_json(corpus / "attribution.json")
        assert doc["pop_scope"] == "cluster"
        assert doc["w_comments"] == 2.5
        assert doc["causal"] is True

    def test_cluster_without_a_fit_stays_in_the_platform_reference(
            self, small_cluster_corpus):
        out = fitted(small_cluster_corpus)
        events = out / "events.jsonl"
        assert run("attribute", "--input", str(events), "--out", str(out)) == 0
        records = read_json(out / "attribution.json")["clusters"]
        clusters = extract_clusters(parse_events(events), 2)
        small = next(c for c in clusters if len(c.events) == 4)
        fits = {c.cluster_id: fit_mle(c.events.times, c.events.horizon_T)
                for c in clusters if c is not small}
        expected = attribution_report(clusters, fits)
        assert [r["cluster_id"] for r in records] == [r.cluster_id for r in expected]
        for record, report in zip(records, expected):
            if report.cluster_id == small.cluster_id:
                assert not record["attributable"]
                assert record["note"] == "not attributable: no usable fit"
            else:
                assert record["s_pop"] == report.s_pop
        # leaving the small cluster out of the reference moves the metal genre's share
        metal = next(c.cluster_id for c in clusters if "metal" in c.tags)
        without = attribution_report([c for c in clusters if c is not small], fits)
        assert next(r.s_pop for r in without if r.cluster_id == metal) != \
            next(r.s_pop for r in expected if r.cluster_id == metal)


class TestReport:
    def full_pipeline(self, corpus):
        fitted(corpus)
        run("forecast", "--input", str(corpus / "events.jsonl"), "--out", str(corpus),
            "--train-days", "60")
        run("attribute", "--input", str(corpus / "events.jsonl"), "--out", str(corpus))
        return run("report", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus))

    @staticmethod
    def move_first_video(corpus):
        """Move the first video to the next cluster, as a rerun of cluster may."""
        path = corpus / "assignments.csv"
        rows = read_csv(path)
        n_clusters = len({r["cluster_id"] for r in rows})
        rows[0]["cluster_id"] = str((int(rows[0]["cluster_id"]) + 1) % n_clusters)
        path.write_text("video_id,cluster_id\n" +
                        "".join(f"{r['video_id']},{r['cluster_id']}\n" for r in rows))

    @pytest.mark.parametrize("stage", ["attribute", "report"])
    def test_fits_of_other_clusters_are_stale(self, corpus, capsys, stage):
        events = str(corpus / "events.jsonl")
        assert self.full_pipeline(corpus) == 0
        self.move_first_video(corpus)
        capsys.readouterr()
        assert run(stage, "--input", events, "--out", str(corpus)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus / 'fits.json'}: stale (cluster ")
        assert err.endswith("; rerun 'tagburst fit'\n") and err.count("\n") == 1

    def test_forecast_and_attribution_of_other_clusters_are_stale(self, corpus, capsys):
        events = str(corpus / "events.jsonl")
        assert self.full_pipeline(corpus) == 0
        self.move_first_video(corpus)
        assert run("fit", "--input", events, "--out", str(corpus)) == 0
        for artifact, stage in (("forecast.json", "forecast"),
                                ("attribution.json", "attribute")):
            capsys.readouterr()
            assert run("report", "--input", events, "--out", str(corpus)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {corpus / artifact}: stale (cluster ")
            assert f" in {artifact}); rerun 'tagburst {stage}'\n" in err
            assert err.count("\n") == 1
            extra = ("--train-days", "60") if stage == "forecast" else ()
            assert run(stage, "--input", events, "--out", str(corpus), *extra) == 0
        assert run("report", "--input", events, "--out", str(corpus)) == 0

    def test_collates_all_artifacts(self, corpus):
        assert self.full_pipeline(corpus) == 0
        report = read_json(corpus / "report.json")
        assert set(report) == {"input", "clusters", "fits", "forecast", "attribution"}
        assert (corpus / "aic_diff.csv").is_file()
        assert (corpus / "factors.csv").is_file()
        assert (corpus / "weekly_counts.csv").is_file()
        aic = read_csv(corpus / "aic_diff.csv")
        for row in aic:
            diff = float(row["aic_hawkes"]) - float(row["aic_poisson"])
            assert float(row["aic_diff"]) == pytest.approx(diff)

    def test_factor_rows_equal_attribution_factors(self, corpus):
        assert self.full_pipeline(corpus) == 0
        text = (corpus / "factors.csv").read_text()
        assert (corpus / "attribution_factors.csv").read_text() == text
        rows = read_csv(corpus / "factors.csv")
        assert rows and all(repr(float(r["value"])) == r["value"] for r in rows)

    def test_requires_upstream_artifacts(self, corpus, capsys):
        clustered(corpus)
        assert run("report", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus)) == 1
        assert "tagburst fit" in capsys.readouterr().err

    def test_weekly_counts_cover_all_events(self, corpus):
        self.full_pipeline(corpus)
        rows = read_csv(corpus / "weekly_counts.csv")
        total = sum(int(r["count"]) for r in rows)
        n_events = len((corpus / "events.jsonl").read_text().splitlines())
        assert total == n_events


def drop(*keys):
    """An edit of a parsed artifact that deletes the field at the key path."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


class TestMalformedArtifacts:
    @pytest.mark.parametrize("stage, artifact, edit, fragment", [
        ("attribute", "clusters.json", drop("clusters"), "missing field 'clusters'"),
        ("attribute", "fits.json", drop("clusters", 0, "hawkes", "model"),
         "missing field 'model'"),
        ("fit", "clusters.json", lambda doc: doc.update(clusters=3), "malformed"),
        ("report", "attribution.json", drop("clusters"), "missing field 'clusters'"),
        ("attribute", "fits.json", None, "malformed (Expecting"),
        ("attribute", "fits.json",
         lambda doc: doc["clusters"][0]["hawkes"].update(loglik="x"), "malformed"),
        ("attribute", "fits.json",
         lambda doc: doc["clusters"][0]["hawkes"].update(mu="x"), "malformed"),
        ("report", "fits.json",
         lambda doc: doc["clusters"][0]["hawkes"].update(mu="x"), "malformed"),
        ("fit", "assignments.csv", lambda text: text.replace("video_id", "id", 1),
         "missing field 'video_id'"),
        ("fit", "assignments.csv", lambda text: re.sub(r",\d+\n", ",zero\n", text, count=1),
         "malformed (invalid literal"),
        ("fit", "assignments.csv", lambda text: re.sub(r",\d+\n", "\n", text, count=1),
         "malformed ("),
        ("attribute", "fits.json", drop("clusters", 0, "hawkes", "beta"),
         "malformed (fit for model 'hawkes' lacks parameter 'beta')"),
        ("fit", "clusters.json", lambda doc: doc["clusters"].pop(),
         "stale (cluster 2 is only in assignments.csv); rerun 'tagburst cluster'\n"),
        ("report", "clusters.json",
         lambda doc: doc["clusters"].append({**doc["clusters"][0], "cluster_id": 3}),
         "stale (cluster 3 is only in clusters.json); rerun 'tagburst cluster'\n"),
    ], ids=["clusters-without-clusters", "fit-without-model", "clusters-not-a-list",
            "attribution-without-clusters", "fits-not-json", "loglik-not-a-number",
            "mu-not-a-number", "report-mu-not-a-number", "assignments-without-video-id", "cluster-id-not-a-number",
            "assignments-row-without-cluster-id", "hawkes-without-beta",
            "cluster-dropped-from-clusters", "extra-cluster-in-clusters"])
    def test_one_line_error_names_the_file(self, corpus, capsys, stage, artifact, edit,
                                           fragment):
        events = str(corpus / "events.jsonl")
        fitted(corpus)
        run("forecast", "--input", events, "--out", str(corpus), "--train-days", "60",
            "--models", "poisson")
        run("attribute", "--input", events, "--out", str(corpus))
        path = corpus / artifact
        if edit is None:
            path.write_text("{")
        elif path.suffix == ".csv":
            path.write_text(edit(path.read_text()))
        else:
            doc = read_json(path)
            edit(doc)
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(stage, "--input", events, "--out", str(corpus)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and fragment in err
        assert err.count("\n") == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=2\n\n# comment line\n")
        out = tmp_path / "cfg_out"
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(out), "--config", str(cfg)) == 0
        assert read_json(out / "clusters.json")["eta"] == 2

    def test_explicit_flag_beats_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=2\n")
        out = tmp_path / "cfg_out"
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(out), "--config", str(cfg), "--eta", "3") == 0
        assert read_json(out / "clusters.json")["eta"] == 3

    def test_malformed_config_line_fails(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta\n")
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(tmp_path), "--config", str(cfg)) == 1
        assert "key=value" in capsys.readouterr().err

    def test_missing_config_fails(self, corpus, tmp_path, capsys):
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(tmp_path), "--config",
                   str(tmp_path / "ghost.cfg")) == 1
        assert "ghost.cfg" in capsys.readouterr().err

    def test_switch_takes_true_and_false(self, corpus, tmp_path):
        fitted(corpus)
        cfg = tmp_path / "run.cfg"
        for value, causal in (("true", False), ("false", True)):
            cfg.write_text(f"all_time_average = {value}\n")
            assert run("attribute", "--input", str(corpus / "events.jsonl"),
                       "--out", str(corpus), "--config", str(cfg)) == 0
            assert read_json(corpus / "attribution.json")["causal"] is causal

    def test_one_config_serves_every_stage(self, corpus, tmp_path):
        # each stage ignores the keys another stage owns; required flags may come from the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus / 'events.jsonl'}\neta = 2\n"
                       "train_days = 60\npop_scope = cluster\n")
        for stage in ("cluster", "fit", "attribute"):
            assert run(stage, "--out", str(corpus), "--config", str(cfg)) == 0
        assert read_json(corpus / "attribution.json")["pop_scope"] == "cluster"

    def test_switch_takes_only_true_or_false(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("all_time_average = yes\n")
        assert run("attribute", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--config", str(cfg)) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}:1: all_time_average takes true or false, got 'yes'\n"

    def test_bad_bin_width_fails_cleanly(self, corpus, tmp_path, capsys):
        fitted(corpus)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train_days = 60\nbin_width = 0\n")
        capsys.readouterr()
        assert run("forecast", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--config", str(cfg)) == 1
        assert capsys.readouterr().err == "error: bin_width must be positive, got 0.0\n"
        assert not (corpus / "forecast.csv").exists()

    def test_unknown_key_names_file_and_line(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 2\n\nthreads = 4\n")
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(tmp_path), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and "threads" in err
        assert err.count("\n") == 1

    def test_value_outside_choices_names_file_and_line(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("w_comments = 2\npop_scope = bogus\n")
        assert run("attribute", "--input", str(corpus / "events.jsonl"),
                   "--out", str(corpus), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "bogus" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stage, line, reason", [
        ("forecast", "train_days = abc", "train_days: invalid float value 'abc'"),
        ("cluster", "eta = 1.5", "eta: invalid int value '1.5'"),
        ("cluster", "sweep = 3", "sweep: expected A:B with integers, got '3'"),
    ], ids=["train-days", "eta", "sweep"])
    def test_value_the_flag_cannot_convert_names_file_and_line(
            self, tmp_path, capsys, stage, line, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {stage}\n{line}\n")
        assert run(stage, "--input", str(tmp_path / "events.jsonl"), "--out", str(tmp_path),
                   "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: {reason}\n"

    def test_format_outside_choices_names_file_and_line(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(tmp_path), "--eta", "2", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:1" in err and "xml" in err

    def test_equals_form_is_honoured(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=2\n")
        out = tmp_path / "cfg_out"
        assert run("cluster", "--input", str(corpus / "events.jsonl"),
                   "--out", str(out), f"--config={cfg}") == 0
        assert read_json(out / "clusters.json")["eta"] == 2

    def test_leading_byte_order_mark_is_accepted(self, corpus, tmp_path):
        # a config saved with a UTF-8 BOM gives the run of the same file without it
        for name, prefix in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(prefix + b"eta = 2\ntrain_days = 60\n")
            assert run("cluster", "--input", str(corpus / "events.jsonl"),
                       "--out", str(tmp_path / name), "--config", str(cfg)) == 0
        for artifact in ("clusters.json", "assignments.csv"):
            assert (tmp_path / "marked" / artifact).read_bytes() == \
                (tmp_path / "plain" / artifact).read_bytes()

    def test_bare_config_is_usage_error(self, corpus):
        with pytest.raises(SystemExit) as exc:
            run("cluster", "--input", str(corpus / "events.jsonl"),
                "--out", str(corpus), "--config")
        assert exc.value.code == 2


def readme_pipeline(out):
    events = str(out / "events.jsonl")
    for argv in (["simulate", "--out", str(out), "--seed", "0", "--t-days", "120"],
                 ["cluster", "--input", events, "--out", str(out), "--eta", "2"],
                 ["fit", "--input", events, "--out", str(out)],
                 ["forecast", "--input", events, "--out", str(out), "--train-days", "60"],
                 ["attribute", "--input", events, "--out", str(out)],
                 ["report", "--input", events, "--out", str(out)]):
        assert run(*argv) == 0, argv


class TestCsvInput:
    def test_csv_input_gives_the_jsonl_artifacts(self, tmp_path):
        """The README corpus written as events.csv, and as events.txt read with
        --format csv, gives every artifact of the JSONL run byte for byte;
        report.json differs only in the input name it records."""
        base = tmp_path / "jsonl"
        assert run("simulate", "--out", str(base), "--seed", "0", "--t-days", "120") == 0
        stream = parse_events(base / "events.jsonl")
        inputs = {"jsonl": (base / "events.jsonl", [])}
        write_events(stream, tmp_path / "csv" / "events.csv")
        inputs["csv"] = (tmp_path / "csv" / "events.csv", [])
        write_events(stream, tmp_path / "txt" / "events.txt", format="csv")
        inputs["txt"] = (tmp_path / "txt" / "events.txt", ["--format", "csv"])
        for events, extra in inputs.values():
            for stage, *flags in (["cluster", "--eta", "2", "--sweep", "1:4"], ["fit"],
                                  ["forecast", "--train-days", "60"], ["attribute"],
                                  ["report"]):
                assert run(stage, "--input", str(events), "--out", str(events.parent),
                           *extra, *flags) == 0, (events.name, stage)
        inputs_and_truth = {"events.jsonl", "ground_truth.json"}
        names = sorted(p.name for p in base.iterdir() if p.name not in inputs_and_truth)
        assert len(names) == 12
        for events, _ in (inputs["csv"], inputs["txt"]):
            out = events.parent
            assert sorted(p.name for p in out.iterdir() if p != events) == names
            for name in names:
                if name == "report.json":
                    report, expected = read_json(out / name), read_json(base / name)
                    assert (report.pop("input"), expected.pop("input")) == \
                        (events.name, "events.jsonl")
                    assert report == expected
                else:
                    assert (out / name).read_bytes() == (base / name).read_bytes(), name


class TestArtifactFiles:
    def test_every_file_takes_the_umask_mode(self, tmp_path):
        """Each file gets the mode that open(path, "w") gives a new file."""
        out = tmp_path / "run"
        umask = os.umask(0o027)
        try:
            readme_pipeline(out)
            for name in ("lib.jsonl", "lib.csv"):
                write_events(parse_events(out / "events.jsonl"), tmp_path / name)
        finally:
            os.umask(umask)
        files = [*out.iterdir(), tmp_path / "lib.jsonl", tmp_path / "lib.csv"]
        assert len(files) == 15
        assert {p.name: oct(p.stat().st_mode & 0o777) for p in files} == \
            {p.name: "0o640" for p in files}

    @pytest.mark.parametrize("name", ["events.jsonl", "events.csv", "fits.json"])
    def test_a_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, name):
        write_toy_events(tmp_path / "toy.jsonl")
        stream = parse_events(tmp_path / "toy.jsonl")
        path = tmp_path / name
        path.write_text("earlier\n")

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            if name == "fits.json":
                _write_json(path, {"eta": 2, "clusters": []})
            else:
                write_events(stream, path)
        assert path.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "toy.jsonl"])


class TestUsageErrors:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("cluster", "--eta", "2")
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("transmogrify")
        assert exc.value.code == 2
