"""Tests for the command-line experiment runner."""

import json
from pathlib import Path

import pytest

from repro.cli import _parse_overrides, main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from touching the repo-local result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestOverrideParsing:
    def test_literals(self):
        assert _parse_overrides(["reps=10", "x=0.5"]) == {"reps": 10, "x": 0.5}

    def test_tuples(self):
        assert _parse_overrides(["horizons_s=(1.0,2.0)"]) == {"horizons_s": (1.0, 2.0)}

    def test_strings_fall_through(self):
        assert _parse_overrides(["name=qtrace"]) == {"name": "qtrace"}

    def test_missing_equals_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["oops"])

    @pytest.mark.parametrize(
        ("verb", "target", "key", "accepted"),
        [
            ("run", "fig01", "nosuch", "t_step_ms"),
            ("trace", "fig13", "nosuch", "n_frames"),
            ("faults", "trace-loss", "nosuch", "intensity"),
            # in fig10.run's signature, but the runner owns the hook
            ("run", "fig10", "map_fn", "seed"),
        ],
        ids=[
            "run-fig01-t_step_ms",
            "trace-fig13-n_frames",
            "faults-trace-loss-intensity",
            "run-fig10-map_fn-seed",
        ],
    )
    def test_unknown_key_is_a_usage_error(self, verb, target, key, accepted):
        with pytest.raises(SystemExit) as exc:
            main([verb, target, f"{key}=1"])
        assert f"unknown parameter {key!r}" in str(exc.value)
        assert accepted in str(exc.value)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "tab03" in out

    def test_run_fig01(self, capsys):
        assert main(["run", "fig01", "t_step_ms=20.0"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "min_bandwidth" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_with_csv_export(self, tmp_path, capsys):
        out_path = tmp_path / "fig01.csv"
        assert main(["run", "fig01", "t_step_ms=20.0", "--csv", str(out_path)]) == 0
        text = out_path.read_text()
        assert "server_period_ms" in text
        assert "series,min_bandwidth" in text

    def test_list_includes_ablations(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "abl-smp" in out and "abl-detector" in out

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_faults_reports_the_guards_and_exports_a_valid_trace(self, tmp_path, capsys):
        from repro.obs.schema import validate_chrome_trace

        # at 150 frames the run reaches the fault window, which opens at 4 s
        out_path = tmp_path / "faults.perfetto.json"
        assert main(["faults", "trace-loss", "n_frames=150", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fault scenario: trace-loss" in out
        (injected,) = [line.split() for line in out.splitlines() if "injected[trace]" in line]
        assert injected == ["injected[trace]", "639", "(drop=639)"]
        validate_chrome_trace(json.loads(out_path.read_text()))

    def test_faults_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown fault scenario 'nosuch'"):
            main(["faults", "nosuch"])

    def test_second_run_served_from_cache(self, capsys):
        assert main(["run", "fig01", "t_step_ms=20.0"]) == 0
        first = capsys.readouterr().out
        assert "completed in" in first
        assert main(["run", "fig01", "t_step_ms=20.0"]) == 0
        second = capsys.readouterr().out
        assert "served from cache" in second

    def test_no_cache_flag_recomputes(self, capsys):
        assert main(["run", "fig01", "t_step_ms=20.0", "--no-cache"]) == 0
        assert main(["run", "fig01", "t_step_ms=20.0", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "served from cache" not in out

    def test_run_with_jobs(self, capsys):
        assert main(["run", "fig10", "tracing_times_s=(0.2,0.5)", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "elsewhere"
        args = ["run", "fig01", "t_step_ms=20.0", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert cache_dir.is_dir()
        assert main(args) == 0
        assert "served from cache" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig01", "--jobs", "-2"],
        ["run", "fig01", "--jobs", "two"],
        ["all", "--jobs", "0"],
        ["bench", "fig01", "--jobs", "0"],
        ["fleet", "run", "spec.toml", "--jobs", "0"],
        ["fleet", "run", "spec.toml", "--chunksize", "0"],
        ["tune", "spec.toml", "--jobs", "0"],
    ],
)
def test_pool_width_and_chunk_size_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2  # an argparse usage error, before any work
    assert ">= 1" in capsys.readouterr().err


class TestSimulate:
    def test_fast_forward_matches_full_stepping(self, capsys):
        args = ["simulate", "periodic-edf", "--duration", "1.0", "--json"]
        assert main([*args, "--fast-forward"]) == 0
        ff = json.loads(capsys.readouterr().out)
        assert main([*args, "--no-fast-forward"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert ff["fast_forward"]["detected"]
        assert ff["fast_forward"]["cycles_skipped"] > 0
        assert full["fast_forward"] is None
        assert ff["digest"] == full["digest"]


class TestBench:
    def test_bench_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_test.json"
        assert main(["bench", "fig01", "fig10", "--quick", "--output", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-bench/1"
        names = [r["experiment"] for r in payload["results"]]
        assert names == ["fig01", "fig10"]
        for record in payload["results"]:
            assert record["result"]["rows"]
            json.dumps(record)  # every record is pure JSON

    def test_bench_warm_run_is_fully_cached(self, tmp_path, capsys):
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        assert main(["bench", "fig01", "--quick", "--output", str(out1)]) == 0
        assert main(["bench", "fig01", "--quick", "--output", str(out2)]) == 0
        cold = json.loads(out1.read_text())["results"]
        warm = json.loads(out2.read_text())["results"]
        assert not any(r["cached"] for r in cold)
        assert all(r["cached"] for r in warm)
        assert cold[0]["result"] == warm[0]["result"]

    def test_bench_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])


class TestTrace:
    def test_trace_writes_valid_artifact(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "fig13.perfetto.json"
        assert main(["trace", "fig13", "n_frames=40", "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        stats = validate_chrome_trace(doc)
        assert {"server", "controller", "tracer"} <= stats["categories"]
        assert len(stats["counter_tracks"]) >= 4
        out = capsys.readouterr().out
        assert "trace written to" in out

    def test_trace_csv_and_summary(self, tmp_path, capsys):
        out_path = tmp_path / "t.perfetto.json"
        csv_path = tmp_path / "t.csv"
        assert main(
            ["trace", "qtrace-agent", "-o", str(out_path), "--csv", str(csv_path), "--summary"]
        ) == 0
        assert csv_path.read_text().startswith("kind,track,name,t_ns,value")
        out = capsys.readouterr().out
        assert "repro.obs summary" in out

    def test_trace_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["trace", "nosuch"])


class TestFleet:
    SCENARIO = """
[scenario]
name = "one"
horizon_ms = 200.0

[[workload]]
kind = "periodic"
name = "p"
period_ms = 10.0
cost_ms = 1.0
"""
    TEMPLATE = """
[template]
name = "mini"
nodes = 3
seed = 5

[scenario]
horizon_ms = 200.0

[[workload]]
kind = "periodic"
name = "p"
period_ms = 10.0
cost_ms = 1.0

[grid]
"scheduler.kind" = ["edf", "rr"]
"""

    def test_expand_lists_and_counts(self, tmp_path, capsys):
        spec = tmp_path / "t.toml"
        spec.write_text(self.TEMPLATE)
        assert main(["fleet", "expand", str(spec)]) == 0
        out = capsys.readouterr().out
        assert out.count("mini/g") == 6
        assert "[6 sims]" in out

    def test_bundled_cdn_template_declares_1200_sims(self, capsys):
        spec = str(EXAMPLES / "fleet" / "streaming-cdn.toml")
        assert main(["fleet", "expand", spec]) == 0
        assert capsys.readouterr().out.endswith("[1200 sims]\n")
        assert main(["fleet", "expand", spec, "--limit", "3"]) == 0
        assert capsys.readouterr().out.count("\n") == 4  # three names and the count

    def test_expand_limit_and_json(self, tmp_path, capsys):
        spec = tmp_path / "t.toml"
        spec.write_text(self.TEMPLATE)
        assert main(["fleet", "expand", str(spec), "--limit", "2", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in docs] == ["mini/g0000/n00000", "mini/g0000/n00001"]

    def test_run_scenario_file(self, tmp_path, capsys):
        spec = tmp_path / "s.toml"
        spec.write_text(self.SCENARIO)
        assert main(["fleet", "run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "1 sims" in out and "digest " in out

    def test_run_template_streams_and_reports_json(self, tmp_path, capsys):
        spec = tmp_path / "t.toml"
        spec.write_text(self.TEMPLATE)
        stream = tmp_path / "out.jsonl"
        assert main(["fleet", "run", str(spec), "--stream", str(stream), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sims"] == 6
        assert payload["digest"]
        assert payload["elapsed_s"] > 0
        assert len(stream.read_text().splitlines()) == 6

    def test_run_jobs_matches_serial_digest(self, tmp_path, capsys):
        spec = tmp_path / "t.toml"
        spec.write_text(self.TEMPLATE)
        digests, streams = [], []
        for jobs in ("1", "2"):
            stream = tmp_path / f"jobs{jobs}.jsonl"
            assert main(["fleet", "run", str(spec), "--jobs", jobs, "--chunksize", "2",
                         "--stream", str(stream), "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["digest"])
            streams.append(stream.read_bytes())
        assert digests[0] == digests[1]
        assert streams[0] == streams[1]
        assert streams[0].count(b"\n") == 6

    def test_missing_file_and_bad_spec(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["fleet", "run", str(tmp_path / "absent.toml")])
        bad = tmp_path / "bad.toml"
        bad.write_text("[scenario]\nname = 'x'\nhorizon_ms = 1.0\nbogus = 2\n")
        with pytest.raises(SystemExit, match="bogus"):
            main(["fleet", "run", str(bad)])

    def test_invalid_limit(self, tmp_path):
        spec = tmp_path / "s.toml"
        spec.write_text(self.SCENARIO)
        with pytest.raises(SystemExit, match="limit"):
            main(["fleet", "run", str(spec), "--limit", "0"])

    @pytest.mark.parametrize("verb", ["expand", "run"])
    @pytest.mark.parametrize("text", [SCENARIO, TEMPLATE], ids=["scenario", "template"])
    def test_non_finite_milliseconds_are_a_usage_error(self, tmp_path, verb, text):
        # a template's scenarios are only validated as they are expanded
        spec = tmp_path / "s.toml"
        spec.write_text(text.replace("horizon_ms = 200.0", "horizon_ms = inf"))
        with pytest.raises(SystemExit, match="'horizon_ms' must be finite"):
            main(["fleet", verb, str(spec)])


class TestTune:
    SPEC = """
[tune]
name = "clitest"
seed = 2
budget = 6
classes = ["periodic-mix"]
horizon_ms = 400.0

[[param]]
knob = "spread"
"""

    def _write_spec(self, tmp_path):
        path = tmp_path / "tune.toml"
        path.write_text(self.SPEC)
        return path

    def test_tune_writes_canonical_report(self, tmp_path, capsys, monkeypatch):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "TUNE_out.json"
        assert main(["tune", str(spec), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-tune/1"
        assert payload["name"] == "clitest"
        cls = payload["classes"]["periodic-mix"]
        assert cls["best_score"] <= cls["default_score"]
        assert cls["evaluations"] >= payload["budget"]
        best = [t["best_score"] for t in cls["trace"]]
        assert all(b <= a for a, b in zip(best, best[1:]))  # the incumbent never worsens
        assert {s["name"] for s in cls["sensitivity"]} == {"spread"}
        stdout = capsys.readouterr().out
        assert "periodic-mix" in stdout
        assert "evaluations" in stdout

    def test_tune_default_output_name(self, tmp_path, monkeypatch):
        spec = self._write_spec(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["tune", str(spec)]) == 0
        assert (tmp_path / "TUNE_clitest.json").exists()

    def test_tune_warm_rerun_is_byte_identical_and_sim_free(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tune", str(spec), "--output", str(a)]) == 0
        cold_out = capsys.readouterr().out
        # the warm leg on a pool: every candidate still comes from the cache
        assert main(["tune", str(spec), "--output", str(b), "--jobs", "2"]) == 0
        warm_out = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert ", 0 sims" not in cold_out
        assert ", 0 sims" in warm_out

    def test_tune_jobs_width_is_invisible_in_the_report(self, tmp_path):
        spec = self._write_spec(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tune", str(spec), "--output", str(a), "--no-cache"]) == 0
        assert main(["tune", str(spec), "--output", str(b), "--no-cache", "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tune_cli_overrides(self, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "o.json"
        assert main(
            ["tune", str(spec), "--budget", "4", "--seed", "9",
             "--method", "random", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert (payload["budget"], payload["seed"], payload["method"]) == (4, 9, "random")

    def test_tune_json_flag_prints_the_payload(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "o.json"
        assert main(["tune", str(spec), "--output", str(out), "--json"]) == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout[: stdout.rindex("}") + 1])["schema"] == "repro-tune/1"

    def test_tune_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["tune", str(tmp_path / "nope.toml")])

    def test_tune_malformed_spec(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('[tune]\nname = "x"\nbogus = 1\n')
        with pytest.raises(SystemExit, match="bogus"):
            main(["tune", str(bad)])

    def test_tune_demo_spec_parses(self):
        # the bundled example must stay loadable (CI smoke uses it)
        from repro.tune.service import load_tune_spec

        spec = load_tune_spec("examples/tune/controller-demo.toml")
        assert spec.name == "controller-demo"
        assert set(spec.classes) <= {"audio-burst", "video-desktop", "periodic-mix"}
