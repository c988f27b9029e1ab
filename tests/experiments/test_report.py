"""Tests for the markdown report generator and the bench JSON emitter."""

import json

import pytest

from repro.experiments.base import ExperimentResult, Series
from repro.experiments.report import bench_payload, generate_report, render_result, write_bench_json
from repro.experiments.runner import RunOutcome


class TestRenderResult:
    def _result(self):
        r = ExperimentResult(experiment="figX", title="demo experiment")
        r.add_row(metric="alpha", value=0.25)
        r.add_row(metric="beta", value=None)
        r.series.append(Series(name="curve", x=[1, 2], y=[3.0, 4.0]))
        r.notes.append("a caveat")
        return r

    def test_markdown_structure(self):
        text = render_result(self._result(), elapsed_s=1.5)
        assert text.startswith("## figX — demo experiment")
        assert "| metric | value |" in text
        assert "| alpha | 0.25 |" in text
        assert "| beta | - |" in text
        assert "`curve` (2 pts)" in text
        assert "> a caveat" in text
        assert "1.5 s" in text

    def test_no_rows(self):
        r = ExperimentResult(experiment="figY", title="empty")
        assert "no tabular data" in render_result(r)


class TestGenerateReport:
    def test_runs_selected_experiments(self):
        text = generate_report(
            names=["fig01", "fig02"],
            overrides={"fig01": {"t_step_ms": 20.0}, "fig02": {"t_step_ms": 10.0}},
            title="mini report",
        )
        assert text.startswith("# mini report")
        assert "## fig01" in text
        assert "## fig02" in text
        assert "0.2" in text  # the Figure 1 anchor value made it through

    def test_unknown_experiment_rejected_early(self):
        with pytest.raises(KeyError):
            generate_report(names=["fig99"])


class TestBenchJson:
    def _nan_outcome(self):
        # fig12 legitimately reports nan when no repetition detects a
        # frequency (plausible under --quick reps); the artifact must
        # still be strict JSON
        r = ExperimentResult(experiment="figN", title="with non-finite values")
        r.add_row(avg_hz=float("nan"), max_hz=float("inf"), ok=1.5)
        r.series.append(Series(name="s", x=[0.0, 1.0], y=[float("nan"), 2.0]))
        return RunOutcome(name="figN", result=r, elapsed_s=0.1)

    def test_non_finite_floats_coerced_to_null(self):
        payload = bench_payload([self._nan_outcome()])
        row = payload["results"][0]["result"]["rows"][0]
        assert row["avg_hz"] is None
        assert row["max_hz"] is None
        assert row["ok"] == 1.5
        assert payload["results"][0]["result"]["series"][0]["y"] == [None, 2.0]

    def test_artifact_is_strict_json(self, tmp_path):
        path = tmp_path / "BENCH_nan.json"
        write_bench_json(path, [self._nan_outcome()])
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text)  # the strict parser downstream consumers use
