"""Quick-run smoke tests for every experiment module.

Each experiment is exercised with drastically scaled-down parameters; the
goal is wiring (the functions run, return well-formed results, and the
coarsest shape claims hold), not statistical fidelity — that is what the
benchmark suite checks with full parameters.
"""

import pytest

from repro.experiments import REGISTRY, fig01, fig02, fig04, fig05, fig06, fig08, fig10, fig11, tab01


class TestRegistry:
    def test_all_experiments_registered(self):
        figures = {
            "fig01",
            "fig02",
            "fig04",
            "fig05",
            "tab01",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "tab03",
            "robustness",
            "events-vs-periodic",
        }
        ablations_ = {
            "abl-predictors",
            "abl-spread",
            "abl-sampling",
            "abl-policy",
            "abl-boost",
            "abl-tracer-input",
            "abl-smp",
            "abl-rate-change",
            "abl-detector",
            "abl-importance",
        }
        assert set(REGISTRY) == figures | ablations_

    def test_every_module_has_run(self):
        for module in REGISTRY.values():
            assert callable(module.run)


class TestAnalyticalExperiments:
    def test_fig01(self):
        result = fig01.run(t_step_ms=2.0)
        curve = result.series_by_name("min_bandwidth")
        assert len(curve.x) > 10
        at_p = curve.y[curve.x.index(100.0)]
        assert at_p == pytest.approx(0.2, abs=1e-3)

    def test_fig02(self):
        result = fig02.run(t_step_ms=5.0)
        util_row = next(r for r in result.rows if r["metric"] == "cumulative_utilisation")
        assert util_row["value"] == pytest.approx(0.6167, abs=1e-3)


class TestSimulationExperiments:
    def test_fig04(self):
        result = fig04.run(duration_s=6)
        assert result.rows[0]["syscall"] == "ioctl"

    def test_fig05(self):
        result = fig05.run()
        conc = next(r for r in result.rows if r["metric"] == "phase_concentration")
        assert conc["value"] > 0.2

    def test_tab01(self):
        result = tab01.run(reps=1)
        rows = {r["tracer"]: r for r in result.rows}
        assert rows["QTRACE"]["relative_overhead"] < rows["QOSTRACE"]["relative_overhead"]
        assert rows["QOSTRACE"]["relative_overhead"] < rows["STRACE"]["relative_overhead"]

    def test_fig06(self):
        result = fig06.run(reps=2, df_values=(0.5,), horizons_s=(0.5, 1.0))
        assert all(abs(r["detected_hz"] - 32.5) < 1.0 for r in result.rows)

    def test_fig08(self):
        result = fig08.run(reps=2, epsilons=(0.5,), horizons_s=(1.0,), detect_reps=2)
        by_alpha = {r["alpha"]: r for r in result.rows}
        assert by_alpha[0.2]["elements_examined"] <= by_alpha[0.0]["elements_examined"]

    def test_fig10(self):
        result = fig10.run(tracing_times_s=(0.5, 2.0))
        first, last = result.rows[0], result.rows[-1]
        assert last["noise_floor"] < first["noise_floor"]

    def test_fig11(self):
        result = fig11.run(reps=6, tracing_times_s=(2.0,))
        row = result.rows[0]
        assert row["fraction_30_40hz"] >= 0.5

    def test_robustness(self):
        from repro.experiments import robustness

        result = robustness.run(
            fault="saturation", intensities=(0.0, 1.0), reps=1, n_frames=100
        )
        rows = {(r["intensity"], r["guards"]): r for r in result.rows}
        assert set(rows) == {(0.0, "on"), (0.0, "off"), (1.0, "on"), (1.0, "off")}
        # the degradation guards must not make the stressed run worse...
        assert rows[(1.0, "on")]["miss_ratio"] <= rows[(1.0, "off")]["miss_ratio"] + 1e-9
        # ...and under full saturation the unhardened arm starves (loses
        # frames) while the hardened arm keeps playing
        assert rows[(1.0, "on")]["frames_played"] >= rows[(1.0, "off")]["frames_played"]
        assert rows[(1.0, "on")]["watchdog_repairs"] > 0

    def test_rate_change_needs_an_estimate_after_the_settle(self):
        from repro.experiments import ablations

        with pytest.raises(ValueError, match="at least 206"):
            ablations.run_rate_change(n_frames_per_phase=205)
        rows = ablations.run_rate_change(n_frames_per_phase=206).rows
        assert [row["period_detected_ms"] for row in rows] == [40.0, 20.0]
