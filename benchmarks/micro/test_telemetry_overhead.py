"""Telemetry-off vs telemetry-on timing of the simulator core.

:func:`_sim_obs` runs the ``cbs-background`` golden mix bare and with a
:mod:`repro.obs` hub attached.  The instrumented run pays for span and
metric recording at every context switch, exhaustion and replenishment —
the assertions here keep that overhead bounded (a hub must observe, not
tax, the simulation) and confirm the hub actually recorded something, so
the measurement is not comparing two uninstrumented runs.
"""

import time

from repro.bench.scenarios import build_scenario
from repro.obs.instrument import instrument_kernel
from repro.sim.time import SEC

#: simulated horizon of one run, ns
DURATION_NS = 2 * SEC


def _timed_runs(repeats: int, instrument: bool) -> tuple[float, object]:
    """Wall seconds for ``repeats`` fresh runs, and the last run's hub."""
    hub = None
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel = build_scenario("cbs-background")
        if instrument:
            hub = instrument_kernel(kernel)
        kernel.run(DURATION_NS)
    return time.perf_counter() - t0, hub


def _sim_obs(repeats: int = 4) -> dict:
    """Bare and instrumented throughput (simulated ns per wall second)."""
    off_s, _ = _timed_runs(repeats, instrument=False)
    on_s, hub = _timed_runs(repeats, instrument=True)
    simulated = DURATION_NS * repeats
    return {
        "value": simulated / on_s,
        "off_value": simulated / off_s,
        "overhead_ratio": on_s / off_s,
        "spans": len(hub.spans),
        "metric_series": len(hub.metrics),
    }


def test_telemetry_overhead_bounded(run_once):
    result = run_once(_sim_obs)
    assert result["value"] > 500_000_000  # instrumented run still far faster than real time
    # recording really happened on the instrumented pass
    assert result["spans"] > 0
    assert result["metric_series"] > 0
    # observation, not taxation: well under 2x the bare run even on a
    # noisy CI host (typical is < 1.3x)
    assert result["overhead_ratio"] < 2.0


def test_disabled_fast_path_costs_nothing_measurable(run_once):
    # a separate bare run of the identical scenario, with the hooks
    # compiled in but no hub attached: the bare leg inside _sim_obs
    # must agree with it within a loose factor
    obs = run_once(_sim_obs)
    bare_s, _ = _timed_runs(128, instrument=False)  # untimed by the harness
    assert obs["off_value"] > 0.25 * DURATION_NS * 128 / bare_s
