"""Figure 11: PMF of the detected frequency at 200 ms vs 2000 ms.

Shape claims verified:
- at 200 ms the PMF spreads over several Hz around the fundamental, with
  occasional harmonic hits;
- at 2000 ms it concentrates sharply on 32.5 Hz (the paper's mode mass
  is ~0.75; rare second-harmonic occurrences may persist).
"""

import pytest


def test_fig11_pmf_tightens_with_tracing_time(cached_run):
    result = cached_run("fig11", reps=60)
    rows = {r["tracing_s"]: r for r in result.rows}

    short, long_ = rows[0.2], rows[2.0]

    # long tracing: tight mode at the fundamental
    assert long_["mode_hz"] == pytest.approx(32.5, abs=0.5)
    assert long_["mode_mass"] >= 0.6
    assert long_["fraction_30_40hz"] >= 0.85

    # short tracing: visibly worse concentration
    assert short["mode_mass"] <= long_["mode_mass"]
    assert short["fraction_30_40hz"] <= long_["fraction_30_40hz"]
