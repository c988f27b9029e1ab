"""Ablation benches for the design choices DESIGN.md calls out.

These are not figures of the paper; they quantify the knobs the paper's
text discusses (predictor choice, spread factor, sampling period,
exhaustion policy, the remark-1 boost, and the §6 wake-up-tracing
alternative) on the common Figure 13 playback scenario.
"""

import pytest


def test_predictor_choice(cached_run):
    """Order-statistic predictors beat averaging ones on peaky workloads."""
    result = cached_run("abl-predictors", n_frames=1000)
    rows = {r["predictor"]: r for r in result.rows}
    quantile = rows["quantile(0.9375)"]
    avg = rows["moving_average"]

    # averaging under-provisions the GOP peaks: more late frames, more
    # dispersion, less reserved bandwidth
    assert avg["frames_over_80ms"] > quantile["frames_over_80ms"]
    assert avg["ift_std_ms"] > quantile["ift_std_ms"]
    assert avg["mean_bandwidth"] < quantile["mean_bandwidth"]

    # max is the most conservative: at least as much bandwidth as the
    # paper's second-maximum quantile
    assert rows["max"]["mean_bandwidth"] >= quantile["mean_bandwidth"] - 0.01


def test_spread_factor(cached_run):
    """x trades bandwidth for robustness, monotonically."""
    result = cached_run("abl-spread", values=(0.0, 0.1, 0.2), n_frames=1000)
    by_x = {r["spread"]: r for r in result.rows}

    assert by_x[0.2]["mean_bandwidth"] > by_x[0.0]["mean_bandwidth"]
    assert by_x[0.2]["ift_std_ms"] < by_x[0.0]["ift_std_ms"]
    assert by_x[0.2]["frames_over_80ms"] <= by_x[0.0]["frames_over_80ms"]


def test_sampling_period(cached_run):
    """S = P carries full job-to-job variance; huge S reacts too slowly."""
    result = cached_run("abl-sampling", values_ms=(40, 100, 400), n_frames=1000)
    rows = {r["sampling_ms"]: r for r in result.rows}

    # the requested bandwidth is most stable at a small multiple of the
    # task period (the paper's advice): both the single-job extreme and
    # the over-long extreme fluctuate more
    assert rows[100]["request_cov"] < rows[40]["request_cov"]
    assert rows[100]["request_cov"] < rows[400]["request_cov"]

    # over-long sampling hurts end-to-end quality
    assert rows[400]["ift_std_ms"] > rows[100]["ift_std_ms"]
    assert rows[400]["frames_over_80ms"] >= rows[100]["frames_over_80ms"]


def test_exhaustion_policy(cached_run):
    """Work-conserving policies absorb budget under-runs; hard pays for them."""
    result = cached_run("abl-policy", n_frames=1000)
    rows = {r["policy"]: r for r in result.rows}

    assert rows["soft"]["ift_std_ms"] < rows["hard"]["ift_std_ms"]
    assert rows["background"]["ift_std_ms"] < rows["hard"]["ift_std_ms"]
    assert rows["soft"]["frames_over_80ms"] <= rows["hard"]["frames_over_80ms"]
    # all policies hold the 40 ms average
    for r in result.rows:
        assert r["ift_mean_ms"] == pytest.approx(40.0, abs=1.0)


def test_exhaustion_boost(cached_run):
    """The remark-1 boost trades a little bandwidth for less dispersion."""
    result = cached_run("abl-boost", n_frames=1000)
    rows = {r["boost"]: r for r in result.rows}

    assert rows["on"]["boosts_tripped"] > 0
    assert rows["off"]["boosts_tripped"] == 0
    assert rows["on"]["ift_std_ms"] <= rows["off"]["ift_std_ms"] + 0.5
    assert rows["on"]["mean_bandwidth"] >= rows["off"]["mean_bandwidth"] - 0.01


def test_smp_partitioning(cached_run):
    """Four adaptive players overload one CPU but fit on two — whether
    partitioned with worst-fit placement or globally scheduled (§6)."""
    result = cached_run("abl-smp", n_players=4, n_frames=300)
    rows = {r["configuration"]: r for r in result.rows}

    # one CPU: the supervisor compresses to its bound and quality breaks
    assert rows["1cpu"]["worst_ift_mean_ms"] > 44.0
    assert max(rows["1cpu"]["granted_bandwidth_per_cpu"]) <= 0.95 + 1e-6

    # two CPUs partitioned: every player holds the 40 ms average, with
    # balanced placement
    part = rows["2cpu-partitioned"]
    assert part["worst_ift_mean_ms"] == pytest.approx(40.0, abs=1.5)
    bws = part["granted_bandwidth_per_cpu"]
    assert abs(bws[0] - bws[1]) < 0.25

    # two CPUs global: same quality without any placement decision
    glob = rows["2cpu-global"]
    assert glob["worst_ift_mean_ms"] == pytest.approx(40.0, abs=1.5)
    assert glob["granted_bandwidth_per_cpu"][0] <= 2 * 0.95 + 1e-6


def test_detector_comparison(cached_run):
    """The spectrum detector degrades more gracefully under load than the
    time-domain (interval-histogram) alternative, at higher compute cost."""
    result = cached_run("abl-detector", reps=12)
    rows = {r["condition"]: r for r in result.rows}

    idle, loaded = rows["idle"], rows["60% RT load"]
    # both are accurate when idle
    assert idle["spectrum_accuracy"] >= 0.75
    assert idle["interval_accuracy"] >= 0.6
    # under load the spectrum method holds up clearly better
    assert loaded["spectrum_accuracy"] >= loaded["interval_accuracy"] + 0.2
    # the time-domain method is the cheaper of the two
    assert idle["interval_ms"] < idle["spectrum_ms"]


def test_rate_change_tracking(cached_run):
    """The loop re-converges after a mid-run 25→50 fps switch (§1)."""
    result = cached_run("abl-rate-change", n_frames_per_phase=300)
    rows = {r["phase"]: r for r in result.rows}

    assert rows["25fps"]["period_detected_ms"] == pytest.approx(40.0, rel=0.05)
    assert rows["50fps"]["period_detected_ms"] == pytest.approx(20.0, rel=0.05)
    assert rows["25fps"]["ift_mean_ms"] == pytest.approx(40.0, abs=2.0)
    assert rows["50fps"]["ift_mean_ms"] == pytest.approx(20.0, abs=2.0)
    # the hysteresis bounds (not blocks) the adaptation
    assert any("confirmed" in n for n in result.notes)


def test_tracer_input(cached_run):
    """Wake-up tracing: cheap and exact for one-wake-per-job tasks, but it
    reports the wake rate (a multiple of the job rate) for multi-wake apps."""
    result = cached_run("abl-tracer-input", reps=10)
    rows = {(r["workload"], r["source"]): r for r in result.rows}

    clean_sys = rows[("periodic-25Hz", "syscalls")]
    clean_wake = rows[("periodic-25Hz", "wakeups")]
    assert clean_wake["avg_hz"] == pytest.approx(25.0, abs=0.5)
    assert clean_wake["events_per_run"] < clean_sys["events_per_run"] / 5

    mp3_sys = rows[("mp3-32.5Hz", "syscalls")]
    mp3_wake = rows[("mp3-32.5Hz", "wakeups")]
    assert mp3_sys["avg_hz"] == pytest.approx(32.5, abs=0.5)
    # the wake train reflects the 3-wakes-per-period structure: the
    # detected rate exceeds the job rate on average
    assert mp3_wake["avg_hz"] > 40.0
