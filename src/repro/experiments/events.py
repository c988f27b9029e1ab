"""Event-driven vs periodic controller activation: overhead vs response.

The paper's loop recomputes every ``S`` regardless of whether anything
changed (§4.4 fixes ``S`` well below the task period to stay stable).
:mod:`repro.core.events` replaces the clock with triggers — CBS
budget-exhaustion bursts, deadline misses, confidence drops — plus a
periodic fallback floor.  This experiment quantifies the trade the mode
buys, head to head on the same playback:

- **overhead** — controller recomputes per second on the *steady legs*
  of a cliff-load plan (before the cliff once converged, and after the
  cliff once re-converged), where a well-behaved event mode should be
  coasting on its fallback floor;
- **responsiveness** — settling time after the cliff: how long until
  the granted bandwidth re-converges to its post-cliff steady value.

The workload is the Figure 13 playback (25 fps video over the bursty
desktop mix) with a :class:`~repro.faults.injectors.WorkloadFaults`
cliff: per-frame decode cost inflates by ``1 + intensity`` from
``cliff_at`` to the end of the run — the I-frame-burst shape of §4.4's
remark 1, held indefinitely.  Expected shape: event mode cuts steady-leg
recomputes by >= 3x (floor 400 ms vs S = 100 ms) while settling no
slower, because the exhaustion-burst trigger reacts within one burst
window instead of waiting for the next sampling tick.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult, Series
from repro.sim.time import MS, SEC

#: the two controller activation modes under comparison
MODES = ("periodic", "event")

#: late-frame threshold shared with fig13 (a 25 fps frame > 80 ms late)
MISS_THRESHOLD_MS = 80.0

#: cliff onset: give the loop time to converge on the pre-cliff cost
#: (the cold-start ramp takes ~3 s; the pre-cliff steady leg starts later)
CLIFF_AT = 6 * SEC

#: steady legs exclude this much after cold start / after the cliff
SETTLE_GRACE = 4 * SEC

#: decode-cost inflation scale: the cliff must clear the spread headroom
#: LFS++ provisions, or no mode has anything to react to
COMPUTE_FACTOR = 2.5

#: settling tolerance: within this fraction of the final grant counts
SETTLE_TOL = 0.10


def _settling_time(grants: list[tuple[int, float]], onset: int, until: int) -> float:
    """Nanoseconds from ``onset`` until the grant stays within tolerance.

    Classic control-theory settling time over the grant samples in
    ``[onset, until)``: the final value is the last sample of the
    window, and settling is the first time after which *every* later
    sample stays within ``SETTLE_TOL`` of it.  The window must end
    before the playback drains, or the post-workload grant decay would
    masquerade as never settling.  NaN when the window is empty.
    """
    post = [(t, g) for t, g in grants if onset <= t < until]
    if not post:
        return float("nan")
    final = post[-1][1]
    if final <= 0.0:
        return float("nan")
    settled_at = onset
    for t, g in post:
        if abs(g - final) > SETTLE_TOL * final:
            settled_at = t  # still outside the band: settling is later
    return float(settled_at - onset)


def _leg_rate(times: list[int], start: int, end: int) -> float:
    """Recomputes per simulated second inside ``[start, end)``."""
    if end <= start:
        return float("nan")
    n = sum(1 for t in times if start <= t < end)
    return n / ((end - start) / SEC)


def _one_rep(mode: str, intensity: float, n_frames: int, seed: int) -> dict:
    """One playback in one activation mode; returns the metrics dict."""
    from repro.core import EventTriggerConfig, SelfTuningRuntime
    from repro.core.controller import TaskControllerConfig
    from repro.experiments.common import build_video_playback
    from repro.faults.injectors import WorkloadFaults
    from repro.faults.plan import FaultPlan

    cliff = WorkloadFaults(
        overload=FaultPlan.steps([(CLIFF_AT, None, intensity)]),
        compute_factor=COMPUTE_FACTOR,
        seed=seed,
    )
    config = TaskControllerConfig(
        sampling_period=100 * MS,
        trigger=mode,
        events=EventTriggerConfig() if mode == "event" else None,
    )
    rt = SelfTuningRuntime()
    player, probe, task = build_video_playback(
        rt, n_frames=n_frames, seed=seed, controller_config=config, wrap=cliff.wrap
    )
    horizon = (n_frames * 40 + 2000) * MS
    rt.run(horizon)

    controller = task.controller
    times = [t for t, _ in controller.period_history]
    grants = [(t, req.bandwidth) for t, req in controller.granted_history]
    ift_ms = np.array(probe.inter_frame_times, dtype=np.float64) / MS
    late = int(np.count_nonzero(ift_ms > MISS_THRESHOLD_MS)) if ift_ms.size else 0
    # steady legs: converged pre-cliff, and re-converged post-cliff
    pre = _leg_rate(times, SETTLE_GRACE, CLIFF_AT)
    post = _leg_rate(times, CLIFF_AT + SETTLE_GRACE, horizon)
    metrics = {
        "mode": mode,
        "recomputes": controller.activations,
        "recompute_rate": controller.activations / (horizon / SEC),
        "steady_rate": float(np.nanmean([pre, post])),
        "settling_ms": _settling_time(grants, CLIFF_AT, CLIFF_AT + SETTLE_GRACE) / MS,
        "miss_ratio": late / ift_ms.size if ift_ms.size else 1.0,
        "frames_played": player.frames_played,
        "cause_counts": dict(getattr(task.timer, "cause_counts", {})),
        "recompute_times": times,
        "horizon": horizon,
    }
    return metrics


def run(
    *,
    reps: int = 2,
    n_frames: int = 300,
    intensity: float = 0.8,
    seed0: int = 9100,
    map_fn=map,
) -> ExperimentResult:
    """Compare event-driven and periodic activation on a cliff load.

    ``map_fn`` shards the (mode x repetition) grid; every repetition is
    an independent simulation seeded ``seed0 + r``.
    """
    result = ExperimentResult(
        experiment="events",
        title="Event-driven vs periodic activation: recompute overhead vs settling",
    )
    grid = [(mode, seed0 + r) for mode in MODES for r in range(reps)]
    units = list(map_fn(_rep_unit, [(mode, intensity, n_frames, seed) for mode, seed in grid]))

    by_mode: dict[str, list[dict]] = {mode: [] for mode in MODES}
    for (mode, _), metrics in zip(grid, units, strict=True):
        by_mode[mode].append(metrics)

    curves = {mode: Series(name=f"recompute_rate[{mode}]") for mode in MODES}
    summary: dict[str, dict] = {}
    for mode in MODES:
        ms = by_mode[mode]
        steady = float(np.nanmean([m["steady_rate"] for m in ms]))
        settling = [m["settling_ms"] for m in ms if not np.isnan(m["settling_ms"])]
        settling_ms = float(np.mean(settling)) if settling else float("nan")
        causes: dict[str, int] = {}
        for m in ms:
            for cause, n in m["cause_counts"].items():
                causes[cause] = causes.get(cause, 0) + n
        summary[mode] = {"steady": steady, "settling_ms": settling_ms}
        result.add_row(
            mode=mode,
            recomputes=int(sum(m["recomputes"] for m in ms)),
            recompute_rate=float(np.mean([m["recompute_rate"] for m in ms])),
            steady_rate=steady,
            settling_ms=settling_ms,
            miss_ratio=float(np.mean([m["miss_ratio"] for m in ms])),
            frames_played=float(np.mean([m["frames_played"] for m in ms])),
            causes=", ".join(f"{k}={v}" for k, v in sorted(causes.items())) or None,
        )
        # recompute rate over time, 1 s bins averaged across reps
        horizon = ms[0]["horizon"]
        n_bins = max(1, horizon // SEC)
        counts = np.zeros(n_bins, dtype=np.float64)
        for m in ms:
            for t in m["recompute_times"]:
                b = min(int(t // SEC), n_bins - 1)
                counts[b] += 1.0
        counts /= len(ms)
        for b in range(int(n_bins)):
            curves[mode].add(float(b), float(counts[b]))
    result.series.extend(curves.values())
    reduction = (
        summary["periodic"]["steady"] / summary["event"]["steady"]
        if summary["event"]["steady"] > 0
        else float("inf")
    )
    result.notes.append(
        f"steady-leg recompute reduction: {reduction:.1f}x "
        f"(periodic {summary['periodic']['steady']:.2f}/s vs "
        f"event {summary['event']['steady']:.2f}/s); "
        f"settling {summary['periodic']['settling_ms']:.0f} ms -> "
        f"{summary['event']['settling_ms']:.0f} ms after the cliff"
    )
    result.notes.append(
        "expected: >= 3x fewer steady-leg recomputes in event mode with "
        "settling no worse (the exhaustion-burst trigger reacts within one "
        "burst window instead of the next sampling tick)"
    )
    return result


# repro: allow[CC001]  -- reaches the idempotent cycle-adapter registry; deterministic per process
def _rep_unit(args: tuple) -> dict:
    """Picklable work unit for process-pool ``map_fn`` sharding."""
    return _one_rep(*args)
