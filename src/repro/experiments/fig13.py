"""Figures 13 & 14: LFS vs LFS++ on a 25 fps video.

mplayer plays a 1400-frame 25 fps video under adaptive reservations, once
with the original LFS (binary saturation feedback, fixed reservation
period, sampled every server period) and once with LFS++ (consumed-time
sensor, quantile predictor, period from the analyser).  Rate detection is
disabled for the LFS run exactly as in §5.4 ("to make the results more
reliable").

Reported, as in the paper:
- the inter-frame-time series and the reserved-fraction series (Fig. 13),
- their CDFs (Fig. 14),
- mean/std of the inter-frame time for both laws (the paper measured
  39.992 ms / 11.287 ms for LFS and 40.925 ms / 4.631 ms for LFS++).

Expected shape: equal ~40 ms means; LFS takes ~100 frames to bring the
inter-frame time under control while LFS++ adapts almost immediately, so
LFS's std and CDF tail are several times worse.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core import Lfs, LfsPlusPlus, SelfTuningRuntime
from repro.core.controller import FeedbackLaw, TaskControllerConfig
from repro.experiments.base import ExperimentResult, Series
from repro.experiments.common import build_video_playback
from repro.metrics import cdf_points
from repro.sim.time import MS, SEC

#: the two feedback laws of §5.4: name -> (law, controller config).  LFS
#: samples every server period with rate detection off, as the paper ran it
LAWS: dict[str, tuple[Callable[[], FeedbackLaw], TaskControllerConfig]] = {
    "lfs": (Lfs, TaskControllerConfig(sampling_period=40 * MS, use_period_estimate=False)),
    "lfs++": (LfsPlusPlus, TaskControllerConfig(sampling_period=100 * MS)),
}


def law(name: str) -> tuple[FeedbackLaw, TaskControllerConfig]:
    """A fresh feedback law named ``name`` and its controller config."""
    if name not in LAWS:
        raise ValueError(f"unknown law {name!r}; use 'lfs' or 'lfs++'")
    factory, controller_config = LAWS[name]
    return factory(), controller_config


def run_one(law_name: str, *, n_frames: int, seed: int) -> dict:
    """One playback run under the given feedback law; returns raw series."""
    feedback, controller_config = law(law_name)
    rt = SelfTuningRuntime()
    player, probe, task = build_video_playback(
        rt, n_frames=n_frames, seed=seed, feedback=feedback, controller_config=controller_config
    )
    rt.run((n_frames * 40 + 2000) * MS)

    ift_ms = np.array(probe.inter_frame_times, dtype=np.float64) / MS
    bw_t = np.array([t for t, _ in task.controller.granted_history], dtype=np.float64) / SEC
    bw = np.array([g.bandwidth for _, g in task.controller.granted_history])
    # cut the post-playback tail (requests decay once the player exits)
    active = bw_t <= (n_frames * 40 / 1000.0)
    return {
        "ift_ms": ift_ms,
        "bw_time_s": bw_t[active],
        "bw": bw[active],
        "frames": player.frames_played,
        "utilisation": player.config.utilisation,
    }


def run(*, n_frames: int = 1400, seed: int = 13) -> ExperimentResult:
    """Compare LFS and LFS++ on the same video."""
    result = ExperimentResult(
        experiment="fig13",
        title="Inter-frame times and reserved CPU fraction: LFS vs LFS++ (Figs. 13-14)",
    )
    runs = {name: run_one(name, n_frames=n_frames, seed=seed) for name in ("lfs", "lfs++")}

    for name, data in runs.items():
        ift = data["ift_ms"]
        # Fig. 13 time series
        s_ift = Series(name=f"ift_ms[{name}]")
        for i, v in enumerate(ift):
            s_ift.add(i + 1, float(v))
        result.series.append(s_ift)
        s_bw = Series(name=f"reserved_fraction[{name}]")
        for t, b in zip(data["bw_time_s"], data["bw"], strict=True):
            s_bw.add(float(t), float(b))
        result.series.append(s_bw)
        # Fig. 14 CDFs
        xs, ps = cdf_points(ift)
        s_cdf = Series(name=f"ift_cdf[{name}]")
        for x, p in zip(xs[:: max(1, len(xs) // 200)], ps[:: max(1, len(xs) // 200)], strict=True):
            s_cdf.add(float(x), float(p))
        result.series.append(s_cdf)

        late = np.where(ift > 80.0)[0]
        steady = ift[len(ift) // 5 :]
        result.add_row(
            law=name.upper(),
            ift_mean_ms=float(ift.mean()),
            ift_std_ms=float(ift.std(ddof=1)),
            steady_std_ms=float(steady.std(ddof=1)),
            last_frame_over_80ms=int(late[-1] + 1) if late.size else 0,
            frames_over_80ms=int(late.size),
            mean_reserved_fraction=float(np.mean(data["bw"])),
        )
    result.notes.append(
        f"video utilisation ~{runs['lfs']['utilisation']:.2f}; expected: equal "
        "~40ms means, LFS std several times larger, LFS late frames up to "
        "~100, LFS++ almost immediate"
    )
    return result
