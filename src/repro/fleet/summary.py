"""Compact per-sim summaries and the streaming fleet aggregate.

Workers never ship kernels or traces back to the parent — each finished
sim collapses into a :class:`SimSummary`: merged Welford moments of the
wake-up→dispatch latency, a 64-bin power-of-two latency histogram (the
quantile sketch), deadline-miss and kernel counters, and the
fast-forward accounting.  Summaries are a few hundred bytes regardless
of horizon, which is what keeps parent memory flat over a million-sim
fleet.

The parent folds summaries into a :class:`FleetAggregate` in submission
order.  Every merge is either integer (histogram, counters — order
independent) or Welford's pairwise combination applied in a fixed order,
so a fleet run with ``--jobs N`` produces a byte-identical aggregate —
and :meth:`FleetAggregate.digest` — to ``--jobs 1``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.process import LatencyStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.spec import ScenarioSpec
    from repro.sim.kernel import Kernel

#: histogram bins: bin ``b`` counts samples whose ns value has bit length
#: ``b`` (bin 0 = zero-latency dispatches), so bin bounds are powers of two
HIST_BINS = 64


def _bin_index(latency: int) -> int:
    """Histogram bin for one latency sample."""
    return min(latency.bit_length(), HIST_BINS - 1)


class _SampleStats(LatencyStats):
    """LatencyStats that also bins samples and tallies deadline misses.

    Installed on every process before the run, so the histogram and miss
    tally accumulate inline without a raw sample log, stepped or
    fast-forwarded alike (skipped cycles arrive through
    :meth:`add_cycles`).
    """

    __slots__ = ("hist", "misses", "threshold")

    def __init__(self, threshold: int) -> None:
        super().__init__()
        self.hist = [0] * HIST_BINS
        self.misses = 0
        self.threshold = threshold

    def add(self, latency: int) -> None:
        # one call per dispatch: :meth:`LatencyStats.add`'s arithmetic,
        # the histogram bin and the miss tally, without nested calls
        n = self.n + 1
        self.n = n
        self.total += latency
        if latency > self.max:
            self.max = latency
        delta = latency - self._mean
        self._mean += delta / n
        self._m2 += delta * (latency - self._mean)
        self.hist[min(latency.bit_length(), HIST_BINS - 1)] += 1
        if latency > self.threshold:
            self.misses += 1

    def add_cycles(self, samples: Sequence[int], times: int) -> None:
        super().add_cycles(samples, times)
        if times <= 0:
            return
        hist, threshold = self.hist, self.threshold
        for latency in samples:
            hist[_bin_index(latency)] += times
            if latency > threshold:
                self.misses += times


def _merge_moments(
    n_a: int, mean_a: float, m2_a: float, n_b: int, mean_b: float, m2_b: float
) -> tuple[int, float, float]:
    """Chan's pairwise Welford combination (exact for empty sides)."""
    if n_a == 0:
        return n_b, mean_b, m2_b
    if n_b == 0:
        return n_a, mean_a, m2_a
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * n_b / n
    m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
    return n, mean, m2


@dataclass(frozen=True)
class SimSummary:
    """Everything the parent keeps from one finished simulation."""

    name: str
    group: str
    seed: int
    simulated_ns: int
    procs: int
    crashes: int
    #: merged wake-up→dispatch latency moments across the node's processes
    samples: int
    lat_total: int
    lat_max: int
    lat_mean: float
    lat_m2: float
    hist: tuple[int, ...]
    misses: int
    #: kernel counters
    context_switches: int
    syscalls: int
    busy_ns: int
    idle_ns: int
    cpu_ns: int
    #: fast-forward accounting
    ff_detected: bool
    cycles_skipped: int
    skipped_ns: int

    def to_jsonable(self) -> dict[str, Any]:
        """Strict-JSON form (one JSONL stream line per sim)."""
        return {
            "name": self.name,
            "group": self.group,
            "seed": self.seed,
            "simulated_ns": self.simulated_ns,
            "procs": self.procs,
            "crashes": self.crashes,
            "samples": self.samples,
            "lat_total": self.lat_total,
            "lat_max": self.lat_max,
            "lat_mean": self.lat_mean,
            "lat_m2": self.lat_m2,
            "hist": list(self.hist),
            "misses": self.misses,
            "context_switches": self.context_switches,
            "syscalls": self.syscalls,
            "busy_ns": self.busy_ns,
            "idle_ns": self.idle_ns,
            "cpu_ns": self.cpu_ns,
            "ff_detected": self.ff_detected,
            "cycles_skipped": self.cycles_skipped,
            "skipped_ns": self.skipped_ns,
        }


def summarise_kernel(kernel: Kernel, spec: ScenarioSpec, ff_report: Any | None) -> SimSummary:
    """Collapse a finished kernel into its :class:`SimSummary`.

    Latency histograms and miss tallies come from each process's
    pre-installed :class:`_SampleStats`; per-process Welford moments merge
    in sorted-pid order so the floats are reproducible.
    """
    n = 0
    mean = 0.0
    m2 = 0.0
    lat_total = 0
    lat_max = 0
    hist = [0] * HIST_BINS
    misses = 0
    crashes = 0
    cpu_ns = 0
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        stats = proc.sched_latency
        n, mean, m2 = _merge_moments(n, mean, m2, stats.n, stats._mean, stats._m2)
        lat_total += stats.total
        lat_max = max(lat_max, stats.max)
        if isinstance(stats, _SampleStats):
            for b, count in enumerate(stats.hist):
                hist[b] += count
            misses += stats.misses
        if proc.crashed:
            crashes += 1
        cpu_ns += proc.cpu_time
    detected = bool(ff_report is not None and getattr(ff_report, "detected", False))
    return SimSummary(
        name=spec.name,
        group=spec.group,
        seed=spec.seed,
        simulated_ns=kernel.clock,
        procs=len(kernel.processes),
        crashes=crashes,
        samples=n,
        lat_total=lat_total,
        lat_max=lat_max,
        lat_mean=mean,
        lat_m2=m2,
        hist=tuple(hist),
        misses=misses,
        context_switches=kernel.stats.context_switches,
        syscalls=kernel.stats.syscalls,
        busy_ns=kernel.stats.busy_time,
        idle_ns=kernel.stats.idle_time,
        cpu_ns=cpu_ns,
        ff_detected=detected,
        cycles_skipped=getattr(ff_report, "cycles_skipped", 0) if ff_report else 0,
        skipped_ns=getattr(ff_report, "skipped_ns", 0) if ff_report else 0,
    )


@dataclass
class FleetAggregate:
    """The parent-side streaming fold of every :class:`SimSummary`.

    Integer fields merge order-independently; the Welford moments merge
    in fold order, which the engine fixes to fleet (submission) order —
    that is the determinism contract behind the ``--jobs N`` ==
    ``--jobs 1`` digest equality.
    """

    sims: int = 0
    procs: int = 0
    crashes: int = 0
    samples: int = 0
    lat_total: int = 0
    lat_max: int = 0
    lat_mean: float = 0.0
    lat_m2: float = 0.0
    hist: list[int] = field(default_factory=lambda: [0] * HIST_BINS)
    misses: int = 0
    context_switches: int = 0
    syscalls: int = 0
    busy_ns: int = 0
    idle_ns: int = 0
    cpu_ns: int = 0
    simulated_ns: int = 0
    ff_detected: int = 0
    cycles_skipped: int = 0
    skipped_ns: int = 0
    #: per-template-group sub-aggregates (bounded by the grid size)
    groups: dict[str, FleetAggregate] = field(default_factory=dict)

    def fold(self, summary: SimSummary) -> None:
        """Merge one sim into the aggregate (and its group sub-aggregate)."""
        self._fold_one(summary)
        if summary.group:
            sub = self.groups.get(summary.group)
            if sub is None:
                sub = self.groups[summary.group] = FleetAggregate()
            sub._fold_one(summary)

    def _fold_one(self, s: SimSummary) -> None:
        self.sims += 1
        self.procs += s.procs
        self.crashes += s.crashes
        self.samples, self.lat_mean, self.lat_m2 = _merge_moments(
            self.samples, self.lat_mean, self.lat_m2, s.samples, s.lat_mean, s.lat_m2
        )
        self.lat_total += s.lat_total
        self.lat_max = max(self.lat_max, s.lat_max)
        for b, count in enumerate(s.hist):
            self.hist[b] += count
        self.misses += s.misses
        self.context_switches += s.context_switches
        self.syscalls += s.syscalls
        self.busy_ns += s.busy_ns
        self.idle_ns += s.idle_ns
        self.cpu_ns += s.cpu_ns
        self.simulated_ns += s.simulated_ns
        self.ff_detected += int(s.ff_detected)
        self.cycles_skipped += s.cycles_skipped
        self.skipped_ns += s.skipped_ns

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def lat_std(self) -> float:
        """Sample standard deviation of the merged latency stream, ns."""
        return math.sqrt(self.lat_m2 / (self.samples - 1)) if self.samples > 1 else 0.0

    @property
    def miss_rate(self) -> float:
        """Deadline misses per latency sample (0 with no samples)."""
        return self.misses / self.samples if self.samples else 0.0

    def quantile(self, q: float) -> int:
        """Upper bound (ns) of the histogram bin holding quantile ``q``.

        Power-of-two sketch resolution: the answer is exact to a factor
        of two, which is what fleet dashboards need from a p99.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.samples == 0:
            return 0
        target = max(1, math.ceil(q * self.samples))
        seen = 0
        for b, count in enumerate(self.hist):
            seen += count
            if seen >= target:
                return (1 << b) - 1
        return (1 << HIST_BINS) - 1  # pragma: no cover - bins always cover

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical strict-JSON form (groups in sorted order)."""
        doc: dict[str, Any] = {
            "sims": self.sims,
            "procs": self.procs,
            "crashes": self.crashes,
            "samples": self.samples,
            "lat_total": self.lat_total,
            "lat_max": self.lat_max,
            "lat_mean": self.lat_mean,
            "lat_m2": self.lat_m2,
            "lat_p50": self.quantile(0.5),
            "lat_p99": self.quantile(0.99),
            "hist": list(self.hist),
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "context_switches": self.context_switches,
            "syscalls": self.syscalls,
            "busy_ns": self.busy_ns,
            "idle_ns": self.idle_ns,
            "cpu_ns": self.cpu_ns,
            "simulated_ns": self.simulated_ns,
            "ff_detected": self.ff_detected,
            "cycles_skipped": self.cycles_skipped,
            "skipped_ns": self.skipped_ns,
        }
        if self.groups:
            doc["groups"] = {
                key: self.groups[key].to_jsonable() for key in sorted(self.groups)
            }
        return doc

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form — the fleet identity check."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
