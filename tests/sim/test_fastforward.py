"""Steady-state fast-forward: bit-identity against full stepping.

The contract under test (`repro.sim.cycles`) is the strongest the repo
makes: `run_fast_forward(kernel, until)` must leave the kernel in a state
indistinguishable from `kernel.run(until)` — the same switch-hook call
sequence, the same latency floats, the same monotone counters — whether
or not a schedule cycle was detected and skipped.  The equivalence digest
of :func:`repro.bench.golden.equivalence_digest` folds all of that into
one SHA-256, so every test here reduces to digest equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.golden import equivalence_digest
from repro.bench.scenarios import GOLDEN_SCENARIOS, PERIODIC_SCENARIOS, build_scenario
from repro.core.spectrum import replicate_series
from repro.sched.cbs import CbsScheduler
from repro.sched.edf import EdfScheduler
from repro.sim import Kernel, MS, SEC
from repro.sim.cycles import (
    MIN_BOUNDARIES,
    eligibility_reason,
    kernel_hyperperiod,
    run_fast_forward,
    state_digest,
)
from repro.sim.engine import EventQueue
from repro.sim.time import hyperperiod


class TestHyperperiod:
    def test_lcm_fold(self):
        assert hyperperiod([8 * MS, 16 * MS, 32 * MS]) == 32 * MS
        assert hyperperiod([6, 10, 15]) == 30

    def test_empty_is_one(self):
        assert hyperperiod([]) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hyperperiod([8 * MS, 0])
        with pytest.raises(ValueError):
            hyperperiod([-5])


class TestShiftTimes:
    def _fill(self, q: EventQueue):
        fired = []

        def cb(now, payload):
            fired.append((now, payload))

        q.push(100, cb, "a")
        q.push(50, cb, "b")
        doomed = q.push(75, cb, "c")
        doomed.cancel()
        return fired

    def test_uniform_shift_preserves_order(self):
        q = EventQueue()
        self._fill(q)
        q.shift_times(1000)
        times = [ev.time for ev in q.snapshot()]
        assert times == [1050, 1100]

    def test_zero_shift_is_noop(self):
        q = EventQueue()
        self._fill(q)
        before = [(ev.time, ev.payload) for ev in q.snapshot()]
        q.shift_times(0)
        assert [(ev.time, ev.payload) for ev in q.snapshot()] == before

    def test_negative_shift_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.shift_times(-1)

    def test_shifted_events_fire_at_new_times(self):
        q = EventQueue()
        fired = self._fill(q)
        q.shift_times(10)
        while len(q.snapshot()):
            ev = q.pop_due(2**62)
            if ev is not None:
                ev.callback(ev.time, ev.payload)
        assert fired == [(60, "b"), (110, "a")]


class TestReplicateSeries:
    def test_integer_exact_stitching(self):
        base = np.array([10, 30], dtype=np.int64)
        out = replicate_series(base, 100, 2)
        assert out.dtype == np.int64
        assert out.tolist() == [10, 30, 110, 130, 210, 230]

    def test_zero_cycles_copies(self):
        base = np.array([5], dtype=np.int64)
        out = replicate_series(base, 100, 0)
        assert out.tolist() == [5]
        out[0] = 99
        assert base[0] == 5

    def test_validation(self):
        base = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            replicate_series(base, 0, 1)
        with pytest.raises(ValueError):
            replicate_series(base, 100, -1)


class TestPeriodicEquivalence:
    """Every eligible scenario: detected, skipped, and still bit-identical."""

    @pytest.mark.parametrize("name", sorted(PERIODIC_SCENARIOS))
    def test_fast_forward_matches_full_run(self, name):
        full, report = equivalence_digest(name, 1 * SEC, fast_forward=False)
        assert report is None
        ff, report = equivalence_digest(name, 1 * SEC, fast_forward=True)
        assert report is not None and report.enabled
        assert report.detected, f"{name}: no cycle detected"
        assert report.cycles_skipped > 0 and report.skipped_ns > 0
        assert ff == full

    def test_long_horizon_moments_match_by_float_bits(self):
        # 60 s replays hundreds of skipped cycles through add_cycles; the
        # Welford accumulators must match stepping in their raw bits (the
        # digest sees M2 only through std), and so must the switch count
        # and the scheduler's cycle counters
        def outputs(kernel):
            moments = [
                (lat.n, lat.total, lat.max, lat._mean.hex(), lat._m2.hex())
                for lat in (p.sched_latency for _, p in sorted(kernel.processes.items()))
            ]
            return kernel.stats.context_switches, moments, kernel.scheduler.cycle_counters()

        until = 60 * SEC
        k_full = build_scenario("periodic-cbs-background")
        k_full.run(until)
        k_ff = build_scenario("periodic-cbs-background")
        assert run_fast_forward(k_ff, until).cycles_skipped > 100
        assert outputs(k_ff) == outputs(k_full)

    def test_final_state_digest_matches(self):
        # beyond the trace digest: the complete normalised simulator state
        # (calendar, segments, scheduler) is identical after a skip
        until = 1 * SEC
        k_full = build_scenario("periodic-edf")
        k_full.run(until)
        k_ff = build_scenario("periodic-edf")
        report = run_fast_forward(k_ff, until)
        assert report.detected
        assert k_ff.clock == k_full.clock == until
        assert state_digest(k_ff, until) == state_digest(k_full, until)


def _skips_and_matches(name: str) -> bool:
    """Whether fast-forward detects, skips and matches the full run."""
    full, _ = equivalence_digest(name, 1 * SEC)
    ff, report = equivalence_digest(name, 1 * SEC, fast_forward=True)
    return report.detected and report.cycles_skipped > 0 and ff == full


class TestSurfaceDeletions:
    """Each fast-forward surface method a scheduler defines is exercised
    by some periodic scenario: deleting it breaks the equivalence."""

    @pytest.mark.parametrize(
        ("cls", "method", "scenario"),
        [
            # the kept (q, deadline) pair crosses the boundary
            (CbsScheduler, "shift_times", "periodic-cbs-carryover"),
            # a ready job's deadline crosses the boundary
            (EdfScheduler, "shift_times", "periodic-edf-carryover"),
            # consumed/exhaustions, read from the servers by the digest
            (CbsScheduler, "cycle_counters", "periodic-cbs-carryover"),
            (CbsScheduler, "cycle_counters", "periodic-cbs-hard"),
        ],
    )
    def test_deletion_breaks_equivalence(self, monkeypatch, cls, method, scenario):
        assert _skips_and_matches(scenario)
        monkeypatch.delattr(cls, method)
        assert not _skips_and_matches(scenario)

    def test_cycle_periods_only_sets_the_sampling_grid(self, monkeypatch):
        # without the 12 ms server period the grid is every 16 ms, not
        # every 48 ms: a superset of the boundaries, so the deletion can
        # lose no detection and, as digest equality decides a cycle, no
        # exactness; tests/sched/test_cycle_surface.py is its guard
        monkeypatch.delattr(CbsScheduler, "cycle_periods")
        _, report = equivalence_digest("periodic-cbs-carryover", 1 * SEC, fast_forward=True)
        assert report.hyperperiod == 16 * MS
        assert _skips_and_matches("periodic-cbs-carryover")


class TestGoldenTransparency:
    """The golden mixes must be untouched: fast-forward auto-disables."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_disabled_and_identical(self, name):
        full, _ = equivalence_digest(name, fast_forward=False)
        ff, report = equivalence_digest(name, fast_forward=True)
        assert report is not None
        # finite jittered workloads with an astronomic LCM: the fast path
        # must bow out (horizon too short for 3 hyperperiods) ...
        assert not report.enabled
        assert not report.detected
        # ... and the run must come out bit-identical regardless
        assert ff == full


def _attach_latency_hook(kernel: Kernel, calls: list) -> None:
    kernel.latency_hook = lambda proc, latency, now: calls.append((proc.pid, latency, now))


def _attach_exhaustion_hooks(kernel: Kernel, calls: list) -> None:
    servers = kernel.scheduler.servers
    for sid in sorted(servers):
        servers[sid].exhaustion_hook = lambda server, now: calls.append((server.sid, now))


class TestIneligibility:
    def _periodic_kernel(self) -> Kernel:
        return build_scenario("periodic-fp")

    def test_clean_periodic_kernel_is_eligible(self):
        assert eligibility_reason(self._periodic_kernel()) is None

    def test_fault_plan_disables_bit_identically(self):
        from repro.bench.golden import attach_digest
        from repro.faults.plan import FaultPlan

        until = 1 * SEC
        k_full = build_scenario("periodic-rr")
        fin_full = attach_digest(k_full)
        k_full.run(until)

        k_ff = build_scenario("periodic-rr")
        # a *zero-intensity* plan must still disable the fast path: the
        # marker means "a fault layer may perturb this timeline", and the
        # digest cannot prove it will not
        k_ff.fault_plan = FaultPlan.burst(0, until, 0.0)
        fin_ff = attach_digest(k_ff)
        report = run_fast_forward(k_ff, until)
        assert not report.enabled
        assert report.reason == "fault plan attached"
        assert fin_ff() == fin_full()

    def test_tracer_disables(self):
        kernel = self._periodic_kernel()
        kernel.tracers.append(object())
        assert eligibility_reason(kernel) == "syscall tracers attached"

    def test_telemetry_disables(self):
        kernel = self._periodic_kernel()
        kernel._obs = object()
        assert eligibility_reason(kernel) == "telemetry hub attached"

    def test_aperiodic_process_disables(self):
        from repro.workloads.desktop import desktop_load

        kernel = self._periodic_kernel()
        kernel.spawn("xorg", desktop_load())
        reason = eligibility_reason(kernel)
        assert reason is not None and "aperiodic" in reason

    @pytest.mark.parametrize(
        "scenario, attach, reason",
        [
            ("periodic-cbs-hard", _attach_latency_hook, "latency hook attached"),
            ("periodic-cbs-background", _attach_exhaustion_hooks, "exhaustion hook attached"),
        ],
        ids=["latency", "exhaustion"],
    )
    def test_observer_hook_forces_full_stepping(self, scenario, attach, reason):
        # skipped cycles replay switch_hook calls only; any other observer
        # would miss every call in them
        until = 1 * SEC

        def run(fast_forward: bool):
            kernel = build_scenario(scenario)
            calls: list[tuple[int, ...]] = []
            attach(kernel, calls)
            report = run_fast_forward(kernel, until) if fast_forward else kernel.run(until)
            return calls, report

        full, _ = run(fast_forward=False)
        ff, report = run(fast_forward=True)
        assert not report.enabled
        assert report.reason is not None and report.reason.startswith(reason)
        assert len(full) > 10
        assert ff == full

    def test_hook_attached_mid_run_stops_the_fast_path(self):
        from repro.core.events import MissDispatcher, miss_dispatcher

        until = 1 * SEC

        def run(fast_forward: bool):
            kernel = build_scenario("periodic-cbs-hard")
            first_boundary = kernel_hyperperiod(kernel)
            calls: list[tuple[int, int, int]] = []
            subscribed: list[int] = []

            def subscribe_late(proc, now):
                # as an event-driven loop adopting a task after the first boundary
                if now > first_boundary and not subscribed:
                    subscribed.append(now)
                    miss_dispatcher(kernel).subscribe(
                        frozenset(kernel.processes),
                        -1,
                        lambda proc, latency, now: calls.append((proc.pid, latency, now)),
                    )

            kernel.switch_hook = subscribe_late
            report = run_fast_forward(kernel, until) if fast_forward else kernel.run(until)
            assert isinstance(kernel.latency_hook, MissDispatcher)
            return calls, report

        full, _ = run(fast_forward=False)
        ff, report = run(fast_forward=True)
        assert not report.enabled and not report.detected
        assert report.reason == "latency hook attached"
        assert len(full) > 100
        assert ff == full

    def test_short_horizon_falls_back(self):
        kernel = self._periodic_kernel()
        cycle_h = kernel_hyperperiod(kernel)
        until = MIN_BOUNDARIES * cycle_h  # one boundary short of the floor
        report = run_fast_forward(kernel, until)
        assert not report.enabled
        assert report.reason is not None and "horizon too short" in report.reason
        assert kernel.clock == until


class TestAccumulatorsHandedBack:
    """Every exit path leaves each process its own latency accumulator and
    the kernel without fast-forward's latency logger, so nothing keeps
    logging samples once the fast path has stopped."""

    UNTIL = 1 * SEC

    def _run(self, kernel: Kernel):
        own = {pid: proc.sched_latency for pid, proc in kernel.processes.items()}
        report = run_fast_forward(kernel, self.UNTIL)
        assert kernel.clock == self.UNTIL
        assert kernel.latency_hook is None
        for pid, stats in own.items():
            assert kernel.processes[pid].sched_latency is stats
        return report

    @staticmethod
    def _moments(kernel: Kernel):
        return [
            (lat.n, lat.total, lat.max, lat._mean.hex(), lat._m2.hex())
            for lat in (kernel.processes[pid].sched_latency for pid in sorted(kernel.processes))
        ]

    def test_cycle_detected(self):
        kernel = build_scenario("periodic-fp")
        report = self._run(kernel)
        assert report.detected and report.cycles_skipped > 0

    def test_stopped_by_a_foreign_callback(self):
        def build() -> Kernel:
            kernel = build_scenario("periodic-fp")
            first_boundary = kernel_hyperperiod(kernel)
            pushed: list[int] = []

            def push_foreign(proc, now):
                # posted after the first boundary's digest was taken
                if now > first_boundary and not pushed:
                    pushed.append(now)
                    kernel.events.push(self.UNTIL, lambda now, payload: None)

            kernel.switch_hook = push_foreign
            return kernel

        k_full = build()
        k_full.run(self.UNTIL)
        k_ff = build()
        report = self._run(k_ff)
        assert report.boundaries_sampled >= 1
        assert not report.enabled and not report.detected
        assert report.reason is not None and "un-digestible callback" in report.reason
        assert self._moments(k_ff) == self._moments(k_full)

    def test_no_repeat_found(self):
        from repro.sched import RoundRobinScheduler
        from repro.workloads import PeriodicTaskConfig, periodic_task

        def build() -> Kernel:
            # cost jitter puts the task's RNG state in the digest: it never repeats
            kernel = Kernel(RoundRobinScheduler())
            config = PeriodicTaskConfig(cost=2 * MS, period=8 * MS, cost_jitter=0.1)
            kernel.spawn("jittered", periodic_task(config))
            kernel.spawn("steady", periodic_task(PeriodicTaskConfig(cost=MS, period=16 * MS)))
            return kernel

        k_full = build()
        k_full.run(self.UNTIL)
        k_ff = build()
        report = self._run(k_ff)
        assert report.enabled and not report.detected
        assert report.boundaries_sampled > MIN_BOUNDARIES
        assert self._moments(k_ff) == self._moments(k_full)


class TestVlcTwoThread:
    """Zero-jitter vlc: two event-coupled threads still reach a cycle."""

    def test_detects_and_matches(self):
        from repro.sched import RoundRobinScheduler
        from repro.workloads.vlc import VlcConfig, VlcPlayer

        from repro.bench.golden import attach_digest

        until = 1 * SEC

        def build() -> Kernel:
            kernel = Kernel(RoundRobinScheduler())
            player = VlcPlayer(VlcConfig(decode_jitter=0.0))
            kernel.spawn("vlc-dec", player.decoder_program())
            kernel.spawn("vlc-out", player.output_program())
            return kernel

        k_full = build()
        fin_full = attach_digest(k_full)
        k_full.run(until)

        k_ff = build()
        fin_ff = attach_digest(k_ff)
        report = run_fast_forward(k_ff, until)
        assert report.enabled and report.detected
        assert report.cycles_skipped > 0
        assert fin_ff() == fin_full()


#: why a release just before every hyperperiod boundary defeats detection
STRADDLED_BOUNDARIES = (
    "run_fast_forward samples only at hyperperiod boundaries and skips one "
    "that a context switch straddles; a release less than "
    "context_switch_cost before every boundary straddles them all, so no "
    "cycle is found and the whole horizon is stepped (ROADMAP: found while "
    "measuring)"
)


class TestReleaseJustBeforeEveryBoundary:
    """EDF, (1 ms every 8 ms, phase 8 ms - lead) and (2 ms every 16 ms,
    phase 3 ms): the first task's second job of each 16 ms hyperperiod is
    released ``lead`` ns before the boundary, and its switch (2 us) ends
    past it unless ``lead`` is at least the switch cost.  Fleet node seed
    4594 (a p8 phase of 3,998,812 ns) hits this under every policy."""

    @pytest.mark.parametrize(
        "lead",
        [
            pytest.param(1_000, marks=pytest.mark.xfail(strict=True, reason=STRADDLED_BOUNDARIES)),
            pytest.param(1_999, marks=pytest.mark.xfail(strict=True, reason=STRADDLED_BOUNDARIES)),
            2_000,
        ],
    )
    def test_detects_and_matches(self, lead):
        from repro.bench.golden import attach_digest
        from repro.workloads import PeriodicTaskConfig, periodic_task

        until = 2 * SEC

        def build() -> Kernel:
            edf = EdfScheduler()
            kernel = Kernel(edf)
            fast = PeriodicTaskConfig(cost=1 * MS, period=8 * MS, phase=8 * MS - lead)
            slow = PeriodicTaskConfig(cost=2 * MS, period=16 * MS, phase=3 * MS)
            edf.attach(kernel.spawn("p8", periodic_task(fast)), 8 * MS)
            edf.attach(kernel.spawn("p16", periodic_task(slow)), 16 * MS)
            return kernel

        k_full = build()
        fin_full = attach_digest(k_full)
        k_full.run(until)

        k_ff = build()
        fin_ff = attach_digest(k_ff)
        report = run_fast_forward(k_ff, until)
        assert report.enabled and report.detected
        assert fin_ff() == fin_full()
