"""The fully wired self-tuning runtime (the architecture of Figure 3).

:class:`SelfTuningRuntime` owns the substrate — kernel, CBS scheduler,
qtrace tracer — plus the supervisor, and exposes :meth:`adopt` to bring an
unmodified legacy process under adaptive reservation control
(:meth:`adopt_group` does the same for the threads of one application,
and :meth:`adopt` is that path for a group of one):

- a dedicated CBS server is created from the feedback law's initial
  request (granted through the supervisor),
- the process's system calls are traced and fed to a per-task period
  analyser,
- a periodic task controller closes the loop, re-tuning ``(Q, T)``.

This is the programmatic equivalent of running the paper's ``lfs++`` tool
against a pid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.core.analyser import AnalyserConfig, PeriodAnalyser
from repro.core.controller import FeedbackLaw, ServerSample, TaskController, TaskControllerConfig
from repro.core.lfspp import BandwidthRequest, LfsPlusPlus
from repro.core.supervisor import Supervisor
from repro.sched.cbs import CbsScheduler, Server, ServerParams
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process
from repro.tracer.events import EventKind, TraceEvent
from repro.tracer.qtrace import QTraceConfig, QTracer


@dataclass
class AdoptedTask:
    """Everything the runtime tracks for one adopted process."""

    proc: Process
    server: Server
    controller: TaskController
    analyser: PeriodAnalyser | None
    timer: object = field(repr=False, default=None)


class SelfTuningRuntime:
    """Kernel + tracer + supervisor + per-task controllers, in one box."""

    #: telemetry hub (:mod:`repro.obs`); set by
    #: :func:`repro.obs.instrument.instrument_runtime` so controllers
    #: created by later ``adopt()`` calls inherit the hub
    _obs = None

    def __init__(
        self,
        *,
        u_lub: float = 0.95,
        kernel_config: KernelConfig | None = None,
        tracer_config: QTraceConfig | None = None,
        reservation_policy: str = "hard",
        scheduler: CbsScheduler | None = None,
        kernel: Kernel | None = None,
        n_cpus: int = 1,
    ) -> None:
        """Build the closed-loop runtime.

        By default this is the paper's uniprocessor stack (CBS on EDF on
        one CPU).  Pass ``n_cpus > 1`` for a globally scheduled multicore
        (gEDF over CBS servers on a :class:`MultiCoreKernel`) — with
        ``u_lub`` interpreted per CPU, i.e. the supervisor admits up to
        ``n_cpus * u_lub`` of total bandwidth.  Or inject a custom
        ``scheduler``/``kernel`` pair entirely (the scheduler must speak
        the :class:`repro.sched.cbs.CbsScheduler` server API; when a
        custom ``kernel`` is given it must already wrap that scheduler).
        """
        if kernel is not None and scheduler is None:
            raise ValueError("a custom kernel requires the matching scheduler")
        if scheduler is None:
            if n_cpus > 1:
                from repro.sched.gedf import GlobalCbsScheduler

                scheduler = GlobalCbsScheduler()
            else:
                scheduler = CbsScheduler()
        if kernel is None:
            if n_cpus > 1:
                from repro.sim.multicore import MultiCoreKernel

                kernel = MultiCoreKernel(scheduler, n_cpus, kernel_config)  # type: ignore[arg-type]
            else:
                kernel = Kernel(scheduler, kernel_config)
        self.scheduler = scheduler
        self.kernel = kernel
        self.tracer = QTracer(tracer_config)
        self.kernel.add_tracer(self.tracer)
        self.supervisor = Supervisor(u_lub, capacity=max(n_cpus, 1))
        self.n_cpus = n_cpus
        self.reservation_policy = reservation_policy
        self.tasks: dict[int, AdoptedTask] = {}

    # ------------------------------------------------------------------
    # workload plumbing
    # ------------------------------------------------------------------
    def spawn(self, name: str, program, *, at: int | None = None) -> Process:
        """Spawn a process in the underlying kernel (best-effort class)."""
        return self.kernel.spawn(name, program, at=at)

    def adopt(
        self,
        proc: Process,
        *,
        feedback: FeedbackLaw | None = None,
        controller_config: TaskControllerConfig | None = None,
        analyser_config: AnalyserConfig | None = None,
        u_min: float = 0.0,
        weight: float = 1.0,
        period_hint: int | None = None,
    ) -> AdoptedTask:
        """Put ``proc`` under adaptive reservation control.

        Parameters mirror the knobs of the ``lfs++`` tool: which feedback
        law, the controller sampling period, the analyser's frequency grid
        and horizon, and the supervisor share (``u_min``/``weight``).
        ``period_hint`` seeds the reservation period before the first
        spectrum result.  This is :meth:`adopt_group` of the one process,
        named after it: the controller is ``proc.name``, the server
        ``srv-<proc.name>``.
        """
        return self.adopt_group(
            [proc],
            name=proc.name,
            feedback=feedback,
            controller_config=controller_config,
            analyser_config=analyser_config,
            u_min=u_min,
            weight=weight,
            period_hint=period_hint,
        )

    def adopt_group(
        self,
        procs: list[Process],
        *,
        name: str = "",
        feedback: FeedbackLaw | None = None,
        controller_config: TaskControllerConfig | None = None,
        analyser_config: AnalyserConfig | None = None,
        u_min: float = 0.0,
        weight: float = 1.0,
        period_hint: int | None = None,
    ) -> AdoptedTask:
        """Adopt a *multi-threaded* application: one reservation, many pids.

        All processes share one CBS server (FIFO inside, as in §3.2's
        multi-task reservation discussion); the analyser consumes the
        merged event train of every thread, so the estimated period is the
        group's dominant rate; the feedback law sees the server's
        aggregate consumption.  Expect the §3.2/Figure 2 economics: a
        shared reservation needs more bandwidth than dedicated per-thread
        servers would.

        The controller is called ``name`` (default ``group-<first>``) and
        its server ``srv-<name>``.  Returns one :class:`AdoptedTask` whose
        ``proc`` is the first member (the controller governs the whole
        group).
        """
        if not procs:
            raise ValueError("adopt_group needs at least one process")
        for proc in procs:
            if proc.pid in self.tasks:
                raise ValueError(f"pid {proc.pid} already adopted")
        name = name or f"group-{procs[0].name}"
        feedback = feedback if feedback is not None else LfsPlusPlus()
        controller_config = controller_config or TaskControllerConfig()
        pids = [proc.pid for proc in procs]

        key = self.supervisor.register(u_min=u_min, weight=weight)
        initial = self.supervisor.submit(key, feedback.initial_request(period_hint))
        server = self.scheduler.create_server(self._params(initial), name=f"srv-{name}")
        for proc in procs:
            self.scheduler.attach(proc, server)

        analyser: PeriodAnalyser | None = None
        if controller_config.use_period_estimate:
            analyser = PeriodAnalyser(analyser_config)
            members = frozenset(pids)

            def sink(batch: list[TraceEvent], now: int, _a=analyser) -> None:
                # the ring is shared, so any overwrite may have eaten this
                # task's events — surface the loss to the anomaly counters
                if self.tracer.last_overrun:
                    _a.note_overrun(self.tracer.last_overrun)
                _a.add_batch(
                    [e for e in batch if e.pid in members and e.kind is EventKind.SYSCALL_ENTRY],
                    now,
                )

            self.tracer.add_sink(sink)
            for pid in pids:
                self.tracer.trace_pid(pid)

        def sensor(_s=server) -> ServerSample:
            return ServerSample(consumed=_s.consumed, exhaustions=_s.exhaustions)

        controller = TaskController(
            name=name,
            feedback=feedback,
            analyser=analyser,
            supervisor=self.supervisor,
            supervisor_key=key,
            sensor=sensor,
            actuate=self._actuator(server),
            drain=(lambda now: self.tracer.drain(now)),
            config=controller_config,
        )
        if self._obs is not None:
            controller._obs = self._obs
        timer = self._activation_source(controller, controller_config, server, pids)
        task = AdoptedTask(
            proc=procs[0], server=server, controller=controller, analyser=analyser, timer=timer
        )
        for pid in pids:
            self.tasks[pid] = task
        return task

    def _activation_source(
        self,
        controller: TaskController,
        config: TaskControllerConfig,
        server: Server,
        pids: Iterable[int],
    ) -> object:
        """Arm what drives ``controller.activate``: a periodic kernel
        timer (the paper's clocked loop) or, with ``trigger="event"``, an
        :class:`~repro.core.events.EventDrivenLoop` listening to the
        server's exhaustion bursts and the pids' deadline misses."""
        if config.trigger == "event":
            from repro.core.events import EventDrivenLoop

            loop = EventDrivenLoop(
                self.kernel,
                controller,
                config.events,
                server=server,
                pids=frozenset(pids),
            )
            if self._obs is not None:
                loop._obs = self._obs
            loop.start()
            return loop
        return self.kernel.every(config.sampling_period, controller.activate)

    def _params(self, request: BandwidthRequest) -> ServerParams:
        """CBS parameters for a ``(Q, T)`` request under this runtime's policy."""
        return ServerParams(
            budget=request.budget, period=request.period, policy=self.reservation_policy
        )

    def _actuator(self, server: Server) -> Callable[[BandwidthRequest], None]:
        """The callback that applies each granted ``(Q, T)`` to ``server``."""

        def actuate(granted: BandwidthRequest) -> None:
            self.scheduler.set_params(server, self._params(granted))

        return actuate

    def add_static_reservation(self, proc: Process, budget: int, period: int) -> Server:
        """Attach ``proc`` to a fixed (non-adaptive) reservation.

        Used for the synthetic background real-time load of Table 2 /
        Table 3, whose parameters the experimenter fixes by hand.  The
        reservation is admitted through the supervisor like any other, so
        global compression (Eq. 1) applies when the system saturates.
        """
        request = BandwidthRequest(budget=budget, period=period)
        server = self.scheduler.create_server(self._params(request), name=f"static-{proc.name}")
        self.scheduler.attach(proc, server)
        actuate = self._actuator(server)
        # static reservations are guaranteed in full: compression must not
        # shrink them (their parameters were fixed by the experimenter),
        # so their bandwidth is registered as the guaranteed minimum
        key = self.supervisor.register(u_min=budget / period, actuate=actuate)
        actuate(self.supervisor.submit(key, request))
        return server

    def run(self, until: int) -> None:
        """Advance the simulation to absolute time ``until`` (ns)."""
        self.kernel.run(until)
