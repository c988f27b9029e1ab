"""The paper's low-overhead kernel tracer (``qtrace``).

Two cooperating pieces, exactly as in §4.1:

1. **kernel patch** — hooks on syscall entry/exit record a timestamp into a
   static circular buffer.  Tracing is *selective*: only a configured set
   of pids, and optionally only a configured subset of system calls, are
   logged ("it is possible to avoid the tracing of system calls that are
   totally unrelated with the scheduling events").  Each logged event costs
   a small, fixed amount of kernel CPU (:attr:`QTraceConfig.log_cost`),
   charged to the traced process — this is the "really negligible and hard
   to measure" in-kernel part of the overhead.

2. **user-space download agent** — a process that wakes periodically,
   drains the buffer through the character device, and hands the batch to
   whoever registered a sink (the period analyser).  The agent's CPU cost
   (fixed ioctl cost plus a per-event copy cost) and the context switches
   it induces are the measurable part of the Table 1 overhead.

The download agent is spawned with :meth:`QTracer.spawn_download_agent`;
for experiments that do not care about download overhead, call
:meth:`QTracer.drain` directly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.sim.instructions import SleepUntil, Syscall
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.syscalls import SyscallNr
from repro.sim.time import US
from repro.tracer.events import EventKind, RingBuffer, TraceEvent

#: Signature of a batch consumer registered with :meth:`QTracer.add_sink`.
BatchSink = Callable[[list[TraceEvent], int], None]

#: Signature of the optional download-path corruption stage
#: (:attr:`QTracer.tamper`): receives the drained batch and the download
#: time, returns the batch actually delivered to the sinks.
TamperHook = Callable[[list[TraceEvent], int], list[TraceEvent]]


@dataclass
class QTraceConfig:
    """Cost model and buffer sizing of the qtrace kernel patch."""

    #: circular-buffer capacity (events)
    buffer_capacity: int = 65536
    #: kernel CPU per logged event, ns (timestamp read + buffer store;
    #: calibrated for the paper's 800 MHz testbed)
    log_cost: int = 500
    #: fixed kernel CPU per download ioctl, ns
    download_fixed_cost: int = 8 * US
    #: per-event copy-to-user cost during a download, ns
    download_per_event_cost: int = 90
    #: whether syscall-exit events are logged in addition to entries
    record_exits: bool = True


class QTracer:
    """Selective kernel syscall tracer with batch download."""

    #: telemetry hub (:mod:`repro.obs`); None = disabled fast path.  One
    #: span per download (drain or agent ioctl) with buffer-occupancy and
    #: drop counters; strictly read-only — tracing costs are unchanged.
    _obs = None

    def __init__(self, config: QTraceConfig | None = None) -> None:
        self.config = config or QTraceConfig()
        self.buffer = RingBuffer(self.config.buffer_capacity)
        self._pids: set[int] = set()
        self._calls: set[SyscallNr] | None = None  # None = trace all calls
        self._sinks: list[BatchSink] = []
        #: per-(pid, syscall) entry counters, for Figure 4 statistics
        self.call_counts: dict[tuple[int, SyscallNr], int] = {}
        #: optional corruption stage applied to every downloaded batch
        #: before the sinks see it (:mod:`repro.faults` installs these);
        #: None = deliver batches verbatim
        self.tamper: TamperHook | None = None
        #: when True the download path is wedged: ``drain`` returns
        #: nothing and the agent skips its ioctl, so the kernel keeps
        #: overwriting oldest events (ring-overrun pressure)
        self.stalled = False
        #: events lost to ring overwrite across the whole run, as observed
        #: by the download path (buffer swaps preserve the count)
        self.overrun_total = 0
        #: events lost to overwrite since the previous download
        self.last_overrun = 0
        self._overruns_seen = 0
        #: kernels this tracer is attached to, told of traced-set changes
        self._kernels: list[Kernel] = []

    # ------------------------------------------------------------------
    # configuration (what the real patch accepts through the chardev)
    # ------------------------------------------------------------------
    def trace_pid(self, pid: int) -> None:
        """Start tracing process ``pid``."""
        self._pids.add(pid)
        for kernel in self._kernels:
            kernel.tracing_changed()

    def untrace_pid(self, pid: int) -> None:
        """Stop tracing process ``pid``."""
        self._pids.discard(pid)
        for kernel in self._kernels:
            kernel.tracing_changed()

    def set_syscall_filter(self, calls: Iterable[SyscallNr] | None) -> None:
        """Restrict logging to ``calls`` (``None`` restores trace-everything)."""
        self._calls = set(calls) if calls is not None else None

    def add_sink(self, sink: BatchSink) -> None:
        """Register a consumer for downloaded batches."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # TracerHook protocol (called by the kernel)
    # ------------------------------------------------------------------
    def bind(self, kernel: Kernel) -> None:
        self._kernels.append(kernel)

    def traces(self, proc: Process) -> bool:
        return proc.pid in self._pids

    def _wants(self, proc: Process, nr: SyscallNr) -> bool:
        if proc.pid not in self._pids:
            return False
        return self._calls is None or nr in self._calls

    def on_syscall_entry(self, proc: Process, nr: SyscallNr, now: int) -> int:
        if not self._wants(proc, nr):
            return 0
        self.buffer.push(TraceEvent(now, proc.pid, nr, EventKind.SYSCALL_ENTRY))
        key = (proc.pid, nr)
        self.call_counts[key] = self.call_counts.get(key, 0) + 1
        return self.config.log_cost

    def on_syscall_exit(self, proc: Process, nr: SyscallNr, now: int) -> int:
        if not self.config.record_exits or not self._wants(proc, nr):
            return 0
        self.buffer.push(TraceEvent(now, proc.pid, nr, EventKind.SYSCALL_EXIT))
        return self.config.log_cost

    # ------------------------------------------------------------------
    # download side
    # ------------------------------------------------------------------
    def _account_overrun(self) -> int:
        """Fold newly observed ring overwrites into the overrun counters.

        Returns the number of events lost since the previous download —
        the explicit overrun count each download surfaces instead of
        letting :attr:`RingBuffer.dropped` grow silently.
        """
        lost = self.buffer.dropped - self._overruns_seen
        self._overruns_seen = self.buffer.dropped
        self.last_overrun = lost
        self.overrun_total += lost
        return lost

    def overruns(self) -> int:
        """Lifetime events lost to ring overwrite, downloads included or not.

        Unlike :attr:`overrun_total` (which only advances when a download
        actually runs), this also counts losses the download path has not
        surfaced yet — e.g. overwrites piling up while :attr:`stalled`.
        """
        return self.overrun_total + (self.buffer.dropped - self._overruns_seen)

    def drain(self, now: int) -> list[TraceEvent]:
        """Drain the buffer and feed every sink (zero-cost, kernel-side).

        Use :meth:`spawn_download_agent` when the download cost itself is
        part of the experiment.  Returns the empty batch without touching
        the buffer while :attr:`stalled` is set.
        """
        if self.stalled:
            return []
        obs = self._obs
        occupancy = len(self.buffer) if obs is not None else 0
        batch = self.buffer.drain()
        overrun = self._account_overrun()
        if self.tamper is not None:
            batch = self.tamper(batch, now)
        for sink in self._sinks:
            sink(batch, now)
        if obs is not None:
            obs.tracer_download(
                now,
                now,
                batch=len(batch),
                occupancy=occupancy,
                dropped=self.buffer.dropped,
                overrun=overrun,
            )
        return batch

    def download_cost(self, batch_size: int) -> int:
        """CPU cost (ns) of downloading ``batch_size`` events."""
        return self.config.download_fixed_cost + batch_size * self.config.download_per_event_cost

    def spawn_download_agent(self, kernel: Kernel, period: int, *, name: str = "lfs++-dl") -> Process:
        """Create the user-space download process.

        Every ``period`` ns it issues an ioctl on the trace device (a real
        syscall, so it context-switches against the workload), burns the
        batch-size-dependent copy cost, and delivers the batch to the
        sinks.
        """

        tracer = self

        def agent():
            cycle = 0
            while True:
                cycle += 1
                now = yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(cycle * period))
                if tracer.stalled:
                    continue  # wedged: skip the ioctl, let the ring wrap
                started = now
                occupancy = len(tracer.buffer)
                batch = tracer.buffer.drain()
                overrun = tracer._account_overrun()
                cost = tracer.download_cost(len(batch))
                now = yield Syscall(SyscallNr.IOCTL, cost=cost)
                if tracer.tamper is not None:
                    batch = tracer.tamper(batch, now)
                for sink in tracer._sinks:
                    sink(batch, now)
                obs = tracer._obs
                if obs is not None:
                    obs.tracer_download(
                        started,
                        now,
                        batch=len(batch),
                        occupancy=occupancy,
                        dropped=tracer.buffer.dropped,
                        overrun=overrun,
                        cost_ns=cost,
                    )

        return kernel.spawn(name, agent())
