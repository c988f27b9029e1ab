"""Host wall time per layer, measured by wrapping public boundaries from outside.

:class:`LayerTrace` is a context manager.  On entry it replaces each
boundary below with a timing wrapper, at class level for methods and in
every loaded ``repro`` module (and ``__main__``) that binds a function;
on exit it restores the originals.  Nothing under ``src/`` knows it ran.

- Coarse boundaries (kernel, ff, analysis, control, fleet, cache, tune)
  keep every span in memory; :meth:`LayerTrace.write_perfetto` writes
  them as a Chrome/Perfetto trace.
- Per-event boundaries (calendar, sched, tracer) fire millions of times
  and keep only per-boundary counters.
- A boundary's self time is its span minus the spans of the wrapped
  calls inside it.  The wrapper's own cost is calibrated on an empty
  function before install and subtracted: the part inside a span from
  that span, the part around it from the caller.
- ``pool`` is the cost of pickling what a process pool would ship: each
  ``build_sim`` spec and each ``summarise_kernel`` summary is pickled in
  the traced pass (which runs with ``jobs=1``) and the time is taken out
  of the fleet layer.
- ``other`` is the traced pass's time outside every boundary.

So the self times of :data:`SELF_TIME_METRICS` add up to the traced wall
minus the calibrated wrapper cost (``trace.wrapper_s``).  The kernel's
self time includes the workload generators: they cannot be wrapped from
outside, because the cycle-adapter registry is keyed by the generator
object.
"""

from __future__ import annotations

import importlib
import json
import pickle
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter_ns

#: layer -> (module, attribute) boundaries that keep every span
SPAN_BOUNDARIES = {
    "kernel": [("repro.sim.kernel", "Kernel.run")],
    "ff": [("repro.sim.cycles", "run_fast_forward")],
    "analysis": [("repro.core.analyser", "PeriodAnalyser.analyse")],
    "control": [
        ("repro.core.controller", "TaskController.activate"),
        ("repro.core.supervisor", "Supervisor.submit"),
        ("repro.core.supervisor", "Supervisor.watchdog"),
    ],
    "fleet": [
        ("repro.fleet.build", "build_sim"),
        ("repro.fleet.summary", "summarise_kernel"),
        ("repro.fleet.summary", "FleetAggregate.fold"),
    ],
    "cache": [
        ("repro.experiments.cache", "ResultCache.get"),
        ("repro.experiments.cache", "ResultCache.put"),
    ],
    "tune": [
        ("repro.tune.evaluate", "Evaluator.evaluate_batch"),
        ("repro.tune.service", "run_tune"),
    ],
}

#: layer -> per-event boundaries that keep counters only (``sched`` is
#: filled in at install time from every concrete scheduler class)
COUNT_BOUNDARIES = {
    "calendar": [
        ("repro.sim.engine", "EventQueue.push"),
        ("repro.sim.engine", "EventQueue.pop_due"),
        ("repro.sim.engine", "EventQueue.peek_time"),
    ],
    "tracer": [
        ("repro.tracer.qtrace", "QTracer.on_syscall_entry"),
        ("repro.tracer.qtrace", "QTracer.on_syscall_exit"),
        ("repro.tracer.qtrace", "QTracer.drain"),
    ],
}

SCHED_METHODS = ("pick", "charge", "time_until_internal_event", "on_ready", "on_block")

#: the metrics that partition a traced pass's wall time (minus wrapper cost)
SELF_TIME_METRICS = (
    "calendar.self_s",
    "sched.self_s",
    "kernel.self_s",
    "ff.self_s",
    "tracer.self_s",
    "analysis.self_s",
    "control.self_s",
    "fleet.build_s",
    "fleet.summarise_s",
    "fleet.fold_s",
    "pool.pickle_s",
    "cache.get_s",
    "cache.put_s",
    "tune.self_s",
    "other.self_s",
)


def _make_wrapper(fn, stats, stack, c_out, record=None, probe=None, trace=None, key=None):
    """A timing wrapper around ``fn``.

    ``stack`` holds one ``[child_ns, child_wrapper_ns]`` frame per open
    call; ``stats`` is ``[calls, self_ns, child_wrapper_ns]`` for this
    boundary.  ``c_out`` is the calibrated wrapper cost outside the
    measured interval, charged to the caller's frame.
    """
    clock = _clock
    if record is None and probe is None:

        def counting(*args, **kwargs):
            frame = [0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                parent[1] += c_out
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += frame[1]

        return counting

    def spanning(*args, **kwargs):
        frame = [0, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            finish = probe(trace, args) if probe is not None else None
            result = fn(*args, **kwargs)
            if finish is not None:
                finish(result, frame)
            return result
        finally:
            t1 = clock()
            stack.pop()
            parent = stack[-1]
            parent[0] += t1 - t0
            parent[1] += c_out
            stats[0] += 1
            stats[1] += t1 - t0 - frame[0]
            stats[2] += frame[1]
            if record is not None:
                record((key, t0, t1))

    return spanning


def _calibrate(spans: bool, n: int = 50_000, rounds: int = 5) -> tuple[float, float]:
    """Per-call wrapper cost ``(inside, outside)`` the measured interval, ns."""

    def empty(a, b):
        return None

    inside, outside = [], []
    for _ in range(rounds):
        stats = [0, 0, 0.0]
        wrapped = _make_wrapper(
            empty, stats, [[0, 0.0]], 0.0, record=[].append if spans else None
        )
        t0 = _clock()
        for _ in range(n):
            empty(1, 2)
        bare = _clock() - t0
        t0 = _clock()
        for _ in range(n):
            wrapped(1, 2)
        total = _clock() - t0 - bare
        c_in = max(stats[1] - bare, 0) / n
        inside.append(c_in)
        outside.append(max(total / n - c_in, 0.0))
    return statistics.median(inside), statistics.median(outside)


# -- probes: extra counters read around one call ------------------------


def _kernel_probe(trace, args):
    kernel = args[0]
    stats = kernel.stats
    events, switches, clock = stats.dispatched_events, stats.context_switches, kernel.clock

    def finish(result, frame):
        c = trace.counters
        c["kernel.events"] += stats.dispatched_events - events
        c["kernel.switches"] += stats.context_switches - switches
        c["kernel.sim_ns"] += kernel.clock - clock

    return finish


def _ff_probe(trace, args):
    horizon = args[1] - args[0].clock

    def finish(report, frame):
        c = trace.counters
        c["ff.detected"] += int(report.detected)
        c["ff.skipped_ns"] += report.skipped_ns
        c["ff.horizon_ns"] += horizon

    return finish


def _count_result(counter):
    def probe(trace, args):
        def finish(result, frame):
            trace.counters[counter] += result is not None

        return finish

    return probe


def _evaluations_probe(trace, args):
    trace.counters["tune.evaluations"] += len(args[1])
    return None


def _ship(trace, frame, obj) -> None:
    """Pickle what the pool would ship; bill it to ``pool``, not the caller."""
    t0 = _clock()
    size = len(pickle.dumps(obj))
    dt = _clock() - t0
    frame[0] += dt
    trace.pickle_ns += dt
    trace.counters["pool.payload_bytes"] += size


def _build_probe(trace, args):
    def finish(result, frame):
        _ship(trace, frame, args[0])

    return finish


def _summary_probe(trace, args):
    def finish(result, frame):
        _ship(trace, frame, result)

    return finish


PROBES = {
    "Kernel.run": _kernel_probe,
    "run_fast_forward": _ff_probe,
    "PeriodAnalyser.analyse": _count_result("analysis.estimates"),
    "ResultCache.get": _count_result("cache.hits"),
    "Evaluator.evaluate_batch": _evaluations_probe,
    "build_sim": _build_probe,
    "summarise_kernel": _summary_probe,
}


def _scheduler_classes():
    from repro.sched.base import Scheduler

    seen, todo = [], [Scheduler]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class LayerTrace:
    """Wrap the layer boundaries for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.cost = {"count": _calibrate(False), "span": _calibrate(True)}
        #: boundary key -> [calls, self_ns, child_wrapper_ns]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.c_in: dict[str, float] = {}
        self.stack: list[list] = [[0, 0.0]]
        self.spans: list[tuple[str, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.pickle_ns = 0
        self.t_start = self.t_end = 0
        self._undo: list = []

    # -- install / restore ------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, spans: bool):
        c_in, c_out = self.cost["span" if spans else "count"]
        self.stats[key] = stats = [0, 0, 0.0]
        self.layer_of[key] = layer
        self.c_in[key] = c_in
        return _make_wrapper(
            fn,
            stats,
            self.stack,
            c_out,
            record=self.spans.append if spans else None,
            probe=PROBES.get(key),
            trace=self,
            key=key,
        )

    def _patch_method(self, layer: str, cls, name: str, spans: bool) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", original, spans))
        self._undo.append(lambda: setattr(cls, name, original))

    def _patch_function(self, layer: str, fn, spans: bool) -> None:
        wrapper = self._wrap(layer, fn.__name__, fn, spans)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "__main__" or mod_name.startswith("repro")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                    self._undo.append(lambda ns=namespace, a=attr: ns.__setitem__(a, fn))

    def _patch(self, layer: str, module: str, attr: str, spans: bool) -> None:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, name = attr.split(".")
            self._patch_method(layer, getattr(owner, cls_name), name, spans)
        else:
            self._patch_function(layer, getattr(owner, attr), spans)

    def __enter__(self) -> LayerTrace:
        for layer, bounds in SPAN_BOUNDARIES.items():
            for module, attr in bounds:
                self._patch(layer, module, attr, spans=True)
        for layer, bounds in COUNT_BOUNDARIES.items():
            for module, attr in bounds:
                self._patch(layer, module, attr, spans=False)
        for cls in _scheduler_classes():
            for name in SCHED_METHODS:
                if isinstance(cls.__dict__.get(name), types.FunctionType):
                    self._patch_method("sched", cls, name, spans=False)
        self.t_start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.t_end = _clock()
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, float]:
        """The per-layer metrics of the traced block (seconds and counts)."""
        wall = self.t_end - self.t_start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, float] = defaultdict(float)
        own: dict[str, float] = {}
        wrapper_ns = self.stack[0][1]
        for key, (n, raw, child_wrapper) in self.stats.items():
            overhead = n * self.c_in[key] + child_wrapper
            own[key] = raw - overhead
            wrapper_ns += overhead
            calls[self.layer_of[key]] += n
            self_ns[self.layer_of[key]] += raw - overhead
        other = wall - self.stack[0][0] - self.stack[0][1]

        def n(key):
            return self.stats[key][0] if key in self.stats else 0

        def s(key):
            return own.get(key, 0.0) / 1e9

        c = self.counters
        gets = n("ResultCache.get")
        return {
            "calendar.ops": calls["calendar"],
            "calendar.self_s": self_ns["calendar"] / 1e9,
            "sched.calls": calls["sched"],
            "sched.self_s": self_ns["sched"] / 1e9,
            "kernel.self_s": self_ns["kernel"] / 1e9,
            "kernel.events": c["kernel.events"],
            "kernel.switches": c["kernel.switches"],
            "kernel.sim_ns": c["kernel.sim_ns"],
            "ff.attempts": calls["ff"],
            "ff.detected": c["ff.detected"],
            "ff.skipped_share": (
                c["ff.skipped_ns"] / c["ff.horizon_ns"] if c["ff.horizon_ns"] else 0.0
            ),
            "ff.self_s": self_ns["ff"] / 1e9,
            "tracer.calls": calls["tracer"],
            "tracer.self_s": self_ns["tracer"] / 1e9,
            "analysis.calls": calls["analysis"],
            "analysis.estimates": c["analysis.estimates"],
            "analysis.self_s": self_ns["analysis"] / 1e9,
            "control.activations": n("TaskController.activate"),
            "control.self_s": self_ns["control"] / 1e9,
            "fleet.sims": n("build_sim"),
            "fleet.build_s": s("build_sim"),
            "fleet.summarise_s": s("summarise_kernel"),
            "fleet.fold_s": s("FleetAggregate.fold"),
            "pool.payload_bytes": c["pool.payload_bytes"],
            "pool.pickle_s": self.pickle_ns / 1e9,
            "cache.gets": gets,
            "cache.hit_ratio": c["cache.hits"] / gets if gets else 0.0,
            "cache.get_s": s("ResultCache.get"),
            "cache.puts": n("ResultCache.put"),
            "cache.put_s": s("ResultCache.put"),
            "tune.evaluations": c["tune.evaluations"],
            "tune.batches": n("Evaluator.evaluate_batch"),
            "tune.self_s": self_ns["tune"] / 1e9,
            "other.self_s": other / 1e9,
            "trace.wall_s": wall / 1e9,
            "trace.wrapper_s": wrapper_ns / 1e9,
        }

    def write_perfetto(self, path: Path) -> None:
        """Write the coarse spans as a Chrome/Perfetto trace, one track per layer."""
        from repro.obs.export import chrome_trace
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        telemetry.span("host", "pass", "pass", 0, self.t_end - self.t_start)
        for key, t0, t1 in self.spans:
            telemetry.span("host", key, self.layer_of[key], t0 - self.t_start, t1 - self.t_start)
        doc = chrome_trace(telemetry)
        doc["otherData"]["clock"] = "host-ns"
        Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")
