"""Golden-trace digests: the simulator's bit-identity contract.

A digest is the SHA-256 over everything an optimisation PR must not
change about a run of a :mod:`repro.bench.scenarios` scenario:

- the full ``(pid, time)`` context-switch trace (via
  :attr:`repro.sim.kernel.Kernel.switch_hook`),
- the final virtual clock,
- per-process ``cpu_time`` / ``exit_time`` / ``syscall_count`` / state,
- the aggregate :class:`~repro.sim.kernel.KernelStats` counters.

:data:`GOLDEN_DIGESTS` pins the values produced by the pre-optimisation
simulator; ``tests/sim/test_golden_traces.py`` asserts them on every CI
run, so a hot-path change that perturbs even one context switch by one
nanosecond fails the build.
"""

from __future__ import annotations

import hashlib

from repro.bench.scenarios import GOLDEN_DURATION_NS, build_scenario


def attach_digest(kernel):
    """Install a switch-trace digest recorder on ``kernel``.

    Returns a ``finalize()`` callable: run the kernel (directly or
    through any wrapper such as ``SelfTuningRuntime.run``), then call it
    to fold the final clock, per-process state, and aggregate stats into
    the SHA-256 and get the hex digest.  This is the digest machinery
    behind :func:`golden_digest`, exposed so other bit-identity contracts
    (e.g. :mod:`repro.faults` zero-intensity transparency) can assert
    against the exact same fingerprint.
    """
    sha = hashlib.sha256()
    update = sha.update

    def record(proc, now: int) -> None:
        update(b"%d:%d;" % (proc.pid, now))

    kernel.switch_hook = record

    def finalize() -> str:
        update(b"|clock=%d" % kernel.clock)
        for pid in sorted(kernel.processes):
            p = kernel.processes[pid]
            exit_time = -1 if p.exit_time is None else p.exit_time
            update(
                b"|%d:%d:%d:%d:%s"
                % (pid, p.cpu_time, exit_time, p.syscall_count, p.state.value.encode())
            )
        s = kernel.stats
        update(
            b"|cs=%d,idle=%d,busy=%d,sys=%d,ev=%d"
            % (s.context_switches, s.idle_time, s.busy_time, s.syscalls, s.dispatched_events)
        )
        return sha.hexdigest()

    return finalize


def equivalence_digest(
    name: str, duration_ns: int = GOLDEN_DURATION_NS, *, fast_forward: bool = False
):
    """Run scenario ``name`` and digest trace + final state + metrics.

    Extends :func:`attach_digest` with per-process latency accumulators
    (count, total, max, and the exact float mean/std reprs) and every CBS
    server's counters and budget state (consumed, exhaustions, q,
    deadline, throttled), so the fast-forward extrapolation of
    :mod:`repro.sim.cycles` is held to the same bit-identity bar as the
    stepped simulation.

    Returns ``(digest, report)``; ``report`` is the
    :class:`repro.sim.cycles.FastForwardReport` when ``fast_forward`` is
    set, else ``None``.
    """
    kernel = build_scenario(name)
    finalize = attach_digest(kernel)
    report = None
    if fast_forward:
        from repro.sim.cycles import run_fast_forward

        report = run_fast_forward(kernel, duration_ns)
    else:
        kernel.run(duration_ns)
    sha = hashlib.sha256(finalize().encode())
    for pid in sorted(kernel.processes):
        lat = kernel.processes[pid].sched_latency
        sha.update(
            f"|lat:{pid}:{lat.n}:{lat.total}:{lat.max}:{lat.mean!r}:{lat.std!r}".encode()
        )
    # read from each CBS server itself, not through the fast-forward
    # surface (``cycle_counters``): a surface method gone missing would
    # blind both sides of the comparison alike
    servers = getattr(kernel.scheduler, "servers", {})
    for sid in sorted(servers):
        s = servers[sid]
        sha.update(
            f"|srv:{sid}:{s.consumed}:{s.exhaustions}:{s.q}:{s.deadline}:{s.throttled}".encode()
        )
    return sha.hexdigest(), report


def golden_digest(
    name: str, duration_ns: int = GOLDEN_DURATION_NS, *, telemetry: bool = False
) -> str:
    """Run scenario ``name`` and digest its trace and final state.

    ``telemetry=True`` attaches a :mod:`repro.obs` hub before the run;
    the digest must come out identical either way (the observability
    layer's read-only contract — asserted by the golden-trace tests).
    """
    kernel = build_scenario(name)
    if telemetry:
        from repro.obs.instrument import instrument_kernel

        instrument_kernel(kernel)
    finalize = attach_digest(kernel)
    kernel.run(duration_ns)
    return finalize()


#: digests recorded on the pre-optimisation simulator (the PR 1 tree);
#: regenerate ONLY for a change that intentionally alters simulation
#: results, and say so loudly in the PR description
GOLDEN_DIGESTS: dict[str, str] = {
    "cbs-hard": "0e37411658d0b696d0f93592a69a8b9577340e0b9ec43a978271a332ea047620",
    "cbs-soft": "7af1f4e809663cba37ba026dc9839384e3a70a6d38ac2c51885363e5dd6f8647",
    "cbs-background": "2a9500f40c0f0bd8c62ebe003cf6bd140d5e727b3ba333af9e2ba4434864457a",
    "edf": "64a64363f9ec2583678ae1ab38e1c11da4209f0aac6ef339fcea0a2d839883bb",
    "fp": "483abf53714f0d4ba4d74f8e2b51037ece3860746c13c4fca6345ac2de7b4faa",
    "stride": "0fdaa9967c60d47a5c41fcd11f4ce671dccb3e760e834d2c76dd0b33df7b656a",
    "rr": "f922c81fda9fe90a5435f3cd3cff19901dfacd322470bed2fc3b8ee80c7c4989",
}
