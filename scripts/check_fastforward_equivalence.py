#!/usr/bin/env python
"""CI gate: fast-forward runs must be bit-identical to full stepping.

Four assertions, one per row of the fast-forward contract
(``docs/fast-forward.md``):

1. **Eligible scenarios skip and match.**  Every purely periodic
   scenario run with the fast path on must detect a schedule cycle,
   skip at least one, and produce an equivalence digest (switch trace +
   final state + latency floats + scheduler counters) equal to the full
   run's.
2. **Golden scenarios are untouched.**  Every golden scenario must make
   the fast path bow out (jittered finite workloads, astronomic LCM)
   and still come out digest-equal — transparency of the disabled path.
3. **Fault plans force the slow path.**  A kernel carrying a fault
   plan, even a zero-intensity one, must auto-disable fast-forward and
   run bit-identically to a plain run.
4. **Observer hooks force the slow path.**  A kernel latency hook or a
   CBS server exhaustion hook would miss every call of a skipped span,
   so either must disable fast-forward and see exactly the call
   sequence of a plain run.

Usage: ``PYTHONPATH=src python scripts/check_fastforward_equivalence.py``
from the repo root; exits non-zero with one line per violation.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.golden import attach_digest, equivalence_digest  # noqa: E402
from repro.bench.scenarios import (  # noqa: E402
    GOLDEN_SCENARIOS,
    PERIODIC_SCENARIOS,
    build_scenario,
)
from repro.sim.cycles import run_fast_forward  # noqa: E402
from repro.sim.time import SEC  # noqa: E402

#: horizon for the periodic scenarios — long enough that every mix
#: detects its cycle and skips a sizeable span
PERIODIC_HORIZON_NS = 1 * SEC


def check_periodic(problems: list[str]) -> None:
    for name in sorted(PERIODIC_SCENARIOS):
        full, _ = equivalence_digest(name, PERIODIC_HORIZON_NS, fast_forward=False)
        ff, report = equivalence_digest(name, PERIODIC_HORIZON_NS, fast_forward=True)
        assert report is not None
        if not report.detected:
            problems.append(f"{name}: no schedule cycle detected ({report.reason})")
        elif report.cycles_skipped <= 0:
            problems.append(f"{name}: cycle detected but nothing skipped")
        if ff != full:
            problems.append(f"{name}: fast-forward digest {ff} != full digest {full}")
        status = (
            f"skipped {report.cycles_skipped} cycles ({report.skipped_ns} ns)"
            if report.detected
            else f"not detected ({report.reason})"
        )
        print(f"  {name:28s} {'OK' if ff == full else 'MISMATCH'}: {status}")


def check_golden(problems: list[str]) -> None:
    for name in sorted(GOLDEN_SCENARIOS):
        full, _ = equivalence_digest(name, fast_forward=False)
        ff, report = equivalence_digest(name, fast_forward=True)
        assert report is not None
        if report.enabled or report.detected:
            problems.append(
                f"{name}: fast path stayed armed on a golden scenario "
                f"(enabled={report.enabled}, detected={report.detected})"
            )
        if ff != full:
            problems.append(f"{name}: digest changed under --fast-forward")
        print(f"  {name:28s} {'OK' if ff == full else 'MISMATCH'}: disabled ({report.reason})")


def check_fault_plan_disable(problems: list[str]) -> None:
    from repro.faults.plan import FaultPlan

    name = "periodic-rr"
    k_full = build_scenario(name)
    fin_full = attach_digest(k_full)
    k_full.run(PERIODIC_HORIZON_NS)

    k_ff = build_scenario(name)
    k_ff.fault_plan = FaultPlan.burst(0, PERIODIC_HORIZON_NS, 0.0)
    fin_ff = attach_digest(k_ff)
    report = run_fast_forward(k_ff, PERIODIC_HORIZON_NS)
    if report.enabled:
        problems.append("zero-intensity fault plan did not disable fast-forward")
    if report.reason != "fault plan attached":
        problems.append(f"unexpected disable reason: {report.reason!r}")
    digest_full, digest_ff = fin_full(), fin_ff()
    if digest_full != digest_ff:
        problems.append(
            f"faulted-kernel fallback diverged: {digest_ff} != {digest_full}"
        )
    print(
        f"  {name + ' (fault plan)':28s} "
        f"{'OK' if digest_full == digest_ff and not report.enabled else 'MISMATCH'}: "
        f"disabled ({report.reason})"
    )


def _latency_hook(kernel, calls: list) -> None:
    kernel.latency_hook = lambda proc, latency, now: calls.append((proc.pid, latency, now))


def _exhaustion_hooks(kernel, calls: list) -> None:
    servers = kernel.scheduler.servers
    for sid in sorted(servers):
        servers[sid].exhaustion_hook = lambda server, now: calls.append((server.sid, now))


#: (scenario, hook, attach) — each scenario fires its hook every few jobs
HOOKS = (
    ("periodic-cbs-hard", "latency hook", _latency_hook),
    ("periodic-cbs-background", "exhaustion hook", _exhaustion_hooks),
)


def check_hook_disable(problems: list[str]) -> None:
    for name, hook, attach in HOOKS:
        calls_full: list = []
        k_full = build_scenario(name)
        attach(k_full, calls_full)
        k_full.run(PERIODIC_HORIZON_NS)

        calls_ff: list = []
        k_ff = build_scenario(name)
        attach(k_ff, calls_ff)
        report = run_fast_forward(k_ff, PERIODIC_HORIZON_NS)
        if not calls_full:
            problems.append(f"{name}: the {hook} never fired, so this row checks nothing")
        if report.enabled:
            problems.append(f"{name}: an attached {hook} did not disable fast-forward")
        if calls_ff != calls_full:
            problems.append(
                f"{name}: the {hook} saw {len(calls_ff)} calls fast-forwarded "
                f"against {len(calls_full)} stepped"
            )
        ok = bool(calls_full) and calls_ff == calls_full and not report.enabled
        print(
            f"  {name:28s} {'OK' if ok else 'MISMATCH'}: {hook} saw "
            f"{len(calls_ff)} calls, disabled ({report.reason})"
        )


def main() -> int:
    problems: list[str] = []
    print("periodic scenarios (fast path must detect, skip and match):")
    check_periodic(problems)
    print("golden scenarios (fast path must bow out and match):")
    check_golden(problems)
    print("fault-plan transparency (zero intensity must force the slow path):")
    check_fault_plan_disable(problems)
    print("observer hooks (an attached hook must force the slow path):")
    check_hook_disable(problems)
    if problems:
        print(f"\n{len(problems)} violation(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nfast-forward equivalence: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
