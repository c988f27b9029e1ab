"""The batched multi-sim engine: chunked dispatch + streaming fold.

Naive fleet execution submits one pool task per sim; for the cheap,
fast-forwardable units a fleet is made of, pickling and task dispatch
then dominate wall-clock.  This engine packs up to ``chunksize`` sims
per task, warms each worker once (imports and construction memos — see
:mod:`repro.fleet.build`), and keeps at most ``jobs × 2`` chunks in
flight, so the parent folds :class:`~repro.fleet.summary.SimSummary`
objects as they arrive and its memory stays flat however large the
fleet is.

Workers live in a :class:`WorkerPool`, which forks them on the first
chunk it is handed and reaps them when closed.  :func:`run_fleet`
always goes through one: its own, closed when the call returns, or one
a caller holds across many calls, as the tuner does for every
generation of a run.  A batch of at most ``jobs × chunksize`` sims is
cut into ``jobs`` equal chunks, so a small batch still reaches every
worker; a longer stream keeps ``chunksize``.

Determinism: chunks are submitted, completed-waited and folded strictly
in fleet order (``ProcessPoolExecutor`` futures are drained FIFO), so
``jobs=N`` produces a byte-identical aggregate — and JSONL stream — to
``jobs=1``, on a fresh pool or a reused one.  The engine itself never
reads the host clock; throughput timing belongs to its callers (the CLI
and the ``fleet`` micro benchmark).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.fleet.build import run_sim
from repro.fleet.spec import ScenarioSpec
from repro.fleet.summary import FleetAggregate, SimSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

#: outstanding chunks per worker: enough to keep every worker busy while
#: the parent folds, small enough to bound parent memory at
#: ``O(jobs × chunksize)`` summaries
_WINDOW_PER_JOB = 2


def _warm_worker() -> None:
    """Pool initializer: pay the heavy imports once per worker process."""
    import repro.fleet.build  # noqa: F401  (pulls sim, sched, workloads, numpy)


# repro: allow[CC001]  -- reaches the idempotent cycle-adapter registry; deterministic per process
def _run_chunk(specs: list[ScenarioSpec], fast_forward: bool) -> list[SimSummary]:
    """Worker-side body: run one chunk of sims, return compact summaries."""
    return [run_sim(spec, fast_forward=fast_forward) for spec in specs]


def _chunked(
    specs: Iterable[ScenarioSpec], jobs: int, chunksize: int
) -> Iterator[list[ScenarioSpec]]:
    """Split a (possibly lazy) spec stream into the chunks a run submits.

    A stream that ends within ``jobs × chunksize`` specs is cut into
    ``jobs`` chunks of ⌈n / jobs⌉, so every worker gets a share of a
    small batch; a longer one into chunks of ``chunksize``.  At most
    ``jobs × chunksize + 1`` specs are read ahead to tell the two apart.
    """
    it = iter(specs)
    head = list(itertools.islice(it, jobs * chunksize + 1))
    if len(head) <= jobs * chunksize:
        size = max(1, -(-len(head) // jobs))
        it = iter(head)
    else:
        size = chunksize
        it = itertools.chain(head, it)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


class WorkerPool:
    """``jobs`` warmed worker processes that serve any number of fleet runs.

    The workers are forked on the first chunk submitted, never before,
    so a holder that ends up running nothing (a tune replayed from the
    cache) costs no fork; with ``jobs=1`` :func:`run_fleet` runs in
    process and nothing is ever forked.  :meth:`close` (or leaving a
    ``with`` block) shuts the workers down and waits until they are
    reaped.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def submit(self, specs: list[ScenarioSpec], fast_forward: bool) -> Future[list[SimSummary]]:
        """Queue one chunk on the workers, forking them on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs, initializer=_warm_worker)
        return self._executor.submit(_run_chunk, specs, fast_forward)

    def close(self) -> None:
        """Cancel queued chunks, stop the workers and reap them."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_fleet(
    specs: Iterable[ScenarioSpec],
    *,
    jobs: int = 1,
    chunksize: int = 16,
    fast_forward: bool = True,
    stream: str | Path | IO[str] | None = None,
    telemetry: Telemetry | None = None,
    pool: WorkerPool | None = None,
) -> FleetAggregate:
    """Run every scenario in ``specs`` and fold the summaries.

    ``specs`` may be a lazy generator (template expansion) — it is
    consumed chunk by chunk, never materialised.  ``stream`` (a path or
    text file object) receives one strict-JSON line per finished sim, in
    fleet order.  ``telemetry`` gets one span per folded chunk on the
    ``fleet`` track, spanning the cumulative simulated-ns interval the
    chunk contributed.

    ``jobs`` / ``chunksize`` choose the execution strategy and cannot
    change the result.  A chunk holds ``chunksize`` sims, except that a
    fleet of ``n <= jobs × chunksize`` sims is cut into ``jobs`` chunks
    of ⌈n / jobs⌉, so a small fleet still keeps every worker busy.
    ``pool`` runs the fleet on a caller-held :class:`WorkerPool`, whose
    width then replaces ``jobs``; without one, the call starts its own
    and closes it before returning.
    """
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    owned = pool is None
    if pool is None:
        pool = WorkerPool(jobs)
    aggregate = FleetAggregate()
    out: IO[str] | None
    close_after = False
    if stream is None:
        out = None
    elif hasattr(stream, "write"):
        out = stream  # type: ignore[assignment]
    else:
        out = open(stream, "w", encoding="utf-8")
        close_after = True
    chunk_idx = 0

    def _fold(summaries: list[SimSummary]) -> None:
        nonlocal chunk_idx
        span_start = aggregate.simulated_ns
        for summary in summaries:
            aggregate.fold(summary)
            if out is not None:
                line = json.dumps(summary.to_jsonable(), sort_keys=True, separators=(",", ":"))
                out.write(line + "\n")
        if telemetry is not None:
            telemetry.span(
                "fleet",
                f"chunk{chunk_idx}",
                "fleet",
                span_start,
                aggregate.simulated_ns,
                sims=len(summaries),
                misses=aggregate.misses,
            )
        chunk_idx += 1

    try:
        chunks = _chunked(specs, pool.jobs, chunksize)
        if pool.jobs == 1:
            for chunk in chunks:
                _fold(_run_chunk(chunk, fast_forward))
        else:
            window = pool.jobs * _WINDOW_PER_JOB
            pending: deque[Future[list[SimSummary]]] = deque()
            for chunk in chunks:
                pending.append(pool.submit(chunk, fast_forward))
                if len(pending) >= window:
                    _fold(pending.popleft().result())
            while pending:
                _fold(pending.popleft().result())
    finally:
        if owned:
            pool.close()
        if out is not None:
            out.flush()
            if close_after:
                out.close()
    return aggregate
