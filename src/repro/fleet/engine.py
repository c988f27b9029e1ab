"""The batched multi-sim engine, and the worker pool every fan-out runs on.

Naive fleet execution submits one pool task per sim; for the cheap,
fast-forwardable units a fleet is made of, pickling and task dispatch
then dominate wall-clock.  :func:`run_fleet` packs up to ``chunksize``
sims per task and folds :class:`~repro.fleet.summary.SimSummary`
objects as they arrive, so the parent's memory stays flat however large
the fleet is.

:class:`WorkerPool` is the one process pool in ``repro``: the fleet, the
tuner (one pool for every generation of a run) and the experiment
runner (registry and repetition sharding) all go through its
:meth:`~WorkerPool.map`.  It forks its workers on the first task and
reaps them when closed.  A lazy input, such as a fleet's chunk stream,
is read at most ``jobs × 2`` tasks ahead; a list is submitted whole, so
one slow task never idles the other workers.  A batch of at most
``jobs × chunksize`` sims is cut into ``jobs`` equal chunks, so a small
batch still reaches every worker; a longer stream keeps ``chunksize``.

Determinism: results come back, and chunks are folded, strictly in
input order whatever order the workers finish in, so ``jobs=N``
produces a byte-identical aggregate — and JSONL stream — to ``jobs=1``,
on a fresh pool or a reused one.  The engine itself never reads the
host clock; throughput timing belongs to its callers (the CLI and the
end-to-end benchmark under ``benchmarks/e2e``).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sized
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, TypeVar

from repro.fleet.build import run_sim
from repro.fleet.spec import ScenarioSpec
from repro.fleet.summary import FleetAggregate, SimSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

#: outstanding tasks per worker on a lazy input: enough to keep every
#: worker busy while the parent folds, small enough to bound parent
#: memory at ``O(jobs × chunksize)`` summaries
_WINDOW_PER_JOB = 2

T = TypeVar("T")


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
    """``jobs`` worker processes behind one order-preserving :meth:`map`.

    The workers are forked on the first task, never before, so a holder
    that ends up running nothing (a tune replayed from the cache, a
    sweep served from the result cache) costs no fork; with ``jobs=1``
    every task runs in process and nothing is ever forked.  :meth:`close`
    (or leaving a ``with`` block) cancels queued tasks, shuts the workers
    down and waits until they are reaped.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def map(self, fn: Callable[..., T], *iterables: Iterable[Any]) -> Iterator[T]:
        """``map(fn, *iterables)`` on the workers, results in input order.

        With ``jobs=1`` this is the builtin :func:`map`, in process.
        Otherwise, if every iterable is sized (a list), all of its tasks
        are submitted at once; a lazy input is read at most
        ``jobs × 2`` tasks ahead of the results taken.  ``fn`` and the
        arguments must pickle.
        """
        if self.jobs == 1:
            return map(fn, *iterables)
        sized = all(isinstance(it, Sized) for it in iterables)
        return self._ordered(fn, zip(*iterables), None if sized else self.jobs * _WINDOW_PER_JOB)

    def _ordered(
        self, fn: Callable[..., T], tasks: Iterator[tuple[Any, ...]], window: int | None
    ) -> Iterator[T]:
        pending: deque[Future[T]] = deque()
        for args in tasks:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            pending.append(self._executor.submit(fn, *args))
            if window is not None and len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    def close(self) -> None:
        """Cancel queued tasks, stop the workers and reap them."""
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
    try:
        chunks = _chunked(specs, pool.jobs, chunksize)
        results = pool.map(_run_chunk, chunks, itertools.repeat(fast_forward))
        for chunk_idx, summaries in enumerate(results):
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
    finally:
        if owned:
            pool.close()
        if out is not None:
            out.flush()
            if close_after:
                out.close()
    return aggregate
