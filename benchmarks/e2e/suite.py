"""The end-to-end benchmark's workloads, and the worker process that runs them.

``run.py`` starts this file in a fresh interpreter for every setup probe
and every measuring run::

    python3 benchmarks/e2e/suite.py --workload fleet-cdn --seed 0 \\
        --mode measure --seconds 25

The worker starts sampling the host's speed (``speed.py``), sets its
workload up (imports, frozen inputs from ``workloads/``,
``package_digest``), prints ``ready``, and then:

- ``--mode setup`` stops, so the parent can time spawn -> ready;
- ``--mode measure`` runs untraced passes for about ``--seconds``, each
  with the workload's own ``jobs``;
- ``--mode trace`` runs one untraced pass with a two-worker pool, one
  untraced and one traced pass at ``jobs=1`` (see ``layers.py``), and
  writes the traced pass's spans as a Perfetto trace under
  ``benchmarks/e2e/.scratch/``.

Every pass reports its ``slowness``: the host's speed sampled during it,
in this process and in its pool workers.  The worker ends by printing
one JSON line, with the slowness of its set-up as ``setup_slowness``.
A pass that raises or fails an output check is reported with an
``error`` and never stops the worker; ``run.py`` counts its operations
as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "workloads"
#: scratch space (result caches, Perfetto traces), ignored by git
SCRATCH = HERE / ".scratch"
#: pool size of the fleet and tune workloads' passes, and of the traced
#: run's pool pass: the sizing host's core count
POOL_JOBS = 2


class WrongOutput(AssertionError):
    """A pass finished but its output failed a correctness check."""


def _sha256_json(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Fig13Playback:
    """The paper's closed loop: fig13 playback under LFS and under LFS++."""

    name = "fig13-playback"
    #: ``fig13.run`` plays both laws in this process
    jobs = 1

    def __init__(self, seed: int, toy: bool) -> None:
        from repro.experiments import fig13

        self._fig13 = fig13
        self.n_frames = 40 if toy else 300
        # a 40-frame clip is all start-up transient: LFS drops frames there
        self.check_playback = not toy
        self.seed = 13 + seed
        #: one operation = one playback
        self.ops = 2

    def run_pass(self, jobs: int) -> dict:
        result = self._fig13.run(n_frames=self.n_frames, seed=self.seed)
        for row in result.rows if self.check_playback else ():
            # §5.4: both laws play every frame of the 25 fps video at ~40 ms
            if abs(row["ift_mean_ms"] - 40.0) > 2.0:
                raise WrongOutput(f"{row['law']}: mean inter-frame {row['ift_mean_ms']} ms")
        for series in result.series if self.check_playback else ():
            if series.name.startswith("ift_ms[") and len(series.y) != self.n_frames - 1:
                raise WrongOutput(f"{series.name}: {len(series.y) + 1} frames shown")
        return {"digest": _sha256_json(result.rows), "sims": 2}


class FleetRun:
    """The first ``sims`` scenarios of a frozen fleet template."""

    jobs = POOL_JOBS

    def __init__(
        self, name: str, template: str, sims: int, seed: int, toy: bool, all_fast_forward: bool
    ) -> None:
        import repro.fleet

        self.name = name
        self._fleet = repro.fleet
        self.template = repro.fleet.load_template(INPUTS / template)
        self.template.seed += seed
        self.sims = 6 if toy else sims
        self.all_fast_forward = all_fast_forward
        #: one operation = one sim
        self.ops = self.sims

    def run_pass(self, jobs: int) -> dict:
        specs = itertools.islice(self._fleet.expand_template(self.template), self.sims)
        agg = self._fleet.run_fleet(specs, jobs=jobs, fast_forward=True)
        if agg.sims != self.sims:
            raise WrongOutput(f"{agg.sims} of {self.sims} sims folded")
        if self.all_fast_forward and agg.ff_detected != agg.sims:
            raise WrongOutput(f"cycle detected in {agg.ff_detected} of {agg.sims} sims")
        return {"digest": agg.digest(), "sims": agg.sims, "ff_detected": agg.ff_detected}


class TuneDemo:
    """One cold tune into a fresh result cache, then warm replays from it.

    A pass reports the replays' total as its ``wall_s`` and the cold
    tune's time as its ``sim_wall_s``, each with the host's slowness
    during that phase, so each phase has its own bounded end-to-end
    metric: ``wall_s`` for cache reads, ``sims_per_s`` for simulation
    and cache writes.
    """

    name = "tune-demo"
    jobs = POOL_JOBS

    def __init__(self, seed: int, toy: bool) -> None:
        from repro.experiments.cache import ResultCache
        from repro.tune import service

        self._cache = ResultCache
        # looked up per call, so a traced pass goes through the wrapper
        self._service = service
        spec = service.load_tune_spec(INPUTS / "controller-demo.toml")
        budget = 4 if toy else spec.budget
        self.spec = dataclasses.replace(spec, seed=spec.seed + seed, budget=budget)
        self.replays = 2 if toy else 50
        #: one operation = one tune run, cold or replayed
        self.ops = 1 + self.replays

    def run_pass(self, jobs: int) -> dict:
        SCRATCH.mkdir(exist_ok=True)
        root = tempfile.mkdtemp(prefix="tune-cache-", dir=SCRATCH)
        try:
            start = speed.reading()
            t0 = time.perf_counter()
            cold = self._service.run_tune(self.spec, jobs=jobs, cache=self._cache(root))
            cold_s = time.perf_counter() - t0
            cold_end = speed.reading()
            digest = _sha256_json(cold.payload)
            replay_s = []
            for _ in range(self.replays):
                t0 = time.perf_counter()
                warm = self._service.run_tune(self.spec, jobs=jobs, cache=self._cache(root))
                replay_s.append(time.perf_counter() - t0)
                if warm.sims_run or _sha256_json(warm.payload) != digest:
                    raise WrongOutput(f"replay ran {warm.sims_run} sims or changed the payload")
            replay_slowness = speed.slowness(cold_end)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {
            "digest": digest,
            "sims": cold.sims_run,
            "wall_s": sum(replay_s),
            "slowness": replay_slowness,
            "sim_wall_s": cold_s,
            "sim_slowness": speed.slowness(start, cold_end),
            "cold_s": cold_s,
            "replay_s": statistics.median(replay_s),
        }


WORKLOADS = {
    "fig13-playback": Fig13Playback,
    "fleet-cdn": lambda seed, toy: FleetRun(
        "fleet-cdn", "streaming-cdn.toml", 32, seed, toy, all_fast_forward=False
    ),
    "fleet-periodic": lambda seed, toy: FleetRun(
        "fleet-periodic", "fleet-periodic.toml", 36, seed, toy, all_fast_forward=True
    ),
    "tune-demo": TuneDemo,
}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_pass(workload, jobs: int) -> dict:
    """Run one pass; never raises (a failure becomes an ``error`` entry)."""
    self0, kids0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    start = speed.reading()
    t0 = time.perf_counter()
    try:
        out = workload.run_pass(jobs)
    except Exception:
        traceback.print_exc()
        out = {"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}
    wall = time.perf_counter() - t0
    slowness = speed.slowness(start)
    out.setdefault("wall_s", wall)
    out.setdefault("slowness", slowness)
    out.setdefault("sim_wall_s", wall)
    out.setdefault("sim_slowness", slowness)
    out.update(
        pass_s=wall,
        pass_slowness=slowness,
        jobs=jobs,
        ops=workload.ops,
        cpu_self_s=_cpu_s(resource.RUSAGE_SELF) - self0,
        cpu_children_s=_cpu_s(resource.RUSAGE_CHILDREN) - kids0,
    )
    return out


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(workload, seconds: float) -> dict:
    """Untraced passes at the workload's ``jobs`` for about ``seconds``.

    Another pass starts only if, as long as the last one, it would end
    no later than half a pass after ``seconds``, so a run's processes
    end on time on average.  The peak RSS is taken after the first
    pass: the heap keeps growing slowly over repeated passes, so a later
    reading would depend on how many passes the host's speed allowed.
    """
    passes = []
    end = time.perf_counter() + seconds
    while True:
        passes.append(timed_pass(workload, workload.jobs))
        passes[-1]["measured"] = True
        if len(passes) == 1:
            peak_rss_mb = _maxrss_mb(resource.RUSAGE_SELF)
        if time.perf_counter() + passes[-1]["pass_s"] / 2 > end:
            return {"passes": passes, "peak_rss_mb": peak_rss_mb}


def trace(workload, seed: int) -> dict:
    """Pool pass, serial pass, traced serial pass, and the layer table.

    The untraced pass at the workload's own ``jobs`` is marked
    ``measured``, so the run's end-to-end metrics come from it.
    """
    from layers import LayerTrace

    pooled = timed_pass(workload, POOL_JOBS)
    serial = timed_pass(workload, 1)
    for p in (pooled, serial):
        p["measured"] = p["jobs"] == workload.jobs
    tracer = LayerTrace()
    with tracer:
        traced = timed_pass(workload, 1)
    traced["traced"] = True
    SCRATCH.mkdir(exist_ok=True)
    tracer.write_perfetto(SCRATCH / f"{workload.name}-seed{seed}.perfetto.json")

    layers = tracer.table()
    # the traced pass must see every cycle the untraced one detected
    traced["ff_traced"] = layers["ff.detected"]
    layers.update(
        {
            "pool.worker_util": pooled["cpu_children_s"] / (pooled["pass_s"] * POOL_JOBS),
            "pool.parent_cpu_s": pooled["cpu_self_s"],
            "pool.child_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
            "tune.cold_s": serial.get("cold_s", 0.0),
            "tune.replay_s": serial.get("replay_s", 0.0),
            "trace.untraced_s": serial["pass_s"],
            # each pass over the host's slowness during it
            "trace.overhead_ratio": (traced["pass_s"] / traced["pass_slowness"])
            / (serial["pass_s"] / serial["pass_slowness"]),
        }
    )
    return {
        "passes": [pooled, serial, traced],
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    speed.start()
    try:
        from repro.experiments.cache import package_digest

        workload = WORKLOADS[args.workload](args.seed, args.toy)
        package_digest()
        # the host's speed during set-up, to scale this process's setup_s by
        setup_slowness = speed.slowness((0.0, 0.0))
        print("ready", flush=True)
        if args.mode == "setup":
            out = {}
        elif args.mode == "measure":
            out = measure(workload, args.seconds)
        else:
            out = trace(workload, args.seed)
    finally:
        speed.stop()
    out["setup_slowness"] = setup_slowness
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
