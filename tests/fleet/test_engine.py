"""The engine's determinism contract and the build/run integration.

The load-bearing assertion: ``run_fleet(jobs=N)`` is byte-identical to
``jobs=1`` — same aggregate digest, same JSONL stream — because chunks
are folded strictly in fleet order regardless of completion order.
"""

import io
import itertools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.fleet import (
    engine,
    expand_template,
    parse_template,
    run_fleet,
    run_sim,
    scenario_from_toml,
)
from repro.fleet.engine import WorkerPool, _chunked
from repro.sim.process import _replay

TEMPLATE = """
[template]
name = "engine-test"
nodes = 6
seed = 40

[scenario]
horizon_ms = 800.0
miss_threshold_ms = 10.0

[scheduler]
kind = "cbs"
policy = "hard"

[[workload]]
kind = "periodic"
name = "p8"
count = 2
period_ms = 8.0
cost_ms = 0.5
budget_ms = 2.5
server_period_ms = 8.0

[grid]
"scheduler.policy" = ["hard", "soft"]
"""

PLAYERS = """
[scenario]
name = "players"
seed = 11
horizon_ms = 400.0

[scheduler]
kind = "edf"

[[workload]]
kind = "mplayer"
name = "audio"
count = 2

[[workload]]
kind = "vlc"
name = "video"
"""


def _specs(template=TEMPLATE):
    return expand_template(parse_template(template))


def test_jobs_1_vs_4_byte_identical():
    serial_stream, parallel_stream = io.StringIO(), io.StringIO()
    serial = run_fleet(_specs(), jobs=1, chunksize=3, stream=serial_stream)
    parallel = run_fleet(_specs(), jobs=4, chunksize=3, stream=parallel_stream)
    assert serial.digest() == parallel.digest()
    assert serial_stream.getvalue() == parallel_stream.getvalue()
    assert serial.sims == 12


def _run_first(n, **kwargs):
    stream = io.StringIO()
    aggregate = run_fleet(itertools.islice(_specs(), n), chunksize=3, stream=stream, **kwargs)
    assert aggregate.sims == n
    return aggregate.digest(), stream.getvalue()


@pytest.mark.parametrize("jobs", [2, 3])
def test_jobs_n_byte_identical_on_fresh_and_reused_pools(jobs):
    # around the chunk rule's edge: jobs x chunksize sims are split evenly
    # across the workers, one more keeps chunks of chunksize
    edge = jobs * 3
    sizes = [0, 1, 2, edge - 1, edge, edge + 1]
    serial = [_run_first(n) for n in sizes]
    assert [_run_first(n, jobs=jobs) for n in sizes] == serial
    with WorkerPool(jobs) as pool:
        assert [_run_first(n, pool=pool) for n in sizes] == serial


def test_chunks_are_sized_to_a_small_batch():
    def layout(n, jobs, chunksize):
        return [len(chunk) for chunk in _chunked(range(n), jobs, chunksize)]

    assert layout(14, 2, 16) == [7, 7]
    assert layout(5, 2, 16) == [3, 2]
    assert layout(1, 3, 16) == [1]
    assert layout(0, 2, 16) == []
    # fleet-sized streams keep chunksize: 32 = 2 x 16 splits the same way
    assert layout(32, 2, 16) == [16, 16]
    assert layout(36, 2, 16) == [16, 16, 4]
    # jobs=1 is chunksize-bounded either way
    assert layout(14, 1, 16) == [14]
    assert layout(20, 1, 16) == [16, 4]


def test_chunk_rule_reads_a_bounded_head_of_a_lazy_stream():
    pulled = []

    def stream():
        for i in itertools.count():
            pulled.append(i)
            yield i

    chunks = _chunked(stream(), 2, 3)
    assert next(chunks) == [0, 1, 2]
    assert len(pulled) == 2 * 3 + 1


def test_small_batch_spans_one_chunk_per_worker():
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    specs = list(_specs(TEMPLATE.replace("nodes = 6", "nodes = 7")))
    assert len(specs) == 14
    run_fleet(specs, jobs=2, chunksize=16, telemetry=telemetry)
    assert [s.args["sims"] for s in telemetry.spans if s.cat == "fleet"] == [7, 7]


def _finish_time(i: int) -> tuple[int, float]:
    # the first unit outlasts all the others, so another worker finishes them first
    time.sleep(0.3 if i == 0 else 0.0)
    return i, time.monotonic()


@pytest.mark.parametrize("jobs", [2, 3])
def test_map_returns_input_order_when_units_finish_out_of_order(jobs):
    n = 6
    with WorkerPool(jobs) as pool:
        results = list(pool.map(_finish_time, range(n)))
    assert [i for i, _ in results] == list(range(n))
    finished = [t for _, t in results]
    assert finished != sorted(finished)


@pytest.mark.parametrize("jobs", [2, 3])
def test_map_reads_a_lazy_input_two_tasks_per_worker_ahead(jobs):
    pulled = []

    def stream():
        for i in range(20):
            pulled.append(i)
            yield i

    with WorkerPool(jobs) as pool:
        results = pool.map(abs, stream())
        assert not pulled  # nothing is read before the first result is asked for
        assert next(results) == 0
        assert len(pulled) == 2 * jobs
        assert list(results) == list(range(1, 20))


def test_map_submits_a_list_whole_before_the_first_result(monkeypatch):
    submitted = []

    class SubmitSpy(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", SubmitSpy)
    with WorkerPool(2) as pool:
        results = pool.map(abs, list(range(10)))
        assert next(results) == 0
        assert len(submitted) == 10
        assert list(results) == list(range(1, 10))


def _pid(_: object) -> int:
    return os.getpid()


def test_map_at_jobs_1_runs_in_process_and_forks_nothing(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 constructed an executor")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    with WorkerPool(1) as pool:
        assert type(pool.map(_pid, range(3))) is map
        assert list(pool.map(_pid, range(3))) == [os.getpid()] * 3
        assert run_fleet(itertools.islice(_specs(), 3), pool=pool).sims == 3
    assert not multiprocessing.active_children()


def test_pool_forks_on_first_use_and_reaps_on_close():
    with WorkerPool(2) as pool:
        assert run_fleet([], pool=pool).sims == 0
        assert not multiprocessing.active_children()
        assert run_fleet(itertools.islice(_specs(), 2), pool=pool).sims == 2
        assert multiprocessing.active_children()
    assert not multiprocessing.active_children()


def test_chunksize_does_not_change_the_result():
    assert (
        run_fleet(_specs(), chunksize=1).digest()
        == run_fleet(_specs(), chunksize=5).digest()
        == run_fleet(_specs(), chunksize=100).digest()
    )


#: every sim here replays cycles whose latency samples take two values and
#: cross the 3 us miss threshold, so ff == full also checks the binning and
#: miss tally of skipped cycles (TEMPLATE's cycles are all one 2 us value)
MISSES = """
[template]
name = "ff-misses"
nodes = 2
seed = 90

[scenario]
horizon_ms = 2000.0
miss_threshold_ms = 0.003

[scheduler]
kind = "rr"

[[workload]]
kind = "periodic"
name = "p8"
count = 2
period_ms = 8.0
cost_ms = 2.0

[[workload]]
kind = "periodic"
name = "p16"
period_ms = 16.0
cost_ms = 5.0

[grid]
"scheduler.kind" = ["rr", "fp", "edf"]
"""


def _without_ff_fields(doc):
    for key in ("ff_detected", "cycles_skipped", "skipped_ns"):
        doc.pop(key)
        for group in doc.get("groups", {}).values():
            group.pop(key)
    return doc


#: periodic tasks without cost jitter under EDF, on nodes that differ only
#: by phase: some settle into the same cycle from the same transient and
#: share a Welford replay, and some do not
EDF_PERIODIC = """
[template]
name = "ff-edf"
nodes = 16
seed = 70

[scenario]
horizon_ms = 800.0
miss_threshold_ms = 10.0

[scheduler]
kind = "edf"

[[workload]]
kind = "periodic"
name = "p8"
count = 2
period_ms = 8.0
cost_ms = 1.0

[[workload]]
kind = "periodic"
name = "p16"
count = 2
period_ms = 16.0
cost_ms = 3.0

[jitter]
"workload.p8.phase_ms" = 4.0
"workload.p16.phase_ms" = 8.0
"""


def test_fast_forward_equals_full_stepping():
    for template in (TEMPLATE, EDF_PERIODIC):
        _replay.cache_clear()
        ff = run_fleet(_specs(template), fast_forward=True)
        replays = _replay.cache_info()
        full = run_fleet(_specs(template), fast_forward=False)
        assert ff.ff_detected == ff.sims  # purely periodic: every sim skips
        assert full.ff_detected == 0
        # skipped cycles were both served from the replay cache and computed
        assert replays.hits >= 1
        assert replays.misses >= 1
        assert _without_ff_fields(ff.to_jsonable()) == _without_ff_fields(full.to_jsonable())


def test_fast_forward_equals_full_stepping_with_misses(monkeypatch):
    from repro.fleet.summary import _SampleStats

    replayed: list[tuple[int, int]] = []
    add_cycles = _SampleStats.add_cycles

    def spy(self, samples, times):
        values = set(samples)
        replayed.append((len(values), sum(v > self.threshold for v in values)))
        add_cycles(self, samples, times)

    monkeypatch.setattr(_SampleStats, "add_cycles", spy)
    ff = run_fleet(_specs(MISSES), fast_forward=True)
    monkeypatch.undo()
    full = run_fleet(_specs(MISSES), fast_forward=False)
    # the preconditions that keep this test from passing trivially
    assert ff.sims == ff.ff_detected == 6
    assert max(distinct for distinct, _ in replayed) == 2
    assert any(missing for _, missing in replayed)
    assert 0 < full.misses < full.samples
    assert _without_ff_fields(ff.to_jsonable()) == _without_ff_fields(full.to_jsonable())


def test_stream_jsonl_shape(tmp_path):
    path = tmp_path / "out.jsonl"
    aggregate = run_fleet(_specs(), jobs=2, chunksize=4, stream=path)
    lines = path.read_text().splitlines()
    assert len(lines) == aggregate.sims
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records] == sorted(r["name"] for r in records)
    assert sum(r["samples"] for r in records) == aggregate.samples


def test_telemetry_spans_per_chunk():
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    run_fleet(_specs(), chunksize=5, telemetry=telemetry)
    fleet_spans = [s for s in telemetry.spans if s.cat == "fleet"]
    assert len(fleet_spans) == 3  # 12 sims / chunksize 5 -> 3 chunks


def test_run_sim_repeatable_and_player_mix_builds():
    spec = scenario_from_toml(PLAYERS)
    a, b = run_sim(spec), run_sim(spec)
    assert a == b
    assert a.procs == 4  # 2 mplayer + vlc decoder/output pair
    assert a.samples > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_fleet([], jobs=0)
    with pytest.raises(ValueError):
        run_fleet([], chunksize=0)
    assert run_fleet([]).sims == 0


ADAPTIVE = """
[scenario]
name = "adaptive"
seed = 21
horizon_ms = 1500.0
miss_threshold_ms = 5.0

[scheduler]
kind = "cbs"
policy = "hard"

[controller]
law = "lfspp"
spread = 0.15
sampling_period_ms = 100.0

[[workload]]
kind = "mplayer"
name = "mp3"
adaptive = true

[[workload]]
kind = "periodic"
name = "bg"
period_ms = 10.0
cost_ms = 1.0
budget_ms = 1.5
server_period_ms = 10.0
"""

#: the controller woken by exhaustion bursts instead of a fixed period
EVENT_TRIGGER = """
[scenario]
name = "event-trigger"
seed = 31
horizon_ms = 3000.0
miss_threshold_ms = 10.0

[controller]
law = "lfspp"
trigger = "event"
burst_threshold = 2
burst_window_ms = 200.0
refractory_ms = 40.0
fallback_floor_ms = 300.0

[[workload]]
kind = "mplayer"
name = "audio"
adaptive = true

[[workload]]
kind = "periodic"
name = "p10"
period_ms = 10.0
cost_ms = 2.0
budget_ms = 3.0
server_period_ms = 10.0
"""


class TestAdaptiveBuild:
    def test_adaptive_run_is_repeatable(self):
        a = run_sim(scenario_from_toml(ADAPTIVE))
        b = run_sim(scenario_from_toml(ADAPTIVE))
        assert a.to_jsonable() == b.to_jsonable()

    def test_closed_loop_never_fast_forwards(self):
        # even when explicitly requested: the controller keeps perturbing
        # the schedule, so there is no repeatable cycle to skip
        summary = run_sim(scenario_from_toml(ADAPTIVE), fast_forward=True)
        assert summary.ff_detected is False

    def test_controller_parameters_change_the_outcome(self):
        base = run_sim(scenario_from_toml(ADAPTIVE))
        wide = run_sim(
            scenario_from_toml(ADAPTIVE.replace("spread = 0.15", "spread = 0.45"))
        )
        assert base.to_jsonable() != wide.to_jsonable()

    def test_lfs_baseline_differs_from_lfspp(self):
        lfspp = run_sim(scenario_from_toml(ADAPTIVE))
        lfs = run_sim(scenario_from_toml(ADAPTIVE.replace('law = "lfspp"', 'law = "lfs"')))
        assert lfspp.to_jsonable() != lfs.to_jsonable()

    def test_adaptive_fleet_jobs_independent(self):
        specs = [
            scenario_from_toml(ADAPTIVE.replace('seed = 21', f'seed = {s}'))
            for s in (1, 2, 3, 4)
        ]
        event = scenario_from_toml(EVENT_TRIGGER)
        assert event.controller.trigger == "event"
        specs += [event, event]
        serial = run_fleet(specs, jobs=1)
        parallel = run_fleet(specs, jobs=2)
        assert serial.digest() == parallel.digest()
