"""Call-graph engine tests: edges, effects, cycles, worker discovery."""

from __future__ import annotations

import ast

from repro.analysis.lint.callgraph import (
    EffectSummary,
    ProjectGraph,
    extract_module_facts,
)


def graph_of(sources: dict[str, str]) -> ProjectGraph:
    modules = [
        extract_module_facts(path, ast.parse(src, filename=path))
        for path, src in sources.items()
    ]
    return ProjectGraph(modules)


def test_three_hop_transitive_sim_write():
    g = graph_of(
        {
            "repro/sim/a.py": (
                "class Kernel:\n"
                "    def run(self):\n"
                "        self.step()\n"
                "    def step(self):\n"
                "        self.advance()\n"
                "    def advance(self):\n"
                "        self.now += 1\n"
            )
        }
    )
    run = g.effects["repro/sim/a.py::Kernel.run"]
    # three function hops plus the attribute sink marker
    assert run.sim_write_chain == (
        "repro/sim/a.py::Kernel.run",
        "repro/sim/a.py::Kernel.step",
        "repro/sim/a.py::Kernel.advance",
        "attr:now",
    )


def test_cross_module_edge_via_import():
    g = graph_of(
        {
            "repro/sim/kern.py": (
                "from repro.sim.helpers import poke\n"
                "def drive(state):\n"
                "    poke(state)\n"
            ),
            "repro/sim/helpers.py": (
                "def poke(state):\n"
                "    state.now = 0\n"
            ),
        }
    )
    drive = g.effects["repro/sim/kern.py::drive"]
    assert "repro/sim/helpers.py::poke" in drive.sim_write_chain


def test_cycle_tolerant_propagation_terminates():
    g = graph_of(
        {
            "repro/sim/cyc.py": (
                "def ping(n):\n"
                "    return pong(n - 1)\n"
                "def pong(n):\n"
                "    GLOBALS['n'] = n\n"
                "    return ping(n)\n"
                "GLOBALS = {}\n"
            )
        }
    )
    ping = g.effects["repro/sim/cyc.py::ping"]
    pong = g.effects["repro/sim/cyc.py::pong"]
    assert pong.global_write_chain is not None
    assert ping.global_write_chain is not None  # reached through the cycle
    # witness chains are finite even though the call graph is cyclic
    assert len(ping.global_write_chain) <= 4


def test_pure_function_classified_pure():
    g = graph_of(
        {
            "repro/sim/pure.py": (
                "def halve(x):\n"
                "    return x / 2\n"
                "def quarter(x):\n"
                "    return halve(halve(x))\n"
            )
        }
    )
    # no write and no RNG read is reachable from either: both summaries
    # are empty, reading the module-level `halve` binding included
    assert g.effects["repro/sim/pure.py::halve"] == EffectSummary()
    assert g.effects["repro/sim/pure.py::quarter"] == EffectSummary()


def test_init_self_writes_are_exempt():
    g = graph_of(
        {
            "repro/sim/obj.py": (
                "class Box:\n"
                "    def __init__(self):\n"
                "        self.items = []\n"
                "    def put(self, x):\n"
                "        self.items.append(x)\n"
            )
        }
    )
    init = g.effects["repro/sim/obj.py::Box.__init__"]
    put = g.effects["repro/sim/obj.py::Box.put"]
    assert init.sim_write_chain is None  # constructing a fresh object is pure-ish
    assert put.sim_write_chain is not None  # mutator method on an attribute is a write


def test_method_edges_resolve_through_self_mro():
    g = graph_of(
        {
            "repro/sched/pol.py": (
                "class Base:\n"
                "    def bump(self):\n"
                "        self.count += 1\n"
                "class Child(Base):\n"
                "    def tick(self):\n"
                "        self.bump()\n"
            )
        }
    )
    # Child.tick calls self.bump(); the owner-class MRO walk must
    # resolve it to the method inherited from Base
    tick = g.effects["repro/sched/pol.py::Child.tick"]
    assert "repro/sched/pol.py::Base.bump" in tick.sim_write_chain


def test_worker_discovery_map_fn_kwarg():
    facts = extract_module_facts(
        "repro/experiments/fx.py",
        ast.parse(
            "def unit(job):\n"
            "    return job\n"
            "def sweep(jobs, pool):\n"
            "    return pool.map(unit, jobs)\n"
            "def launch(runner, jobs):\n"
            "    return runner(map_fn=unit, jobs=jobs)\n"
        ),
    )
    assert any(ref.name == "unit" for ref in facts.workers)


def test_store_through_a_global_chain_writes_the_global():
    g = graph_of(
        {
            "repro/experiments/st.py": (
                "STATE = make()\n"
                "def flat(v):\n"
                "    STATE.x = v\n"
                "def deep(k, v):\n"
                "    STATE.items[k].x = v\n"
                "def local(obj, v):\n"
                "    obj.items[0].x = v\n"
            )
        }
    )
    for name in ("flat", "deep"):
        fid = f"repro/experiments/st.py::{name}"
        chain = g.effects[fid].global_write_chain
        assert chain == (fid, "global:repro/experiments/st.py::STATE")
    # a chain rooted in a parameter writes that object, not module state
    local = g.effects["repro/experiments/st.py::local"]
    assert local.global_write_chain is None
    assert local.sim_write_chain is not None
