"""Template expansion: lazy, deterministic, grid x nodes complete."""

import itertools

import pytest

from repro.fleet import expand_template, parse_template
from repro.fleet.spec import SpecError

TEMPLATE = """
[template]
name = "t"
nodes = 5
seed = 100

[scenario]
horizon_ms = 500.0

[scheduler]
kind = "edf"

[[workload]]
kind = "periodic"
name = "p"
count = 2
period_ms = 10.0
cost_ms = 1.0

[[workload]]
kind = "mplayer"
name = "a"

[grid]
"workload.p.count" = [2, 4]
"scheduler.kind" = ["edf", "rr"]

[jitter]
"workload.a.phase_ms" = 3.0
"""


def test_expansion_size_and_names():
    template = parse_template(TEMPLATE)
    assert template.size == 2 * 2 * 5
    specs = list(expand_template(template))
    assert len(specs) == template.size
    assert specs[0].name == "t/g0000/n00000"
    assert specs[-1].name == "t/g0003/n00004"
    # grid iterates in file order: first key varies slowest
    assert [s.group for s in specs] == [f"g{c:04d}" for c in range(4) for _ in range(5)]


def test_expansion_is_deterministic():
    template = parse_template(TEMPLATE)
    once = [s.to_jsonable() for s in expand_template(template)]
    again = [s.to_jsonable() for s in expand_template(template)]
    assert once == again


def test_expansion_is_lazy():
    big = TEMPLATE.replace("nodes = 5", "nodes = 1000000")
    template = parse_template(big)
    assert template.size == 4_000_000
    head = list(itertools.islice(expand_template(template), 3))
    assert [s.name for s in head] == [f"t/g0000/n{n:05d}" for n in range(3)]


def test_grid_values_are_applied():
    specs = list(expand_template(parse_template(TEMPLATE)))
    combos = {(s.workloads[0].count, s.scheduler.kind) for s in specs}
    assert combos == {(2, "edf"), (2, "rr"), (4, "edf"), (4, "rr")}


def test_seeds_and_jitter_are_per_node():
    specs = list(expand_template(parse_template(TEMPLATE)))
    assert len({s.seed for s in specs}) == len(specs)
    phases = {s.workloads[1].phase_ns for s in specs[:5]}
    assert len(phases) > 1  # jitter actually varies across nodes
    assert all(0 <= p <= 3_000_000 for p in phases)


def test_wildcard_grid_path():
    text = TEMPLATE.replace('"workload.p.count" = [2, 4]', '"workload.*.jitter" = [0.0, 0.2]')
    specs = list(expand_template(parse_template(text)))
    jitters = {(s.workloads[0].jitter, s.workloads[1].jitter) for s in specs}
    assert jitters == {(0.0, 0.0), (0.2, 0.2)}


def test_unresolvable_grid_path_fails_fast():
    text = TEMPLATE.replace('"workload.p.count"', '"workload.nosuch.count"')
    with pytest.raises(SpecError, match="nosuch"):
        parse_template(text)


@pytest.mark.parametrize("amount", ["0.0", "-1.0", "inf", "nan", "true", '"3"'])
def test_jitter_amount_must_be_positive_and_finite(amount):
    text = TEMPLATE.replace('"workload.a.phase_ms" = 3.0', f'"workload.a.phase_ms" = {amount}')
    with pytest.raises(SpecError, match="jitter: 'workload.a.phase_ms' must map to a positive"):
        parse_template(text)


def test_template_table_required():
    with pytest.raises(SpecError, match="template"):
        parse_template("[scenario]\nhorizon_ms = 1.0\n")


ADAPTIVE_TEMPLATE = """
[template]
name = "tune-grid"
nodes = 2
seed = 5

[scenario]
horizon_ms = 400.0

[controller]
law = "lfspp"
spread = 0.1

[[workload]]
kind = "mplayer"
name = "mp3"
adaptive = true

[grid]
"controller.spread" = [0.1, 0.3]
"""


def test_controller_survives_expansion():
    specs = list(expand_template(parse_template(ADAPTIVE_TEMPLATE)))
    assert len(specs) == 4  # 2 grid points x 2 nodes
    assert all(s.controller is not None for s in specs)
    assert sorted({s.controller.spread for s in specs}) == [0.1, 0.3]
    # the non-swept knobs keep the template's values
    assert all(s.controller.law == "lfspp" for s in specs)
