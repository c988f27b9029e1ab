"""Malformed spec numbers are reported, never raised as a traceback.

Hypothesis writes TOML documents whose ``[[param]]`` tables and ``*_ms``
values are drawn from everything TOML can say: strings, 64-bit integers,
floats including ``inf`` and ``nan``, booleans, arrays and inline
tables.  Each document must either be rejected with a ``SpecError`` or a
``SpaceError``, or parse into a spec whose bounds and times are finite,
so that no candidate of a tune and no simulation ever starts on a NaN
or an infinite value.  Fleet templates get the same treatment for their
``[grid]`` and ``[jitter]`` tables: any value under any dotted path
either expands or is a ``SpecError``.
"""

import json
import math
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.knobs import CONTROLLER_KNOBS
from repro.fleet import scenario_from_toml
from repro.fleet.spec import SpecError
from repro.fleet.template import expand_template, parse_template
from repro.tune import tune_spec_from_toml
from repro.tune.space import SpaceError, default_config

scalars = (
    st.text(alphabet=string.ascii_letters + string.digits + " .-_", max_size=8)
    | st.sampled_from(["", "1.5", "inf", "nan", "spread"])
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats()
    | st.booleans()
)
toml_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "lo"]), inner, max_size=2),
    max_leaves=4,
)
#: plausible numbers, so that some draws parse and their values are checked
numbers = st.floats() | st.integers(min_value=-(10**6), max_value=10**6) | toml_values


def toml(value) -> str:
    """``value`` as a TOML value (strings stay within ASCII, so JSON quoting is TOML)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(toml(v) for v in value) + "]"
    return "{" + ", ".join(f"{k} = {toml(v)}" for k, v in value.items()) + "}"


param_tables = st.fixed_dictionaries(
    {},
    optional={
        "knob": st.sampled_from(sorted(CONTROLLER_KNOBS)) | toml_values,
        "name": st.sampled_from(["axis", "spread"]) | toml_values,
        "kind": st.sampled_from(["float", "int", "cat"]) | toml_values,
        "lo": numbers,
        "hi": numbers,
    },
)


@settings(max_examples=300, deadline=None)
@given(horizon=numbers, params=st.lists(param_tables, min_size=1, max_size=3))
@example(horizon=math.inf, params=[{"knob": "spread"}])
@example(horizon=1e305, params=[{"knob": "spread"}])
@example(horizon=100.0, params=[{"knob": "spread", "lo": [1]}])
@example(horizon=100.0, params=[{"name": "axis", "kind": "float", "lo": 0, "hi": math.inf}])
def test_tune_spec_numbers_are_finite_or_rejected(horizon, params):
    text = f'[tune]\nname = "fuzz"\nhorizon_ms = {toml(horizon)}\n'
    for table in params:
        text += "\n[[param]]\n" + "".join(f"{k} = {toml(v)}\n" for k, v in table.items())
    try:
        spec = tune_spec_from_toml(text)
    except (SpecError, SpaceError):
        return
    assert isinstance(spec.horizon_ns, int) and spec.horizon_ns > 0
    for p in spec.space.params:
        assert math.isfinite(p.lo) and math.isfinite(p.hi)
        assert all(math.isfinite(p.value(u)) for u in (0.0, 0.5, 1.0))
    assert all(math.isfinite(v) for v in default_config(spec.space).values())


@settings(max_examples=300, deadline=None)
@given(
    ms=st.fixed_dictionaries(
        {"horizon_ms": numbers, "period_ms": numbers},
        optional={"miss_threshold_ms": numbers, "cost_ms": numbers, "jitter": numbers},
    )
)
@example(ms={"horizon_ms": math.inf, "period_ms": 2.0})
@example(ms={"horizon_ms": 100.0, "period_ms": math.nan})
@example(ms={"horizon_ms": 100.0, "period_ms": 2.0, "jitter": 10**400})
def test_scenario_numbers_are_finite_or_rejected(ms):
    workload = {"kind": "periodic", "name": "p", "cost_ms": 1.0, "period_ms": ms["period_ms"]}
    workload.update((k, ms[k]) for k in ("cost_ms", "jitter") if k in ms)
    scenario = {"name": "fuzz", "horizon_ms": ms["horizon_ms"]}
    if "miss_threshold_ms" in ms:
        scenario["miss_threshold_ms"] = ms["miss_threshold_ms"]
    text = "[scenario]\n" + "".join(f"{k} = {toml(v)}\n" for k, v in scenario.items())
    text += "\n[[workload]]\n" + "".join(f"{k} = {toml(v)}\n" for k, v in workload.items())
    try:
        spec = scenario_from_toml(text)
    except SpecError:
        return
    (w,) = spec.workloads
    for ns in (spec.horizon_ns, spec.miss_threshold_ns, w.period_ns, w.cost_ns):
        assert isinstance(ns, int) and ns >= 0
    assert 0.0 <= w.jitter < 1.0


FLEET_BASE = """
[template]
name = "fuzz"
nodes = 2
seed = 7

[scenario]
horizon_ms = 50.0

[scheduler]
kind = "cbs"
policy = "hard"

[[workload]]
kind = "periodic"
name = "p"
cost_ms = 1.0
period_ms = 10.0

[[workload]]
kind = "periodic"
name = "q"
cost_ms = 2.0
period_ms = 20.0
"""

fields = st.sampled_from(
    ["cost_ms", "period_ms", "phase_ms", "jitter", "count", "name", "kind", "policy", "x", ""]
    + ["horizon_ms", "seed", "miss_threshold_ms", "budget_ms"]
)
#: dotted paths: into the base tables, into workloads by name (``*``,
#: known, unknown), and any run of segments (unknown heads, too few or
#: too many parts, fields holding a scalar walked into as a table)
paths = st.one_of(
    st.tuples(st.sampled_from(["scenario", "scheduler", "fault", "controller"]), fields),
    st.tuples(st.just("workload"), st.sampled_from(["*", "p", "q", "nope"]), fields),
    st.lists(fields | st.sampled_from(["workload", "scenario", "template", "*", "p"]), max_size=4),
).map(".".join)
#: grid values, with values the base document accepts, so some draws expand
grid_values = st.sampled_from(["hard", "soft", "background", 2, 2.5]) | toml_values
grid_tables = st.dictionaries(
    paths, st.lists(grid_values, min_size=1, max_size=3) | toml_values, max_size=2
)
jitter_tables = st.dictionaries(paths, numbers, max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    grid=grid_tables,
    jitter=jitter_tables,
    # a [grid] or [jitter] that is not a table at all
    misfit=st.sampled_from([None, None, None, None, "grid", "jitter"]),
    value=toml_values.filter(lambda v: not isinstance(v, dict)),
)
@example(grid={"workload.*.cost_ms": [1, "x"]}, jitter={}, misfit=None, value=0)
@example(
    grid={"scenario.horizon_ms.x": [1]}, jitter={"workload.nope.cost_ms": 1.0}, misfit=None, value=0
)
@example(grid={}, jitter={"scheduler.policy": 1.0}, misfit=None, value=0)
@example(grid={}, jitter={}, misfit="grid", value=[1, 2])
@example(
    grid={"scheduler.policy": ["hard", "soft"], "workload.*.cost_ms": [1, 2.5]},
    jitter={"workload.p.phase_ms": 2.0},
    misfit=None,
    value=0,
)
def test_fleet_template_grid_and_jitter_raise_only_spec_errors(grid, jitter, misfit, value):
    text = f"{misfit} = {toml(value)}\n" if misfit else ""
    text += FLEET_BASE
    for key, table in (("grid", grid), ("jitter", jitter)):
        if key != misfit:
            text += f"\n[{key}]\n" + "".join(f"{toml(k)} = {toml(v)}\n" for k, v in table.items())
    try:
        for _ in expand_template(parse_template(text)):
            pass
    except SpecError:
        pass
