"""Malformed spec numbers are reported, never raised as a traceback.

Hypothesis writes TOML documents whose ``[[param]]`` tables and ``*_ms``
values are drawn from everything TOML can say: strings, 64-bit integers,
floats including ``inf`` and ``nan``, booleans, arrays and inline
tables.  Each document must either be rejected with a ``SpecError`` or a
``SpaceError``, or parse into a spec whose bounds and times are finite,
so that no candidate of a tune and no simulation ever starts on a NaN
or an infinite value.
"""

import json
import math
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.knobs import CONTROLLER_KNOBS
from repro.fleet import scenario_from_toml
from repro.fleet.spec import SpecError
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
