"""The parameter space: unit-cube mapping, bounds, strict declarations.

Satellite contract: the default space is *derived* from the knob
registry (one source of truth for what "sane" means per knob), the
unit-cube mapping is bounds-respecting by construction, and malformed
``[[param]]`` declarations are rejected with the axis in the message.
"""

import math

import pytest

from repro.core.knobs import CONTROLLER_KNOBS
from repro.tune.space import (
    DEFAULT_SPACE_KNOBS,
    ParamSpace,
    ParamSpec,
    SpaceError,
    default_config,
    default_space,
    space_from_tables,
)


class TestParamSpec:
    def test_float_endpoints(self):
        p = ParamSpec(name="x", kind="float", lo=0.0, hi=0.5)
        assert p.value(0.0) == 0.0
        assert p.value(1.0) == 0.5
        assert p.value(0.5) == pytest.approx(0.25)

    def test_unit_coordinates_are_clipped(self):
        p = ParamSpec(name="x", kind="float", lo=1.0, hi=3.0)
        assert p.value(-0.5) == 1.0
        assert p.value(1.5) == 3.0

    def test_int_axis_rounds_and_clips(self):
        p = ParamSpec(name="n", kind="int", lo=4, hi=64)
        assert p.value(0.0) == 4
        assert p.value(1.0) == 64
        assert isinstance(p.value(0.37), int)

    def test_unit_inverts_value(self):
        p = ParamSpec(name="x", kind="float", lo=2.0, hi=10.0)
        for u in (0.0, 0.25, 0.8, 1.0):
            assert p.unit(p.value(u)) == pytest.approx(u)

    def test_unit_clips_out_of_range_values(self):
        p = ParamSpec(name="x", kind="float", lo=0.0, hi=1.0)
        assert p.unit(-3.0) == 0.0
        assert p.unit(7.0) == 1.0

    def test_float_round_trip_is_exact_where_the_quotient_misses(self):
        p = ParamSpec(name="x", kind="float", lo=0.99999, hi=13.99999)
        x = p.value(0.25)
        assert x == 4.24999
        assert (x - p.lo) / (p.hi - p.lo) != 0.25  # the plain quotient misses ...
        assert p.value(p.unit(x)) == x  # ... and unit() steps back onto x

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", kind="float", lo=0.0, hi=1.0),
            dict(name="x", kind="bool", lo=0.0, hi=1.0),
            dict(name="x", kind="float", lo=1.0, hi=1.0),
            dict(name="x", kind="float", lo=2.0, hi=1.0),
            dict(name="n", kind="int", lo=0.5, hi=4),
        ],
    )
    def test_malformed_axes_rejected(self, kwargs):
        with pytest.raises(SpaceError):
            ParamSpec(**kwargs)

    @pytest.mark.parametrize(
        "lo,hi,needle",
        [
            (0.0, math.inf, "'hi' must be a finite number"),
            (-math.inf, 1.0, "'lo' must be a finite number"),
            (math.nan, 1.0, "'lo' must be a finite number"),
            (0.0, math.nan, "'hi' must be a finite number"),
            (True, 2.0, "'lo' must be a finite number"),
            ("0", 2.0, "'lo' must be a finite number"),
            (0.0, None, "'hi' must be a finite number"),
            (-1.5e308, 1.5e308, "overflows"),
        ],
    )
    def test_non_finite_non_numeric_and_overflowing_bounds_rejected(self, lo, hi, needle):
        for kind in ("float", "int"):
            with pytest.raises(SpaceError, match=f"param 'axis'.*{needle}"):
                ParamSpec(name="axis", kind=kind, lo=lo, hi=hi)


class TestParamSpace:
    def test_needs_at_least_one_axis(self):
        with pytest.raises(SpaceError, match="at least one"):
            ParamSpace(params=())

    def test_duplicate_names_rejected(self):
        p = ParamSpec(name="x", kind="float", lo=0.0, hi=1.0)
        with pytest.raises(SpaceError, match="duplicate"):
            ParamSpace(params=(p, p))

    def test_config_checks_dimension(self):
        space = default_space()
        with pytest.raises(SpaceError, match="coords"):
            space.config([0.5])

    def test_config_unit_round_trip(self):
        space = default_space()
        unit = [0.2, 0.4, 0.6, 0.8]
        config = space.config(unit)
        # int axes snap to the grid; mapping back and forth is stable
        assert space.config(space.unit(config)) == config


class TestDefaultSpace:
    def test_derived_from_registry(self):
        space = default_space()
        assert space.names == DEFAULT_SPACE_KNOBS
        for p in space.params:
            knob = CONTROLLER_KNOBS[p.name]
            assert p.lo == float(knob.tune_lo)
            assert p.hi == float(knob.tune_hi)
            assert p.kind == knob.kind

    def test_categorical_knob_refused(self):
        with pytest.raises(SpaceError, match="search range"):
            default_space(("policy",))

    def test_default_config_uses_registry_defaults(self):
        space = default_space()
        config = default_config(space)
        assert config["spread"] == pytest.approx(CONTROLLER_KNOBS["spread"].default)
        assert config["window"] == CONTROLLER_KNOBS["window"].default

    def test_default_config_values_lie_on_the_axes(self):
        space = default_space()
        config = default_config(space)
        for p in space.params:
            assert p.lo <= config[p.name] <= p.hi


class TestSpaceFromTables:
    def test_knob_reference(self):
        space = space_from_tables([{"knob": "spread"}])
        assert space.names == ("spread",)
        assert space.params[0].hi == CONTROLLER_KNOBS["spread"].tune_hi

    def test_knob_bounds_override(self):
        space = space_from_tables([{"knob": "spread", "lo": 0.1, "hi": 0.3}])
        assert (space.params[0].lo, space.params[0].hi) == (0.1, 0.3)

    def test_free_axis(self):
        space = space_from_tables(
            [{"name": "custom", "kind": "float", "lo": 1.0, "hi": 2.0}]
        )
        assert space.params[0].name == "custom"

    @pytest.mark.parametrize(
        "table,needle",
        [
            ({"knob": "no-such-knob"}, "unknown knob"),
            ({"knob": "policy"}, "categorical"),
            ({"knob": "spread", "oops": 1}, "unknown keys"),
            ({"name": "x", "kind": "float", "lo": 0.0}, "missing"),
        ],
    )
    def test_malformed_tables_rejected(self, table, needle):
        with pytest.raises(SpaceError, match=needle):
            space_from_tables([table])

    @pytest.mark.parametrize(
        "table",
        [
            {"name": "axis", "kind": "float", "lo": [1], "hi": 2.0},
            {"name": "axis", "kind": "float", "lo": 0.0, "hi": "2.0"},
            {"name": "axis", "kind": "float", "lo": 0.0, "hi": math.inf},
            {"name": "axis", "kind": "int", "lo": math.nan, "hi": 4},
            {"name": "axis", "kind": "float", "lo": False, "hi": 1.0},
            {"name": "axis", "kind": "float", "lo": 0, "hi": 10**400},
            {"name": "axis", "kind": "float", "lo": {"x": 1}, "hi": 1.0},
        ],
    )
    def test_malformed_free_axis_bounds_name_the_param(self, table):
        with pytest.raises(SpaceError, match="param 'axis': '(lo|hi)' must be a finite number"):
            space_from_tables([table])

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, True, "0.3", [0.3]])
    def test_malformed_knob_bounds_name_the_knob(self, bound):
        with pytest.raises(SpaceError, match="param 'spread': 'hi' must be a finite number"):
            space_from_tables([{"knob": "spread", "hi": bound}])
