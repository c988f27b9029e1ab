"""Property tests of the tuner's determinism and bounds contracts.

Satellite contract (hypothesis): for arbitrary seeds, budgets, methods
and spaces — the search is a pure function of its seed, every candidate
it emits lies inside the declared bounds, and the unit-cube mapping is
a (clipped) inverse pair.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.tune.search import SEARCH_METHODS, run_search
from repro.tune.space import ParamSpace, ParamSpec, SpaceError


def spaces(max_dim=4):
    """Strategy: small well-formed ParamSpaces with mixed axis kinds."""

    def build(bounds):
        params = []
        for i, (kind, lo, span) in enumerate(bounds):
            if kind == "int":
                lo_i = int(lo)
                params.append(
                    ParamSpec(name=f"p{i}", kind="int", lo=lo_i, hi=lo_i + max(int(span), 1))
                )
            else:
                params.append(ParamSpec(name=f"p{i}", kind="float", lo=lo, hi=lo + span))
        return ParamSpace(params=tuple(params))

    axis = st.tuples(
        st.sampled_from(["float", "int"]),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    )
    return st.lists(axis, min_size=1, max_size=max_dim).map(build)


def synthetic(configs):
    """Deterministic, space-agnostic objective."""
    return [sum(float(v) for v in c.values()) % 7.0 for c in configs]


@settings(max_examples=25, deadline=None)
@given(space=spaces(), seed=st.integers(0, 2**31 - 1), method=st.sampled_from(SEARCH_METHODS))
def test_search_is_a_pure_function_of_the_seed(space, seed, method):
    a = run_search(space, synthetic, budget=10, seed=seed, method=method)
    b = run_search(space, synthetic, budget=10, seed=seed, method=method)
    assert a.best_config == b.best_config
    assert a.best_score == b.best_score
    assert a.trace == b.trace
    assert a.sensitivity == b.sensitivity


@settings(max_examples=25, deadline=None)
@given(space=spaces(), seed=st.integers(0, 2**31 - 1), method=st.sampled_from(SEARCH_METHODS))
def test_every_candidate_respects_the_declared_bounds(space, seed, method):
    seen = []

    def spy(configs):
        seen.extend(configs)
        return synthetic(configs)

    run_search(space, spy, budget=12, seed=seed, method=method)
    assert seen
    for config in seen:
        for p in space.params:
            value = config[p.name]
            assert p.lo <= value <= p.hi
            if p.kind == "int":
                assert isinstance(value, int)


@settings(max_examples=50, deadline=None)
@given(space=spaces(), data=st.data())
def test_unit_cube_mapping_is_stable(space, data):
    unit = [
        data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        for _ in range(space.dim)
    ]
    config = space.config(unit)
    # value() lands inside the axis; the round trip through unit() is a
    # fixed point (int axes snap once, then stay put)
    assert space.config(space.unit(config)) == config
    for p, u in zip(space.params, unit):
        if p.kind == "float":
            assert p.unit(p.value(u)) == pytest.approx(u, abs=1e-9)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=finite, hi=finite, u=st.floats(allow_nan=False))
@example(lo=0.99999, hi=13.99999, u=0.25)
def test_float_axis_round_trip_is_a_fixed_point(lo, hi, u):
    assume(lo < hi)
    try:
        p = ParamSpec(name="x", kind="float", lo=lo, hi=hi)
    except SpaceError:
        assume(False)  # hi - lo overflows: rejected, not an axis
    x = p.value(u)
    assert p.value(p.unit(x)) == x
