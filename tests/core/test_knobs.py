"""The knob registry: one source of truth for controller parameter ranges.

Satellite contract: every constructor of the self-tuning stack and the
auto-tuner's default search space read ranges from this registry — so
the registry itself must be internally consistent (defaults valid,
search ranges inside validity ranges) and its validation actionable.
"""

import math

import pytest

from repro.core.controller import TaskControllerConfig
from repro.core.knobs import CONTROLLER_KNOBS, Knob, validate_knob
from repro.core.lfspp import LfsPlusPlusConfig
from repro.core.predictors import QuantileEstimator


class TestRegistryConsistency:
    def test_expected_knobs_are_registered(self):
        assert set(CONTROLLER_KNOBS) == {
            "spread",
            "window",
            "quantile",
            "sampling_period",
            "max_bandwidth",
            "boost",
            "policy",
            "burst_threshold",
            "burst_window",
            "refractory",
            "fallback_floor",
        }

    @pytest.mark.parametrize("name", sorted(CONTROLLER_KNOBS))
    def test_defaults_pass_their_own_validation(self, name):
        knob = CONTROLLER_KNOBS[name]
        knob.validate(knob.default)

    @pytest.mark.parametrize(
        "name", [n for n, k in CONTROLLER_KNOBS.items() if k.kind != "cat"]
    )
    def test_search_range_lies_inside_the_validity_range(self, name):
        knob = CONTROLLER_KNOBS[name]
        assert knob.tune_lo is not None and knob.tune_hi is not None
        assert knob.tune_lo < knob.tune_hi
        knob.validate(knob.tune_hi)
        # an open lower endpoint excludes tune_lo == lo (e.g. spread 0.0
        # is valid, sampling_period 0 is not — and tune_lo respects that)
        if not (knob.lo_open and knob.tune_lo == knob.lo):
            knob.validate(
                int(knob.tune_lo) if knob.kind == "int" else knob.tune_lo
            )


class TestValidation:
    def test_range_violation_names_the_knob_and_the_range(self):
        with pytest.raises(ValueError, match=r"quantile must be in \(0.0, 1.0\]"):
            validate_knob("quantile", 0.0)

    def test_label_override(self):
        with pytest.raises(ValueError, match="predictor_window"):
            validate_knob("window", 0, label="predictor_window")

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValueError, match="number"):
            validate_knob("spread", True)

    def test_int_knob_rejects_floats(self):
        with pytest.raises(ValueError, match="integer"):
            validate_knob("window", 8.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["spread", "quantile", "boost", "max_bandwidth"])
    def test_float_knobs_reject_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            validate_knob(name, value)

    def test_categorical_choices(self):
        validate_knob("policy", "soft")
        with pytest.raises(ValueError, match="hard"):
            validate_knob("policy", "turbo")

    def test_open_endpoints_are_excluded(self):
        validate_knob("sampling_period", 1)
        with pytest.raises(ValueError):
            validate_knob("sampling_period", 0)

    def test_bounds_text_shapes(self):
        assert "(0.0, 1.0]" in CONTROLLER_KNOBS["quantile"].bounds_text()
        assert CONTROLLER_KNOBS["spread"].bounds_text() == ">= 0.0"
        assert Knob(name="k", kind="float", hi=1.0).bounds_text() == "<= 1.0"
        assert "hard" in CONTROLLER_KNOBS["policy"].bounds_text()


class TestConstructorsRouteThroughTheRegistry:
    """A range tightened in the registry must bite in the constructors."""

    def test_quantile_estimator(self):
        with pytest.raises(ValueError, match="quantile"):
            QuantileEstimator(quantile=1.5)
        with pytest.raises(ValueError, match="window"):
            QuantileEstimator(window=0)

    def test_lfspp_config(self):
        with pytest.raises(ValueError, match="spread"):
            LfsPlusPlusConfig(spread=-0.1)
        with pytest.raises(ValueError, match="max_bandwidth"):
            LfsPlusPlusConfig(max_bandwidth=1.5)

    def test_controller_config(self):
        with pytest.raises(ValueError, match="sampling_period"):
            TaskControllerConfig(sampling_period=0)
