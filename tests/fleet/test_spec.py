"""Scenario-DSL round trips and the strictness of its validation.

Satellite contract: TOML -> :class:`ScenarioSpec` -> deterministic
expansion, with unknown keys and invalid enumerations rejected by
actionable errors (the message must name the bad key *and* the accepted
alternatives).
"""

import pytest

from repro.fleet import ScenarioSpec, parse_template, scenario_from_dict, scenario_from_toml
from repro.fleet.spec import SpecError
from repro.tune import tune_spec_from_toml

SCENARIO = """
[scenario]
name = "node"
seed = 7
horizon_ms = 1500.0
miss_threshold_ms = 12.0

[scheduler]
kind = "cbs"
policy = "soft"

[[workload]]
kind = "mplayer"
name = "audio"
count = 3
cost_ms = 0.5
jitter = 0.1
budget_ms = 4.0
server_period_ms = 10.0

[[workload]]
kind = "periodic"
name = "p10"
period_ms = 10.0
cost_ms = 1.0

[fault]
plan = "mid-burst"
scale = 0.5
kind = "overload"
target = "audio"
seed = 3
"""


def test_round_trip_through_jsonable():
    spec = scenario_from_toml(SCENARIO)
    assert spec.name == "node"
    assert spec.seed == 7
    assert spec.horizon_ns == 1_500_000_000
    assert spec.miss_threshold_ns == 12_000_000
    assert spec.scheduler.kind == "cbs"
    assert spec.scheduler.policy == "soft"
    assert [w.name for w in spec.workloads] == ["audio", "p10"]
    assert spec.workloads[0].count == 3
    assert spec.workloads[0].budget_ns == 4_000_000
    assert spec.fault.plan == "mid-burst"
    assert not spec.fault.is_zero
    # the jsonable form is stable and reparses to an equal spec
    doc = spec.to_jsonable()
    assert doc == scenario_from_toml(SCENARIO).to_jsonable()
    assert spec.spec_hash() == scenario_from_toml(SCENARIO).spec_hash()


def test_parse_is_deterministic_and_hash_is_content_addressed():
    a, b = scenario_from_toml(SCENARIO), scenario_from_toml(SCENARIO)
    assert a == b
    assert a.spec_hash() == b.spec_hash()
    shifted = scenario_from_toml(SCENARIO.replace("seed = 7", "seed = 8"))
    assert shifted.spec_hash() != a.spec_hash()


def test_defaults_are_minimal():
    spec = scenario_from_dict(
        {
            "scenario": {"name": "n", "horizon_ms": 100.0},
            "workload": [{"kind": "mplayer", "name": "a"}],
        }
    )
    assert isinstance(spec, ScenarioSpec)
    assert spec.scheduler.kind == "cbs"
    assert spec.fault.is_zero
    assert spec.miss_threshold_ns == 10_000_000  # 10 ms default


class TestActionableErrors:
    @pytest.mark.parametrize("parse", [scenario_from_toml, parse_template, tune_spec_from_toml])
    def test_malformed_toml_is_a_spec_error(self, parse):
        with pytest.raises(SpecError, match="malformed TOML"):
            parse("[scenario\nname = 1")

    def test_unknown_scenario_key(self):
        with pytest.raises(SpecError) as exc:
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0, "bogus": 1},
                    "workload": [{"kind": "mplayer", "name": "a"}],
                }
            )
        assert "bogus" in str(exc.value) and "accepted keys" in str(exc.value)

    def test_unknown_workload_key(self):
        with pytest.raises(SpecError, match="typo_ms"):
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "workload": [{"kind": "mplayer", "name": "a", "typo_ms": 5}],
                }
            )

    def test_invalid_scheduler_kind_lists_alternatives(self):
        with pytest.raises(SpecError) as exc:
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "scheduler": {"kind": "cfs"},
                    "workload": [{"kind": "mplayer", "name": "a"}],
                }
            )
        message = str(exc.value)
        assert "cfs" in message and "cbs" in message and "edf" in message

    def test_invalid_fault_plan_lists_catalogue(self):
        with pytest.raises(SpecError) as exc:
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "workload": [{"kind": "mplayer", "name": "a"}],
                    "fault": {"plan": "nope"},
                }
            )
        message = str(exc.value)
        assert "nope" in message and "mid-burst" in message

    def test_duplicate_workload_names(self):
        with pytest.raises(SpecError, match="duplicate"):
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "workload": [
                        {"kind": "mplayer", "name": "a"},
                        {"kind": "periodic", "name": "a", "period_ms": 10.0, "cost_ms": 1.0},
                    ],
                }
            )

    def test_empty_workloads(self):
        with pytest.raises(SpecError):
            scenario_from_dict({"scenario": {"name": "n", "horizon_ms": 1.0}})

    @pytest.mark.parametrize("workload", [[1, 2], [{"kind": "mplayer", "name": "a"}, "b"]])
    def test_workload_entries_must_be_tables(self, workload):
        # an entry that is not a table used to end in AttributeError
        with pytest.raises(SpecError, match="array of tables"):
            scenario_from_dict({"scenario": {"name": "n", "horizon_ms": 1.0}, "workload": workload})

    def test_scheduler_must_be_a_table(self):
        with pytest.raises(SpecError, match="scheduler: must be a table"):
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "scheduler": 5,
                    "workload": [{"kind": "mplayer", "name": "a"}],
                }
            )

    def test_template_paths_into_a_non_table(self):
        text = '[template]\nname = "t"\n[scenario]\nhorizon_ms = 1.0\n[grid]\n"fault.x" = [1]\n'
        with pytest.raises(SpecError, match=r"\[fault\] must be a table"):
            parse_template("fault = 3\n" + text)

    def test_periodic_requires_period(self):
        with pytest.raises(SpecError):
            scenario_from_dict(
                {
                    "scenario": {"name": "n", "horizon_ms": 1.0},
                    "workload": [{"kind": "periodic", "name": "p", "cost_ms": 1.0}],
                }
            )

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e305"])
    @pytest.mark.parametrize("key", ["horizon_ms", "period_ms"])
    def test_non_finite_milliseconds_name_the_key(self, key, value):
        doc = {
            "scenario": {"name": "n", "horizon_ms": 1.0},
            "workload": [{"kind": "periodic", "name": "p", "cost_ms": 1.0, "period_ms": 2.0}],
        }
        table = doc["scenario"] if key == "horizon_ms" else doc["workload"][0]
        table[key] = float(value)
        with pytest.raises(SpecError, match=f"'{key}' must be finite"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("scale = 0.5", "scale = inf"),
            ("spread = 0.2", "spread = nan"),
            ("boost = 0.1", "boost = -inf"),
        ],
    )
    def test_float_fields_must_be_finite(self, old, new):
        text = SCENARIO if old in SCENARIO else ADAPTIVE_SCENARIO
        with pytest.raises(SpecError, match=f"'{old.split()[0]}' must be a finite number"):
            scenario_from_toml(text.replace(old, new))

    @pytest.mark.parametrize("value", ["inf", "nan", "1e305"])
    def test_tune_horizon_must_be_finite(self, value):
        with pytest.raises(SpecError, match="'horizon_ms' must be finite"):
            tune_spec_from_toml(f'[tune]\nname = "t"\nhorizon_ms = {value}\n')


ADAPTIVE_SCENARIO = """
[scenario]
name = "adaptive"
seed = 3
horizon_ms = 500.0

[controller]
law = "lfspp"
spread = 0.2
window = 8
quantile = 0.75
sampling_period_ms = 80.0
boost = 0.1
boost_threshold = 0.3
rate_detection = true
u_lub = 0.9

[[workload]]
kind = "mplayer"
name = "mp3"
adaptive = true
"""


class TestControllerSpec:
    def test_parse_and_round_trip(self):
        spec = scenario_from_toml(ADAPTIVE_SCENARIO)
        c = spec.controller
        assert (c.law, c.spread, c.window, c.quantile) == ("lfspp", 0.2, 8, 0.75)
        assert c.sampling_period_ns == 80_000_000
        assert (c.boost, c.boost_threshold) == (0.1, 0.3)
        assert c.rate_detection is True
        assert c.u_lub == 0.9
        # the jsonable form feeds spec_hash: it must carry the controller
        assert spec.to_jsonable()["controller"]["law"] == "lfspp"
        assert spec.spec_hash() == scenario_from_toml(ADAPTIVE_SCENARIO).spec_hash()

    def test_controller_enters_the_content_hash(self):
        base = scenario_from_toml(ADAPTIVE_SCENARIO)
        other = scenario_from_toml(ADAPTIVE_SCENARIO.replace("spread = 0.2", "spread = 0.3"))
        assert base.spec_hash() != other.spec_hash()

    def test_defaults_are_the_paper_defaults(self):
        spec = scenario_from_toml(
            '[scenario]\nname = "a"\nhorizon_ms = 100.0\n[controller]\n'
            '[[workload]]\nkind = "mplayer"\nname = "m"\nadaptive = true\n'
        )
        c = spec.controller
        assert (c.law, c.spread, c.window, c.quantile) == ("lfspp", 0.15, 16, 0.9375)
        assert c.sampling_period_ns == 100_000_000
        assert c.boost_threshold == -1.0  # boost disabled, the paper baseline
        assert c.rate_detection is False

    def test_unknown_law_lists_alternatives(self):
        with pytest.raises(SpecError, match=r"unknown law.*lfspp.*lfs"):
            scenario_from_toml(ADAPTIVE_SCENARIO.replace('law = "lfspp"', 'law = "pid"'))

    def test_knob_ranges_enforced_through_the_registry(self):
        with pytest.raises(SpecError, match="quantile"):
            scenario_from_toml(
                ADAPTIVE_SCENARIO.replace("quantile = 0.75", "quantile = 1.5")
            )
        with pytest.raises(SpecError, match="sampling_period"):
            scenario_from_toml(
                ADAPTIVE_SCENARIO.replace(
                    "sampling_period_ms = 80.0", "sampling_period_ms = 0.0"
                )
            )

    def test_unknown_controller_key(self):
        with pytest.raises(SpecError, match=r"controller: unknown key\(s\) \['oops'\]"):
            scenario_from_toml(ADAPTIVE_SCENARIO + "\n[controller.oops]\n")

    def test_adaptive_workload_requires_a_controller_table(self):
        with pytest.raises(SpecError, match=r"adaptive workload\(s\).*controller"):
            scenario_from_toml(
                '[scenario]\nname = "a"\nhorizon_ms = 100.0\n'
                '[[workload]]\nkind = "mplayer"\nname = "m"\nadaptive = true\n'
            )

    def test_controller_requires_an_adaptive_workload(self):
        with pytest.raises(SpecError, match="no workload is marked"):
            scenario_from_toml(
                '[scenario]\nname = "a"\nhorizon_ms = 100.0\n[controller]\n'
                '[[workload]]\nkind = "mplayer"\nname = "m"\n'
            )

    def test_controller_requires_cbs(self):
        with pytest.raises(SpecError, match="requires scheduler kind 'cbs'"):
            scenario_from_toml(
                ADAPTIVE_SCENARIO + '\n[scheduler]\nkind = "edf"\n'
            )


EVENT_SCENARIO = ADAPTIVE_SCENARIO.replace(
    "[controller]",
    '[controller]\ntrigger = "event"\nburst_threshold = 2\n'
    "burst_window_ms = 200.0\nrefractory_ms = 40.0\nfallback_floor_ms = 300.0",
)


class TestEventTriggerSpec:
    def test_parse_and_round_trip(self):
        spec = scenario_from_toml(EVENT_SCENARIO)
        c = spec.controller
        assert c.trigger == "event"
        assert c.burst_threshold == 2
        assert c.burst_window_ns == 200_000_000
        assert c.refractory_ns == 40_000_000
        assert c.fallback_floor_ns == 300_000_000
        doc = spec.to_jsonable()["controller"]
        assert doc["trigger"] == "event"
        assert doc["burst_window_ns"] == 200_000_000
        assert spec.spec_hash() == scenario_from_toml(EVENT_SCENARIO).spec_hash()

    def test_default_trigger_is_periodic(self):
        assert scenario_from_toml(ADAPTIVE_SCENARIO).controller.trigger == "periodic"

    def test_trigger_enters_the_content_hash(self):
        periodic = scenario_from_toml(ADAPTIVE_SCENARIO)
        event = scenario_from_toml(
            ADAPTIVE_SCENARIO.replace("[controller]", '[controller]\ntrigger = "event"')
        )
        assert periodic.spec_hash() != event.spec_hash()

    def test_unknown_trigger_lists_alternatives(self):
        with pytest.raises(SpecError, match=r"trigger.*periodic.*event"):
            scenario_from_toml(
                EVENT_SCENARIO.replace('trigger = "event"', 'trigger = "hybrid"')
            )

    def test_event_knobs_validated_through_the_registry(self):
        with pytest.raises(SpecError, match="burst_threshold"):
            scenario_from_toml(
                EVENT_SCENARIO.replace("burst_threshold = 2", "burst_threshold = 0")
            )
        with pytest.raises(SpecError, match="refractory"):
            scenario_from_toml(
                EVENT_SCENARIO.replace("refractory_ms = 40.0", "refractory_ms = 0.0")
            )

    def test_refractory_must_not_exceed_floor(self):
        with pytest.raises(SpecError, match="refractory.*fallback_floor"):
            scenario_from_toml(
                EVENT_SCENARIO.replace("refractory_ms = 40.0", "refractory_ms = 400.0")
            )
