"""Scenario spec DSL: frozen dataclasses loadable from TOML.

A :class:`ScenarioSpec` is a complete, self-contained description of one
simulation — workload mix, scheduler (with CBS reservation parameters),
fault plan, horizon and seed — expressed entirely in integers (ns) and
small strings so it hashes stably, pickles cheaply to worker processes
and round-trips through JSON byte-identically.  The TOML surface uses
milliseconds (floats allowed) for every duration; parsing converts to
integer nanoseconds once, so nothing downstream ever touches float time.

Validation is strict: unknown keys, unknown scheduler/workload kinds and
out-of-range values all raise :class:`SpecError` naming the offending
key and the accepted alternatives.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tomllib
from collections.abc import Collection
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, TypeVar

from repro.sim.time import MS

#: scheduler kinds the DSL accepts (see :mod:`repro.sched`)
SCHEDULER_KINDS = ("cbs", "edf", "fp", "stride", "rr")

#: workload kinds the DSL accepts (see :mod:`repro.workloads`)
WORKLOAD_KINDS = ("periodic", "mplayer", "video", "vlc")

#: fault kinds the DSL accepts (both wrap workload programs)
FAULT_KINDS = ("overload", "mode-switch")


class SpecError(ValueError):
    """A scenario document that cannot be turned into a valid spec."""


def load_toml(text: str) -> dict[str, Any]:
    """Parse a TOML document; a malformed one is a :class:`SpecError`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"malformed TOML: {exc}") from None


def _ms_to_ns(value: Any, key: str, where: str) -> int:
    """Convert a TOML millisecond value (int or float) to integer ns."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: {key!r} must be a number of milliseconds, got {value!r}")
    ns = value * MS
    if not 0 <= ns <= sys.float_info.max:
        raise SpecError(f"{where}: {key!r} must be finite and >= 0 ms, got {value!r}")
    return round(ns)


def _require(table: dict[str, Any], key: str, where: str) -> Any:
    if key not in table:
        raise SpecError(f"{where}: missing required key {key!r}")
    return table[key]


def _reject_unknown(table: dict[str, Any], allowed: Collection[str], where: str) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise SpecError(
            f"{where}: unknown key(s) {unknown}; accepted keys are {sorted(allowed)}"
        )


def _scalar(value: Any, kind: str, key: str, where: str) -> Any:
    """Type-check one TOML value for a field of type ``kind``.

    ``str`` fields take the value's string form; ``int`` fields take
    integers, ``float`` fields any finite number, ``bool`` fields only
    booleans (a TOML boolean is never a number here).
    """
    if kind == "str":
        return str(value)
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise SpecError(f"{where}: {key!r} must be a boolean, got {value!r}")
    if not isinstance(value, bool):
        if kind == "int" and isinstance(value, int):
            return value
        if kind == "float" and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
    noun = "an integer" if kind == "int" else "a finite number"
    raise SpecError(f"{where}: {key!r} must be {noun}, got {value!r}")


def _int_field(table: dict[str, Any], key: str, default: int, where: str) -> int:
    return _scalar(table.get(key, default), "int", key, where)


@cache
def _toml_fields(cls: type[Any]) -> dict[str, tuple[str, str, bool]]:
    """TOML key -> (field name, type, required) of the flat dataclass ``cls``.

    A ``*_ns`` field is read from the ``*_ms`` key; every field is one of
    ``int``, ``float``, ``bool`` or ``str``; a field without a default is
    required.
    """
    table = {}
    for f in fields(cls):
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        if kind not in ("int", "float", "bool", "str"):
            raise TypeError(f"{cls.__name__}.{f.name}: a spec table holds scalars, not {kind}")
        key = f.name[:-3] + "_ms" if f.name.endswith("_ns") else f.name
        table[key] = (f.name, kind, f.default is MISSING and f.default_factory is MISSING)
    return table


_Spec = TypeVar("_Spec")


def from_table(cls: type[_Spec], table: dict[str, Any], where: str) -> _Spec:
    """Build the flat spec ``cls`` from one TOML table, field by field.

    The accepted keys are the fields; a ``*_ns`` field reads its ``*_ms``
    key through :func:`_ms_to_ns`.  A missing key keeps the field default.
    Range and cross-field checks are the class's ``__post_init__``; a
    plain ``ValueError`` raised there comes back as a :class:`SpecError`
    prefixed with ``where``.
    """
    spec_fields = _toml_fields(cls)
    _reject_unknown(table, spec_fields, where)
    kwargs = {}
    for key, (name, kind, required) in spec_fields.items():
        if key not in table:
            if required:
                raise SpecError(f"{where}: missing required key {key!r}")
        elif name != key:
            kwargs[name] = _ms_to_ns(table[key], key, where)
        else:
            kwargs[name] = _scalar(table[key], kind, key, where)
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduler dispatches the node, plus CBS exhaustion policy."""

    #: one of :data:`SCHEDULER_KINDS`
    kind: str = "cbs"
    #: CBS exhaustion policy ("hard" / "soft" / "background"); cbs only
    policy: str = "hard"

    def __post_init__(self) -> None:
        """Validate the kind/policy combination."""
        if self.kind not in SCHEDULER_KINDS:
            raise SpecError(
                f"scheduler: unknown kind {self.kind!r}; accepted kinds are "
                f"{list(SCHEDULER_KINDS)}"
            )
        if self.policy not in ("hard", "soft", "background"):
            raise SpecError(
                f"scheduler: unknown policy {self.policy!r}; accepted policies are "
                "['hard', 'soft', 'background']"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload entry: ``count`` seeded instances of a generative model.

    All durations are integer ns (the TOML surface takes milliseconds).
    Scheduler-attachment fields are interpreted by the active scheduler
    kind: ``budget_ns``/``server_period_ns`` size a CBS server shared by
    every instance (``budget_ns == 0`` leaves the instances best-effort),
    ``deadline_ns`` feeds EDF (0 = the workload period), ``priority``
    feeds fixed-priority (-1 = declaration order) and ``tickets`` feeds
    the stride scheduler.
    """

    kind: str
    name: str
    count: int = 1
    seed: int = 0
    #: periodic jobs / player frames per instance; 0 = run the whole horizon
    jobs: int = 0
    period_ns: int = 0
    cost_ns: int = 0
    #: relative cost jitter in [0, 1) (0 keeps periodic tasks fast-forwardable)
    jitter: float = 0.0
    phase_ns: int = 0
    budget_ns: int = 0
    server_period_ns: int = 0
    deadline_ns: int = 0
    priority: int = -1
    tickets: int = 1
    #: put every instance under an adaptive reservation driven by the
    #: scenario's [controller] table (requires one; cbs only)
    adaptive: bool = False

    def __post_init__(self) -> None:
        """Validate kind, count and the jitter range."""
        where = f"workload {self.name!r}"
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(
                f"{where}: unknown kind {self.kind!r}; accepted kinds are "
                f"{list(WORKLOAD_KINDS)}"
            )
        if not self.name:
            raise SpecError("workload: 'name' must be a non-empty string")
        if self.count < 1:
            raise SpecError(f"{where}: 'count' must be >= 1, got {self.count}")
        if not 0.0 <= self.jitter < 1.0:
            raise SpecError(f"{where}: 'jitter' must be in [0, 1), got {self.jitter}")
        if self.kind == "periodic" and self.cost_ns <= 0:
            raise SpecError(f"{where}: periodic workloads need 'cost_ms' > 0")
        if self.kind == "periodic" and self.period_ns <= 0:
            raise SpecError(f"{where}: periodic workloads need 'period_ms' > 0")


@dataclass(frozen=True)
class FaultSpec:
    """A named :mod:`repro.faults` plan applied to the workload programs.

    ``plan`` names an entry of :data:`repro.faults.NAMED_PLANS`; ``scale``
    multiplies its intensities (0 disables it entirely, preserving the
    zero-intensity transparency contract).  ``kind`` selects the
    :class:`~repro.faults.injectors.WorkloadFaults` sub-plan: ``overload``
    inflates compute, ``mode-switch`` stretches activation periods.
    ``target`` restricts injection to workloads whose name starts with it
    (empty = all workloads).
    """

    plan: str = "zero"
    scale: float = 1.0
    kind: str = "overload"
    target: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the plan name, kind and scale."""
        from repro.faults import NAMED_PLANS

        if self.plan not in NAMED_PLANS:
            raise SpecError(
                f"fault: unknown plan {self.plan!r}; accepted plans are "
                f"{sorted(NAMED_PLANS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise SpecError(
                f"fault: unknown kind {self.kind!r}; accepted kinds are {list(FAULT_KINDS)}"
            )
        if self.scale < 0:
            raise SpecError(f"fault: 'scale' must be >= 0, got {self.scale}")

    @property
    def is_zero(self) -> bool:
        """True when the spec can never inject anything."""
        from repro.faults import plan_from_name

        return plan_from_name(self.plan, scale=self.scale).is_zero


#: feedback laws the [controller] table accepts
CONTROLLER_LAWS = ("lfspp", "lfs")


@dataclass(frozen=True)
class ControllerSpec:
    """Adaptive-reservation parameters for the scenario's ``adaptive``
    workloads (the knobs of the paper's ``lfs++`` tool).

    Present, it routes the build through
    :class:`repro.core.runtime.SelfTuningRuntime`: every ``adaptive``
    workload gets a per-instance CBS server driven by the selected
    feedback law; fixed-``budget_ms`` workloads become static
    reservations admitted through the same supervisor.  Hard ranges are
    validated against :data:`repro.core.knobs.CONTROLLER_KNOBS`, the
    same registry the runtime constructors enforce.

    ``boost_threshold < 0`` disables the §4.4-remark-1 exhaustion boost
    (the paper's baseline).  ``rate_detection`` enables the period
    analyser; off (the default), the reservation period is pinned to the
    workload's declared period — the cheap, fully deterministic setting
    fleet-scale tuning sweeps run at.

    ``trigger = "event"`` switches every adaptive controller from the
    paper's clocked loop to the event-driven mode of
    :mod:`repro.core.events` — recompute on exhaustion bursts
    (``burst_threshold`` within ``burst_window_ms``) and deadline misses
    (the scenario's ``miss_threshold_ms``), spaced by ``refractory_ms``
    and floored by ``fallback_floor_ms``.
    """

    law: str = "lfspp"
    spread: float = 0.15
    window: int = 16
    quantile: float = 0.9375
    sampling_period_ns: int = 100 * MS
    boost: float = 0.25
    boost_threshold: float = -1.0
    rate_detection: bool = False
    u_lub: float = 0.95
    #: activation mode: "periodic" (every sampling_period) or "event"
    trigger: str = "periodic"
    burst_threshold: int = 3
    burst_window_ns: int = 250 * MS
    refractory_ns: int = 50 * MS
    fallback_floor_ns: int = 400 * MS

    def __post_init__(self) -> None:
        """Validate the law and every knob against the registry."""
        from repro.core.knobs import CONTROLLER_KNOBS

        if self.law not in CONTROLLER_LAWS:
            raise SpecError(
                f"controller: unknown law {self.law!r}; accepted laws are "
                f"{list(CONTROLLER_LAWS)}"
            )
        try:
            CONTROLLER_KNOBS["spread"].validate(self.spread)
            CONTROLLER_KNOBS["window"].validate(self.window)
            CONTROLLER_KNOBS["quantile"].validate(self.quantile)
            CONTROLLER_KNOBS["sampling_period"].validate(
                self.sampling_period_ns, name="sampling_period_ms"
            )
            CONTROLLER_KNOBS["boost"].validate(self.boost)
            CONTROLLER_KNOBS["burst_threshold"].validate(self.burst_threshold)
            CONTROLLER_KNOBS["burst_window"].validate(
                self.burst_window_ns, name="burst_window_ms"
            )
            CONTROLLER_KNOBS["refractory"].validate(self.refractory_ns, name="refractory_ms")
            CONTROLLER_KNOBS["fallback_floor"].validate(
                self.fallback_floor_ns, name="fallback_floor_ms"
            )
        except ValueError as exc:
            raise SpecError(f"controller: {exc}") from None
        if not 0.0 < self.u_lub <= 1.0:
            raise SpecError(f"controller: 'u_lub' must be in (0, 1], got {self.u_lub}")
        if self.trigger not in ("periodic", "event"):
            raise SpecError(
                f"controller: unknown trigger {self.trigger!r}; accepted triggers are "
                "['periodic', 'event']"
            )
        if self.refractory_ns > self.fallback_floor_ns:
            raise SpecError(
                f"controller: 'refractory_ms' ({self.refractory_ns} ns) must not exceed "
                f"'fallback_floor_ms' ({self.fallback_floor_ns} ns)"
            )


_SCENARIO_KEYS = ("name", "seed", "horizon_ms", "miss_threshold_ms")
_TOP_KEYS = ("scenario", "scheduler", "workload", "fault", "controller")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully concrete simulation: everything a worker needs to run it."""

    name: str
    seed: int
    horizon_ns: int
    #: wake-up→dispatch latency above this counts as a deadline miss
    miss_threshold_ns: int
    scheduler: SchedulerSpec
    workloads: tuple[WorkloadSpec, ...]
    fault: FaultSpec = field(default_factory=FaultSpec)
    #: adaptive-reservation parameters; None = no [controller] table
    controller: ControllerSpec | None = None
    #: template expansion group (one grid combo), "" for hand-written specs
    group: str = ""

    def __post_init__(self) -> None:
        """Validate the horizon and the workload list."""
        if not self.name:
            raise SpecError("scenario: 'name' must be a non-empty string")
        if self.horizon_ns <= 0:
            raise SpecError(f"scenario: 'horizon_ms' must be > 0, got {self.horizon_ns} ns")
        if self.miss_threshold_ns <= 0:
            raise SpecError(
                f"scenario: 'miss_threshold_ms' must be > 0, got {self.miss_threshold_ns} ns"
            )
        if not self.workloads:
            raise SpecError("scenario: at least one [[workload]] entry is required")
        names = [w.name for w in self.workloads]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SpecError(f"scenario: duplicate workload name(s) {dupes}")
        adaptive = [w.name for w in self.workloads if w.adaptive]
        if adaptive and self.controller is None:
            raise SpecError(
                f"scenario: adaptive workload(s) {adaptive} need a [controller] table"
            )
        if self.controller is not None and not adaptive:
            raise SpecError(
                "scenario: [controller] present but no workload is marked "
                "adaptive = true"
            )
        if self.controller is not None and self.scheduler.kind != "cbs":
            raise SpecError(
                "scenario: [controller] requires scheduler kind 'cbs', got "
                f"{self.scheduler.kind!r}"
            )

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON form: every field, nested specs as dicts."""
        return asdict(self)

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON form: equal specs hash equal."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def scenario_from_dict(doc: dict[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a parsed scenario document."""
    _reject_unknown(doc, _TOP_KEYS, "document")
    scenario = doc.get("scenario", {})
    if not isinstance(scenario, dict):
        raise SpecError("document: [scenario] must be a table")
    _reject_unknown(scenario, _SCENARIO_KEYS, "scenario")
    workloads_raw = doc.get("workload", [])
    if not isinstance(workloads_raw, list):
        raise SpecError("document: 'workload' must be an array of tables ([[workload]])")
    fault_raw = doc.get("fault", {})
    if not isinstance(fault_raw, dict):
        raise SpecError("document: [fault] must be a table")
    controller_raw = doc.get("controller")
    if controller_raw is not None and not isinstance(controller_raw, dict):
        raise SpecError("document: [controller] must be a table")
    workloads = []
    for table in workloads_raw:
        name = str(table.get("name", ""))
        workloads.append(
            from_table(WorkloadSpec, table, f"workload {name!r}" if name else "workload")
        )
    return ScenarioSpec(
        name=str(_require(scenario, "name", "scenario")),
        seed=_int_field(scenario, "seed", 0, "scenario"),
        horizon_ns=_ms_to_ns(_require(scenario, "horizon_ms", "scenario"), "horizon_ms", "scenario"),
        miss_threshold_ns=_ms_to_ns(
            scenario.get("miss_threshold_ms", 10.0), "miss_threshold_ms", "scenario"
        ),
        scheduler=from_table(SchedulerSpec, doc.get("scheduler", {}), "scheduler"),
        workloads=tuple(workloads),
        fault=from_table(FaultSpec, fault_raw, "fault"),
        controller=(
            from_table(ControllerSpec, controller_raw, "controller")
            if controller_raw is not None
            else None
        ),
    )


def scenario_from_toml(text: str) -> ScenarioSpec:
    """Parse a scenario TOML document into a :class:`ScenarioSpec`."""
    return scenario_from_dict(load_toml(text))


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load one concrete scenario from a ``.toml`` file."""
    return scenario_from_toml(Path(path).read_text())
