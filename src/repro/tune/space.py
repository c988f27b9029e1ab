"""The searchable controller parameter space.

A :class:`ParamSpace` is an ordered tuple of :class:`ParamSpec` axes,
each a closed numeric interval over one controller knob.  The optimiser
(:mod:`repro.tune.search`) works exclusively in the unit cube
``[0, 1]^d``; :meth:`ParamSpace.config` maps a unit vector to a concrete
configuration dict (rounding integer axes), so every search algorithm is
bounds-respecting by construction.

The default space is **derived from** :data:`repro.core.knobs
.CONTROLLER_KNOBS` — the same registry the runtime constructors validate
against — so widening a knob's ``tune_lo``/``tune_hi`` there widens the
search here with no second edit site.  A space can also be declared
explicitly in a tune spec's ``[[param]]`` tables (see
:mod:`repro.tune.service`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any

from repro.core.knobs import CONTROLLER_KNOBS

#: knobs included in the knob-derived default space, in search order
DEFAULT_SPACE_KNOBS = ("spread", "window", "quantile", "sampling_period")

#: the event-trigger knobs, for ``default_space(EVENT_SPACE_KNOBS)``;
#: searching these implies ``trigger = "event"`` (see
#: :func:`repro.tune.classes.controller_from_config`)
EVENT_SPACE_KNOBS = ("burst_threshold", "burst_window", "refractory", "fallback_floor")

#: parameter kinds a space axis may take
PARAM_KINDS = ("float", "int")

#: most ulp steps :meth:`ParamSpec.unit` takes to make a float round trip
#: exact (one step fixed every miss in 300,000 random axes)
_UNIT_STEPS = 4


class SpaceError(ValueError):
    """A parameter-space declaration is malformed."""


@dataclass(frozen=True)
class ParamSpec:
    """One search axis: a closed interval over a numeric knob."""

    name: str
    #: "float" or "int"
    kind: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        """Reject malformed axes early, with the axis name in the message."""
        if not self.name:
            raise SpaceError("param: 'name' must be a non-empty string")
        if self.kind not in PARAM_KINDS:
            raise SpaceError(
                f"param {self.name!r}: kind must be one of {list(PARAM_KINDS)}, "
                f"got {self.kind!r}"
            )
        for label in ("lo", "hi"):
            _finite(getattr(self, label), f"param {self.name!r}: {label!r}")
        if not self.lo < self.hi:
            raise SpaceError(
                f"param {self.name!r}: need lo < hi, got [{self.lo}, {self.hi}]"
            )
        if self.hi - self.lo > sys.float_info.max:
            raise SpaceError(
                f"param {self.name!r}: hi - lo overflows, got [{self.lo}, {self.hi}]"
            )
        if self.kind == "int" and (int(self.lo) != self.lo or int(self.hi) != self.hi):
            raise SpaceError(
                f"param {self.name!r}: integer axis needs integer bounds, "
                f"got [{self.lo}, {self.hi}]"
            )

    def value(self, u: float) -> float | int:
        """Map a unit-cube coordinate to a concrete knob value."""
        u = min(max(u, 0.0), 1.0)
        raw = self.lo + u * (self.hi - self.lo)
        if self.kind == "int":
            return min(max(int(round(raw)), int(self.lo)), int(self.hi))
        return raw

    def unit(self, value: float) -> float:
        """Inverse of :meth:`value` (clipped to the cube).

        On a float axis ``value(unit(x)) == x`` for every ``x`` that
        :meth:`value` returns: where the quotient misses by rounding,
        ``unit`` steps to the neighbouring float that maps back to ``x``.

        >>> p = ParamSpec("x", "float", 0.99999, 13.99999)
        >>> p.value(0.25), p.value(p.unit(p.value(0.25)))
        (4.24999, 4.24999)
        """
        u = min(max((float(value) - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        if self.kind == "float":
            for _ in range(_UNIT_STEPS):
                got = self.value(u)
                if got == value:
                    break
                u = math.nextafter(u, 1.0 if got < value else 0.0)
        return u

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form for the report artefact."""
        return {"name": self.name, "kind": self.kind, "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class ParamSpace:
    """An ordered, immutable collection of search axes."""

    params: tuple[ParamSpec, ...]

    def __post_init__(self) -> None:
        """A space needs at least one axis and unique names."""
        if not self.params:
            raise SpaceError("parameter space must declare at least one param")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate param names in space: {names}")

    @property
    def dim(self) -> int:
        """Number of search axes."""
        return len(self.params)

    @property
    def names(self) -> tuple[str, ...]:
        """Axis names, in search order."""
        return tuple(p.name for p in self.params)

    def config(self, unit: list[float] | tuple[float, ...]) -> dict[str, float | int]:
        """Map a unit-cube point to a concrete configuration dict."""
        if len(unit) != self.dim:
            raise SpaceError(f"unit vector has {len(unit)} coords, space has {self.dim}")
        return {p.name: p.value(u) for p, u in zip(self.params, unit, strict=True)}

    def unit(self, config: dict[str, float | int]) -> list[float]:
        """Map a configuration dict back into the unit cube."""
        return [p.unit(config[p.name]) for p in self.params]

    def to_jsonable(self) -> list[dict[str, Any]]:
        """Stable JSON form for the report artefact."""
        return [p.to_jsonable() for p in self.params]


def default_space(names: tuple[str, ...] = DEFAULT_SPACE_KNOBS) -> ParamSpace:
    """The knob-derived search space (single source of truth: the registry).

    >>> space = default_space()
    >>> space.names
    ('spread', 'window', 'quantile', 'sampling_period')
    >>> space.config([0.0] * space.dim)['window']
    4
    """
    params = []
    for name in names:
        knob = CONTROLLER_KNOBS[name]
        if knob.kind == "cat" or knob.tune_lo is None or knob.tune_hi is None:
            raise SpaceError(f"knob {name!r} declares no search range")
        params.append(
            ParamSpec(name=name, kind=knob.kind, lo=float(knob.tune_lo), hi=float(knob.tune_hi))
        )
    return ParamSpace(params=tuple(params))


def default_config(space: ParamSpace) -> dict[str, float | int]:
    """The paper-default configuration restricted to the space's axes.

    Axis values come from the knob registry defaults (clipped into the
    axis interval); axes with no registered knob fall back to the
    interval midpoint.
    """
    config: dict[str, float | int] = {}
    for p in space.params:
        knob = CONTROLLER_KNOBS.get(p.name)
        if knob is not None and knob.default is not None:
            config[p.name] = p.value(p.unit(knob.default))
        else:
            config[p.name] = p.value(0.5)
    return config


def space_from_tables(tables: list[dict[str, Any]]) -> ParamSpace:
    """Build a space from parsed ``[[param]]`` TOML tables.

    Each table either names a registered knob (``knob = "spread"``,
    optionally overriding ``lo``/``hi``) or declares a free axis in full
    (``name``/``kind``/``lo``/``hi``).
    """
    params: list[ParamSpec] = []
    for i, table in enumerate(tables):
        if not isinstance(table, dict):
            raise SpaceError(f"param #{i}: must be a table")
        unknown = sorted(set(table) - {"knob", "name", "kind", "lo", "hi"})
        if unknown:
            raise SpaceError(f"param #{i}: unknown keys {unknown}")
        knob_name = table.get("knob")
        if knob_name is not None:
            knob = CONTROLLER_KNOBS.get(str(knob_name))
            if knob is None:
                raise SpaceError(
                    f"param #{i}: unknown knob {knob_name!r}; registered knobs: "
                    f"{sorted(CONTROLLER_KNOBS)}"
                )
            if knob.kind == "cat":
                raise SpaceError(f"param #{i}: categorical knob {knob_name!r} is not searchable")
            name, kind = knob.name, knob.kind
            lo, hi = table.get("lo", knob.tune_lo), table.get("hi", knob.tune_hi)
        else:
            for key in ("name", "kind", "lo", "hi"):
                if key not in table:
                    raise SpaceError(f"param #{i}: missing {key!r} (or use knob = \"...\")")
            name, kind = str(table["name"]), str(table["kind"])
            lo, hi = table["lo"], table["hi"]
        where = f"param {name!r}"
        params.append(
            ParamSpec(
                name=name,
                kind=kind,
                lo=_finite(lo, f"{where}: 'lo'"),
                hi=_finite(hi, f"{where}: 'hi'"),
            )
        )
    return ParamSpace(params=tuple(params))


def _finite(value: Any, what: str) -> float:
    """``value`` as a float; a boolean, a non-number or a non-finite one is a SpaceError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:
        return float(value)
    raise SpaceError(f"{what} must be a finite number, got {value!r}")
