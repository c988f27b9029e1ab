"""Single source of truth for the controller knob ranges.

Every tunable parameter of the self-tuning stack — the LFS++ spread
factor ``x``, the quantile-predictor window ``N`` and quantile ``p``,
the controller sampling period ``S``, the CBS exhaustion policy and
boost — is described once here as a :class:`Knob`: its kind, its hard
validity range (what ``__init__`` validation accepts) and its default
*search* range (what :class:`repro.tune.space.ParamSpace` explores).

The constructors in :mod:`repro.core.predictors`,
:mod:`repro.core.lfspp` and :mod:`repro.core.controller` all validate
through :meth:`Knob.validate`, and ``repro.tune`` derives its default
parameter space from :data:`CONTROLLER_KNOBS` — so a range widened (or
tightened) here propagates to both the runtime checks and the optimiser
without a second edit site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.sim.time import MS


@dataclass(frozen=True)
class Knob:
    """Range/validation metadata for one tunable parameter.

    ``lo``/``hi`` bound the *hard* validity range enforced at
    construction time (``None`` leaves that side unbounded;
    ``lo_open``/``hi_open`` exclude the endpoint).  ``tune_lo``/
    ``tune_hi`` bound the default *search* range the auto-tuner sweeps —
    always a subset of the validity range, usually much narrower.
    Categorical knobs enumerate ``choices`` instead.
    """

    name: str
    #: "float", "int" or "cat"
    kind: str
    lo: float | None = None
    hi: float | None = None
    #: exclude the lower / upper endpoint from the validity range
    lo_open: bool = False
    hi_open: bool = False
    #: accepted values for categorical knobs
    choices: tuple[str, ...] = ()
    default: Any = None
    #: default search range for the auto-tuner (floats/ints only)
    tune_lo: float | None = None
    tune_hi: float | None = None
    doc: str = ""

    def bounds_text(self) -> str:
        """Human-readable validity range, e.g. ``(0, 1]`` or ``>= 1``."""
        if self.kind == "cat":
            return f"one of {list(self.choices)}"
        if self.lo is not None and self.hi is not None:
            left = "(" if self.lo_open else "["
            right = ")" if self.hi_open else "]"
            return f"in {left}{self.lo}, {self.hi}{right}"
        if self.lo is not None:
            return f"> {self.lo}" if self.lo_open else f">= {self.lo}"
        if self.hi is not None:
            return f"< {self.hi}" if self.hi_open else f"<= {self.hi}"
        return "unbounded"  # pragma: no cover - no such knob today

    def validate(self, value: Any, *, name: str | None = None) -> None:
        """Raise ``ValueError`` unless ``value`` lies in the validity range.

        ``name`` overrides the reported parameter name (constructors
        sometimes expose a knob under a different field name, e.g.
        ``predictor_window`` for the ``window`` knob).
        """
        label = name or self.name
        if self.kind == "cat":
            if value not in self.choices:
                raise ValueError(f"{label} must be {self.bounds_text()}, got {value!r}")
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{label} must be a number, got {value!r}")
        if self.kind == "int" and not isinstance(value, int):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        if not -math.inf < value < math.inf:
            raise ValueError(f"{label} must be finite, got {value}")
        bad = (
            (self.lo is not None and (value < self.lo or (self.lo_open and value == self.lo)))
            or (self.hi is not None and (value > self.hi or (self.hi_open and value == self.hi)))
        )
        if bad:
            raise ValueError(f"{label} must be {self.bounds_text()}, got {value}")


#: the controller parameter space, keyed by canonical knob name
CONTROLLER_KNOBS: dict[str, Knob] = {
    "spread": Knob(
        name="spread",
        kind="float",
        lo=0.0,
        default=0.15,
        tune_lo=0.0,
        tune_hi=0.5,
        doc="LFS++ spread factor x: robustness margin over the prediction",
    ),
    "window": Knob(
        name="window",
        kind="int",
        lo=1,
        default=16,
        tune_lo=4,
        tune_hi=64,
        doc="quantile-predictor sliding-window length N",
    ),
    "quantile": Knob(
        name="quantile",
        kind="float",
        lo=0.0,
        hi=1.0,
        lo_open=True,
        default=0.9375,
        tune_lo=0.5,
        tune_hi=1.0,
        doc="predictor quantile p = (N - j)/N; 1.0 takes the window maximum",
    ),
    "sampling_period": Knob(
        name="sampling_period",
        kind="int",
        lo=0,
        lo_open=True,
        default=100 * MS,
        tune_lo=40 * MS,
        tune_hi=400 * MS,
        doc="controller sampling period S, ns",
    ),
    "max_bandwidth": Knob(
        name="max_bandwidth",
        kind="float",
        lo=0.0,
        hi=1.0,
        lo_open=True,
        default=0.95,
        tune_lo=0.5,
        tune_hi=1.0,
        doc="cap on the requested bandwidth (the supervisor may curb further)",
    ),
    "boost": Knob(
        name="boost",
        kind="float",
        lo=0.0,
        default=0.25,
        tune_lo=0.0,
        tune_hi=0.5,
        doc="multiplicative budget boost applied on exhaustion bursts",
    ),
    "policy": Knob(
        name="policy",
        kind="cat",
        choices=("hard", "soft", "background"),
        default="hard",
        doc="CBS exhaustion policy",
    ),
    # -- event-triggered activation (repro.core.events) ----------------
    "burst_threshold": Knob(
        name="burst_threshold",
        kind="int",
        lo=1,
        default=3,
        tune_lo=1,
        tune_hi=10,
        doc="event trigger: K budget exhaustions within burst_window fire a recompute",
    ),
    "burst_window": Knob(
        name="burst_window",
        kind="int",
        lo=0,
        lo_open=True,
        default=250 * MS,
        tune_lo=50 * MS,
        tune_hi=1000 * MS,
        doc="event trigger: sliding window (ns) the exhaustion burst is counted over",
    ),
    "refractory": Knob(
        name="refractory",
        kind="int",
        lo=0,
        lo_open=True,
        default=50 * MS,
        tune_lo=10 * MS,
        tune_hi=200 * MS,
        doc="event trigger: minimum spacing (ns) between recomputes; events inside it defer to the boundary",
    ),
    "fallback_floor": Knob(
        name="fallback_floor",
        kind="int",
        lo=0,
        lo_open=True,
        default=400 * MS,
        tune_lo=100 * MS,
        tune_hi=1000 * MS,
        doc="event trigger: periodic fallback (ns) — a recompute always fires within this of the last one",
    ),
}


def validate_knob(name: str, value: Any, *, label: str | None = None) -> None:
    """Validate ``value`` against the registered knob ``name``."""
    CONTROLLER_KNOBS[name].validate(value, name=label)
