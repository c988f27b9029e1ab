"""Every scheduler states its fast-forward surface.

Steady-state fast-forward (:mod:`repro.sim.cycles`) drives a policy
through four methods: ``cycle_state``, ``shift_times``, ``cycle_periods``
and ``cycle_counters``.  :class:`~repro.sched.base.Scheduler` ships safe
defaults for all four, so a policy that forgot one looks exactly like a
policy for which the default is right — and the fast-forward equivalence
test cannot tell them apart: CBS without its ``shift_times`` still
matches the full run on every canonical periodic scenario.  The contract
makes the choice explicit instead.  Every surface method a concrete
scheduler inherits from the two roots must be listed in a
``cycle_defaults_ok`` on its MRO, and a class's own declaration may name
only surface methods the class does not define.

The check runs on the live classes: it imports every ``repro`` module and
walks ``Scheduler``'s subclasses.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.sched.base import Scheduler, SmpScheduler
from repro.sched.cbs import CbsScheduler
from repro.sched.edf import EdfScheduler

SURFACE = ("cycle_state", "shift_times", "cycle_periods", "cycle_counters")
ROOTS = (Scheduler, SmpScheduler)


def _subclasses(cls: type) -> set[type]:
    found: set[type] = set()
    for sub in cls.__subclasses__():
        found |= {sub, *_subclasses(sub)}
    return found


def repro_schedulers() -> list[type[Scheduler]]:
    """Every concrete ``Scheduler`` subclass defined under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    found = [
        cls
        for cls in _subclasses(Scheduler)
        if cls.__module__.startswith("repro.") and not inspect.isabstract(cls)
    ]
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def undeclared(cls: type[Scheduler]) -> list[str]:
    """Surface methods ``cls`` leaves to the roots without declaring it."""
    defined = {m for k in cls.__mro__ if k not in ROOTS for m in SURFACE if m in vars(k)}
    declared = {m for k in cls.__mro__ for m in vars(k).get("cycle_defaults_ok", ())}
    return [m for m in SURFACE if m not in defined | declared]


def stale(cls: type[Scheduler]) -> list[str]:
    """Entries of ``cls``'s own declaration that are not inherited surface methods."""
    own = vars(cls).get("cycle_defaults_ok", ())
    return [m for m in own if m not in SURFACE or m in vars(cls)]


def test_every_repro_scheduler_states_its_surface():
    schedulers = repro_schedulers()
    # the walk reached the policies (a silent import miss checks nothing)
    assert {CbsScheduler, EdfScheduler} <= set(schedulers)
    problems = {
        cls.__qualname__: {"undeclared": undeclared(cls), "stale": stale(cls)}
        for cls in schedulers
        if undeclared(cls) or stale(cls)
    }
    assert not problems, problems


# -- the check must flag these ------------------------------------------------


class _Policy(Scheduler):
    """A concrete do-nothing policy to hang surface variants on."""

    def on_ready(self, proc, now):
        pass

    def on_block(self, proc, now):
        pass

    def pick(self, now):
        return None

    def charge(self, proc, delta, now):
        pass


class PartialScheduler(_Policy):
    def cycle_state(self, now):
        return ()


class DeclaredScheduler(_Policy):
    cycle_defaults_ok = ("shift_times", "cycle_periods", "cycle_counters")

    def cycle_state(self, now):
        return ()


class StaleScheduler(_Policy):
    cycle_defaults_ok = ("cycle_state", "shift_times", "cycle_periods", "cycle_counters")

    def cycle_state(self, now):
        return ()


class BogusScheduler(_Policy):
    cycle_defaults_ok = ("warp_times", "shift_times", "cycle_periods", "cycle_counters")

    def cycle_state(self, now):
        return ()


@pytest.mark.parametrize(
    ("cls", "missing", "wrong"),
    [
        (PartialScheduler, ["shift_times", "cycle_periods", "cycle_counters"], []),
        (DeclaredScheduler, [], []),
        (StaleScheduler, [], ["cycle_state"]),
        (BogusScheduler, [], ["warp_times"]),
    ],
    ids=["partial", "declared", "stale", "bogus"],
)
def test_surface_variants(cls, missing, wrong):
    assert undeclared(cls) == missing
    assert stale(cls) == wrong


def test_cbs_without_shift_times_is_flagged(monkeypatch):
    # CBS keeps absolute server deadlines: inheriting the no-op default
    # would freeze them across a skip
    monkeypatch.delattr(CbsScheduler, "shift_times")
    assert undeclared(CbsScheduler) == ["shift_times"]


def test_edf_without_its_declaration_is_flagged(monkeypatch):
    monkeypatch.delattr(EdfScheduler, "cycle_defaults_ok")
    assert undeclared(EdfScheduler) == ["cycle_periods", "cycle_counters"]


def test_cbs_without_cycle_periods_is_flagged(monkeypatch):
    # the equivalence check cannot see this deletion: it only makes the
    # boundary grid finer (tests/sim/test_fastforward.py)
    monkeypatch.delattr(CbsScheduler, "cycle_periods")
    assert undeclared(CbsScheduler) == ["cycle_periods"]
