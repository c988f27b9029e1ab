"""Unit tests for program instructions."""

from dataclasses import dataclass

import pytest

from repro.sim.instructions import Compute, Fire, Label, SleepFor, SleepUntil, Syscall, WaitEvent
from repro.sim.syscalls import DEFAULT_COST_NS, SyscallNr, default_cost
from repro.sim.time import US


class TestCompute:
    def test_positive_duration(self):
        assert Compute(100).duration == 100

    def test_zero_duration_allowed(self):
        assert Compute(0).duration == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)


class TestSyscall:
    def test_default_cost_from_table(self):
        call = Syscall(SyscallNr.READ)
        assert call.cost == default_cost(SyscallNr.READ)

    def test_explicit_cost(self):
        assert Syscall(SyscallNr.READ, cost=42).cost == 42

    def test_blocking_specs(self):
        call = Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(1000))
        assert call.block == SleepUntil(1000)
        call = Syscall(SyscallNr.NANOSLEEP, block=SleepFor(500))
        assert call.block.duration == 500
        call = Syscall(SyscallNr.READ, block=WaitEvent("io"))
        assert call.block.key == "io"

    def test_negative_return_cost_rejected(self):
        with pytest.raises(ValueError):
            Syscall(SyscallNr.READ, return_cost=-1)

    def test_all_syscalls_have_default_costs(self):
        for nr in SyscallNr:
            assert default_cost(nr) > 0
            assert Syscall(nr).cost == default_cost(nr)

    def test_every_default_cost_is_unchanged(self):
        names_by_us = {
            1: "clock_gettime gettimeofday lseek rt_sigaction qres_get_time",
            2: "read write clock_nanosleep nanosleep futex close fstat brk writev",
            3: "ioctl select poll stat",
            4: "munmap mmap",
            5: "open",
        }
        expected = {name: us * US for us, names in names_by_us.items() for name in names.split()}
        assert {nr.value: Syscall(nr).cost for nr in SyscallNr} == expected
        for nr in SyscallNr:
            assert nr.default_ns == DEFAULT_COST_NS[nr] == default_cost(nr)

    def test_building_a_syscall_does_not_hash_the_enum(self, monkeypatch):
        # ``Enum.__hash__`` is a Python-level call; a table keyed on the
        # member would pay it once per call a workload issues
        hashed = []
        plain = SyscallNr.__hash__

        def counting(nr):
            hashed.append(nr)
            return plain(nr)

        monkeypatch.setattr(SyscallNr, "__hash__", counting)
        assert default_cost(SyscallNr.READ) and hashed == [SyscallNr.READ]
        hashed.clear()
        for nr in SyscallNr:
            Syscall(nr)
            Syscall(nr, block=SleepFor(1))
        assert hashed == []


# the frozen dataclasses the slotted block specs replaced, kept as the
# reference for their equality, hash and repr
@dataclass(frozen=True)
class _SleepUntil:
    wake_at: int


@dataclass(frozen=True)
class _SleepFor:
    duration: int


@dataclass(frozen=True)
class _WaitEvent:
    key: str


class TestBlockSpecs:
    @pytest.mark.parametrize(
        ("spec", "reference", "values"),
        [
            (SleepUntil, _SleepUntil, [0, 1, 10**12, -5]),
            (SleepFor, _SleepFor, [0, 500, 2**62]),
            (WaitEvent, _WaitEvent, ["io", "", "vlc:3:frame"]),
        ],
    )
    def test_match_the_dataclass_forms(self, spec, reference, values):
        for value in values:
            new, old = spec(value), reference(value)
            assert repr(new) == repr(old).replace("_", "", 1)
            assert hash(new) == hash(old)
            assert new == spec(value) and not new != spec(value)
            for other in values:
                assert (new == spec(other)) == (old == reference(other))

    def test_specs_of_different_kinds_differ(self):
        assert SleepUntil(5) != SleepFor(5)
        assert SleepFor(5) != 5
        assert WaitEvent("a") != "a"
        assert len({SleepUntil(5), SleepUntil(5), SleepFor(5)}) == 2


class TestZeroTimeInstructions:
    def test_fire_carries_key(self):
        assert Fire("pipe").key == "pipe"

    def test_label_default_payload(self):
        label = Label("frame_displayed")
        assert label.payload == {}

    def test_label_payload(self):
        assert Label("x", {"frame": 3}).payload["frame"] == 3
