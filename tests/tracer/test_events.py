"""Tests for trace records and the circular buffer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.syscalls import SyscallNr
from repro.tracer import EventKind, RingBuffer, TraceEvent


def ev(t, pid=1):
    return TraceEvent(t, pid, SyscallNr.IOCTL, EventKind.SYSCALL_ENTRY)


class TestRingBuffer:
    def test_push_and_drain_in_order(self):
        rb = RingBuffer(8)
        for t in (3, 1, 4):
            rb.push(ev(t))
        assert [e.time for e in rb.drain()] == [3, 1, 4]
        assert len(rb) == 0

    def test_overwrite_drops_oldest(self):
        rb = RingBuffer(3)
        for t in range(5):
            rb.push(ev(t))
        assert [e.time for e in rb.drain()] == [2, 3, 4]
        assert rb.dropped == 2
        assert rb.total == 5

    def test_full_flag(self):
        rb = RingBuffer(2)
        assert not rb.full
        rb.push(ev(1))
        rb.push(ev(2))
        assert rb.full

    def test_peek_is_non_destructive(self):
        rb = RingBuffer(4)
        rb.push(ev(1))
        rb.push(ev(2))
        assert [e.time for e in rb.peek()] == [1, 2]
        assert len(rb) == 2

    def test_drain_empty(self):
        rb = RingBuffer(4)
        assert rb.drain() == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_drain_resets_positions(self):
        rb = RingBuffer(3)
        for t in range(3):
            rb.push(ev(t))
        rb.drain()
        for t in (10, 11):
            rb.push(ev(t))
        assert [e.time for e in rb.drain()] == [10, 11]

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40), st.integers(min_value=1, max_value=10))
    def test_drain_returns_last_capacity_events(self, times, capacity):
        rb = RingBuffer(capacity)
        for t in times:
            rb.push(ev(t))
        drained = [e.time for e in rb.drain()]
        assert drained == times[-capacity:]
        assert rb.dropped == max(0, len(times) - capacity)

    def test_wrapped_drain_is_oldest_first_and_clears_every_slot(self):
        rb = RingBuffer(4)
        for t in range(6):  # wraps: the head sits mid-buffer
            rb.push(ev(t))
        assert [e.time for e in rb.peek()] == [2, 3, 4, 5]
        assert [e.time for e in rb.drain()] == [2, 3, 4, 5]
        assert rb._slots == [None] * 4
        for t in (6, 7, 8):
            rb.push(ev(t))
        assert [e.time for e in rb.drain()] == [6, 7, 8]
        assert rb._slots == [None] * 4

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=12),
        st.integers(min_value=1, max_value=5),
    )
    def test_drains_keep_counters_and_clear_the_buffer(self, bursts, capacity):
        # interleaved bursts and drains: each drain returns the burst's
        # newest ``capacity`` events, ``dropped`` counts the overwritten
        # ones and ``total`` every push, and no event outlives its drain
        rb = RingBuffer(capacity)
        pushed = dropped = 0
        for burst in bursts:
            times = list(range(pushed, pushed + burst))
            for t in times:
                rb.push(ev(t))
            pushed += burst
            dropped += max(0, burst - capacity)
            assert [e.time for e in rb.drain()] == times[-capacity:]
            assert rb._slots == [None] * capacity
            assert (rb.dropped, rb.total, len(rb)) == (dropped, pushed, 0)


class TestTraceEvent:
    def test_value_semantics(self):
        e = TraceEvent(5, 42, SyscallNr.READ, EventKind.SYSCALL_EXIT)
        assert e == TraceEvent(5, 42, SyscallNr.READ, EventKind.SYSCALL_EXIT)
        assert e != TraceEvent(5, 42, SyscallNr.READ, EventKind.SYSCALL_ENTRY)
        # the hash of the frozen dataclass it replaces
        assert hash(e) == hash((5, 42, SyscallNr.READ, EventKind.SYSCALL_EXIT))
        assert repr(e) == "TraceEvent(5, pid=42, read, exit)"

    def test_fields(self):
        e = TraceEvent(5, 42, SyscallNr.READ, EventKind.SYSCALL_EXIT)
        assert (e.time, e.pid, e.nr, e.kind) == (5, 42, SyscallNr.READ, EventKind.SYSCALL_EXIT)

    def test_wakeup_event_has_no_syscall(self):
        e = TraceEvent(5, 42, None, EventKind.WAKEUP)
        assert e.nr is None
        assert "wakeup" in repr(e)
