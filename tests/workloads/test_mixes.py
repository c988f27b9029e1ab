"""Tests for the canonical system-call mixes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.syscalls import SyscallNr
from repro.workloads.mixes import MPLAYER_CALL_MIX, sample_burst, sample_call

CALLS = list(MPLAYER_CALL_MIX)


class TestMix:
    def test_normalised(self):
        assert sum(MPLAYER_CALL_MIX.values()) == pytest.approx(1.0)

    def test_ioctl_dominates(self):
        top = max(MPLAYER_CALL_MIX, key=MPLAYER_CALL_MIX.get)
        assert top is SyscallNr.IOCTL
        assert MPLAYER_CALL_MIX[SyscallNr.IOCTL] > 0.5


class TestSampling:
    def test_sample_call_in_mix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_call(rng) in MPLAYER_CALL_MIX

    def test_burst_length(self):
        rng = np.random.default_rng(0)
        assert len(sample_burst(rng, 7, CALLS)) == 7

    def test_empirical_frequencies_track_mix(self):
        rng = np.random.default_rng(42)
        calls = sample_burst(rng, 20_000, CALLS)
        ioctl_frac = sum(1 for c in calls if c is SyscallNr.IOCTL) / len(calls)
        assert abs(ioctl_frac - MPLAYER_CALL_MIX[SyscallNr.IOCTL]) < 0.02

    def test_deterministic_given_generator_state(self):
        a = sample_burst(np.random.default_rng(7), 10, CALLS)
        b = sample_burst(np.random.default_rng(7), 10, CALLS)
        assert a == b

    def test_returns_entries_of_the_callers_table(self):
        table = [object() for _ in CALLS]
        burst = sample_burst(np.random.default_rng(3), 50, table)
        assert all(any(item is entry for entry in table) for item in burst)


def _reference_burst(rng: np.random.Generator, n: int) -> list[int]:
    """The array formulation the list CDF replaced: the indices
    ``searchsorted(side="right")`` finds on the normalised cumsum."""
    weights = np.array([MPLAYER_CALL_MIX[c] for c in CALLS])
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right").tolist()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=0, max_value=64))
def test_burst_draws_the_reference_indices(seed, n):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_burst(rng, n, range(len(CALLS))) == _reference_burst(reference, n)
    # the same uniforms were consumed: the generators stay in step
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sample_call_draws_the_reference_index(seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert sample_call(rng) is CALLS[_reference_burst(reference, 1)[0]]
