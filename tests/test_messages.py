"""Tests for messages and delay policies (sim.messages)."""

import random

import pytest

from repro.errors import DelayBoundError
from repro.sim.messages import (
    FixedFractionDelay,
    HalfDistanceDelay,
    Message,
    PerPairDelay,
    SequenceDelay,
    UniformRandomDelay,
    validate_delay,
)

RNG = random.Random(0)


def d(policy, sender=0, receiver=1, t=0.0, distance=4.0, seq=0):
    return policy.delay(sender, receiver, t, distance, seq, RNG)


class TestValidateDelay:
    def test_in_band_passes(self):
        assert validate_delay(2.0, 4.0) == 2.0

    def test_clamps_tiny_violations(self):
        assert validate_delay(-1e-12, 4.0) == 0.0
        assert validate_delay(4.0 + 1e-12, 4.0) == 4.0

    def test_rejects_real_violations(self):
        with pytest.raises(DelayBoundError):
            validate_delay(-0.5, 4.0)
        with pytest.raises(DelayBoundError):
            validate_delay(4.5, 4.0)

    def test_rejects_nan(self):
        # NaN fails every comparison: it must fail the band check by
        # name, not pass it and clamp to NaN.
        with pytest.raises(DelayBoundError, match="nan"):
            validate_delay(float("nan"), 1.0)


class TestMessage:
    def test_receive_time(self):
        m = Message(seq=0, sender=0, receiver=1, payload=None, send_time=3.0, delay=1.5)
        assert m.receive_time == 4.5


class TestHalfDistance:
    def test_exactly_half(self):
        assert d(HalfDistanceDelay(), distance=6.0) == 3.0


class TestFixedFraction:
    def test_fraction(self):
        assert d(FixedFractionDelay(0.25), distance=8.0) == 2.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(DelayBoundError):
            FixedFractionDelay(1.5)
        with pytest.raises(DelayBoundError):
            FixedFractionDelay(-0.1)


class TestUniformRandom:
    def test_within_band(self):
        policy = UniformRandomDelay(0.25, 0.75)
        rng = random.Random(42)
        for _ in range(200):
            delay = policy.delay(0, 1, 0.0, 4.0, 0, rng)
            assert 1.0 <= delay <= 3.0

    def test_rejects_bad_band(self):
        with pytest.raises(DelayBoundError):
            UniformRandomDelay(0.8, 0.2)
        with pytest.raises(DelayBoundError):
            UniformRandomDelay(-0.1, 0.5)


class TestPerPair:
    def test_fixed_pair_and_fallback(self):
        policy = PerPairDelay()
        policy.set(0, 1, 3.5)
        assert d(policy, 0, 1) == 3.5
        assert d(policy, 1, 0) == 2.0  # fallback d/2

    def test_directionality(self):
        policy = PerPairDelay()
        policy.set(0, 1, 0.0)
        policy.set(1, 0, 4.0)
        assert d(policy, 0, 1) == 0.0
        assert d(policy, 1, 0) == 4.0

    def test_set_after_switches_at_time(self):
        policy = PerPairDelay()
        policy.set(0, 1, 4.0)
        policy.set_after(0, 1, 10.0, 0.5)
        assert d(policy, 0, 1, t=9.9) == 4.0
        assert d(policy, 0, 1, t=10.0) == 0.5
        assert d(policy, 0, 1, t=50.0) == 0.5

    def test_multiple_set_after_uses_latest(self):
        policy = PerPairDelay()
        policy.set_after(0, 1, 5.0, 1.0)
        policy.set_after(0, 1, 10.0, 2.0)
        assert d(policy, 0, 1, t=7.0) == 1.0
        assert d(policy, 0, 1, t=12.0) == 2.0


class TestJitter:
    def test_within_uncertainty(self):
        policy = UniformRandomDelay()
        rng = random.Random(7)
        for _ in range(100):
            delay = policy.delay(0, 1, 0.0, 0.01, 0, rng)
            assert 0.0 <= delay <= 0.01


class TestSequenceDelay:
    def test_scripted_and_fallback(self):
        policy = SequenceDelay({3: 1.25})
        assert d(policy, seq=3) == 1.25
        assert d(policy, seq=4) == 2.0
