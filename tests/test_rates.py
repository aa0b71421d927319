"""Tests for PiecewiseConstantRate (sim.rates)."""

import math

import pytest

from repro.errors import ScheduleError
from repro.sim.rates import PiecewiseConstantRate


class TestConstruction:
    def test_default_is_unit_rate(self):
        r = PiecewiseConstantRate()
        assert r.rate_at(0.0) == 1.0
        assert r.value_at(5.0) == 5.0

    def test_constant(self):
        r = PiecewiseConstantRate.constant(2.0)
        assert r.value_at(3.0) == 6.0

    def test_must_start_at_zero(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(1.0,), rates=(1.0,))

    def test_anchor_within_time_eps_is_normalized(self):
        # Regression for the repro-check FLT001 fix: an anchor carrying
        # accumulated float error within TIME_EPS is accepted — but
        # normalized to the exact origin, so segment lookup at t = 0
        # still lands inside the first segment instead of before it.
        r = PiecewiseConstantRate(starts=(1e-12, 2.0), rates=(1.0, 3.0))
        assert r.starts[0] == 0.0
        assert r.rate_at(0.0) == 1.0
        assert r.value_at(0.0) == 0.0
        assert r.value_at(3.0) == 2.0 + 3.0

    def test_anchor_beyond_time_eps_still_rejected(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(1e-6,), rates=(1.0,))
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(-1e-6,), rates=(1.0,))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(0.0, 2.0, 2.0), rates=(1.0, 1.0, 1.0))
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(0.0, 3.0, 1.0), rates=(1.0, 1.0, 1.0))

    def test_rates_must_be_positive(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(0.0,), rates=(0.0,))
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(0.0, 1.0), rates=(1.0, -0.5))

    def test_length_mismatch(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate(starts=(0.0, 1.0), rates=(1.0,))


class TestIntegration:
    def test_value_accumulates_across_segments(self):
        r = PiecewiseConstantRate(starts=(0.0, 2.0), rates=(1.0, 2.0))
        assert r.value_at(2.0) == 2.0
        assert r.value_at(3.0) == 4.0
        assert r.value_at(5.0) == 8.0

    def test_value_at_rejects_negative_time(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate().value_at(-1.0)

    def test_rate_at_is_right_continuous(self):
        r = PiecewiseConstantRate(starts=(0.0, 2.0), rates=(1.0, 3.0))
        assert r.rate_at(2.0) == 3.0
        assert r.rate_at(1.999999) == 1.0


class TestInversion:
    def test_roundtrip(self):
        r = PiecewiseConstantRate(starts=(0.0, 1.0, 4.0), rates=(1.0, 0.5, 2.0))
        for t in (0.0, 0.5, 1.0, 2.5, 4.0, 7.3):
            assert r.invert(r.value_at(t)) == pytest.approx(t, abs=1e-12)

    def test_invert_rejects_negative(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate().invert(-0.1)

    def test_invert_simple(self):
        r = PiecewiseConstantRate.constant(2.0)
        assert r.invert(10.0) == 5.0


class TestEditing:
    def test_with_rate_inserts_window(self):
        r = PiecewiseConstantRate.constant(1.0).with_rate(2.0, 5.0, 1.5)
        assert r.rate_at(1.0) == 1.0
        assert r.rate_at(2.0) == 1.5
        assert r.rate_at(4.999) == 1.5
        assert r.rate_at(5.0) == 1.0

    def test_with_rate_preserves_integral_outside(self):
        base = PiecewiseConstantRate(starts=(0.0, 10.0), rates=(1.0, 2.0))
        edited = base.with_rate(2.0, 4.0, 3.0)
        assert edited.value_at(2.0) == base.value_at(2.0)
        # After the window the *rates* match even though values diverge.
        assert edited.rate_at(11.0) == base.rate_at(11.0)

    def test_with_rate_rejects_empty_window(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate().with_rate(3.0, 3.0, 2.0)

    def test_with_rate_rejects_negative_start(self):
        with pytest.raises(ScheduleError):
            PiecewiseConstantRate().with_rate(-1.0, 3.0, 2.0)

    def test_with_rate_overlapping_existing_breakpoints(self):
        base = PiecewiseConstantRate(starts=(0.0, 3.0, 6.0), rates=(1.0, 2.0, 3.0))
        edited = base.with_rate(2.0, 7.0, 5.0)
        assert edited.rate_at(2.5) == 5.0
        assert edited.rate_at(6.5) == 5.0
        assert edited.rate_at(7.5) == 3.0

    def test_normalized_merges_equal_adjacent(self):
        r = PiecewiseConstantRate(starts=(0.0, 1.0, 2.0), rates=(1.0, 1.0, 2.0))
        n = r.normalized()
        assert n.starts == (0.0, 2.0)
        assert n.rates == (1.0, 2.0)


class TestQueries:
    def test_min_max_rate_windowed(self):
        r = PiecewiseConstantRate(starts=(0.0, 2.0, 4.0), rates=(1.0, 3.0, 0.5))
        assert r.min_rate() == 0.5
        assert r.max_rate() == 3.0
        assert r.min_rate(0.0, 1.5) == 1.0
        assert r.max_rate(0.0, 1.5) == 1.0
        assert r.max_rate(2.5, 3.0) == 3.0

    def test_within_bounds(self):
        r = PiecewiseConstantRate(starts=(0.0, 1.0), rates=(1.0, 1.2))
        assert r.within_bounds(0.9, 1.3)
        assert not r.within_bounds(1.1, 1.3)

    def test_segments_iteration(self):
        r = PiecewiseConstantRate(starts=(0.0, 2.0), rates=(1.0, 2.0))
        segs = list(r.segments())
        assert len(segs) == 2
        assert segs[0].start == 0.0 and segs[0].end == 2.0
        assert math.isinf(segs[1].end)

    def test_equivalent_to(self):
        # One rate function, two spellings: normalization makes them equal.
        a = PiecewiseConstantRate(starts=(0.0, 2.0), rates=(1.0, 2.0))
        b = PiecewiseConstantRate(starts=(0.0, 1.0, 2.0), rates=(1.0, 1.0, 2.0))
        assert b.normalized() == a
        c = PiecewiseConstantRate(starts=(0.0, 2.5), rates=(1.0, 2.0))
        assert c.normalized() != a
