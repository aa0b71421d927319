"""Tests for HardwareClock and LogicalClock (sim.clock)."""

import pytest

from repro.errors import DriftBoundError, ValidityError
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.rates import PiecewiseConstantRate


def hw(rate=1.0, rho=0.5):
    return HardwareClock(PiecewiseConstantRate.constant(rate), rho)


class TestHardwareClock:
    def test_rejects_out_of_band_rates(self):
        with pytest.raises(DriftBoundError):
            HardwareClock(PiecewiseConstantRate.constant(1.6), rho=0.5)
        with pytest.raises(DriftBoundError):
            HardwareClock(PiecewiseConstantRate.constant(0.4), rho=0.5)

    def test_accepts_band_edges(self):
        HardwareClock(PiecewiseConstantRate.constant(1.5), rho=0.5)
        HardwareClock(PiecewiseConstantRate.constant(0.5), rho=0.5)

    def test_rejects_bad_rho(self):
        with pytest.raises(DriftBoundError):
            HardwareClock(PiecewiseConstantRate.constant(1.0), rho=1.0)
        with pytest.raises(DriftBoundError):
            HardwareClock(PiecewiseConstantRate.constant(1.0), rho=-0.1)

    def test_value_time_roundtrip(self):
        clock = HardwareClock(
            PiecewiseConstantRate(starts=(0.0, 4.0), rates=(1.0, 1.25)), rho=0.5
        )
        for t in (0.0, 2.0, 4.0, 9.0):
            assert clock.time_at(clock.value_at(t)) == pytest.approx(t)

    def test_rate_at(self):
        clock = HardwareClock(
            PiecewiseConstantRate(starts=(0.0, 4.0), rates=(1.0, 1.25)), rho=0.5
        )
        assert clock.rate_at(1.0) == 1.0
        assert clock.rate_at(5.0) == 1.25


class TestLogicalClockJumps:
    def test_initially_tracks_hardware(self):
        lc = LogicalClock(hw(1.25))
        assert lc.read(4.0) == 5.0

    def test_jump_to_moves_forward(self):
        lc = LogicalClock(hw())
        assert lc.jump_to(1.0, 5.0) == pytest.approx(4.0)
        assert lc.read(1.0) == pytest.approx(5.0)
        assert lc.read(2.0) == pytest.approx(6.0)

    def test_jump_to_behind_is_noop(self):
        lc = LogicalClock(hw())
        assert lc.jump_to(5.0, 3.0) == 0.0
        assert lc.read(5.0) == 5.0

    def test_backward_jump_raises(self):
        lc = LogicalClock(hw())
        with pytest.raises(ValidityError):
            lc.jump_by(1.0, -0.5)

    def test_jump_in_past_raises(self):
        lc = LogicalClock(hw())
        lc.jump_by(5.0, 1.0)
        with pytest.raises(ValidityError):
            lc.jump_by(3.0, 1.0)

    def test_same_instant_jumps_merge(self):
        lc = LogicalClock(hw())
        lc.jump_by(2.0, 1.0)
        lc.jump_by(2.0, 1.0)
        assert lc.read(2.0) == pytest.approx(4.0)
        # Merged into a single control point.
        assert len(lc.segments()) == 2

    def test_total_jump(self):
        # At multiplier 1 the logical clock leads its hardware clock by
        # exactly the jumps taken so far.
        lc = LogicalClock(hw())
        lc.jump_by(1.0, 2.0)
        lc.jump_by(3.0, 0.5)
        assert lc.read(3.0) - lc.hardware.value_at(3.0) == pytest.approx(2.5)


class TestLogicalClockHistory:
    def test_value_at_reconstructs_past(self):
        lc = LogicalClock(hw())
        lc.jump_by(2.0, 3.0)
        assert lc.value_at(1.0) == pytest.approx(1.0)
        assert lc.value_at(2.0) == pytest.approx(5.0)
        assert lc.value_at(4.0) == pytest.approx(7.0)

    def test_value_at_before_first_action(self):
        lc = LogicalClock(hw())
        assert lc.value_at(0.0) == 0.0

    def test_time_at_inverts(self):
        lc = LogicalClock(hw())
        lc.jump_by(2.0, 3.0)
        assert lc.time_at(1.0) == pytest.approx(1.0)
        assert lc.time_at(7.0) == pytest.approx(4.0)

    def test_time_at_jump_gap_maps_to_jump_instant(self):
        lc = LogicalClock(hw())
        lc.jump_by(2.0, 3.0)  # L goes 2 -> 5 at t=2
        assert lc.time_at(3.5) == pytest.approx(2.0)

    def test_time_at_never_lands_before_its_segment(self):
        """Regression: under a drifting schedule, float error in the
        hardware inversion could land a hair *before* a jump instant,
        silently losing the jump in value_at(time_at(v))."""
        schedule = PiecewiseConstantRate(
            starts=(0.0, 0.5680261567874192), rates=(0.9375, 1.0)
        )
        lc = LogicalClock(HardwareClock(schedule, 0.5))
        lc.jump_by(5.0, 1.0)
        value = lc.value_at(5.0)  # the post-jump value, exactly
        back = lc.time_at(value)
        assert back >= 5.0
        assert lc.value_at(back) >= value - 1e-7

    def test_initial_value(self):
        lc = LogicalClock(hw(), initial_value=10.0)
        assert lc.read(0.0) == 10.0
        assert lc.value_at(2.0) == 12.0


class TestMultipliers:
    def test_set_multiplier_speeds_clock(self):
        lc = LogicalClock(hw())
        lc.set_multiplier(2.0, 2.0)
        assert lc.value_at(2.0) == pytest.approx(2.0)
        assert lc.value_at(4.0) == pytest.approx(6.0)

    def test_multiplier_floor_depends_on_rho(self):
        lc = LogicalClock(hw(rho=0.5))
        assert lc.min_multiplier() == pytest.approx(1.0)
        lc0 = LogicalClock(hw(rho=0.0))
        assert lc0.min_multiplier() == pytest.approx(0.5)

    def test_below_floor_raises(self):
        lc = LogicalClock(hw(rho=0.5))
        with pytest.raises(ValidityError):
            lc.set_multiplier(1.0, 0.9)

    def test_above_cap_raises(self):
        lc = LogicalClock(hw())
        with pytest.raises(ValidityError):
            lc.set_multiplier(1.0, 100.0)

    def test_multiplier_then_jump(self):
        lc = LogicalClock(hw())
        lc.set_multiplier(1.0, 2.0)
        lc.jump_by(3.0, 1.0)  # L(3) = 1 + 2*2 = 5, +1 = 6
        assert lc.value_at(3.0) == pytest.approx(6.0)
        assert lc.value_at(4.0) == pytest.approx(8.0)  # still multiplier 2

    def test_max_multiplier_used(self):
        # A replaced multiplier stays in the recorded history.
        lc = LogicalClock(hw())
        lc.set_multiplier(1.0, 1.5)
        lc.set_multiplier(2.0, 1.0)
        assert max(mult for _t, _v, mult in lc.segments()) == 1.5

    def test_noop_multiplier_change_adds_no_segment(self):
        lc = LogicalClock(hw())
        before = len(lc.segments())
        lc.set_multiplier(1.0, 1.0)
        assert len(lc.segments()) == before


class TestValidity:
    def test_hardware_rate_clock_is_valid(self):
        lc = LogicalClock(hw(rate=0.5, rho=0.5))
        lc.check_validity(10.0)

    def test_jumps_do_not_break_validity(self):
        lc = LogicalClock(hw())
        for t in range(1, 9):
            lc.jump_by(float(t), 0.5)
        lc.check_validity(9.0)

    def test_detects_slow_clock(self):
        # rho = 0.6 permits hardware at 0.4 < 1/2: validity genuinely fails.
        slow = HardwareClock(PiecewiseConstantRate.constant(0.4), rho=0.7)
        lc = LogicalClock(slow)
        with pytest.raises(ValidityError):
            lc.check_validity(5.0)
