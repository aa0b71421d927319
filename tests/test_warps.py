"""Tests for TimeWarp (gcs.warps)."""

import pytest

from repro.errors import ScheduleError
from repro.gcs.warps import TimeWarp


class TestConstruction:
    def test_must_fix_origin(self):
        with pytest.raises(ScheduleError):
            TimeWarp((1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ScheduleError):
            TimeWarp((0.0, 2.0), (0.5, 2.0))

    def test_must_increase(self):
        with pytest.raises(ScheduleError):
            TimeWarp((0.0, 2.0, 1.0), (0.0, 1.0, 2.0))
        with pytest.raises(ScheduleError):
            TimeWarp((0.0, 1.0, 2.0), (0.0, 2.0, 1.0))

    def test_needs_two_knots(self):
        with pytest.raises(ScheduleError):
            TimeWarp((0.0,), (0.0,))

    def test_knee_validation(self):
        with pytest.raises(ScheduleError):
            TimeWarp.knee(5.0, 3.0, 0.9)
        with pytest.raises(ScheduleError):
            TimeWarp.knee(1.0, 2.0, 0.0)


class TestEvaluation:
    def test_identity(self):
        w = TimeWarp((0.0, 10.0), (0.0, 10.0))
        for t in (0.0, 3.3, 10.0, 15.0):
            assert w(t) == pytest.approx(t)

    def test_knee_shape(self):
        gamma = 1.25
        w = TimeWarp.knee(4.0, 10.0, 1.0 / gamma)
        assert w(2.0) == 2.0
        assert w(4.0) == 4.0
        assert w(10.0) == pytest.approx(4.0 + 6.0 / gamma)

    def test_zero_knee_is_pure_slope(self):
        w = TimeWarp.knee(0.0, 10.0, 0.8)
        assert w(5.0) == pytest.approx(4.0)

    def test_extends_beyond_domain_with_last_slope(self):
        w = TimeWarp.knee(4.0, 10.0, 0.5)
        assert w(12.0) == pytest.approx(w(10.0) + 1.0)

    def test_negative_time_rejected(self):
        w = TimeWarp((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ScheduleError):
            w(-1.0)
        with pytest.raises(ScheduleError):
            w.inverse(-1.0)


class TestInverse:
    def test_roundtrip(self):
        w = TimeWarp.knee(3.0, 12.0, 0.9)
        for t in (0.0, 1.5, 3.0, 7.7, 12.0):
            assert w.inverse(w(t)) == pytest.approx(t, abs=1e-12)

    def test_roundtrip_multi_knot(self):
        w = TimeWarp((0.0, 2.0, 5.0, 9.0), (0.0, 2.0, 4.0, 9.0))
        for t in (0.5, 2.0, 3.5, 6.0, 9.0):
            assert w.inverse(w(t)) == pytest.approx(t, abs=1e-12)


class TestProperties:
    """The Lemma 6.1 knee: identity up to the knee, slope after it."""

    def test_domain_and_range(self):
        w = TimeWarp.knee(4.0, 10.0, 0.5)
        assert w.xs[-1] == 10.0
        assert w.ys[-1] == pytest.approx(7.0)

    def test_is_identity_until(self):
        w = TimeWarp.knee(4.0, 10.0, 0.5)
        assert all(w(t) == t for t in (0.0, 1.0, 2.5, 4.0))
        assert w(5.0) != pytest.approx(5.0)

    def test_slope_at(self):
        w = TimeWarp.knee(4.0, 10.0, 0.5)
        assert w(2.0) - w(1.0) == pytest.approx(1.0)
        assert w(7.0) - w(6.0) == pytest.approx(0.5)

    def test_monotonicity_sampled(self):
        w = TimeWarp.knee(2.0, 8.0, 0.7)
        samples = [w(t * 0.25) for t in range(40)]
        assert samples == sorted(samples)
