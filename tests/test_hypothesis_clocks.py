"""Property-based tests (hypothesis) for the clock algebra.

These are the invariants the lower-bound machinery leans on: exact
integration/inversion round-trips, monotonicity, validity preservation
under arbitrary forward-jump sequences.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from _engine_helpers import example_budget
from _validity_reference import grid_check_clock
from repro.errors import ValidityError
from repro.sim.clock import HardwareClock, LogicalClock, _validity_witnesses
from repro.sim.rates import PiecewiseConstantRate

RHO = 0.5

rates_in_band = st.floats(min_value=0.5, max_value=1.5)


@st.composite
def rate_schedules(draw, max_segments=5, rates=rates_in_band):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    widths = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    starts = [0.0]
    for w in widths:
        starts.append(starts[-1] + w)
    drawn = draw(st.lists(rates, min_size=n, max_size=n))
    return PiecewiseConstantRate(tuple(starts), tuple(drawn))


@given(rate_schedules(), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=200)
def test_value_invert_roundtrip(schedule, t):
    assert schedule.invert(schedule.value_at(t)) == pytest_approx(t)


def pytest_approx(t, tol=1e-7):
    class _Approx:
        def __eq__(self, other):
            return abs(other - t) <= tol * max(1.0, abs(t))

    return _Approx()


@given(rate_schedules(), st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200)
def test_hardware_value_strictly_increasing(schedule, a, b):
    lo, hi = min(a, b), max(a, b)
    if hi - lo < 1e-9:
        return
    assert schedule.value_at(hi) > schedule.value_at(lo)


@given(rate_schedules(), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=100)
def test_integral_bounded_by_band(schedule, t):
    # With all rates in [0.5, 1.5]: 0.5 t <= H(t) <= 1.5 t.
    h = schedule.value_at(t)
    assert 0.5 * t - 1e-9 <= h <= 1.5 * t + 1e-9


@st.composite
def jump_sequences(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    gaps = draw(
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=n, max_size=n)
    )
    amounts = draw(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=n, max_size=n)
    )
    return list(zip(gaps, amounts))


@given(rate_schedules(), jump_sequences())
@settings(max_examples=150)
def test_logical_clock_valid_under_any_forward_jumps(schedule, jumps):
    hw = HardwareClock(schedule, RHO)
    lc = LogicalClock(hw)
    t = 0.0
    for gap, amount in jumps:
        t += gap
        lc.jump_by(t, amount)
    lc.check_validity(t + 1.0)


@given(rate_schedules(), jump_sequences(), st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=150)
def test_logical_value_at_matches_read_at_present(schedule, jumps, extra):
    hw = HardwareClock(schedule, RHO)
    lc = LogicalClock(hw)
    t = 0.0
    for gap, amount in jumps:
        t += gap
        lc.jump_by(t, amount)
    now = t + extra
    assert abs(lc.value_at(now) - lc.read(now)) < 1e-7


@given(rate_schedules(), jump_sequences())
@settings(max_examples=100)
def test_total_jump_equals_sum(schedule, jumps):
    # At multiplier 1, L - H is exactly the sum of the jumps taken.
    hw = HardwareClock(schedule, RHO)
    lc = LogicalClock(hw)
    t = 0.0
    expected = 0.0
    for gap, amount in jumps:
        t += gap
        expected += lc.jump_by(t, amount)
    assert abs(lc.read(t) - hw.value_at(t) - expected) <= 1e-9


@given(
    rate_schedules(),
    st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=2, max_size=6),
)
@settings(max_examples=150)
def test_logical_time_at_is_left_inverse(schedule, times):
    hw = HardwareClock(schedule, RHO)
    lc = LogicalClock(hw)
    # Install a couple of jumps to create gaps.
    lc.jump_by(5.0, 1.0)
    lc.jump_by(9.0, 2.0)
    for t in times:
        t = max(t, 0.0)
        value = lc.value_at(t)
        back = lc.time_at(value)
        # time_at returns the earliest time with L >= value.
        assert lc.value_at(back) >= value - 1e-7
        assert back <= t + 1e-7


# ----------------------------------------------------------------------
# Requirement 1: the exact check against the grid walk it replaced
# (``tests/_validity_reference.py``).

WIDE_RHO = 0.85  # admits hardware rates down to 0.15: out of the model

wide_rates = st.floats(min_value=0.2, max_value=1.8)


@st.composite
def drawn_clocks(draw, rates=wide_rates, rho=WIDE_RHO, dents=True):
    """A logical clock on a random rate schedule with random forward
    jumps and, with ``dents``, a few segment values lowered after the
    fact: each a backward jump at its segment's start."""
    schedule = draw(rate_schedules(rates=rates))
    lc = LogicalClock(HardwareClock(schedule, rho))
    t = 0.0
    for gap, amount in draw(jump_sequences()):
        t += gap
        lc.jump_by(t, amount)
    if dents:
        _, values, _ = lc.columns()
        for k, dent in draw(
            st.lists(st.tuples(st.integers(0, 10), st.floats(0.0, 2.0)), max_size=2)
        ):
            if 0 < k < len(values):
                values[k] -= dent
    horizon = draw(st.floats(min_value=0.0, max_value=t + 3.0))
    return lc, horizon


def raises_validity(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except ValidityError:
        return True
    return False


class TestExactValidityAgainstGrid:
    @given(drawn_clocks(), st.sampled_from([0.25, 0.5]))
    @settings(max_examples=example_budget(150), deadline=None)
    def test_exact_check_raises_whenever_the_grid_does(self, clock, step):
        lc, horizon = clock
        if raises_validity(grid_check_clock, lc, horizon, step=step):
            assert raises_validity(lc.check_validity, horizon)

    @given(drawn_clocks(rates=rates_in_band, rho=RHO, dents=False),
           st.sampled_from([0.25, 0.5]))
    @settings(max_examples=example_budget(100), deadline=None)
    def test_clocks_inside_the_model_pass_both_checks(self, clock, step):
        lc, horizon = clock
        lc.check_validity(horizon)
        grid_check_clock(lc, horizon, step=step)

    @given(st.lists(drawn_clocks(), min_size=1, max_size=5),
           st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=example_budget(100), deadline=None)
    def test_gathered_pass_matches_the_per_clock_pass_node_for_node(
        self, clocks, horizon
    ):
        lcs = [lc for lc, _ in clocks]
        gathered = _validity_witnesses(
            [lc.columns() for lc in lcs],
            [lc.hardware.schedule.columns() for lc in lcs],
            horizon,
            0.5,
        )
        per_clock = []
        for row, lc in enumerate(lcs):
            for _, t, kind, value in _validity_witnesses(
                [lc.columns()], [lc.hardware.schedule.columns()], horizon, 0.5
            ):
                per_clock.append((row, t, kind, value))
        assert gathered == per_clock
        for row, t, _, _ in per_clock:
            with pytest.raises(ValidityError, match=re.escape(f"t={t} ")):
                lcs[row].check_validity(horizon)
