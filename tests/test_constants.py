"""Tests for the paper constants and closed forms (_constants, gcs.theory)."""

import math

import pytest

from repro import _constants as c
from repro.gcs import theory


class TestTauGamma:
    def test_tau_is_reciprocal_of_rho(self):
        assert c.tau(0.5) == 2.0
        assert c.tau(0.1) == 10.0

    def test_tau_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                c.tau(bad)

    def test_gamma_formula(self):
        # gamma = 1 + rho / (4 + rho)
        assert c.gamma(0.5) == pytest.approx(1.0 + 0.5 / 4.5)
        assert c.gamma(0.1) == pytest.approx(1.0 + 0.1 / 4.1)

    def test_gamma_below_drift_bound(self):
        # Lemma 6.1 needs gamma <= 1 + rho (Claim 6.3).
        for rho in (0.01, 0.1, 0.3, 0.5, 0.9):
            assert c.gamma(rho) < 1.0 + rho

    def test_gamma_below_bounded_increase_band(self):
        # Lemma 7.1's precondition needs rates <= 1 + rho/2.
        for rho in (0.01, 0.1, 0.3, 0.5, 0.9):
            assert c.gamma(rho) <= 1.0 + rho / 2.0

    def test_gamma_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            c.gamma(1.0)


class TestWindowShrink:
    def test_exact_value(self):
        # T - T' = tau (1 - 1/gamma) span = span / (4 + 2 rho)
        for rho in (0.1, 0.25, 0.5):
            assert c.window_shrink(rho, 12.0) == pytest.approx(
                12.0 / (4.0 + 2.0 * rho)
            )

    def test_at_least_one_sixth_of_span(self):
        # The paper lower-bounds the shrink by span/6 using rho < 1.
        for rho in (0.05, 0.3, 0.5, 0.99):
            assert c.window_shrink(rho, 6.0) >= 1.0 - 1e-12


class TestLowerBoundCurve:
    def test_zero_below_e(self):
        assert c.lower_bound_curve(1.0) == 0.0
        assert c.lower_bound_curve(2.0) == 0.0

    def test_value(self):
        d = 100.0
        assert c.lower_bound_curve(d) == pytest.approx(
            math.log(d) / math.log(math.log(d))
        )

    def test_monotone_for_large_d(self):
        values = [c.lower_bound_curve(float(d)) for d in (16, 64, 256, 1024)]
        assert values == sorted(values)


class TestTheoryModule:
    def test_three_node_scenario(self):
        s = theory.ThreeNodeScenario(16.0)
        d = s.distances
        assert d[(s.x, s.y)] == 16.0
        assert d[(s.y, s.z)] == 1.0
        assert d[(s.x, s.z)] == 17.0
