"""Tests for special functions: Bessel ratios, polylog, quadrature, root finding.

Expected values come from routes independent of the implementation: the
Bessel ratios are checked against a truncated power series and a large-
concentration asymptotic, the polylogarithm against direct partial sums of
its defining series, the quadrature against closed-form integrals, and the
root finder against analytic roots.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import iv, ive, spence

from circkde import special
from circkde.errors import BracketingError, ToleranceError
from circkde.kernels import KernelSpec
from circkde.special import (
    _RATIO_ASYMPTOTIC_KAPPA,
    _ratio_prefix,
    bessel_ratio,
    bessel_ratios,
    find_root,
    i0e,
    integrate_circle,
    inv_bessel_ratio,
    polylog,
)


def bessel_i_series(order, kappa, terms=60):
    # I_order(kappa) = sum_m (kappa/2)^(2m+order) / (m! (m+order)!)
    total = 0.0
    for m in range(terms):
        total += (kappa / 2.0) ** (2 * m + order) / (
            math.factorial(m) * math.factorial(m + order)
        )
    return total


def polylog_partial_sum(order, x, terms=4000):
    # fsum keeps the heavy cancellation in the alternating sums exact
    return math.fsum(x**k / k**order for k in range(1, terms + 1))


class TestBesselRatios:
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 7.0, 19.0])
    def test_matches_power_series(self, kappa):
        table = bessel_ratios(kappa, 10)
        i0 = bessel_i_series(0, kappa)
        for j in range(11):
            expected = bessel_i_series(j, kappa) / i0
            assert table.ratios[j] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_first_ratio_value(self):
        # I_1(2)/I_0(2) from the power series oracle
        assert bessel_ratios(2.0, 8).ratios[1] == pytest.approx(0.697774657964, rel=1e-10)

    def test_table_invariants(self):
        table = bessel_ratios(3.7, 30)
        assert table.ratios[0] == 1.0
        assert np.all(np.diff(table.ratios) <= 0)
        assert np.all(table.ratios >= 0)

    def test_zero_concentration(self):
        table = bessel_ratios(0.0, 5)
        assert table.ratios[0] == 1.0
        assert np.all(table.ratios[1:] == 0.0)

    def test_large_concentration_asymptotic(self):
        # I_1/I_0 ~ 1 - 1/(2 kappa) for large kappa
        assert bessel_ratios(1000.0, 1).ratios[1] == pytest.approx(0.9995, abs=1e-3)
        big = bessel_ratios(1e6, 100)
        assert np.all(np.isfinite(big.ratios))
        assert big.ratios[1] == pytest.approx(1 - 1 / 2e6, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_ratios(-1.0, 3)
        with pytest.raises(ValueError):
            bessel_ratios(1.0, -1)


class TestInvBesselRatio:
    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 1.0, 5.0, 50.0, 1e4])
    def test_round_trip_in_kappa(self, kappa):
        nu = bessel_ratio(kappa, 1)
        assert inv_bessel_ratio(nu) == pytest.approx(kappa, rel=1e-8)

    @pytest.mark.parametrize("nu", [0.01, 0.3, 0.65, 0.9, 0.99, 0.999999])
    def test_round_trip_in_nu(self, nu):
        kappa = inv_bessel_ratio(nu)
        assert bessel_ratio(kappa, 1) == pytest.approx(nu, abs=1e-10)

    def test_zero_maps_to_zero(self):
        assert inv_bessel_ratio(0.0) == 0.0

    @pytest.mark.parametrize("e", range(6, 13))
    def test_near_one(self, e):
        # the slope 1 - A/kappa - A^2 cancels to 0.0 near kappa = 1e8
        nu = 1.0 - 10.0**-e
        kappa = inv_bessel_ratio(nu)
        assert bessel_ratio(kappa, 1) == pytest.approx(nu, rel=0.0, abs=2.3e-16)
        # 1 - I_1/I_0 = 1/(2 kappa) + 1/(8 kappa^2) + ..., and a rounding
        # of the ratio moves kappa by about 2 kappa^2 ulp(1)
        gap = 1.0 - nu
        assert kappa == pytest.approx(0.5 / gap + 0.25, rel=1e-15 / gap)
        assert KernelSpec.vonmises(nu=nu).kappa == kappa

    def test_series_slope_matches_the_difference_form(self, monkeypatch):
        # where both are accurate, the derivative of the asymptotic series
        # is the slope 1 - A/kappa - A^2
        monkeypatch.setattr(special, "_SLOPE_SERIES_KAPPA", _RATIO_ASYMPTOTIC_KAPPA)
        for kappa in np.geomspace(_RATIO_ASYMPTOTIC_KAPPA, 1e5, 50):
            a, slope = special._ratio_and_derivative(kappa)
            assert slope == pytest.approx(1.0 - a / kappa - a * a, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            inv_bessel_ratio(1.0)
        with pytest.raises(ValueError):
            inv_bessel_ratio(-0.1)


class TestInvBesselRatioSteps:
    def test_newton_landing_on_the_root_stops(self, monkeypatch):
        # a Newton step that lands where I_1/I_0 equals nu exactly is the
        # root; it must not send the iteration into bisecting its bracket
        calls = []
        ratio_and_derivative = special._ratio_and_derivative
        monkeypatch.setattr(
            special, "_ratio_and_derivative", lambda k: calls.append(k) or ratio_and_derivative(k)
        )
        steps = []
        for kappa in np.geomspace(1e-3, 1e5, 200):
            nu = bessel_ratio(kappa, 1)
            calls.clear()
            assert inv_bessel_ratio(nu) == pytest.approx(kappa, rel=1e-8)
            steps.append(len(calls))
        assert max(steps) <= 8


class TestPolylog:
    @pytest.mark.parametrize("order", [2, 1, 0, -1, -2, -3, -4])
    @pytest.mark.parametrize("x", [-0.9, -0.5, -0.25, 0.25, 0.5, 0.9])
    def test_matches_partial_sums(self, order, x):
        # the float64 oracle terms themselves carry ~1e-11 absolute noise for
        # the negative orders (terms ~1e4 cancelling down to ~1e-2)
        assert polylog(order, x) == pytest.approx(
            polylog_partial_sum(order, x), rel=1e-8, abs=1e-10
        )

    def test_special_points(self):
        assert polylog(2, 1.0) == pytest.approx(np.pi**2 / 6, rel=1e-12)
        assert polylog(2, -1.0) == pytest.approx(-np.pi**2 / 12, rel=1e-12)
        assert polylog(1, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)
        assert polylog(0, 0.25) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert polylog(-2, 0.25) == pytest.approx(0.740740740740741, rel=1e-12)

    def test_divergent_domain_rejected(self):
        for order, x in [(0, 1.0), (1, 1.0), (0, -1.0), (-2, -1.0), (2, 1.5), (2, -1.5)]:
            with pytest.raises(ValueError):
                polylog(order, x)
        with pytest.raises(ValueError):
            polylog(3, 0.5)


def bessel_i_decimal(order, kappa):
    """I_order(kappa) to 50 digits: the power series sum_k (kappa/2)^(2k+order)
    / (k! (k+order)!) in decimal arithmetic, from the exact value of the
    float kappa > 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        half = Decimal(kappa) / 2
        term = half**order / math.factorial(order)
        total = Decimal(0)
        k = 0
        while True:
            total += term
            k += 1
            term = term * half * half / (k * (k + order))
            if k > half and term < total * Decimal("1e-55"):
                return total


def i0e_decimal(kappa):
    with localcontext() as ctx:
        ctx.prec = 50
        return bessel_i_decimal(0, kappa) * (-Decimal(kappa)).exp()


def ratios_decimal(kappa, max_order):
    with localcontext() as ctx:
        ctx.prec = 50
        i0 = bessel_i_decimal(0, kappa)
        return [float(bessel_i_decimal(j, kappa) / i0) for j in range(max_order + 1)]


# i0e switches expansions at kappa = 8
ORACLE_KAPPAS = [
    1e-8, 1e-3, 0.5, 2.2, math.nextafter(8.0, 0.0), 8.0, math.nextafter(8.0, 9.0), 9.0, 25.0, 50.0
]
SCIPY_KAPPAS = [1e-8, 1e-4, 0.3, 1.0, 4.5, 30.0, 300.0, 1999.0, 2000.0, 4316.0, 1e5, 1e6, 1e7]


class TestBesselDecimalOracle:
    """i0e, bessel_ratio and bessel_ratios against 50-digit power series."""

    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
    def test_i0e(self, kappa):
        assert i0e(kappa) == pytest.approx(float(i0e_decimal(kappa)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
    def test_ratios_up_to_order_200(self, kappa):
        expected = ratios_decimal(kappa, 200)
        table = bessel_ratios(kappa, 200).ratios
        checked = 0
        for j, value in enumerate(expected):
            if value >= 1e-290:
                checked += 1
                assert table[j] == pytest.approx(value, rel=1e-14, abs=0.0), j
                assert bessel_ratio(kappa, j) == pytest.approx(value, rel=1e-14, abs=0.0), j
        assert checked >= 2


class TestBesselAgainstScipy:
    @pytest.mark.parametrize("kappa", SCIPY_KAPPAS)
    def test_matches_ive(self, kappa):
        orders = np.arange(2001)
        scaled = ive(orders, kappa)
        expected = scaled / scaled[0]
        table = bessel_ratios(kappa, 2000).ratios
        keep = expected >= 1e-290
        np.testing.assert_allclose(table[keep], expected[keep], rtol=1e-12, atol=0.0)
        assert np.all(table[~keep] < 1e-289)
        assert bessel_ratio(kappa, 1) == pytest.approx(expected[1], rel=1e-12, abs=0.0)
        assert i0e(kappa) == pytest.approx(scaled[0], rel=1e-12, abs=0.0)


class TestBesselEdgeCases:
    def test_zero_concentration(self):
        assert i0e(0.0) == 1.0
        assert bessel_ratio(0.0, 0) == 1.0
        assert bessel_ratio(0.0, 1) == 0.0
        assert bessel_ratio(0.0, 7) == 0.0
        assert list(bessel_ratios(0.0, 4).ratios) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_smallest_subnormal_concentration(self):
        kappa = 5e-324
        assert i0e(kappa) == 1.0
        assert 0.0 <= bessel_ratio(kappa, 1) <= kappa
        table = bessel_ratios(kappa, 100).ratios
        assert table[0] == 1.0
        assert np.all((table[1:] >= 0.0) & (table[1:] <= kappa))

    @pytest.mark.parametrize("kappa", [1e6, 1e9, 1e15])
    def test_large_concentration(self, kappa):
        # leading terms of the large-argument expansions
        series = 1.0 + 1.0 / (8.0 * kappa) + 9.0 / (128.0 * kappa**2)
        assert i0e(kappa) == pytest.approx(series / math.sqrt(2.0 * math.pi * kappa), rel=1e-14)
        assert bessel_ratio(kappa, 1) == pytest.approx(
            1.0 - 1.0 / (2.0 * kappa) - 1.0 / (8.0 * kappa**2), rel=1e-15
        )

    def test_large_concentration_table(self):
        table = bessel_ratios(1e6, 3000).ratios
        assert np.all(np.isfinite(table)) and np.all(np.diff(table) <= 0.0)
        assert table[1] == pytest.approx(bessel_ratio(1e6, 1), rel=1e-15)
        # I_j / I_0 ~ exp(-j^2 / (2 kappa)) for j << kappa
        assert table[3000] == pytest.approx(math.exp(-(3000**2) / 2e6), rel=1e-2)

    def test_tables_stop_at_the_memory_guard(self):
        # the first span at kappa = 1e13 has about 3.2e7 orders, past 2^20:
        # higher orders raise before any table is built; order 1 needs none
        tables = _ratio_prefix.cache_info().misses
        with pytest.raises(ToleranceError, match="more than 1048576 orders"):
            bessel_ratio(1e13, 2)
        with pytest.raises(ToleranceError, match="more than 1048576 orders"):
            bessel_ratios(1e13, 5)
        assert _ratio_prefix.cache_info().misses == tables
        assert bessel_ratio(1e13, 1) == 0.99999999999995
        # a span of 1e6 orders is inside the guard: the values it had before
        assert list(bessel_ratios(1e10, 5).ratios) == [
            1.0,
            0.9999999999499848,
            0.9999999998000001,
            0.9999999995499849,
            0.9999999992000002,
            0.9999999987499849,
        ]

    def test_order_zero(self):
        table = bessel_ratios(3.0, 0)
        assert table.max_order == 0
        assert list(table.ratios) == [1.0]
        assert bessel_ratio(3.0, 0) == 1.0

    def test_asymptotic_switch_within_two_ulps(self):
        t = _RATIO_ASYMPTOTIC_KAPPA
        for kappa in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)):
            exact = ratios_decimal(kappa, 1)[1]
            assert abs(bessel_ratio(kappa, 1) - exact) <= 2.0 * math.ulp(exact), kappa

    def test_table_entries_do_not_depend_on_its_length(self):
        # cold caches both ways round: short table first, then long first
        kappa = 3.7e4
        _ratio_prefix.cache_clear()
        short = bessel_ratios(kappa, 10).ratios
        long = bessel_ratios(kappa, 9000).ratios
        _ratio_prefix.cache_clear()
        long_first = bessel_ratios(kappa, 9000).ratios
        short_second = bessel_ratios(kappa, 10).ratios
        assert np.array_equal(long, long_first)
        assert np.array_equal(short, long[:11])
        assert np.array_equal(short_second, short)

    def test_tables_are_copies(self):
        table = bessel_ratios(2.0, 5).ratios
        table[1] = -1.0
        assert bessel_ratios(2.0, 5).ratios[1] > 0.0

    @pytest.mark.parametrize("kappa", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_rejects_bad_concentrations(self, kappa):
        with pytest.raises(ValueError):
            i0e(kappa)
        with pytest.raises(ValueError):
            bessel_ratio(kappa, 1)
        with pytest.raises(ValueError):
            bessel_ratio(kappa, 3)
        with pytest.raises(ValueError):
            bessel_ratios(kappa, 3)

    @pytest.mark.parametrize("order", [-1, 1.5, math.nan, math.inf, -2.0])
    def test_rejects_bad_orders(self, order):
        with pytest.raises(ValueError):
            bessel_ratio(2.0, order)
        with pytest.raises(ValueError):
            bessel_ratios(2.0, order)


class TestDilogarithm:
    @pytest.mark.parametrize("x", [1e-300, -1e-300, 1e-10, -1e-10, 1e-6, -1e-6])
    def test_small_arguments_keep_relative_accuracy(self, x):
        assert polylog(2, x) == pytest.approx(x + x * x / 4.0 + x**3 / 9.0, rel=1e-15, abs=0.0)

    # each branch, and both sides of the switches at -1/2 and 1/2
    @pytest.mark.parametrize(
        "x",
        [-0.9, -0.75, math.nextafter(-0.5, -1.0), -0.5, -0.3, 0.1, 0.3, 0.5]
        + [math.nextafter(0.5, 1.0), 0.6, 0.75, 0.9],
    )
    def test_matches_decimal_series(self, x):
        with localcontext() as ctx:
            ctx.prec = 50
            xd, power, total, k = Decimal(x), Decimal(x), Decimal(0), 1
            while abs(power) > Decimal("1e-55"):
                total += power / (k * k)
                power *= xd
                k += 1
        assert polylog(2, x) == pytest.approx(float(total), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [-1.0, -0.999999, -0.97, 0.97, 0.999999, 1.0 - 2.0**-30])
    def test_matches_scipy_spence_near_the_ends(self, x):
        assert polylog(2, x) == pytest.approx(float(spence(1.0 - x)), rel=1e-14, abs=0.0)


class TestIntegrateCircle:
    def test_von_mises_density_normalizes(self):
        kappa = 2.0
        norm = 2 * np.pi * iv(0, kappa)
        value = integrate_circle(lambda t: np.exp(kappa * np.cos(t)) / norm)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_polynomial_moment(self):
        # int_{-pi}^{pi} t^2 dt = 2 pi^3 / 3
        value = integrate_circle(lambda t: t * t)
        assert value == pytest.approx(2 * np.pi**3 / 3, rel=1e-10)

    def test_budget_exhaustion_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(special, "_QUAD_ABS_TOL", 1e-12)
        monkeypatch.setattr(special, "_QUAD_LIMIT", 2)
        kappa = 1e6
        norm = 2 * np.pi * ive(0, kappa)
        peaked = lambda t: np.exp(kappa * (np.cos(t) - 1.0)) / norm
        with pytest.raises(ToleranceError) as err:
            integrate_circle(peaked)
        assert err.value.estimate is not None


class TestFindRoot:
    def test_analytic_roots(self):
        assert find_root(np.cos, 1.0, 2.0, tol=1e-12) == pytest.approx(np.pi / 2, abs=1e-10)
        assert find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12) == pytest.approx(
            math.sqrt(2.0), abs=1e-10
        )

    def test_root_at_endpoint(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_missing_bracket_reports_endpoint_values(self):
        with pytest.raises(BracketingError) as err:
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)
        assert err.value.g_lo == pytest.approx(2.0)
        assert err.value.g_hi == pytest.approx(2.0)


def _steep(x):
    return math.tanh(40.0 * (x - 0.3)) + 0.05 * math.exp(x)


def _flat_then_steep(x):
    # |x - c|^25 is nearly flat around its root, so the secant and
    # inverse-quadratic steps are rejected and Brent bisects
    d = x - 0.123456789
    return math.copysign(abs(d) ** 25, d)


def _step(x):
    # a jump at 0.4: no interpolation step helps, every iterate bisects
    return -1.0 if x < 0.4 else 1.0


# (g, lo, hi, tol): a table of brackets for the bit-for-bit comparison
BRENT_CASES = {
    "cos": (math.cos, 1.0, 2.0, 1e-12),
    "sqrt2": (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12),
    "sqrt2-loose": (lambda x: x * x - 2.0, 0.0, 2.0, 1e-3),
    "steep-tanh-exp": (_steep, -2.0, 3.0, 1e-13),
    "tanh-wide": (lambda x: math.tanh(15.0 * (x - 0.87)), -0.2, 2.6, 1e-11),
    "cusp-root": (lambda x: math.copysign(abs(x + 0.73) ** 0.1, x + 0.73), -2.9, 0.85, 1e-11),
    "exp-scale": (lambda x: math.exp(30.0 * x) - 7.0, -1.0, 1.0, 1e-14),
    "root-within-tol-of-lo": (lambda x: x - 1e-10, 0.0, 1.0, 1e-9),
    "root-within-tol-of-hi": (lambda x: x - (1.0 - 1e-10), 0.0, 1.0, 1e-9),
    "bisection-flat": (_flat_then_steep, -1.0, 2.0, 1e-12),
    "bisection-step": (_step, 0.0, 1.0, 1e-12),
    "tiny-tol": (math.sin, 3.0, 3.5, 5e-324),
}


def _recording(g):
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)

    return wrapped, calls


class TestFindRootMatchesBrentq:
    """find_root ports scipy's brentq: same roots, same iterates."""

    @pytest.mark.parametrize("name", sorted(BRENT_CASES))
    @pytest.mark.parametrize("pass_ends", [False, True], ids=["evaluated", "passed"])
    def test_bit_identical_root_and_iterates(self, name, pass_ends):
        g, lo, hi, tol = BRENT_CASES[name]
        ref_g, ref_calls = _recording(g)
        expected = brentq(ref_g, lo, hi, xtol=tol, maxiter=200)
        ours_g, calls = _recording(g)
        ends = {"g_lo": g(lo), "g_hi": g(hi)} if pass_ends else {}
        root = find_root(ours_g, lo, hi, tol=tol, max_iter=200, **ends)
        assert type(root) is float
        assert root == expected
        # brentq evaluates both ends first; passed values skip exactly those
        assert calls == (ref_calls[2:] if pass_ends else ref_calls)

    def test_passed_ends_are_not_evaluated(self):
        g, calls = _recording(math.cos)
        find_root(g, 1.0, 2.0, g_lo=math.cos(1.0), g_hi=math.cos(2.0))
        assert 1.0 not in calls and 2.0 not in calls

    def test_zero_at_lo_returns_lo(self):
        assert find_root(lambda x: x, 0.0, 1.0, g_hi=1.0) == 0.0
        # with both ends passed, g is never called (this one would raise)
        assert find_root(lambda x: 1.0 / 0.0, 0.0, 1.0, g_lo=0.0, g_hi=1.0) == 0.0

    def test_zero_at_hi_returns_hi(self):
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_raises_bracketing_error(self):
        with pytest.raises(BracketingError) as err:
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, g_lo=2.5)
        assert err.value.g_lo == 2.5
        assert err.value.g_hi == 2.0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            find_root(math.cos, 1.0, 2.0, tol=tol)

    def test_nan_at_an_end_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            find_root(lambda x: math.nan if x == 2.0 else math.cos(x), 1.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            find_root(lambda x: math.nan if x == 1.0 else math.cos(x), 1.0, 2.0)

    @pytest.mark.parametrize("ends", [{"g_lo": math.nan}, {"g_hi": math.nan}])
    def test_passed_nan_end_raises(self, ends):
        with pytest.raises(ValueError, match="NaN"):
            find_root(math.cos, 1.0, 2.0, **ends)

    def test_nan_at_an_iterate_raises(self):
        # finite at both ends, NaN strictly inside: brentq's NaN wrapper
        # raises ValueError on the first interior evaluation too
        g = lambda x: math.cos(x) if x in (1.0, 2.0) else math.nan
        with pytest.raises(ValueError, match="NaN"):
            brentq(g, 1.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            find_root(g, 1.0, 2.0)

    def test_exhausted_iterations_raise_tolerance_error(self):
        g, lo, hi, tol = BRENT_CASES["steep-tanh-exp"]
        last, info = brentq(g, lo, hi, xtol=tol, maxiter=2, full_output=True, disp=False)
        assert not info.converged
        with pytest.raises(ToleranceError) as err:
            find_root(g, lo, hi, tol=tol, max_iter=2)
        assert not isinstance(err.value, BracketingError)
        assert err.value.estimate == last
