"""Tests for circkde.kernels.

Oracles used here, independent of the implementation under test:
  * closed-form densities (von Mises exponential form, wrapped Cauchy
    rational form, cardioid, truncated parabola) and a translate-sum
    oracle for the wrapped normal
  * adaptive quadrature of the defining integrals (normalization, second
    moment, cosine moments, squared-derivative roughness)
  * high-precision frozen constants computed with 30-digit arithmetic
  * rational closed forms typed directly into the assertions
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from circkde.errors import ToleranceError, UnsupportedKernelError
from circkde.kernels import (
    UNIFORM_BANDWIDTH,
    UNIFORM_FALLBACK,
    KernelFamily,
    KernelSpec,
    bandwidth,
    bandwidth_approx,
    concentration_from_bandwidth,
    derivative_weights,
    fourier_coefficient,
    is_uniform_fallback,
    kernel_constants,
    kernel_value,
    roughness,
    wrap_angle,
)
from circkde.kernels import _alpha_block, _series_weights, _term_limit
from circkde.special import _ratio_prefix, bessel_ratio_span
from circkde.estimators import CircularSample, kde_values

ALL_FAMILIES = list(KernelFamily)


def spec_grid():
    """A representative spec per family at a few concentrations."""
    out = []
    for nu in (0.3, 0.6, 0.9):
        out.append(KernelSpec.vonmises(nu=nu))
        out.append(KernelSpec.wrapped_normal(nu))
        out.append(KernelSpec.wrapped_cauchy(nu))
        if nu < 0.5:
            out.append(KernelSpec.cardioid(nu))
        if nu >= 3.0 / np.pi**2:
            out.append(KernelSpec.wrapped_epanechnikov(nu=nu))
    return out


def circle_quad(fn):
    val, err = quad(fn, -np.pi, np.pi, epsabs=1e-10, epsrel=1e-10, limit=400)
    assert err < 1e-7
    return val


def wrapped_normal_oracle(nu, theta):
    """Sum of Gaussian translates; sigma^2 = -2 log nu."""
    sigma = math.sqrt(-2.0 * math.log(nu))
    total = 0.0
    for m in range(-8, 9):
        x = theta + 2.0 * np.pi * m
        total += math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * np.pi))
    return total


class TestKernelSpec:
    def test_vonmises_needs_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            KernelSpec.vonmises()
        with pytest.raises(ValueError):
            KernelSpec.vonmises(kappa=1.0, nu=0.5)

    def test_vonmises_round_trip(self):
        spec = KernelSpec.vonmises(nu=0.5)
        back = KernelSpec.vonmises(kappa=spec.kappa)
        assert back.nu == pytest.approx(0.5, abs=1e-10)

    def test_vonmises_kappa_fixes_nu(self):
        spec = KernelSpec.vonmises(kappa=1.0)
        # I_1(1)/I_0(1)
        assert spec.nu == pytest.approx(0.4463899658965345, rel=1e-12)

    @pytest.mark.parametrize("bad_nu", [-0.1, 1.0, 1.5])
    def test_nu_domain(self, bad_nu):
        for ctor in (
            lambda v: KernelSpec.vonmises(nu=v),
            KernelSpec.wrapped_normal,
            KernelSpec.wrapped_cauchy,
        ):
            with pytest.raises(ValueError):
                ctor(bad_nu)

    def test_cardioid_domain(self):
        KernelSpec.cardioid(0.49)
        with pytest.raises(ValueError):
            KernelSpec.cardioid(0.5)
        with pytest.raises(ValueError):
            KernelSpec.cardioid(-0.01)

    def test_wrapped_epanechnikov_lam_domain(self):
        KernelSpec.wrapped_epanechnikov(lam=np.pi)
        with pytest.raises(ValueError):
            KernelSpec.wrapped_epanechnikov(lam=0.0)
        with pytest.raises(ValueError):
            KernelSpec.wrapped_epanechnikov(lam=3.5)
        with pytest.raises(ValueError):
            KernelSpec.wrapped_epanechnikov(lam=1.0, nu=0.5)

    def test_wrapped_epanechnikov_full_circle_nu(self):
        spec = KernelSpec.wrapped_epanechnikov(lam=np.pi)
        assert spec.nu == pytest.approx(3.0 / np.pi**2, rel=1e-12)

    def test_wrapped_epanechnikov_nu_round_trip(self):
        spec = KernelSpec.wrapped_epanechnikov(nu=0.6)
        assert fourier_coefficient(spec, 1) == pytest.approx(0.6, abs=1e-10)
        with pytest.raises(ValueError):
            KernelSpec.wrapped_epanechnikov(nu=0.2)  # below the family's range

    def test_from_nu_dispatch(self):
        for fam in ALL_FAMILIES:
            nu = 0.4 if fam != KernelFamily.WRAPPEDEPANECHNIKOV else 0.4
            spec = KernelSpec.from_nu(fam.value, nu)
            assert spec.family == fam
            assert spec.nu == pytest.approx(nu, abs=1e-10)

    def test_concentration_property(self):
        assert KernelSpec.vonmises(kappa=2.0).concentration == 2.0
        assert KernelSpec.wrapped_epanechnikov(lam=1.5).concentration == 1.5
        assert KernelSpec.wrapped_cauchy(0.3).concentration is None


class TestFourierCoefficients:
    def test_closed_forms(self):
        assert fourier_coefficient(KernelSpec.wrapped_cauchy(0.5), 3) == pytest.approx(
            0.125, rel=1e-14
        )
        assert fourier_coefficient(KernelSpec.wrapped_normal(0.5), 2) == pytest.approx(
            0.0625, rel=1e-14
        )
        card = KernelSpec.cardioid(0.3)
        assert fourier_coefficient(card, 1) == 0.3
        assert fourier_coefficient(card, 2) == 0.0

    def test_wrapped_epanechnikov_first_coefficient(self):
        # 3 (sin 1 - cos 1), frozen at 30 digits
        spec = KernelSpec.wrapped_epanechnikov(lam=1.0)
        assert fourier_coefficient(spec, 1) == pytest.approx(
            0.903506036819270367754697142562, rel=1e-14
        )

    def test_wrapped_epanechnikov_coefficients_go_negative(self):
        # j lam past the first zero of sin x - x cos x
        spec = KernelSpec.wrapped_epanechnikov(lam=2.3)
        assert fourier_coefficient(spec, 2) < 0.0

    def test_vonmises_matches_bessel_ratio(self):
        spec = KernelSpec.vonmises(kappa=3.0)
        from circkde.special import bessel_ratios

        table = bessel_ratios(3.0, 4)
        for j in (1, 2, 3, 4):
            assert fourier_coefficient(spec, j) == pytest.approx(
                table.ratios[j], rel=1e-13
            )

    @pytest.mark.parametrize("spec", spec_grid(), ids=lambda s: f"{s.family.value}-{s.nu:.2f}")
    def test_cosine_moment_oracle(self, spec):
        for j in (1, 2, 3):
            target = circle_quad(lambda t: math.cos(j * t) * kernel_value(spec, t))
            assert fourier_coefficient(spec, j) == pytest.approx(target, abs=1e-9)

    def test_rejects_bad_order(self):
        spec = KernelSpec.wrapped_cauchy(0.5)
        with pytest.raises(ValueError):
            fourier_coefficient(spec, 0)
        with pytest.raises(ValueError):
            fourier_coefficient(spec, -2)


class TestBandwidth:
    @pytest.mark.parametrize("spec", spec_grid(), ids=lambda s: f"{s.family.value}-{s.nu:.2f}")
    def test_second_moment_oracle(self, spec):
        target = circle_quad(lambda t: t * t * kernel_value(spec, t))
        assert bandwidth(spec) == pytest.approx(target, abs=1e-9)

    def test_uniform_limit(self):
        for fam in (KernelFamily.VONMISES, KernelFamily.WRAPPEDNORMAL,
                    KernelFamily.WRAPPEDCAUCHY, KernelFamily.CARDIOID):
            assert bandwidth(KernelSpec.from_nu(fam, 0.0)) == UNIFORM_BANDWIDTH

    def test_frozen_values(self):
        assert bandwidth(KernelSpec.wrapped_cauchy(0.5)) == pytest.approx(
            1.49621130600186806317257270963, rel=1e-12
        )
        assert bandwidth(KernelSpec.wrapped_normal(0.6)) == pytest.approx(
            1.01505923170447868730741973598, rel=1e-12
        )
        assert bandwidth(KernelSpec.vonmises(kappa=5.0)) == pytest.approx(
            0.227230162814729533642198782749, rel=1e-12
        )

    def test_cardioid_closed_form(self):
        assert bandwidth(KernelSpec.cardioid(0.3)) == pytest.approx(
            UNIFORM_BANDWIDTH - 1.2, rel=1e-14
        )

    def test_wrapped_epanechnikov_closed_form(self):
        assert bandwidth(KernelSpec.wrapped_epanechnikov(lam=1.0)) == pytest.approx(
            0.2, rel=1e-14
        )

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_monotone_decreasing_in_concentration(self, fam):
        if fam == KernelFamily.CARDIOID:
            nus = [0.05, 0.15, 0.3, 0.45]
        elif fam == KernelFamily.WRAPPEDEPANECHNIKOV:
            nus = [0.35, 0.5, 0.7, 0.9]
        else:
            nus = [0.1, 0.3, 0.6, 0.9]
        values = [bandwidth(KernelSpec.from_nu(fam, nu)) for nu in nus]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= UNIFORM_BANDWIDTH for v in values)

    def test_approx_tracks_exact_at_high_concentration(self):
        spec = KernelSpec.vonmises(kappa=50.0)
        assert bandwidth_approx(spec) == pytest.approx(bandwidth(spec), rel=0.05)
        wn = KernelSpec.wrapped_normal(0.99)
        assert bandwidth_approx(wn) == pytest.approx(bandwidth(wn), rel=0.05)

    def test_approx_wrapped_normal_closed_form(self):
        # alpha_2 = nu^4 makes the approximation (1 - nu^4) / 2 exactly
        assert bandwidth_approx(KernelSpec.wrapped_normal(0.8)) == pytest.approx(
            (1.0 - 0.8**4) / 2.0, rel=1e-14
        )


class TestRoughness:
    QUAD_CASES = [
        (KernelSpec.vonmises(nu=0.3), 0), (KernelSpec.vonmises(nu=0.6), 1),
        (KernelSpec.vonmises(nu=0.9), 2), (KernelSpec.wrapped_normal(0.6), 0),
        (KernelSpec.wrapped_normal(0.6), 1), (KernelSpec.wrapped_normal(0.9), 2),
        (KernelSpec.wrapped_cauchy(0.6), 0), (KernelSpec.wrapped_cauchy(0.6), 1),
        (KernelSpec.wrapped_cauchy(0.6), 2), (KernelSpec.cardioid(0.3), 0),
        (KernelSpec.cardioid(0.3), 1), (KernelSpec.cardioid(0.3), 2),
        (KernelSpec.wrapped_epanechnikov(lam=1.3), 0),
        (KernelSpec.wrapped_epanechnikov(lam=1.3), 1),
    ]

    @pytest.mark.parametrize(
        "spec,r", QUAD_CASES, ids=lambda v: getattr(v, "family", v) and str(v)[:24]
    )
    def test_squared_derivative_oracle(self, spec, r):
        target = circle_quad(lambda t: kernel_value(spec, t, r) ** 2)
        assert roughness(spec, r, 2) == pytest.approx(target, abs=1e-8)

    def test_peak_identity_even_orders(self):
        for spec in (KernelSpec.vonmises(kappa=2.0), KernelSpec.wrapped_normal(0.6),
                     KernelSpec.wrapped_cauchy(0.5), KernelSpec.cardioid(0.3)):
            for s in (0, 2, 4):
                assert roughness(spec, s, 1) == pytest.approx(
                    kernel_value(spec, 0.0, s), abs=1e-10
                )

    def test_odd_power_zero_order_is_peak_value(self):
        for spec in spec_grid():
            assert roughness(spec, 0, 1) == pytest.approx(
                kernel_value(spec, 0.0), rel=1e-10
            )

    def test_sign_pattern_odd_power(self):
        spec = KernelSpec.vonmises(kappa=2.0)
        signs = [math.copysign(1.0, roughness(spec, r, 1)) for r in (1, 2, 3, 4, 5)]
        assert signs == [-1.0, -1.0, 1.0, 1.0, -1.0]

    def test_wrapped_cauchy_rational_closed_form(self):
        # sum j^2 nu^(2j) = x (1 + x) / (1 - x)^3 with x = nu^2
        nu = 0.6
        x = nu * nu
        target = x * (1.0 + x) / (1.0 - x) ** 3 / np.pi
        assert roughness(KernelSpec.wrapped_cauchy(nu), 1, 2) == pytest.approx(
            target, rel=1e-13
        )

    def test_wrapped_epanechnikov_closed_forms(self):
        lam = 1.3
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        assert roughness(spec, 0, 1) == pytest.approx(3.0 / (4.0 * lam), rel=1e-14)
        assert roughness(spec, 0, 2) == pytest.approx(3.0 / (5.0 * lam), rel=1e-14)
        assert roughness(spec, 1, 2) == pytest.approx(3.0 / (2.0 * lam**3), rel=1e-14)

    @pytest.mark.parametrize("r,t", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_wrapped_epanechnikov_divergent_combinations(self, r, t):
        spec = KernelSpec.wrapped_epanechnikov(lam=1.3)
        with pytest.raises(ToleranceError):
            roughness(spec, r, t)

    def test_uniform_roughness(self):
        spec = KernelSpec.vonmises(kappa=0.0)
        assert roughness(spec, 0, 2) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
        assert roughness(spec, 2, 2) == 0.0

    def test_rejects_bad_arguments(self):
        spec = KernelSpec.vonmises(kappa=1.0)
        with pytest.raises(ValueError):
            roughness(spec, 0, 3)
        with pytest.raises(ValueError):
            roughness(spec, -1, 2)


class TestKernelConstants:
    def test_gaussian_limit_values(self):
        c = kernel_constants("vonmises", 0)
        assert c.q1 == pytest.approx(1.0 / math.sqrt(2.0 * np.pi), rel=1e-12)
        assert c.q2 == pytest.approx(1.0 / (2.0 * math.sqrt(np.pi)), rel=1e-12)
        c2 = kernel_constants("wrappednormal", 2)
        assert c2.q1 == pytest.approx(-1.0 / math.sqrt(2.0 * np.pi), rel=1e-12)
        assert c2.q2 == pytest.approx(3.0 / (8.0 * math.sqrt(np.pi)), rel=1e-12)

    def test_odd_order_has_no_peak_constant(self):
        c = kernel_constants("vonmises", 1)
        assert c.q1 is None
        assert c.q2 == pytest.approx(1.0 / (4.0 * math.sqrt(np.pi)), rel=1e-12)

    def test_wrapped_epanechnikov_base_constant(self):
        c = kernel_constants("wrappedepanechnikov", 0)
        assert c.q1 is None
        assert c.q2 == pytest.approx(3.0 / (5.0 * math.sqrt(5.0)), rel=1e-12)

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedKernelError):
            kernel_constants("wrappedcauchy", 0)
        with pytest.raises(UnsupportedKernelError):
            kernel_constants("cardioid", 2)
        with pytest.raises(UnsupportedKernelError):
            kernel_constants("wrappedepanechnikov", 1)

    def test_orders_past_the_float_range_are_unsupported(self):
        # (2r)! passes the float range at r = 86; below it the constants
        # keep the arithmetic of the closed forms
        q2 = math.factorial(170) / (2**171 * math.factorial(85) * math.sqrt(np.pi))
        assert kernel_constants("vonmises", 85).q2 == q2
        for family in ("vonmises", "wrappednormal"):
            with pytest.raises(UnsupportedKernelError, match="float range"):
                kernel_constants(family, 86)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_q2_is_the_small_bandwidth_roughness_limit(self, r):
        # roughness(spec(h); r, 2) ~ q2 * h^-(2r+1)/2 as h -> 0
        h = 0.002
        spec = concentration_from_bandwidth("vonmises", h, exact=True)
        predicted = kernel_constants("vonmises", r).q2 * h ** (-(2 * r + 1) / 2.0)
        assert roughness(spec, r, 2) == pytest.approx(predicted, rel=0.02)

    @pytest.mark.parametrize("s", [0, 2, 4])
    def test_q1_is_the_small_bandwidth_peak_limit(self, s):
        # kernel peak K^(s)(0) ~ q1 * h^-(s+1)/2 as h -> 0
        h = 0.002
        spec = concentration_from_bandwidth("wrappednormal", h, exact=True)
        predicted = kernel_constants("wrappednormal", s).q1 * h ** (-(s + 1) / 2.0)
        assert kernel_value(spec, 0.0, s) == pytest.approx(predicted, rel=0.02)


class TestInversion:
    @pytest.mark.parametrize("fam,h_grid", [
        ("vonmises", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0]),
        ("wrappednormal", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0]),
        ("wrappedcauchy", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0]),
        ("wrappedepanechnikov", [1e-3, 0.01, 0.1, 0.5, 1.0, 1.9]),
        ("cardioid", [1.3, 2.0, 3.0]),
    ])
    def test_exact_round_trip(self, fam, h_grid):
        for h in h_grid:
            spec = concentration_from_bandwidth(fam, h, exact=True)
            assert bandwidth(spec) == pytest.approx(h, abs=1e-8)

    def test_asymptotic_von_mises_is_reciprocal(self):
        spec = concentration_from_bandwidth("vonmises", 0.2)
        assert spec.kappa == 5.0

    def test_asymptotic_wrapped_normal_value(self):
        spec = concentration_from_bandwidth("wrappednormal", 0.2)
        assert spec.nu == pytest.approx(0.880111736793393397271082405566, rel=1e-12)
        # self-consistency: the approximate bandwidth inverts back exactly
        assert bandwidth_approx(spec) == pytest.approx(0.2, rel=1e-12)

    def test_asymptotic_wrapped_epanechnikov_value(self):
        spec = concentration_from_bandwidth("wrappedepanechnikov", 0.2)
        assert spec.lam == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("fam,param", [
        ("vonmises", lambda s: s.kappa),
        ("wrappednormal", lambda s: s.nu),
        ("wrappedepanechnikov", lambda s: s.lam),
    ])
    def test_asymptotic_close_to_exact_below_small_bandwidth(self, fam, param):
        for h in (0.002, 0.01, 0.03, 0.049):
            approx = param(concentration_from_bandwidth(fam, h))
            exact = param(concentration_from_bandwidth(fam, h, exact=True))
            assert abs(approx - exact) <= 0.05 * abs(exact)

    def test_uniform_fallback_wide_bandwidth(self):
        for fam in ALL_FAMILIES:
            out = concentration_from_bandwidth(fam, UNIFORM_BANDWIDTH + 0.1)
            assert is_uniform_fallback(out)
            out = concentration_from_bandwidth(fam, UNIFORM_BANDWIDTH)
            assert is_uniform_fallback(out)

    def test_family_specific_fallback_thresholds(self):
        assert is_uniform_fallback(concentration_from_bandwidth("wrappednormal", 0.5))
        assert is_uniform_fallback(
            concentration_from_bandwidth("wrappedepanechnikov", np.pi**2 / 5.0)
        )
        # just inside the reachable range
        assert not is_uniform_fallback(concentration_from_bandwidth("wrappednormal", 0.49))

    @pytest.mark.parametrize(
        "fam, h",
        [(f, UNIFORM_BANDWIDTH) for f in ALL_FAMILIES]
        + [(f, math.inf) for f in ALL_FAMILIES]
        + [("wrappednormal", 0.5), ("wrappedepanechnikov", np.pi**2 / 5.0)],
    )
    def test_uniform_bandwidth_gives_the_uniform_kernel(self, fam, h):
        assert concentration_from_bandwidth(fam, h) == KernelSpec.from_nu(fam, 0.0)

    def test_cardioid_unreachable_bandwidth(self):
        with pytest.raises(ValueError):
            concentration_from_bandwidth("cardioid", 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            concentration_from_bandwidth("vonmises", 0.0)
        with pytest.raises(ValueError):
            concentration_from_bandwidth("vonmises", -0.3)


class TestKernelValue:
    def test_von_mises_closed_form(self):
        from circkde.special import bessel_ratio

        kappa = 2.5
        spec = KernelSpec.vonmises(kappa=kappa)
        from scipy.special import i0

        for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
            target = math.exp(kappa * math.cos(t)) / (2.0 * np.pi * i0(kappa))
            assert kernel_value(spec, t) == pytest.approx(target, rel=1e-12)

    def test_wrapped_cauchy_closed_form(self):
        nu = 0.6
        spec = KernelSpec.wrapped_cauchy(nu)
        for t in (-1.0, 0.0, 2.2):
            target = (1.0 - nu * nu) / (
                2.0 * np.pi * (1.0 + nu * nu - 2.0 * nu * math.cos(t))
            )
            assert kernel_value(spec, t) == pytest.approx(target, rel=1e-12)

    def test_wrapped_normal_translate_oracle(self):
        for nu in (0.3, 0.6, 0.9):
            spec = KernelSpec.wrapped_normal(nu)
            for t in (-2.5, 0.0, 0.7, 3.0):
                assert kernel_value(spec, t) == pytest.approx(
                    wrapped_normal_oracle(nu, t), rel=1e-10
                )

    def test_cardioid_closed_form(self):
        spec = KernelSpec.cardioid(0.4)
        for t in (-3.0, 0.0, 1.5):
            assert kernel_value(spec, t) == pytest.approx(
                (1.0 + 0.8 * math.cos(t)) / (2.0 * np.pi), rel=1e-14
            )

    def test_wrapped_epanechnikov_parabola(self):
        lam = 1.3
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        assert kernel_value(spec, 0.0) == pytest.approx(3.0 / (4.0 * lam), rel=1e-14)
        assert kernel_value(spec, 0.5) == pytest.approx(
            3.0 * (1.0 - (0.5 / lam) ** 2) / (4.0 * lam), rel=1e-14
        )
        # angle wrapping leaves float-level noise exactly at the kink
        assert kernel_value(spec, lam) == pytest.approx(0.0, abs=1e-12)
        assert kernel_value(spec, 2.0) == 0.0
        assert kernel_value(spec, -3.0) == 0.0

    def test_uniform_case(self):
        spec = KernelSpec.vonmises(kappa=0.0)
        assert kernel_value(spec, 1.23) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-15)
        assert kernel_value(spec, 1.23, 1) == 0.0
        assert kernel_value(spec, 1.23, 4) == 0.0

    @pytest.mark.parametrize("spec", spec_grid(), ids=lambda s: f"{s.family.value}-{s.nu:.2f}")
    def test_normalization(self, spec):
        assert circle_quad(lambda t: kernel_value(spec, t)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_periodicity_and_symmetry(self):
        spec = KernelSpec.wrapped_normal(0.7)
        ts = np.array([-2.0, -0.3, 0.9, 2.8])
        np.testing.assert_allclose(
            kernel_value(spec, ts + 2.0 * np.pi), kernel_value(spec, ts), rtol=1e-12
        )
        np.testing.assert_allclose(
            kernel_value(spec, -ts), kernel_value(spec, ts), rtol=1e-12
        )
        # odd derivative is antisymmetric
        np.testing.assert_allclose(
            kernel_value(spec, -ts, 1), -kernel_value(spec, ts, 1), rtol=1e-10
        )

    @pytest.mark.parametrize("spec", [
        KernelSpec.vonmises(kappa=2.5),
        KernelSpec.wrapped_cauchy(0.6),
        KernelSpec.cardioid(0.4),
    ], ids=lambda s: s.family.value)
    @pytest.mark.parametrize("k", [-3, 5])
    def test_closed_forms_periodic_without_reduction(self, spec, k):
        ts = np.array([-3.0, -2.0, -0.3, 0.0, 0.9, 2.8, np.pi])
        np.testing.assert_allclose(
            kernel_value(spec, ts + 2.0 * np.pi * k), kernel_value(spec, ts), rtol=1e-12
        )

    @pytest.mark.parametrize("spec", [
        KernelSpec.vonmises(kappa=3.0),
        KernelSpec.wrapped_normal(0.6),
        KernelSpec.wrapped_cauchy(0.5),
        KernelSpec.cardioid(0.35),
    ], ids=lambda s: s.family.value)
    def test_finite_difference_consistency(self, spec):
        step = 1e-4
        ts = np.array([-1.7, -0.4, 0.8, 2.1])
        for r in (0, 1, 2):
            fd = (
                kernel_value(spec, ts + step, r) - kernel_value(spec, ts - step, r)
            ) / (2.0 * step)
            np.testing.assert_allclose(
                fd, kernel_value(spec, ts, r + 1), rtol=1e-5, atol=1e-6
            )

    def test_wrapped_epanechnikov_derivatives(self):
        lam = 1.3
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        assert kernel_value(spec, 0.5, 1) == pytest.approx(
            -3.0 * 0.5 / (2.0 * lam**3), rel=1e-14
        )
        assert kernel_value(spec, 0.5, 2) == pytest.approx(
            -3.0 / (2.0 * lam**3), rel=1e-14
        )
        assert kernel_value(spec, 2.0, 1) == 0.0
        with pytest.raises(UnsupportedKernelError):
            kernel_value(spec, 0.5, 3)

    def test_high_concentration_stability(self):
        spec = KernelSpec.vonmises(kappa=1e5)
        peak = kernel_value(spec, 0.0)
        assert np.isfinite(peak)
        assert peak == pytest.approx(roughness(spec, 0, 1), rel=1e-12)
        assert kernel_value(spec, np.pi) >= 0.0

    def test_scalar_and_array_shapes(self):
        spec = KernelSpec.vonmises(kappa=2.0)
        assert isinstance(kernel_value(spec, 0.5), float)
        out = kernel_value(spec, np.linspace(-np.pi, np.pi, 7))
        assert out.shape == (7,)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            kernel_value(KernelSpec.vonmises(kappa=1.0), 0.0, -1)


class TestTruncation:
    def test_wrapped_epanechnikov_series_exhausts_its_limit(self):
        # coefficients that decay like j^-2 do not meet the tail rule
        # within the family's 10 000 terms
        spec = KernelSpec.wrapped_epanechnikov(lam=0.5)
        with pytest.raises(ToleranceError, match="within 10000 terms"):
            derivative_weights(spec, 0)

    def test_derived_limit_succeeds_at_high_concentration(self):
        spec = KernelSpec.wrapped_normal(0.995)
        val = roughness(spec, 2, 2)
        assert np.isfinite(val) and val > 0

    def test_oscillating_tail_not_cut_early(self):
        # wrapped Epanechnikov coefficients pass through isolated zeros;
        # the three-in-a-row rule must keep summing past them
        spec = KernelSpec.wrapped_epanechnikov(lam=2.0)
        target = circle_quad(lambda t: t * t * kernel_value(spec, t))
        assert bandwidth(spec) == pytest.approx(target, abs=1e-9)


def _series_weights_loop(spec, growth, power, max_terms, rel_tol=1e-12):
    """Frozen term-by-term tail rule: the reference for the vectorized one."""
    out = []
    total = 0.0
    consec = 0
    j0 = 1
    block = 64
    while j0 <= max_terms:
        hi = min(j0 + block - 1, max_terms)
        js = np.arange(j0, hi + 1)
        alphas = _alpha_block(spec, js)
        c = js.astype(float) ** growth * alphas**power
        for idx in range(len(js)):
            v = c[idx]
            total += abs(v)
            out.append(v)
            if abs(v) <= rel_tol * max(total, 1e-300):
                consec += 1
                if consec >= 3:
                    return np.array(out)
            else:
                consec = 0
        j0 = hi + 1
        block = min(block * 2, 4096)
    raise ToleranceError("budget exhausted")


def _tail_rule_specs(family):
    nus = [0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.655, 0.8, 0.9, 0.97, 0.995, 0.9995, 0.99999]
    if family == KernelFamily.CARDIOID:
        nus = [0.0, 0.1, 0.25, 0.4, 0.49]
    if family == KernelFamily.WRAPPEDEPANECHNIKOV:
        nus = [3.0 / np.pi**2, 0.35, 0.5, 0.8, 0.97, 0.9995]
    if family == KernelFamily.WRAPPEDCAUCHY:
        # at 0.99999 the series runs to millions of terms, too many for
        # the term-by-term loop
        nus.remove(0.99999)
    return [KernelSpec.from_nu(family, nu) for nu in nus]


class TestSeriesTailRule:
    # wrapped Cauchy at nu = 0.65 and 0.655 stops on a run of small terms
    # that straddles the first block boundary (j = 64 | 65)
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_matches_term_by_term_loop(self, family):
        errors = 0
        for spec in _tail_rule_specs(family):
            for growth in (-2, 0, 1, 2, 4, 6, 8):
                limit = _term_limit(spec, growth)
                for power in (1, 2):
                    try:
                        expect = _series_weights_loop(spec, growth, power, limit)
                    except ToleranceError:
                        errors += 1
                        with pytest.raises(ToleranceError):
                            _series_weights.__wrapped__(spec, growth, power)
                        continue
                    got = _series_weights.__wrapped__(spec, growth, power)
                    assert len(got) == len(expect)
                    assert np.array_equal(got, expect), (spec, growth, power)
        # only the wrapped Epanechnikov's series outgrow their limit
        if family == KernelFamily.WRAPPEDEPANECHNIKOV:
            assert errors > 0
        else:
            assert errors == 0


class TestTermLimits:
    """Every series that a kernel family can be asked for meets the tail
    rule inside the limit worked out from its concentration."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([KernelFamily.VONMISES, KernelFamily.WRAPPEDNORMAL]),
        st.floats(0.0, 7.0),
        st.integers(-2, 40),
        st.sampled_from([1, 2]),
    )
    @example(KernelFamily.VONMISES, 7.0, 40, 1)
    @example(KernelFamily.WRAPPEDNORMAL, 7.0, 40, 1)
    def test_gaussian_families_stop_inside_their_limit(self, family, log_kappa, growth, power):
        kappa = 10.0**log_kappa
        if family == KernelFamily.VONMISES:
            spec = KernelSpec.vonmises(kappa=kappa)
        else:
            # rho^(j^2) = exp(-j^2 / (2 kappa))
            spec = KernelSpec.wrapped_normal(math.exp(-0.5 / kappa))
        weights = _series_weights.__wrapped__(spec, growth, power)
        assert 3 <= len(weights) <= _term_limit(spec, growth)
        assert np.all(np.isfinite(weights))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(-3.0, math.log10(0.99)), st.integers(-2, 40), st.sampled_from([1, 2]))
    def test_wrapped_cauchy_stops_inside_its_limit(self, log_gap, growth, power):
        spec = KernelSpec.wrapped_cauchy(1.0 - 10.0**log_gap)
        weights = _series_weights.__wrapped__(spec, growth, power)
        assert len(weights) <= _term_limit(spec, growth)

    @pytest.mark.parametrize("kappa", [1e3, 1e6])
    def test_von_mises_limit_grows_with_the_growth(self, kappa):
        # a growth of 30 (r = 11 at nstage 2) needs more orders than the
        # ratio table's first span
        spec = KernelSpec.vonmises(kappa=kappa)
        weights = _series_weights.__wrapped__(spec, 30, 1)
        assert bessel_ratio_span(kappa) < len(weights) <= bessel_ratio_span(kappa, 30)

    def test_no_series_passes_the_memory_guard(self):
        # kernels forced with nu near 1 have limits far past 2^20 terms: a
        # von Mises raises before it builds its 1e8-entry ratio table, a
        # wrapped Cauchy or wrapped normal once 2^20 terms are summed
        tables = _ratio_prefix.cache_info().misses
        with pytest.raises(ToleranceError, match="needs more than 1048576 terms"):
            _series_weights.__wrapped__(KernelSpec.vonmises(kappa=1e14), 1, 1)
        assert _ratio_prefix.cache_info().misses == tables
        near_one = (KernelSpec.wrapped_cauchy(1.0 - 1e-10), KernelSpec.wrapped_normal(1.0 - 1e-15))
        for spec in near_one:
            assert _term_limit(spec, 1) > 2**20
            with pytest.raises(ToleranceError, match="within 1048576 terms"):
                _series_weights.__wrapped__(spec, 1, 1)
        # below the guard a series may pass the old flat 10 000 terms
        weights = _series_weights.__wrapped__(KernelSpec.vonmises(kappa=1e9), 0, 1)
        assert 10000 < len(weights) <= 2**20

    def test_overflowing_series_raises_without_a_warning(self):
        # j^100 passes 1e308 near j = 1200, inside this kernel's term limit;
        # the inf terms used to end the tail rule and reach the caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="leaves the float range"):
                derivative_weights(KernelSpec.vonmises(kappa=1e4), 100)


class TestUniformKernel:
    """from_nu(family, 0) is the uniform density 1 / (2 pi) in every
    family: no cosine terms, flat at every derivative order."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_every_family(self, family):
        spec = KernelSpec.from_nu(family, 0.0)
        assert (spec.family, spec.nu) == (family, 0.0)
        assert spec.concentration == (0.0 if family == KernelFamily.VONMISES else None)
        thetas = np.linspace(-np.pi, np.pi, 9)
        sample = CircularSample.from_data([0.1, 0.2, 2.5])
        assert np.all(kde_values(sample, spec, thetas) == 1.0 / (2.0 * np.pi))
        for r in (1, 2):
            assert np.all(kde_values(sample, spec, thetas, r) == 0.0)
        assert np.all(kernel_value(spec, thetas) == 1.0 / (2.0 * np.pi))
        assert kernel_value(spec, 0.4) == 1.0 / (2.0 * np.pi)
        for r in range(1, 7):
            assert np.all(kernel_value(spec, thetas, r) == 0.0)
            assert kernel_value(spec, 0.4, r) == 0.0
        for r in range(5):
            assert len(derivative_weights(spec, r)) == 0
        assert fourier_coefficient(spec, 1) == 0.0
        assert bandwidth(spec) == UNIFORM_BANDWIDTH
        assert roughness(spec, 0, 1) == 1.0 / (2.0 * np.pi)


class TestWrapAngle:
    def test_principal_interval(self):
        vals = wrap_angle(np.array([0.0, np.pi, -np.pi, 3.5 * np.pi, -7.0]))
        assert np.all(vals >= -np.pi) and np.all(vals < np.pi)
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(0.3 + 4.0 * np.pi) == pytest.approx(0.3, abs=1e-12)
