"""Tests for circkde.estimators.

Oracles: explicit python-loop evaluation of the defining sums, the
closed-form densities summed over long-double differences, adaptive
quadrature for normalization and error integrals, hand-computed two-point
values with 25-digit Bessel arithmetic, and the algebraic identity tying
psi_hat to the averaged derivative estimate.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive

from circkde.estimators import (
    CircularSample,
    _direct_sum,
    _kde_rows,
    _nufft_size,
    _spectral_sum,
    DensityGrid,
    FunctionalEstimate,
    default_grid,
    grid_ise,
    ise,
    ise_weights,
    kde,
    kde_deriv,
    kde_values,
    psi_hat,
    truth_on_ise_grid,
)
from circkde.errors import UnsupportedKernelError
from circkde.kernels import KernelFamily, KernelSpec, derivative_weights, kernel_value
from circkde.selectors import SelectorConfig, select_dpi
from circkde.simulate import builtin_models


def sample_of(*angles):
    return CircularSample.from_data(np.array(angles, dtype=float))


def rng_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return CircularSample.from_data(rng.uniform(-np.pi, np.pi, n))


def loop_kde(sample, spec, thetas, r=0):
    """Literal definition: mean of kernel (derivative) values."""
    out = np.zeros(len(thetas))
    for i, t in enumerate(thetas):
        out[i] = np.mean([kernel_value(spec, t - x, r) for x in sample.angles])
    return out


class TestCircularSample:
    def test_wraps_into_principal_interval(self):
        s = sample_of(0.0, 3.5 * np.pi, -4.0)
        assert np.all(s.angles >= -np.pi) and np.all(s.angles < np.pi)
        assert s.angles[1] == pytest.approx(-0.5 * np.pi)
        assert s.n == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CircularSample.from_data([])
        with pytest.raises(ValueError):
            CircularSample.from_data([0.0, np.nan])
        with pytest.raises(ValueError):
            CircularSample.from_data([np.inf])

    def test_angles_are_read_only(self):
        s = sample_of(0.1, 0.2)
        with pytest.raises(ValueError):
            s.angles[0] = 9.9

    def test_trig_moments_match_loop(self):
        s = rng_sample(17, seed=3)
        C, S = s.trig_moments(5)
        for j in range(1, 6):
            assert C[j - 1] == pytest.approx(
                sum(math.cos(j * x) for x in s.angles), abs=1e-10
            )
            assert S[j - 1] == pytest.approx(
                sum(math.sin(j * x) for x in s.angles), abs=1e-10
            )

    def test_trig_moments_incremental_extension(self):
        s = rng_sample(9, seed=4)
        C3, S3 = s.trig_moments(3)
        C8, S8 = s.trig_moments(8)
        np.testing.assert_array_equal(C8[:3], C3)
        np.testing.assert_array_equal(S8[:3], S3)
        assert len(C8) == 8 and len(S8) == 8

    def test_zero_order_moments(self):
        C, S = rng_sample(5).trig_moments(0)
        assert len(C) == 0 and len(S) == 0

    @pytest.mark.parametrize("n", [2, 500])
    def test_trig_moments_take_numpy_integers(self, n):
        # each order on a fresh sample, so that none is read from the memo
        angles = rng_sample(n, seed=6).angles
        C, S = CircularSample.from_data(angles).trig_moments(5)
        for order in (np.int64(5), np.int32(5)):
            Cn, Sn = CircularSample.from_data(angles).trig_moments(order)
            np.testing.assert_array_equal(Cn, C)
            np.testing.assert_array_equal(Sn, S)
        with pytest.raises(TypeError):
            CircularSample.from_data(angles).trig_moments(3.5)


def longdouble_kde(spec, data, points, deriv_order=0):
    """Mean kernel value (order ``deriv_order`` for the wrapped
    Epanechnikov, the density otherwise) from differences taken in long
    double."""
    d = np.asarray(points, np.longdouble)[:, None] - np.asarray(data, np.longdouble)[None, :]
    two_pi = 2 * np.longdouble(np.pi)
    if spec.family == KernelFamily.WRAPPEDEPANECHNIKOV:
        # the wrapped difference, exact for |d| < pi
        d -= two_pi * np.round(d / two_pi)
        lam = np.longdouble(spec.lam)
        vals = [3 * (1 - (d / lam) ** 2) / (4 * lam), -3 * d / (2 * lam**3),
                np.full(d.shape, -3 / (2 * lam**3))][deriv_order]
        return np.where(np.abs(d) < lam, vals, 0).mean(axis=1).astype(float)
    s = np.sin(d / 2) ** 2
    if spec.family == KernelFamily.VONMISES:
        vals = np.exp(-2 * np.longdouble(spec.kappa) * s) / (two_pi * np.longdouble(ive(0, spec.kappa)))
    elif spec.family == KernelFamily.WRAPPEDCAUCHY:
        nu = np.longdouble(spec.nu)
        vals = (1 - nu * nu) / (two_pi * ((1 - nu) ** 2 + 4 * nu * s))
    else:
        nu = np.longdouble(spec.nu)
        vals = (1 + 2 * nu * (1 - 2 * s)) / two_pi
    return vals.mean(axis=1).astype(float)


def assert_epanechnikov_rows_match(spec, sample, points, deriv_order=0):
    """kde_values of a wrapped Epanechnikov kernel against longdouble_kde,
    returning the values.  Near its support's edge the kernel is a
    difference of nearly equal numbers, so the bound is absolute: 1e-14 of
    the peak |K^(r)|, for the rounding of the values and their sum, plus
    the largest slope |K^(r+1)| on the support times 2 ulps of |point| +
    2 pi, for the rounding of a difference (wrapping the point, shifting
    an observation by 2 pi, subtracting)."""
    lam = spec.lam
    peak = (3 / (4 * lam), 3 / (2 * lam**2), 3 / (2 * lam**3))[deriv_order]
    slope = (3 / (2 * lam**2), 3 / (2 * lam**3), 0.0)[deriv_order]
    points = np.asarray(points, dtype=float)
    got = kde_values(sample, spec, points, deriv_order)
    ref = longdouble_kde(spec, sample.angles, points, deriv_order)
    bound = 1e-14 * peak + slope * 2 * np.spacing(np.abs(points) + 2 * np.pi)
    np.testing.assert_array_less(np.abs(got - ref), bound)
    return got, ref


class TestDirectSums:
    @pytest.mark.parametrize("spec", [
        KernelSpec.vonmises(kappa=1e4),
        KernelSpec.vonmises(kappa=1e6),
        KernelSpec.wrapped_cauchy(0.5),
        KernelSpec.wrapped_cauchy(0.9999),
        KernelSpec.cardioid(0.4),
    ], ids=lambda k: f"{k.family.value}-{k.nu}")
    @pytest.mark.parametrize("data", [
        [0.3],
        [-np.pi],
        [0.3, 0.3005],
        [np.pi - 1e-3, -np.pi + 1e-3],
        [1.1] * 10,
    ], ids=["n1", "n1-seam", "n2", "n2-across-seam", "10-identical"])
    def test_closed_forms_match_long_double(self, spec, data):
        s = CircularSample.from_data(data)
        seam = [-np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0), np.pi]
        points = np.concatenate([default_grid(), seam, s.angles + 1e-3, s.angles - 0.01])
        ref = longdouble_kde(spec, s.angles, points)
        got = kde_values(s, spec, points)
        near = ref >= 1e-12 * ref.max()
        np.testing.assert_allclose(got[near], ref[near], rtol=1e-12)
        # further out the chord's rounding, about kappa |chord| 1e-16
        # relative, can pass 1e-12 (3.5e-12 at kappa = 1e6), but every value
        # keeps its relative accuracy down to the smallest normal number
        normal = ref >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-11)
        np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0, atol=np.finfo(float).tiny)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.floats(-3.0, 6.0),
        st.integers(1, 10_000),
        st.floats(-np.pi, np.pi),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
    )
    def test_von_mises_rows_match_long_double(self, log_kappa, n, mu, spread, seed):
        # the fused von Mises block: exponent, exp and row mean in place,
        # the normaliser once per row
        rng = np.random.default_rng(seed)
        s = CircularSample.from_data(rng.vonmises(mu, spread, n))
        spec = KernelSpec.vonmises(kappa=10.0**log_kappa)
        seam = [-np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0), np.pi]
        points = np.concatenate([default_grid(24), seam, s.angles[:4] + 1e-4, [mu]])
        ref = longdouble_kde(spec, s.angles, points)
        got = kde_values(s, spec, points)
        near = ref >= 1e-12 * ref.max()
        np.testing.assert_allclose(got[near], ref[near], rtol=1e-12)

    def test_row_blocks_match_one_point_sums(self):
        # n = 5000: every row block holds many grid points, and each row mean
        # equals the one-point-per-call sum exactly
        s = rng_sample(5000, seed=12)
        spec = KernelSpec.wrapped_epanechnikov(lam=0.4)
        points = default_grid(64)
        alone = np.array([kde_values(s, spec, points[i : i + 1])[0] for i in range(len(points))])
        assert np.array_equal(kde_values(s, spec, points), alone)
        assert_epanechnikov_rows_match(spec, s, points)


def assert_rows_match_long_double(got, ref):
    """TestDirectSums' bounds: rel 1e-12 within 1e-12 of the peak, rel 1e-11
    down to the smallest normal number, abs tiny below it."""
    near = ref >= 1e-12 * ref.max()
    np.testing.assert_allclose(got[near], ref[near], rtol=1e-12)
    normal = ref >= np.finfo(float).tiny
    np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-11)
    np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0, atol=np.finfo(float).tiny)


class TestWindowedSums:
    """The direct sums read the sample's sorted view: a von Mises row sums
    only the observations within e^-T of its largest term, T = 40 + ln n,
    and a wrapped Epanechnikov row only its support.  Every row keeps the
    long-double accuracy of the sum over all pairs, whatever the points and
    their order."""

    SEAM = [-np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0), np.pi]

    @staticmethod
    def two_clusters(seed=5):
        rng = np.random.default_rng(seed)
        return CircularSample.from_data(
            np.concatenate([rng.vonmises(-1.0, 1e5, 150), rng.vonmises(2.0, 1e5, 250)])
        )

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    def test_dropped_mass_is_negligible_in_every_row(self, kappa):
        s = self.two_clusters()
        spec = KernelSpec.vonmises(kappa=kappa)
        gap = np.linspace(-0.99, 1.99, 41)
        tails = np.linspace(2.0 - np.pi, 2.0 - np.pi + 0.5, 11)
        edges = np.concatenate([s.angles[:20], s.angles[-20:]]) + 3.0 / np.sqrt(kappa)
        points = np.concatenate([default_grid(128), gap, tails, edges, self.SEAM])
        got = kde_values(s, spec, points)
        assert_rows_match_long_double(got, longdouble_kde(spec, s.angles, points))

    @pytest.mark.parametrize("family", [
        KernelSpec.vonmises(kappa=300.0),
        KernelSpec.wrapped_cauchy(0.9),
        KernelSpec.cardioid(0.3),
        KernelSpec.wrapped_epanechnikov(lam=0.6),
    ], ids=lambda k: k.family.value)
    def test_unsorted_duplicate_and_unwrapped_points_keep_their_order(self, family):
        s = rng_sample(500, seed=8)
        rng = np.random.default_rng(9)
        points = rng.uniform(-np.pi, np.pi, 200)
        points = np.concatenate([points, points[:30], points[:20] + 2 * np.pi,
                                 points[20:40] - 6 * np.pi, self.SEAM])
        if family.family == KernelFamily.WRAPPEDEPANECHNIKOV:
            got, _ = assert_epanechnikov_rows_match(family, s, points)
        else:
            got = kde_values(s, family, points)
            assert_rows_match_long_double(got, longdouble_kde(family, s.angles, points))
        # each point's value is the one it gets alone and in sorted order
        np.testing.assert_array_equal(got[200:230], got[:30])
        order = np.argsort(points)
        np.testing.assert_array_equal(kde_values(s, family, points[order]), got[order])

    @pytest.mark.parametrize("kappa", [1.0, 50.0, 1e4, 1e6])
    def test_rows_do_not_depend_on_the_other_points(self, kappa):
        # likelihood cross-validation rescores a few sample points at a time
        # and subtracts K(0), so a row must not change with its company
        s = self.two_clusters(seed=6)
        spec = KernelSpec.vonmises(kappa=kappa)
        points = np.concatenate([s.angles, default_grid(64)])
        together = kde_values(s, spec, points)
        alone = np.array([kde_values(s, spec, points[i : i + 1])[0] for i in range(0, len(points), 7)])
        np.testing.assert_array_equal(together[::7], alone)

    @pytest.mark.parametrize("data", [
        [0.3],
        [0.3, -2.0],
        [np.pi - 1e-3, -np.pi + 1e-3],
        [-np.pi, -np.pi, 0.0],
        [1.1] * 25,
    ], ids=["n1", "n2", "n2-across-seam", "seam-duplicates", "25-identical"])
    @pytest.mark.parametrize("kappa", [0.5, 1e3, 1e6])
    def test_small_and_degenerate_samples(self, data, kappa):
        s = CircularSample.from_data(data)
        spec = KernelSpec.vonmises(kappa=kappa)
        points = np.concatenate([default_grid(96), self.SEAM, s.angles, s.angles + 1e-4])
        got = kde_values(s, spec, points)
        assert_rows_match_long_double(got, longdouble_kde(spec, s.angles, points))

    @pytest.mark.parametrize("data", [
        [0.3],
        [0.3, -2.0],
        [np.pi - 1e-3, -np.pi + 1e-3],
        [-np.pi, -np.pi, 0.0],
        [1.1] * 25,
    ], ids=["n1", "n2", "n2-across-seam", "seam-duplicates", "25-identical"])
    @pytest.mark.parametrize("lam", [0.01, 0.5, np.pi])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_epanechnikov_small_and_degenerate_samples(self, data, lam, r):
        s = CircularSample.from_data(data)
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        points = np.concatenate([default_grid(96), self.SEAM, s.angles, s.angles + 1e-4,
                                 s.angles - 0.5 * lam, s.angles[:1] + 4 * np.pi])
        got, _ = assert_epanechnikov_rows_match(spec, s, points, r)
        # points beyond lam of every observation get no term at all: the
        # second derivative is a nonzero constant on the support
        far = longdouble_kde(spec, s.angles, points, 2) == 0.0
        np.testing.assert_array_equal(got[far], 0.0)
        if lam < 0.1:
            assert np.count_nonzero(far) >= 90

    @pytest.mark.parametrize("theta", [0.0, -2.0, -np.pi, 3.0])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_epanechnikov_support_edges(self, theta, r):
        # a term counts iff its difference d has |d| < lam.  Each point lies
        # within a factor 2 of theta or at theta = 0, so the difference the
        # sum takes is exact and the tie is the long-double oracle's
        lam = 0.75
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        s = CircularSample.from_data([theta])
        edges = np.array([theta + lam, theta - lam])
        edges = edges[(edges >= -np.pi) & (edges < np.pi)]
        inner = np.nextafter(edges, theta)
        if theta == 0.0:
            np.testing.assert_array_equal(edges, [lam, -lam])
            np.testing.assert_array_equal(inner, [np.nextafter(lam, 0.0), -np.nextafter(lam, 0.0)])
        got, ref = assert_epanechnikov_rows_match(spec, s, np.concatenate([edges, inner]), r)
        k = len(edges)
        if theta != -np.pi:
            np.testing.assert_array_equal(got[:k], 0.0)
            assert np.all(got[k:] != 0.0)
            np.testing.assert_array_equal(kernel_value(spec, edges - theta, r), 0.0)
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)

    def test_epanechnikov_window_keeps_the_rounded_ends(self):
        # here x + lam rounds down and x - lam up, each onto an observation
        # whose exact difference from x is inside the support, so the
        # binary search must keep an entry equal to either end
        x, lam = 0.8206640845696875, 0.2631582096201642
        spec = KernelSpec.wrapped_epanechnikov(lam=lam)
        s = CircularSample.from_data([x + lam, x - lam])
        np.testing.assert_array_equal(s.angles, [x + lam, x - lam])
        assert abs(x - s.angles[0]) < lam and abs(x - s.angles[1]) < lam
        for r in (0, 1, 2):
            assert_epanechnikov_rows_match(spec, s, [x], r)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.floats(-4.0, 0.0),
        st.integers(1, 10_000),
        st.floats(-np.pi, np.pi),
        st.floats(0.0, 50.0),
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_epanechnikov_rows_match_long_double(self, log_lam, n, mu, spread, r, seed):
        rng = np.random.default_rng(seed)
        s = CircularSample.from_data(rng.vonmises(mu, spread, n))
        spec = KernelSpec.wrapped_epanechnikov(lam=np.pi * 10.0**log_lam)
        points = np.concatenate([default_grid(24), self.SEAM, s.angles[:4] + 1e-4, [mu],
                                 rng.uniform(-np.pi, np.pi, 8) + 2 * np.pi * rng.integers(-3, 4, 8)])
        assert_epanechnikov_rows_match(spec, s, points, r)

    def test_empty_points(self):
        s = rng_sample(40)
        for spec in (KernelSpec.vonmises(kappa=1e3), KernelSpec.cardioid(0.2),
                     KernelSpec.wrapped_epanechnikov(lam=0.3)):
            out = kde_values(s, spec, np.empty(0))
            assert out.shape == (0,)

    def test_sorted_view_is_built_once_and_read_only(self, monkeypatch):
        from circkde import estimators

        builds = []
        real = estimators._SortedView
        monkeypatch.setattr(
            estimators, "_SortedView", lambda *parts: builds.append(1) or real(*parts)
        )
        s = rng_sample(300, seed=2)
        spec = KernelSpec.vonmises(kappa=200.0)
        kde(s, spec)
        kde_values(s, spec, [0.1, -3.0])
        kde(s, KernelSpec.wrapped_cauchy(0.7))
        kde_deriv(s, KernelSpec.wrapped_epanechnikov(lam=0.4), 2)
        assert len(builds) == 1
        view = s._sorted
        assert view is s._sorted
        np.testing.assert_array_equal(view.angles, np.sort(s.angles))
        np.testing.assert_array_equal(view.cos, np.cos(view.angles))
        np.testing.assert_array_equal(view.sin, np.sin(view.angles))
        for arr in view:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # a second sample has its own view
        assert rng_sample(300, seed=2)._sorted is not view


class TestDensityGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_csv_round_trip(self):
        g = DensityGrid(np.array([-1.0, 0.5]), np.array([0.25, 0.125]))
        text = g.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "theta,value"
        parsed = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert parsed == [(-1.0, 0.25), (0.5, 0.125)]

    def test_json_round_trip(self):
        g = DensityGrid(np.array([0.0, 1.0]), np.array([0.5, 0.25]), deriv_order=1)
        payload = json.loads(g.to_json())
        assert payload["deriv_order"] == 1
        assert payload["theta"] == [0.0, 1.0]
        assert payload["value"] == [0.5, 0.25]

    def test_default_grid_shape(self):
        g = default_grid()
        assert len(g) == 512
        assert g[0] == -np.pi
        assert g[-1] < np.pi
        assert np.allclose(np.diff(g), 2.0 * np.pi / 512)


class TestKde:
    def test_uniform_kernel_constant(self):
        est = kde(rng_sample(13), KernelSpec.vonmises(kappa=0.0))
        np.testing.assert_allclose(est.values, 1.0 / (2.0 * np.pi), rtol=1e-14)

    def test_single_observation_reproduces_kernel(self):
        spec = KernelSpec.vonmises(kappa=2.0)
        est = kde(sample_of(0.0), spec)
        np.testing.assert_allclose(est.values, kernel_value(spec, est.thetas), rtol=1e-13)
        at_zero = kde(sample_of(0.0), spec, thetas=np.array([0.0])).values[0]
        # 25-digit oracle for exp(2) / (2 pi I_0(2))
        assert at_zero == pytest.approx(0.5158854120190136181033334, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        KernelSpec.vonmises(kappa=3.0),
        KernelSpec.wrapped_normal(0.7),
        KernelSpec.wrapped_cauchy(0.5),
        KernelSpec.cardioid(0.4),
        KernelSpec.wrapped_epanechnikov(lam=1.2),
    ], ids=lambda s: s.family.value)
    def test_matches_literal_definition(self, spec):
        s = rng_sample(11, seed=7)
        thetas = np.linspace(-np.pi, np.pi, 9, endpoint=False)
        est = kde(s, spec, thetas=thetas)
        np.testing.assert_allclose(est.values, loop_kde(s, spec, thetas), rtol=1e-10)

    def test_normalizes_to_one(self):
        s = rng_sample(20, seed=5)
        spec = KernelSpec.vonmises(kappa=4.0)
        total, err = quad(
            lambda t: kde(s, spec, thetas=np.array([t])).values[0],
            -np.pi, np.pi, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rotation_equivariance(self):
        s = rng_sample(15, seed=9)
        spec = KernelSpec.wrapped_normal(0.6)
        thetas = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        base = kde(s, spec, thetas=thetas).values
        c = 0.83
        rotated = CircularSample.from_data(s.angles + c)
        shifted = kde(rotated, spec, thetas=thetas + c).values
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_density_floor(self):
        est = kde(rng_sample(30, seed=11), KernelSpec.vonmises(kappa=8.0))
        assert np.all(est.values >= -1e-12)

    def test_carries_provenance(self):
        s = rng_sample(6)
        spec = KernelSpec.vonmises(kappa=1.0)
        est = kde(s, spec)
        assert est.sample is s and est.kernel is spec


class TestKdeDeriv:
    def test_uniform_kernel_zero(self):
        est = kde_deriv(rng_sample(8), KernelSpec.wrapped_normal(0.0), 1)
        np.testing.assert_array_equal(est.values, 0.0)

    def test_derivative_integrates_to_zero(self):
        s = rng_sample(12, seed=2)
        spec = KernelSpec.vonmises(kappa=3.0)
        total, err = quad(
            lambda t: kde_deriv(s, spec, 1, thetas=np.array([t])).values[0],
            -np.pi, np.pi, limit=200,
        )
        assert total == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("spec,r", [
        (KernelSpec.vonmises(kappa=3.0), 1),
        (KernelSpec.vonmises(kappa=3.0), 2),
        (KernelSpec.wrapped_normal(0.6), 1),
        (KernelSpec.wrapped_cauchy(0.5), 2),
        (KernelSpec.wrapped_epanechnikov(lam=1.4), 1),
        (KernelSpec.wrapped_epanechnikov(lam=1.4), 2),
    ], ids=lambda v: str(v)[:26])
    def test_matches_literal_definition(self, spec, r):
        s = rng_sample(10, seed=13)
        thetas = np.linspace(-np.pi, np.pi, 7, endpoint=False)
        est = kde_deriv(s, spec, r, thetas=thetas)
        np.testing.assert_allclose(
            est.values, loop_kde(s, spec, thetas, r), rtol=1e-9, atol=1e-12
        )

    def test_finite_difference_against_kde(self):
        s = rng_sample(14, seed=6)
        spec = KernelSpec.vonmises(kappa=2.5)
        thetas = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        step = 1e-4
        up = kde(s, spec, thetas=thetas + step).values
        down = kde(s, spec, thetas=thetas - step).values
        deriv = kde_deriv(s, spec, 1, thetas=thetas).values
        np.testing.assert_allclose((up - down) / (2 * step), deriv, atol=1e-4)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            kde_deriv(rng_sample(5), KernelSpec.vonmises(kappa=1.0), 0)

    def test_epanechnikov_orders_outside_zero_to_two_raise(self):
        s = rng_sample(5)
        spec = KernelSpec.wrapped_epanechnikov(lam=1.0)
        with pytest.raises(UnsupportedKernelError):
            kde_values(s, spec, default_grid(8), 3)
        with pytest.raises(UnsupportedKernelError):
            kde_deriv(s, spec, 3)
        for kernel in (spec, KernelSpec.vonmises(kappa=2.0), KernelSpec.vonmises(kappa=0.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                kde_values(s, kernel, default_grid(8), -1)


class TestPsiHat:
    def test_uniform_pilot_gives_uniform_height(self):
        out = psi_hat(rng_sample(9), KernelSpec.vonmises(kappa=0.0), 0)
        assert out.value == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)

    def test_two_point_hand_value(self):
        s = sample_of(0.0, np.pi / 2.0)
        out = psi_hat(s, KernelSpec.vonmises(kappa=2.0), 0)
        # (2 K(0) + 2 K(pi/2)) / 4 at 25 digits
        assert out.value == pytest.approx(0.2928514551861217317684329, rel=1e-12)

    @pytest.mark.parametrize("s_order", [0, 2, 4])
    @pytest.mark.parametrize("pilot", [
        KernelSpec.vonmises(kappa=4.0),
        KernelSpec.wrapped_normal(0.7),
    ], ids=lambda p: p.family.value)
    def test_spectral_equals_pairwise(self, s_order, pilot):
        data = rng_sample(25, seed=21)
        fast = psi_hat(data, pilot, s_order, method="spectral").value
        slow = psi_hat(data, pilot, s_order, method="pairwise").value
        assert fast == pytest.approx(slow, rel=1e-11)

    @pytest.mark.parametrize("s_order", [0, 2, 4, 6])
    def test_equals_mean_of_derivative_estimate(self, s_order):
        data = rng_sample(19, seed=15)
        pilot = KernelSpec.vonmises(kappa=3.0)
        pts = np.sort(data.angles)
        if s_order == 0:
            vals = kde(data, pilot, thetas=pts).values
        else:
            vals = kde_deriv(data, pilot, s_order, thetas=pts).values
        out = psi_hat(data, pilot, s_order)
        assert out.value == pytest.approx(float(np.mean(vals)), rel=1e-12)

    def test_rotation_invariance(self):
        data = rng_sample(16, seed=8)
        pilot = KernelSpec.wrapped_normal(0.6)
        base = psi_hat(data, pilot, 2).value
        rotated = CircularSample.from_data(data.angles + 1.1)
        assert psi_hat(rotated, pilot, 2).value == pytest.approx(base, rel=1e-11)

    def test_zero_order_is_positive(self):
        data = rng_sample(10, seed=30)
        for kappa in (0.5, 2.0, 25.0):
            assert psi_hat(data, KernelSpec.vonmises(kappa=kappa), 0).value > 0

    def test_sign_alternates_with_order(self):
        data = rng_sample(40, seed=31)
        pilot = KernelSpec.vonmises(kappa=5.0)
        assert psi_hat(data, pilot, 2).value <= 0
        assert psi_hat(data, pilot, 4).value >= 0
        assert psi_hat(data, pilot, 6).value <= 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            psi_hat(sample_of(0.3), KernelSpec.vonmises(kappa=1.0), 0)
        with pytest.raises(ValueError):
            psi_hat(rng_sample(5), KernelSpec.vonmises(kappa=1.0), 3)
        with pytest.raises(ValueError):
            psi_hat(rng_sample(5), KernelSpec.vonmises(kappa=1.0), 2, method="magic")

    def test_result_type_carries_pilot(self):
        pilot = KernelSpec.wrapped_normal(0.5)
        out = psi_hat(rng_sample(7), pilot, 2)
        assert isinstance(out, FunctionalEstimate)
        assert out.pilot is pilot and out.s == 2


class TestIse:
    def test_matching_uniforms_give_zero(self):
        grid = default_grid(64)
        est = DensityGrid(grid, np.full(64, 1.0 / (2.0 * np.pi)))
        assert ise(est, lambda t: 1.0 / (2.0 * np.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_estimate_against_von_mises_truth(self):
        from scipy.special import i0

        grid = default_grid(64)
        est = DensityGrid(grid, np.full(64, 1.0 / (2.0 * np.pi)))
        truth = lambda t: np.exp(np.cos(t)) / (2.0 * np.pi * i0(1.0))
        # closed form R(f) - 1/(2 pi) at 25 digits
        assert ise(est, truth) == pytest.approx(0.06718613055525478, rel=1e-9)

    def test_exact_and_interpolated_paths_agree(self):
        s = rng_sample(25, seed=17)
        spec = KernelSpec.vonmises(kappa=2.0)
        exact_est = kde(s, spec)
        grid_only = DensityGrid(exact_est.thetas, exact_est.values)
        truth = lambda t: 1.0 / (2.0 * np.pi)
        a = ise(exact_est, truth)
        b = ise(grid_only, truth)
        assert b == pytest.approx(a, rel=1e-3)

    def test_rejects_derivative_grids(self):
        est = kde_deriv(rng_sample(6), KernelSpec.vonmises(kappa=1.0), 1)
        with pytest.raises(ValueError):
            ise(est, lambda t: 1.0 / (2.0 * np.pi))

    def test_nonnegative(self):
        s = rng_sample(10, seed=23)
        est = kde(s, KernelSpec.vonmises(kappa=1.5))
        truth = lambda t: np.exp(np.cos(t)) / (2.0 * np.pi * 1.2660658777520084)
        assert ise(est, truth) >= 0.0


# the uniform density, which every family reaches at nu = 0
UNIFORM = KernelSpec.from_nu(KernelFamily.VONMISES, 0.0)


def direct_trapezoid_ise(sample, kernel, truth, points):
    """Reference: the estimate summed directly at every grid point, then
    the periodic trapezoid rule."""
    grid = default_grid(points)
    if kernel.nu == 0.0:
        fhat = np.full(points, 1.0 / (2.0 * np.pi))
    else:
        fhat = kde_values(sample, kernel, grid)
    tv = np.asarray(truth(grid), dtype=float)
    return (2.0 * np.pi / points) * float(np.sum((fhat - tv) ** 2))


def vm2_truth(t):
    return np.exp(2.0 * np.cos(np.asarray(t) - 0.5)) / (2.0 * np.pi * 2.279585302336067)


class TestGridIse:
    @pytest.mark.parametrize(
        "kernel",
        [
            KernelSpec.vonmises(kappa=3.0),
            KernelSpec.vonmises(kappa=400.0),
            KernelSpec.wrapped_normal(0.8),
            KernelSpec.wrapped_cauchy(0.7),
            KernelSpec.cardioid(0.3),
            UNIFORM,
        ],
        ids=["vm3", "vm400", "wn", "wc", "cardioid", "uniform"],
    )
    @pytest.mark.parametrize("points", [2048, 501])
    def test_parseval_matches_direct_trapezoid(self, kernel, points):
        s = rng_sample(70, seed=5)
        fast = grid_ise(s, [kernel], vm2_truth, points)[0]
        assert fast == pytest.approx(direct_trapezoid_ise(s, kernel, vm2_truth, points), rel=1e-10)

    @pytest.mark.parametrize("family", [KernelFamily.VONMISES, KernelFamily.WRAPPEDNORMAL])
    def test_fold_reproduces_aliased_grid_sum(self, family):
        # J > points / 2: frequencies past the half spectrum alias on the grid
        s = rng_sample(40, seed=11)
        kernel = KernelSpec.from_nu(family, 0.9995)
        assert len(ise_weights([kernel])[0]) > 32
        fast = grid_ise(s, [kernel], vm2_truth, 64)[0]
        assert fast == pytest.approx(direct_trapezoid_ise(s, kernel, vm2_truth, 64), rel=1e-12)

    def test_rows_match_single_kernels(self):
        s = rng_sample(50, seed=2)
        kernels = [UNIFORM, KernelSpec.vonmises(kappa=1.0), KernelSpec.vonmises(kappa=60.0)]
        weights = ise_weights(kernels)
        assert weights.shape[0] == 3 and not weights[0].any()
        rows = grid_ise(s, kernels, vm2_truth, 2048, weights)
        for kernel, value in zip(kernels, rows):
            assert value == pytest.approx(grid_ise(s, [kernel], vm2_truth)[0], rel=1e-13)

    def test_uniform_against_uniform_is_exactly_zero(self):
        s = rng_sample(30, seed=4)
        flat = lambda t: np.full(np.shape(t), 1.0 / (2.0 * np.pi))
        assert grid_ise(s, [UNIFORM], flat)[0] == 0.0

    def test_wrapped_epanechnikov_sums_directly(self):
        s = rng_sample(30, seed=6)
        kernel = KernelSpec.wrapped_epanechnikov(lam=0.8)
        assert ise_weights([kernel, KernelSpec.from_nu(KernelFamily.WRAPPEDEPANECHNIKOV, 0.0)]) is None
        value = grid_ise(s, [kernel], vm2_truth)[0]
        assert value == direct_trapezoid_ise(s, kernel, vm2_truth, 2048)

    def test_wrapped_epanechnikov_rows_match_single_kernels(self):
        s = rng_sample(30, seed=6)
        kernels = [KernelSpec.wrapped_epanechnikov(lam=lam) for lam in (0.3, 0.8)]
        kernels.append(KernelSpec.from_nu(KernelFamily.WRAPPEDEPANECHNIKOV, 0.0))
        rows = grid_ise(s, kernels, vm2_truth)
        for kernel, value in zip(kernels, rows):
            assert value == pytest.approx(direct_trapezoid_ise(s, kernel, vm2_truth, 2048), rel=1e-13)

    @pytest.mark.parametrize("family", [KernelFamily.VONMISES, KernelFamily.WRAPPEDEPANECHNIKOV])
    def test_kde_rows_match_kde_values(self, family):
        s = rng_sample(40, seed=9)
        kernels = [KernelSpec.from_nu(family, nu) for nu in (0.0, 0.5, 0.9, 0.99)]
        points = np.linspace(-3.0, 3.0, 7)
        weights = ise_weights(kernels)
        assert (weights is None) == (family == KernelFamily.WRAPPEDEPANECHNIKOV)
        rows = _kde_rows(s, kernels, points, weights)
        assert rows.shape == (4, 7)
        assert np.all(rows[0] == 1.0 / (2.0 * np.pi))
        for kernel, row in zip(kernels[1:], rows[1:]):
            np.testing.assert_allclose(row, kde_values(s, kernel, points), rtol=1e-12)

    def test_scalar_truth_callable(self):
        s = rng_sample(30, seed=8)
        kernel = KernelSpec.vonmises(kappa=4.0)
        a = grid_ise(s, [kernel], vm2_truth)[0]
        b = grid_ise(s, [kernel], lambda t: float(vm2_truth(float(t))))[0]
        assert a == pytest.approx(b, rel=1e-14)

    def test_truth_errors_propagate(self):
        def broken(t):
            raise RuntimeError("density bug")

        with pytest.raises(RuntimeError):
            grid_ise(rng_sample(10), [UNIFORM], broken)


ZOO_MODELS = {m.name: m for m in builtin_models()}
FAMILY_KERNELS = {
    "vonmises": KernelSpec.vonmises(kappa=20.0),
    "wrappednormal": KernelSpec.wrapped_normal(0.9),
    "wrappedcauchy": KernelSpec.wrapped_cauchy(0.7),
    "cardioid": KernelSpec.cardioid(0.3),
    "wrappedepanechnikov": KernelSpec.wrapped_epanechnikov(lam=0.8),
    "uniform": UNIFORM,
}


def zoo_sample(name, n, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    return ZOO_MODELS[name].sampler(rng, n)


class TestKdeValuesShapes:
    """kde_values returns the points' shape, a float for a scalar point, and
    NaN at points that are not finite; the uniform density stays its
    constant everywhere."""

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("kernel", list(FAMILY_KERNELS.values()), ids=list(FAMILY_KERNELS))
    def test_scalar_nd_and_empty_points(self, kernel, r):
        s = rng_sample(40, seed=8)
        points = np.array([[-3.0, 0.2, 1.5], [np.nextafter(np.pi, 0.0), -np.pi, 7.0]])
        flat = kde_values(s, kernel, points.ravel(), r)
        grid = kde_values(s, kernel, points, r)
        assert grid.shape == (2, 3)
        np.testing.assert_array_equal(grid.ravel(), flat)
        value = kde_values(s, kernel, 0.2, r)
        assert type(value) is float
        assert value == flat[1]
        assert kde_values(s, kernel, np.float64(0.2), r) == value
        assert kde_values(s, kernel, np.empty(0), r).shape == (0,)
        assert kde_values(s, kernel, np.empty((0, 3)), r).shape == (0, 3)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("kernel", list(FAMILY_KERNELS.values()), ids=list(FAMILY_KERNELS))
    def test_points_that_are_not_finite(self, kernel, r):
        s = rng_sample(40, seed=8)
        points = np.array([0.2, np.nan, np.inf, -np.inf, -0.5])
        with np.errstate(invalid="ignore"):
            got = kde_values(s, kernel, points, r)
            ok = kde_values(s, kernel, points[[0, 4]], r)
        np.testing.assert_array_equal(got[[0, 4]], ok)
        if kernel.nu == 0.0:
            assert np.all(got == (1.0 / (2.0 * np.pi) if r == 0 else 0.0))
        else:
            assert np.all(np.isnan(got[1:4]))


def longdouble_series(moments, n, weights, r, points):
    """The differentiated cosine series at the points, from long-double
    moments (C, S) of orders 1 and up, phases summed in long double."""
    J = len(weights)
    j = np.arange(1, J + 1, dtype=np.longdouble)
    C, S = moments[0][:J], moments[1][:J]
    phase = np.multiply.outer(np.asarray(points, np.longdouble), j) + r * np.pi / np.longdouble(2)
    series = (np.cos(phase) * C + np.sin(phase) * S) @ np.asarray(weights, np.longdouble)
    return (series / (np.pi * n) + (1 / (2 * np.pi) if r == 0 else 0)).astype(float)


class TestSpectralSumBlocks:
    """_spectral_sum, a type-2 NUFFT, against its cosine series summed term
    by term, with series that end on either side of the edge of a grid size
    (J = N/4 - 1 and N/4 for N = 1024), well inside one (678, the LCV
    table's longest) and past the moments' first 1024 orders, and more
    angles than one block of points holds."""

    @pytest.mark.parametrize("J", [1, 63, 64, 65, 200, 255, 256, 678, 1025])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_the_literal_series(self, J, r):
        s = rng_sample(50, seed=J)
        rng = np.random.default_rng(r)
        weights = rng.standard_normal((3, J))
        thetas = rng.uniform(-np.pi, np.pi, 2000)
        j = np.arange(1, J + 1)
        C, S = s.trig_moments(J)
        phase = np.multiply.outer(thetas, j) + r * np.pi / 2
        series = (np.cos(phase) * C + np.sin(phase) * S) / (np.pi * s.n)
        expect = series @ weights.T + (1.0 / (2.0 * np.pi) if r == 0 else 0.0)
        tol = 1e-12 * np.abs(expect).max()
        np.testing.assert_allclose(_spectral_sum(s, weights, r, thetas), expect, rtol=0, atol=tol)
        np.testing.assert_allclose(_spectral_sum(s, weights[1], r, thetas), expect[:, 1], rtol=0, atol=tol)

    def test_grid_sizes_of_the_edge_orders(self):
        assert [_nufft_size(J) for J in (1, 255, 256, 678, 1025)] == [8, 1024, 2048, 4096, 8192]

    @pytest.mark.parametrize("kind", ["uniform", "cluster0", "cluster_pi"])
    @pytest.mark.parametrize("n", [1, 2, 50, 2000])
    def test_matches_long_double_series(self, kind, n):
        # von Mises series of 28 to 1257 orders, past the LCV table's 678,
        # at the seam, on nodes of every grid, at the sample and unwrapped:
        # within 1e-13 of the series' scale sum_j |w_j| / pi (K(0) - 1/(2 pi)
        # at r = 0), far below the 1e-12 K(0) floor of the LCV rescoring
        rng = np.random.default_rng(np.random.SeedSequence([n, len(kind)]))
        if kind == "uniform":
            s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, n))
        else:
            s = CircularSample.from_data(rng.vonmises(0.0 if kind == "cluster0" else np.pi, 1000.0, n))
        seam = [-np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0)]
        nodes = -np.pi + 2 * np.pi * np.arange(0, 4096, 97) / 4096
        points = np.concatenate([seam, nodes, s.angles[:20], rng.uniform(-20.0, 20.0, 10)])
        args = np.multiply.outer(np.arange(1, 1300, dtype=np.longdouble), s.angles.astype(np.longdouble))
        moments = np.cos(args).sum(axis=1), np.sin(args).sum(axis=1)
        for kappa in (10.0, 300.0, 3e4):
            for r in (0, 1, 2):
                weights = derivative_weights(KernelSpec.vonmises(kappa=kappa), r)
                ref = longdouble_series(moments, n, weights, r, points)
                got = _spectral_sum(s, weights, r, points)
                scale = np.abs(weights).sum() / np.pi
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)

    def test_values_do_not_depend_on_the_other_rows_or_points(self):
        # a row's grid depends on its own series length only, and the taps
        # of a point on nothing else: the LCV h* row scored alone equals
        # the same row in the table, bit for bit
        from circkde.selectors import _lcv_table

        weights = _lcv_table("vonmises", False)[2]
        s = rng_sample(3000, seed=4)
        points = np.random.default_rng(4).uniform(-4.0, 4.0, 5000)
        table = _spectral_sum(s, weights, 0, points)
        for g in (0, 10, 40, 62, 63):
            assert np.array_equal(_spectral_sum(s, weights[g], 0, points), table[:, g])
        assert np.array_equal(_spectral_sum(s, weights, 0, points[::7]), table[::7])


SPECTRAL_FAMILIES = st.one_of(
    st.floats(-2.0, 4.5).map(lambda e: KernelSpec.vonmises(kappa=10.0**e)),
    st.floats(0.01, 0.97).map(KernelSpec.wrapped_cauchy),
    st.floats(0.01, 0.49).map(KernelSpec.cardioid),
)


def truncated_tail(spec, J):
    """sum_{j > J} |w_j| of the kernel's untruncated density series."""
    if spec.family == KernelFamily.CARDIOID:
        return 0.0
    if spec.family == KernelFamily.WRAPPEDCAUCHY:
        return spec.nu ** (J + 1) / (1.0 - spec.nu)
    return float(np.sum(ive(np.arange(J + 1, J + 5000), spec.kappa)) / ive(0, spec.kappa))


class TestSpectralEqualsDirect:
    """The cosine series on the moments (the type-2 NUFFT) against the
    closed-form densities summed directly over the sorted view, for the
    families that have both."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        SPECTRAL_FAMILIES,
        st.integers(1, 2000),
        st.floats(-np.pi, np.pi),
        st.floats(0.0, 100.0),
        st.integers(0, 2**32 - 1),
    )
    def test_spectral_sums_equal_direct_sums(self, spec, n, mu, spread, seed):
        # within 1e-13 K(0) beyond what derivative_weights' tail rule drops
        # (up to 2e-12 K(0) at kappa near 6500, the same at the basis code
        # before the type 2)
        rng = np.random.default_rng(seed)
        s = CircularSample.from_data(rng.vonmises(mu, spread, n))
        weights = derivative_weights(spec, 0)
        N = _nufft_size(len(weights))
        seam = [-np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0), np.pi]
        nodes = -np.pi + 2 * np.pi * rng.integers(0, N, 16) / N
        points = np.concatenate([seam, nodes, s.angles[:8], [mu]])
        got = _spectral_sum(s, weights, 0, points)
        direct = _direct_sum(s, spec, 0, points)
        bound = 1e-13 * kernel_value(spec, 0.0) + truncated_tail(spec, len(weights)) / np.pi
        np.testing.assert_allclose(got, direct, rtol=0, atol=bound)


class TestClosedFormParsevalRows:
    """grid_ise's closed-form rows, used while no order aliases on the grid,
    against the trapezoid rule summed directly on the grid."""

    @pytest.mark.parametrize("kernel", list(FAMILY_KERNELS.values()), ids=list(FAMILY_KERNELS))
    @pytest.mark.parametrize("n", [2, 70, 10_000])
    def test_every_family_matches_direct_trapezoid(self, kernel, n):
        truth = ZOO_MODELS["VM-MIX3"].density
        s = zoo_sample("VM-MIX3", n, seed=3)
        weights = ise_weights([kernel])
        if weights is not None:
            # no order aliases on the 2048-point grid: the closed form applies
            assert weights.shape[1] <= 1023
        fast = grid_ise(s, [kernel], truth)[0]
        assert fast == pytest.approx(direct_trapezoid_ise(s, kernel, truth, 2048), rel=1e-10)

    def test_small_ise_at_the_dpi_pick(self):
        # n = 1e5: the ISE is orders of magnitude below the energies that
        # the closed form subtracts
        m = ZOO_MODELS["VM2"]
        s = zoo_sample("VM2", 100_000, seed=7)
        nu = select_dpi(s, SelectorConfig()).nu
        kernel = KernelSpec.vonmises(nu=nu)
        fast = grid_ise(s, [kernel], m.density)[0]
        direct = direct_trapezoid_ise(s, kernel, m.density, 2048)
        assert direct < 1e-4
        assert fast == pytest.approx(direct, rel=1e-10)

    def test_rows_of_one_table_match_direct_trapezoid(self):
        m = ZOO_MODELS["SKEW"]
        s = zoo_sample("SKEW", 200, seed=1)
        kernels = [UNIFORM] + [KernelSpec.vonmises(kappa=k) for k in (0.5, 4.0, 40.0, 900.0)]
        rows = grid_ise(s, kernels, m.density, weights=ise_weights(kernels))
        for kernel, value in zip(kernels, rows):
            assert value == pytest.approx(direct_trapezoid_ise(s, kernel, m.density, 2048), rel=1e-10)


class TestGridIseTruthValues:
    """The truth's values on the grid in place of the truth callable."""

    @pytest.mark.parametrize("family", ["vonmises", "wrappedepanechnikov"])
    @pytest.mark.parametrize("points", [2048, 501])
    def test_values_give_the_callables_bits(self, family, points):
        m = ZOO_MODELS["VM-MIX2"]
        s = zoo_sample("VM-MIX2", 60, seed=2)
        kernels = [KernelSpec.from_nu(family, nu) for nu in (0.0, 0.5, 0.9, 0.99)]
        values = m.density(default_grid(points))
        by_values = grid_ise(s, kernels, values, points)
        by_callable = grid_ise(s, kernels, m.density, points)
        assert np.array_equal(by_values, by_callable)

    def test_scalar_only_callable_and_values_agree(self):
        m = ZOO_MODELS["VM2"]
        s = zoo_sample("VM2", 40, seed=5)
        kernel = [KernelSpec.vonmises(kappa=6.0)]
        scalar = grid_ise(s, kernel, lambda t: float(m.density(np.array([float(t)]))[0]))
        values = grid_ise(s, kernel, np.array([m.density(np.array([t]))[0] for t in default_grid(2048)]))
        assert np.array_equal(scalar, values)

    def test_truth_on_ise_grid_fits_the_default_grid(self):
        m = ZOO_MODELS["VM-MIX3"]
        s = zoo_sample("VM-MIX3", 50, seed=4)
        kernels = [KernelSpec.vonmises(kappa=k) for k in (2.0, 30.0)]
        assert np.array_equal(grid_ise(s, kernels, truth_on_ise_grid(m.density)), grid_ise(s, kernels, m.density))

    def test_values_of_the_wrong_length_are_rejected(self):
        m = ZOO_MODELS["VM2"]
        s = CircularSample.from_data([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="shape"):
            grid_ise(s, [UNIFORM], m.density(default_grid(512)))


class TestSmoothnessIdentity:
    """int (f^(s))^2 = (-1)^s * int f^(2s) f for a smooth density."""

    @pytest.mark.parametrize("s_order", [1, 2])
    def test_wrapped_normal_truth(self, s_order):
        spec = KernelSpec.wrapped_normal(0.6)

        sq, err = quad(
            lambda t: kernel_value(spec, t, s_order) ** 2, -np.pi, np.pi, limit=300
        )
        cross, err2 = quad(
            lambda t: kernel_value(spec, t, 2 * s_order) * kernel_value(spec, t),
            -np.pi, np.pi, limit=300,
        )
        assert sq == pytest.approx((-1.0) ** s_order * cross, rel=1e-9)
