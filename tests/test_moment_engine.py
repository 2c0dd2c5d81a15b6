"""Property tests of CircularSample.trig_moments, a type-1 NUFFT at
every sample size.

Oracles: the same sums over a long-double copy of the angles, and the
one-cos-and-sin-per-(i, j) loop, whose error against that reference sets
the allowed error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circkde import estimators
from circkde.estimators import CircularSample, _nufft_moments


def rng_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return CircularSample.from_data(rng.uniform(-np.pi, np.pi, n))


def loop_moments(angles, J):
    """The moment loop of earlier versions: one cos and sin per (i, j)."""
    args = angles[:, None] * np.arange(1, J + 1)[None, :]
    return np.cos(args).sum(axis=0), np.sin(args).sum(axis=0)


def longdouble_moments(angles, J):
    args = angles.astype(np.longdouble)[:, None] * np.arange(1, J + 1)[None, :]
    return np.cos(args).sum(axis=0), np.sin(args).sum(axis=0)


def assert_within_loop_bound(got, angles, J):
    """The moments' error against long-double sums is at most twice the
    loop's plus 1e-14 n."""
    C, S = got
    Cr, Sr = longdouble_moments(angles, J)
    Cl, Sl = loop_moments(angles, J)
    for g, loop, ref in ((C, Cl, Cr), (S, Sl, Sr)):
        err = float(np.max(np.abs(g - ref)))
        assert err <= 2.0 * float(np.max(np.abs(loop - ref))) + 1e-14 * len(angles)


def kind_angles(kind, n, seed):
    """n angles: uniform, or a von Mises(mu, 1000) cluster at 0 or at pi
    (which straddles the wrap at +-pi)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-np.pi, np.pi, n)
    return rng.vonmises(0.0 if kind == "cluster0" else np.pi, 1000.0, n)


KINDS = ("uniform", "cluster0", "cluster_pi")
# orders on both sides of _spectral_sum's 64-order blocks and of the NUFFT's
# smallest plan (1024 orders), and one that needs a plan of 8192
EDGE_ORDERS = (1, 63, 64, 65, 1024, 1025, 4200)

ANGLE_LISTS = st.lists(
    st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
)
# orders within the NUFFT's smallest plan
BLOCK_EDGE_ORDERS = st.sampled_from([1, 63, 64, 65, 129])


class TestMomentEngine:
    """Properties of the moments of small samples against a long-double
    loop."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ANGLE_LISTS, BLOCK_EDGE_ORDERS)
    def test_matches_long_double_loop(self, angles, J):
        s = CircularSample.from_data(angles)
        C, S = s.trig_moments(J)
        Cr, Sr = longdouble_moments(s.angles, J)
        Cl, Sl = loop_moments(s.angles, J)
        for got, loop, ref in ((C, Cl, Cr), (S, Sl, Sr)):
            err = float(np.max(np.abs(got - ref)))
            loop_err = float(np.max(np.abs(loop - ref)))
            assert err <= 2.0 * loop_err + 1e-14 * s.n

    def test_many_row_blocks(self):
        s = rng_sample(20000, seed=5)
        C, S = s.trig_moments(130)
        Cr, Sr = longdouble_moments(s.angles, 130)
        Cl, Sl = loop_moments(s.angles, 130)
        for got, loop, ref in ((C, Cl, Cr), (S, Sl, Sr)):
            err = float(np.max(np.abs(got - ref)))
            assert err <= 2.0 * float(np.max(np.abs(loop - ref))) + 1e-14 * s.n

    def test_more_than_64_rebases(self):
        # J = 4200 needs a plan of 8192 orders
        s = rng_sample(300, seed=8)
        C, S = s.trig_moments(4200)
        Cr, Sr = longdouble_moments(s.angles, 4200)
        Cl, Sl = loop_moments(s.angles, 4200)
        for got, loop, ref in ((C, Cl, Cr), (S, Sl, Sr)):
            err = float(np.max(np.abs(got - ref)))
            assert err <= 2.0 * float(np.max(np.abs(loop - ref))) + 1e-14 * s.n

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ANGLE_LISTS, st.lists(st.integers(1, 150), min_size=1, max_size=6))
    def test_extension_keeps_prefix_bit_identical(self, angles, steps):
        s = CircularSample.from_data(angles)
        seen = []
        for J in np.cumsum(steps):
            C, S = s.trig_moments(int(J))
            assert len(C) == J and len(S) == J
            for Cp, Sp in seen:
                np.testing.assert_array_equal(C[: len(Cp)], Cp)
                np.testing.assert_array_equal(S[: len(Sp)], Sp)
            seen.append((C.copy(), S.copy()))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ANGLE_LISTS, st.floats(-10.0, 10.0, allow_nan=False), BLOCK_EDGE_ORDERS)
    def test_resultant_lengths_invariant_under_rotation(self, angles, phi, J):
        s = CircularSample.from_data(angles)
        r = CircularSample.from_data(s.angles + phi)
        C, S = s.trig_moments(J)
        Cr, Sr = r.trig_moments(J)
        np.testing.assert_allclose(np.hypot(Cr, Sr), np.hypot(C, S), rtol=0, atol=1e-12 * s.n)


class TestNufftMoments:
    """The type-1 NUFFT behind trig_moments, held to twice the loop's error
    against long-double sums."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("J", EDGE_ORDERS)
    def test_fixed_cases_at_the_crossover(self, kind, J):
        s = CircularSample.from_data(kind_angles(kind, 500, seed=J))
        assert_within_loop_bound(s.trig_moments(J), s.angles, J)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [50, 100, 200, 1000])
    def test_below_the_crossover_too(self, kind, n):
        s = CircularSample.from_data(kind_angles(kind, n, seed=n))
        assert_within_loop_bound(s.trig_moments(1025), s.angles, 1025)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-np.pi, np.pi, allow_nan=False), max_size=40),
        st.sampled_from(KINDS),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from(EDGE_ORDERS[:-1]),
    )
    def test_matches_long_double_loop(self, extra, kind, n, seed, J):
        # drawn edge values (+-pi, 0, -0.0, subnormals) on top of a bulk
        angles = np.concatenate([extra, kind_angles(kind, max(0, n - len(extra)), seed)])
        s = CircularSample.from_data(angles)
        assert_within_loop_bound(s.trig_moments(J), s.angles, J)

    def test_many_spreading_blocks(self):
        s = rng_sample(20000, seed=5)
        assert_within_loop_bound(s.trig_moments(130), s.angles, 130)

    def test_equals_the_nufft_prefix(self):
        # at every n, trig_moments is one NUFFT of the smallest plan, bit
        # for bit
        for n in (1, 2, 499, 500):
            s = CircularSample.from_data(kind_angles("uniform", n, seed=1))
            C, S = s.trig_moments(30)
            Cn, Sn = _nufft_moments(s.angles, 1024)
            np.testing.assert_array_equal(C, Cn[:30])
            np.testing.assert_array_equal(S, Sn[:30])

    @pytest.mark.parametrize("J", [1, 16, 65, 1025, 4200])
    @pytest.mark.parametrize(
        "angles",
        [
            [-np.pi],
            [0.0],
            [3.14159],
            [np.pi - 1e-9, -np.pi + 1e-9],
            [0.7] * 10,
            [-np.pi] * 499,
        ],
        ids=[
            "one-at-minus-pi",
            "one-at-0",
            "one-below-pi",
            "two-across-the-seam",
            "ten-identical",
            "499-at-minus-pi",
        ],
    )
    def test_edge_samples(self, angles, J):
        s = CircularSample.from_data(angles)
        assert_within_loop_bound(s.trig_moments(J), s.angles, J)

    def test_one_pass_for_an_analysis(self, monkeypatch):
        # the 16, 30 and 960 orders of an analysis come from one NUFFT, at the
        # crash data's n = 85, mc-zoo's n = 100 and n = 500
        calls = []
        original = estimators._nufft_moments
        monkeypatch.setattr(
            estimators,
            "_nufft_moments",
            lambda angles, orders: calls.append(orders) or original(angles, orders),
        )
        for n in (85, 100, 500):
            s = rng_sample(n, seed=2)
            for J in (16, 30, 960, 1024):
                s.trig_moments(J)
        assert calls == [1024, 1024, 1024]

    @pytest.mark.parametrize("chain", [(16, 30, 960, 1024, 1025, 2049, 4200), (4200, 16, 5000)])
    def test_extension_across_plans_keeps_prefix_bit_identical(self, chain):
        s = CircularSample.from_data(kind_angles("cluster_pi", 500, seed=3))
        seen = []
        for J in chain:
            C, S = s.trig_moments(J)
            assert len(C) == J and len(S) == J
            for Cp, Sp in seen:
                np.testing.assert_array_equal(C[: len(Cp)], Cp[: len(C)])
                np.testing.assert_array_equal(S[: len(Sp)], Sp[: len(S)])
            seen.append((C.copy(), S.copy()))
        assert_within_loop_bound(seen[-1], s.angles, chain[-1])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1), st.lists(st.integers(1, 1500), min_size=1, max_size=5)
    )
    def test_random_extensions_keep_prefix_bit_identical(self, seed, steps):
        s = CircularSample.from_data(kind_angles("uniform", 500, seed))
        seen = []
        for J in np.cumsum(steps):
            C, S = s.trig_moments(int(J))
            for Cp, Sp in seen:
                np.testing.assert_array_equal(C[: len(Cp)], Cp)
                np.testing.assert_array_equal(S[: len(Sp)], Sp)
            seen.append((C.copy(), S.copy()))

