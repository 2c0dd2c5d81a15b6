"""Property tests of the block-rebased moment engine behind
CircularSample.trig_moments.

Oracles: the same sums over a long-double copy of the angles, and the
one-cos-and-sin-per-(i, j) loop, whose error against that reference sets
the allowed error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circkde.estimators import CircularSample


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


ANGLE_LISTS = st.lists(
    st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
)
# the block-rebased engine's order blocks are 64 wide
BLOCK_EDGE_ORDERS = st.sampled_from([1, 63, 64, 65, 129])


class TestMomentEngine:
    """Properties of the block-rebased moments against a long-double loop."""

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
        # J = 4200 needs 66 rebase starts of 64 orders, the last one partial
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
