"""Tests for the smoothing selectors.

Closed-form constants were frozen from 40-digit mpmath evaluations of the
bandwidth formulas.  Monte-Carlo checks use fixed seeds and modest
replication; the heavier calibration runs live in the acceptance suite.
"""

import functools
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import i0e

from circkde.cli import AngleFormat, IngestSpec, read_angles
from circkde.errors import UnsupportedKernelError
from circkde.estimators import CircularSample, _kde_rows, ise, kde, kde_values, psi_hat
from circkde.kernels import (
    UNIFORM_BANDWIDTH,
    KernelFamily,
    KernelSpec,
    bandwidth,
    concentration_from_bandwidth,
    is_uniform_fallback,
    roughness,
)
from circkde import selectors
from circkde.mixture import select_aic, psi_from_model
from circkde.special import find_root
from circkde.selectors import (
    SelectorConfig,
    SelectorMethod,
    SmoothingSelection,
    TraceEntry,
    amise_value,
    default_gold_grid,
    optimal_h_amise,
    pilot_h_amse,
    select_dpi,
    select_gold,
    select_lcv,
    select_rt,
    select_ste,
)
from circkde.selectors import _first_root, _lcv_candidates, _lcv_objectives, _lcv_table
from circkde.simulate import builtin_models

VM = KernelFamily.VONMISES
WN = KernelFamily.WRAPPEDNORMAL


def vm_sample(seed, n=200, kappa=2.0, mu=0.0):
    rng = np.random.default_rng(seed)
    return CircularSample.from_data(rng.vonmises(mu, kappa, n))


def balanced_sample(n=100):
    # equally spaced angles: the resultant vanishes, so a one-component
    # fit is exactly uniform
    return CircularSample.from_data(np.linspace(-np.pi, np.pi, n, endpoint=False))


def vm_truth(mu, kappa):
    from scipy.special import i0

    return lambda t: np.exp(kappa * np.cos(np.asarray(t) - mu)) / (2 * np.pi * i0(kappa))


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig()
        assert cfg.kernel_family == VM
        assert cfg.pilot_family == VM
        assert cfg.r == 0
        assert cfg.nstage == 2
        assert cfg.M_max == 1
        assert cfg.exact_inversion is False
        assert selectors._STE_TOL == 1e-8
        lo, hi = selectors._STE_BRACKET
        assert lo == pytest.approx(1e-6)
        assert hi == pytest.approx(UNIFORM_BANDWIDTH - 1e-6)

    def test_accepts_family_strings(self):
        cfg = SelectorConfig(kernel_family="wrappednormal", pilot_family="wrappednormal")
        assert cfg.kernel_family == WN
        assert cfg.pilot_family == WN

    def test_rejects_kernels_without_variance_constants(self):
        with pytest.raises(UnsupportedKernelError):
            SelectorConfig(kernel_family=KernelFamily.WRAPPEDCAUCHY)
        with pytest.raises(UnsupportedKernelError):
            SelectorConfig(kernel_family=KernelFamily.CARDIOID)

    def test_epanechnikov_kernel_density_only(self):
        cfg = SelectorConfig(kernel_family=KernelFamily.WRAPPEDEPANECHNIKOV, r=0)
        assert cfg.r == 0
        with pytest.raises(UnsupportedKernelError):
            SelectorConfig(kernel_family=KernelFamily.WRAPPEDEPANECHNIKOV, r=1)

    def test_rejects_pilot_without_peak_constants(self):
        for fam in (
            KernelFamily.WRAPPEDCAUCHY,
            KernelFamily.CARDIOID,
            KernelFamily.WRAPPEDEPANECHNIKOV,
        ):
            with pytest.raises(ValueError):
                SelectorConfig(pilot_family=fam)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            SelectorConfig(r=-1)
        with pytest.raises(ValueError, match="float range"):
            SelectorConfig(r=86)  # (2r)! of the kernel's constant overflows
        with pytest.raises(ValueError):
            SelectorConfig(nstage=0)
        with pytest.raises(ValueError):
            SelectorConfig(M_max=0)
        with pytest.raises(ValueError, match="seed"):
            SelectorConfig(seed=-1)


class TestBandwidthFormulas:
    def test_optimal_h_frozen_density_case(self):
        # ((1/(2 sqrt(pi))) / 100) ** (2/5), mpmath 40 digits
        h = optimal_h_amise(1.0, 100, VM, 0)
        assert h == pytest.approx(0.09553401434198237, rel=1e-12)

    def test_optimal_h_frozen_first_derivative_case(self):
        # (3 * (1/(4 sqrt(pi))) / 100) ** (2/7) with psi6 = -2, n = 50
        h = optimal_h_amise(-2.0, 50, WN, 1)
        assert h == pytest.approx(0.20982306962977785, rel=1e-12)

    def test_optimal_h_scaling_in_psi_and_n(self):
        h1 = optimal_h_amise(1.0, 100, VM, 0)
        assert optimal_h_amise(2.0, 100, VM, 0) == pytest.approx(
            h1 * 2.0 ** (-0.4), rel=1e-13
        )
        assert optimal_h_amise(1.0, 3200, VM, 0) == pytest.approx(h1 / 4.0, rel=1e-13)

    def test_optimal_h_wrong_sign_gives_fallback(self):
        assert is_uniform_fallback(optimal_h_amise(-1.0, 100, VM, 0))
        assert is_uniform_fallback(optimal_h_amise(1.0, 100, VM, 1))
        assert is_uniform_fallback(optimal_h_amise(0.0, 100, VM, 0))

    def test_no_finite_optimum_is_infinite(self):
        for psi in (-1.0, 0.0):
            assert optimal_h_amise(psi, 100, VM, 0) == math.inf
            assert pilot_h_amse(psi, 100, VM, 2) == math.inf
        assert optimal_h_amise(1.0, 100, VM, 1) == math.inf
        assert pilot_h_amse(1.0, 100, VM, 0) == math.inf

    def test_optimal_h_rejects_bad_n(self):
        with pytest.raises(ValueError):
            optimal_h_amise(1.0, 0, VM, 0)

    def test_pilot_h_frozen_case(self):
        # (2/(100 sqrt(2 pi))) ** (2/5) with psi4 = 1, s = 2
        g = pilot_h_amse(1.0, 100, VM, 2)
        assert g == pytest.approx(0.14480248820338464, rel=1e-12)

    def test_pilot_h_frozen_zeroth_order_case(self):
        # (2/(100 sqrt(2 pi))) ** (2/3) with psi2 = -1, s = 0
        g = pilot_h_amse(-1.0, 100, VM, 0)
        assert g == pytest.approx(0.039929454246550803, rel=1e-12)

    def test_pilot_h_scaling_in_n(self):
        g1 = pilot_h_amse(1.0, 100, VM, 2)
        assert pilot_h_amse(1.0, 3200, VM, 2) == pytest.approx(g1 / 4.0, rel=1e-13)

    def test_pilot_h_wrong_sign_gives_fallback(self):
        assert is_uniform_fallback(pilot_h_amse(-1.0, 100, VM, 2))
        assert is_uniform_fallback(pilot_h_amse(1.0, 100, VM, 0))
        assert is_uniform_fallback(pilot_h_amse(0.0, 100, VM, 2))

    def test_pilot_h_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pilot_h_amse(1.0, 0, VM, 2)
        with pytest.raises(ValueError):
            pilot_h_amse(1.0, 100, VM, 3)
        with pytest.raises(ValueError):
            pilot_h_amse(1.0, 100, VM, -2)

    def test_amise_value_frozen(self):
        h = optimal_h_amise(1.0, 100, VM, 0)
        assert amise_value(h, 1.0, 100, VM, 0) == pytest.approx(
            0.011408434870367616, rel=1e-12
        )

    @pytest.mark.parametrize(
        "psi,n,r",
        [(1.0, 100, 0), (0.648, 200, 0), (-3.0, 150, 1), (25.0, 400, 2)],
    )
    def test_optimal_h_minimizes_amise_on_log_grid(self, psi, n, r):
        h_star = optimal_h_amise(psi, n, VM, r)
        assert not is_uniform_fallback(h_star)
        grid = np.geomspace(h_star / 10, h_star * 10, 100)
        vals = [amise_value(h, psi, n, VM, r) for h in grid]
        assert amise_value(h_star, psi, n, VM, r) <= min(vals) + 1e-10

    def test_optimal_h_matches_numeric_minimizer(self):
        psi, n, r = 0.648, 200, 0
        h_star = optimal_h_amise(psi, n, VM, r)
        res = minimize_scalar(
            lambda u: amise_value(math.exp(u), psi, n, VM, r),
            bounds=(math.log(1e-4), math.log(3.0)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert math.exp(res.x) == pytest.approx(h_star, rel=1e-6)


def check_selection(sel, method):
    assert isinstance(sel, SmoothingSelection)
    assert sel.method == method
    assert 0.0 <= sel.nu < 1.0
    assert 0.0 < sel.h <= UNIFORM_BANDWIDTH + 1e-12
    assert isinstance(sel.fallback_uniform, bool)
    json.loads(sel.to_json())


class TestRuleOfThumb:
    def test_matches_manual_chain(self):
        s = vm_sample(3, n=300)
        cfg = SelectorConfig(seed=0)
        sel = select_rt(s, cfg)

        report = select_aic(s, 1, seed=0)
        psi4 = psi_from_model(report.model, 4)
        h = optimal_h_amise(psi4, s.n, VM, 0)
        spec = concentration_from_bandwidth(VM, h)
        assert sel.nu == pytest.approx(spec.nu, rel=1e-12)
        assert sel.h == pytest.approx(bandwidth(spec), rel=1e-12)
        assert sel.kappa_or_lambda == pytest.approx(spec.kappa, rel=1e-12)
        assert not sel.fallback_uniform

    def test_trace_labels(self):
        sel = select_rt(vm_sample(1), SelectorConfig())
        assert [t.label for t in sel.trace] == ["psi4:reference", "final"]

    @staticmethod
    def _count_aic(monkeypatch):
        calls = []

        def counted(sample, M_max, seed=0):
            calls.append(M_max)
            return select_aic(sample, M_max, seed=seed)

        monkeypatch.setattr(selectors, "select_aic", counted)
        return calls

    def test_reference_is_the_one_component_aic_fit(self, monkeypatch):
        calls = self._count_aic(monkeypatch)
        sel = select_rt(vm_sample(1), SelectorConfig(M_max=3))
        assert calls == [1]
        assert not sel.fallback_uniform

    def test_identical_angles_keep_reference_fit(self, monkeypatch):
        calls = self._count_aic(monkeypatch)
        sel = select_rt(CircularSample.from_data([0.3] * 10), SelectorConfig())
        assert calls == [1]
        assert sel.fallback_uniform
        assert [t.label for t in sel.trace] == ["fallback:reference-fit"]

    def test_stored_h_is_bandwidth_of_stored_nu(self):
        sel = select_rt(vm_sample(2), SelectorConfig())
        spec = KernelSpec.from_nu(VM, sel.nu)
        assert sel.h == pytest.approx(bandwidth(spec), rel=1e-12)

    def test_exact_inversion_round_trip(self):
        s = vm_sample(5, n=400, kappa=4.0)
        sel = select_rt(s, SelectorConfig(exact_inversion=True))
        target = sel.trace[-1].pilot_h
        assert sel.h == pytest.approx(target, abs=1e-8)

    def test_balanced_sample_falls_back(self):
        sel = select_rt(balanced_sample(), SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0
        assert sel.h == UNIFORM_BANDWIDTH
        assert sel.kappa_or_lambda is None
        assert any(t.label.startswith("fallback:") for t in sel.trace)

    def test_near_uniform_is_fallback_or_weak(self):
        rng = np.random.default_rng(11)
        s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 100))
        sel = select_rt(s, SelectorConfig())
        assert sel.fallback_uniform or sel.nu < 0.6

    def test_concentration_grows_with_n(self):
        medians = []
        for n in (100, 1000, 10000):
            nus = [select_rt(vm_sample(seed, n=n), SelectorConfig()).nu for seed in range(9)]
            medians.append(np.median(nus))
        assert 0.0 < medians[0] < medians[1] < medians[2] < 1.0

    def test_rotation_invariance(self):
        s = vm_sample(7)
        rot = CircularSample.from_data(s.angles + 1.2345)
        a = select_rt(s, SelectorConfig())
        b = select_rt(rot, SelectorConfig())
        assert a.nu == pytest.approx(b.nu, abs=1e-9)


class TestDirectPlugIn:
    def test_trace_labels_two_stage(self):
        sel = select_dpi(vm_sample(0), SelectorConfig())
        assert [t.label for t in sel.trace] == [
            "psi8:reference",
            "psi6:pilot",
            "psi4:pilot",
            "final",
        ]

    def test_trace_labels_derivative_two_stage(self):
        sel = select_dpi(vm_sample(0, n=400, kappa=4.0), SelectorConfig(r=1))
        assert [t.label for t in sel.trace] == [
            "psi10:reference",
            "psi8:pilot",
            "psi6:pilot",
            "final",
        ]
        assert not sel.fallback_uniform

    @pytest.mark.parametrize(
        "selector, reason", [(select_dpi, "cascade-error"), (select_ste, "numeric-error")]
    )
    def test_orders_past_the_float_range_fall_back(self, selector, reason):
        # at r = 48 the pilot constant of order s = 102 needs (2s)!, past the
        # float range; r = 35 still selects
        s = CircularSample.from_data(np.random.default_rng(0).vonmises(0.0, 50.0, 500))
        assert not selector(s, SelectorConfig(r=35)).fallback_uniform
        sel = selector(s, SelectorConfig(r=48))
        assert sel.fallback_uniform
        assert sel.trace[-1].label == f"fallback:{reason}"

    def test_matches_manual_cascade(self):
        s = vm_sample(3, n=300)
        cfg = SelectorConfig(seed=0)
        sel = select_dpi(s, cfg)

        report = select_aic(s, 1, seed=0)
        psi = psi_from_model(report.model, 8)
        for stage in (6, 4):
            g = pilot_h_amse(psi, s.n, VM, stage)
            pilot = concentration_from_bandwidth(VM, g)
            psi = psi_hat(s, pilot, stage).value
        h = optimal_h_amise(psi, s.n, VM, 0)
        spec = concentration_from_bandwidth(VM, h)

        assert sel.trace[2].psi == pytest.approx(psi, rel=1e-12)
        assert sel.nu == pytest.approx(spec.nu, rel=1e-12)
        assert sel.h == pytest.approx(bandwidth(spec), rel=1e-12)

    def test_single_stage_cascade(self):
        sel = select_dpi(vm_sample(4), SelectorConfig(nstage=1))
        assert [t.label for t in sel.trace] == [
            "psi6:reference",
            "psi4:pilot",
            "final",
        ]

    def test_stage_counts_agree_within_twenty_percent(self):
        hs2, hs3 = [], []
        for seed in range(9):
            s = vm_sample(seed, n=500)
            hs2.append(select_dpi(s, SelectorConfig(nstage=2)).h)
            hs3.append(select_dpi(s, SelectorConfig(nstage=3)).h)
        m2, m3 = np.median(hs2), np.median(hs3)
        assert abs(m2 - m3) / m2 < 0.2

    def test_balanced_sample_short_circuits_to_uniform(self):
        sel = select_dpi(balanced_sample(), SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0
        assert sel.h == UNIFORM_BANDWIDTH
        assert any(t.label.startswith("fallback:") for t in sel.trace)

    def test_uniform_draws_can_fall_back(self):
        rng = np.random.default_rng(2)
        s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 100))
        sel = select_dpi(s, SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0

    def test_larger_reference_mixture_allowed(self):
        rng = np.random.default_rng(9)
        comp = rng.random(150) < 0.5
        x = np.where(comp, rng.vonmises(0.0, 8.0, 150), rng.vonmises(np.pi, 8.0, 150))
        sel = select_dpi(CircularSample.from_data(x), SelectorConfig(M_max=5))
        assert not sel.fallback_uniform
        assert 0.0 < sel.nu < 1.0

    def test_deterministic(self):
        s = vm_sample(6)
        cfg = SelectorConfig(M_max=3, seed=42)
        assert select_dpi(s, cfg) == select_dpi(s, cfg)

    def test_rotation_invariance(self):
        s = vm_sample(8)
        rot = CircularSample.from_data(s.angles - 2.5)
        a = select_dpi(s, SelectorConfig())
        b = select_dpi(rot, SelectorConfig())
        assert a.nu == pytest.approx(b.nu, abs=1e-9)

    def test_median_h_decreases_with_n(self):
        med = []
        for n in (100, 1600):
            hs = [select_dpi(vm_sample(seed, n=n), SelectorConfig()).h for seed in range(10)]
            med.append(np.median(hs))
        assert med[1] < med[0]


class TestSolveTheEquation:
    def test_residual_below_tolerance(self):
        cfg = SelectorConfig()
        for seed in range(5):
            sel = select_ste(vm_sample(seed), cfg)
            assert not sel.fallback_uniform
            residuals = [t.psi for t in sel.trace if t.label == "ste-residual"]
            assert len(residuals) == 1
            assert residuals[0] < selectors._STE_TOL

    def test_root_satisfies_public_fixed_point(self):
        """The traced root reproduces the plug-in bandwidth computed from
        its own implied pilot, using only public pieces."""
        s = vm_sample(1)
        cfg = SelectorConfig()
        sel = select_ste(s, cfg)
        root = next(t.pilot_h for t in sel.trace if t.label == "ste-residual")

        report = select_aic(s, 1, seed=0)
        psi6_ref = psi_from_model(report.model, 6)
        psi8_ref = psi_from_model(report.model, 8)
        rho1 = concentration_from_bandwidth(VM, pilot_h_amse(psi6_ref, s.n, VM, 4))
        rho2 = concentration_from_bandwidth(VM, pilot_h_amse(psi8_ref, s.n, VM, 6))
        psi4 = psi_hat(s, rho1, 4).value
        psi6 = psi_hat(s, rho2, 6).value
        from circkde.kernels import kernel_constants

        q1 = kernel_constants(VM, 4).q1
        q2 = kernel_constants(VM, 0).q2
        scale = (-2.0 * q1 / q2 * (psi4 / psi6)) ** (2.0 / 7.0)
        pilot_h = scale * root ** (5.0 / 7.0)
        pilot = concentration_from_bandwidth(VM, pilot_h)
        h_implied = optimal_h_amise(psi_hat(s, pilot, 4).value, s.n, VM, 0)
        assert root == pytest.approx(h_implied, abs=10 * selectors._STE_TOL)

    def test_trace_labels(self):
        sel = select_ste(vm_sample(0), SelectorConfig())
        labels = [t.label for t in sel.trace]
        assert labels == [
            "psi6:reference",
            "psi8:reference",
            "psi4:pilot",
            "psi6:pilot",
            "ste-residual",
            "final",
        ]

    def test_balanced_sample_falls_back(self):
        sel = select_ste(balanced_sample(), SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0

    def test_uniform_draws_can_fall_back(self):
        rng = np.random.default_rng(2)
        s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 100))
        sel = select_ste(s, SelectorConfig())
        assert sel.fallback_uniform

    def test_rotation_invariance(self):
        s = vm_sample(9)
        rot = CircularSample.from_data(s.angles + 0.777)
        a = select_ste(s, SelectorConfig())
        b = select_ste(rot, SelectorConfig())
        assert a.nu == pytest.approx(b.nu, abs=1e-9)

    def test_close_to_dpi_on_smooth_data(self):
        # both target the same plug-in bandwidth, so they should land in
        # the same neighborhood on well-behaved samples
        s = vm_sample(12, n=400)
        h_dpi = select_dpi(s, SelectorConfig()).h
        h_ste = select_ste(s, SelectorConfig()).h
        assert abs(h_ste - h_dpi) / h_dpi < 0.5

    def test_median_ise_within_twice_gold(self):
        cfg = SelectorConfig()
        truth = vm_truth(0.0, 2.0)
        ise_ste, ise_gs = [], []
        for seed in range(60):
            s = vm_sample(seed, n=250)
            ise_ste.append(_fast_ise(s, select_ste(s, cfg).nu, truth))
            ise_gs.append(_fast_ise(s, select_gold(s, truth, cfg).nu, truth))
        assert np.median(ise_ste) <= 2.0 * np.median(ise_gs)


class TestFirstRoot:
    """The STE root search: a 32-point log prescan, then Brent on the first
    bracket in scan order."""

    LO, HI = 1e-3, 1.0
    HS = np.geomspace(LO, HI, 32)

    def test_sign_change_before_exact_zero_wins(self):
        # prescan signs [-, +, 0, +, ...]: the root inside [hs[0], hs[1]]
        # comes first in scan order, not the exact zero at hs[2]
        hs = self.HS
        r = math.sqrt(hs[0] * hs[1])

        def g(h):
            if h == hs[2]:
                return 0.0
            return h - r if h < hs[2] else 1.0

        trace = []
        root = _first_root(g, self.LO, self.HI, 1e-12, trace)
        assert root == brentq(g, hs[0], hs[1], xtol=1e-12, maxiter=200)
        assert root == pytest.approx(r, abs=1e-12)
        assert trace == []

    def test_exact_zero_before_sign_change_wins(self):
        hs = self.HS

        def g(h):
            if h == hs[5]:
                return 0.0
            return 1.0 if h < hs[9] else -1.0

        assert _first_root(g, self.LO, self.HI, 1e-12, []) == hs[5]

    def test_zero_between_opposite_signs_is_the_root(self):
        # signs [-, 0, +, ...]: the zero is the root, the two ends beside
        # it do not count as a sign change
        hs = self.HS
        g = lambda h: 0.0 if h == hs[1] else (-1.0 if h < hs[1] else 1.0)
        assert _first_root(g, self.LO, self.HI, 1e-12, []) == hs[1]

    def test_no_root_returns_none(self):
        assert _first_root(lambda h: h + 1.0, self.LO, self.HI, 1e-12, []) is None

    def test_multiple_sign_changes_are_traced(self):
        g = lambda h: math.cos(20.0 * h)
        trace = []
        root = _first_root(g, self.LO, self.HI, 1e-12, trace)
        assert root == pytest.approx(math.pi / 40.0, abs=1e-12)
        assert [t.label for t in trace] == ["ste-multiple-roots:6"]

    def test_bracket_ends_are_evaluated_once(self, monkeypatch):
        hs = self.HS
        target = 0.0537
        g = lambda h: float(h) ** 3 - target**3
        calls, refined = [], []

        def counted(h):
            calls.append(h)
            return g(h)

        def spy(*args, **kwargs):
            refined.append(kwargs)
            return find_root(*args, **kwargs)

        # _first_root reaches find_root through the module global
        monkeypatch.setattr(selectors, "find_root", spy)
        root = _first_root(counted, self.LO, self.HI, 1e-8, [])
        k = int(np.searchsorted(hs, target)) - 1
        ref_calls = []
        expected = brentq(lambda h: ref_calls.append(h) or g(h), hs[k], hs[k + 1], xtol=1e-8, maxiter=200)
        assert root == expected
        assert len(refined) == 1 and refined[0]["g_lo"] == g(hs[k]) and refined[0]["g_hi"] == g(hs[k + 1])
        # 32 prescan values, then only Brent's own iterates
        assert list(calls[:32]) == list(hs)
        assert calls[32:] == ref_calls[2:]
        assert hs[k] not in calls[32:] and hs[k + 1] not in calls[32:]

    def test_exhausted_brent_falls_back_as_numeric_error(self, monkeypatch):
        monkeypatch.setattr(selectors, "find_root", functools.partial(find_root, max_iter=2))
        sel = select_ste(vm_sample(0), SelectorConfig())
        assert sel.fallback_uniform
        assert sel.trace[-1].label == "fallback:numeric-error"


class TestSteGapValuesComputedOnce:
    """Each value of the STE gap g costs a psi_hat with a fresh pilot
    kernel; select_ste evaluates g at no bandwidth twice."""

    @staticmethod
    def _spy(monkeypatch):
        pilots, brent_calls, prescan = [], [], set()

        def counted_psi_hat(sample, spec, order):
            pilots.append((spec, order))
            return psi_hat(sample, spec, order)

        def counted_find_root(g, *args, **kwargs):
            def counted(h):
                brent_calls.append(h)
                return g(h)

            return find_root(counted, *args, **kwargs)

        first_root = selectors._first_root

        def counted_first_root(g, lo, hi, tol, trace, plugin=None):
            # the prescan points at which g is evaluated, by the prescan
            # itself or at the ends of the bracket it hands to Brent
            grid = set(np.geomspace(lo, hi, 32))

            def counted(h):
                if h in grid:
                    prescan.add(h)
                return g(h)

            return first_root(counted, lo, hi, tol, trace, plugin)

        monkeypatch.setattr(selectors, "psi_hat", counted_psi_hat)
        monkeypatch.setattr(selectors, "find_root", counted_find_root)
        monkeypatch.setattr(selectors, "_first_root", counted_first_root)
        return pilots, brent_calls, prescan

    def test_root_residual_reuses_brents_value(self, monkeypatch):
        pilots, brent_calls, prescan = self._spy(monkeypatch)
        sel = select_ste(vm_sample(0), SelectorConfig())
        assert [t.label for t in sel.trace][-2:] == ["ste-residual", "final"]
        assert len(set(pilots)) == len(pilots)
        # two pilot functionals, the prescan points that no certificate
        # covers, then Brent's own iterates; the residual at the root adds
        # no call
        assert len(brent_calls) > 0
        assert len(pilots) == 2 + len(prescan) + len(brent_calls)
        assert 2 <= len(prescan) <= 10

    def test_no_sign_change_reuses_prescan_values(self, monkeypatch):
        pilots, brent_calls, prescan = self._spy(monkeypatch)
        seen_before_dpi = []
        dpi_h = selectors._dpi_h

        def counted_dpi_h(*args):
            seen_before_dpi.append(len(pilots))
            return dpi_h(*args)

        monkeypatch.setattr(selectors, "_dpi_h", counted_dpi_h)
        monkeypatch.setattr(selectors, "_STE_BRACKET", (1e-3, 2e-3))
        sel = select_ste(vm_sample(0), SelectorConfig())
        assert any(t.label.startswith("fallback:no-sign-change:") for t in sel.trace)
        assert brent_calls == []
        ste_pilots = pilots[: seen_before_dpi[0]]
        assert len(set(ste_pilots)) == len(ste_pilots)
        # two prescans that share their upper end; the ends in the trace
        # label come from the first
        assert len(ste_pilots) == 2 + len(prescan)
        assert {1e-3, 2e-3} <= prescan


def crash_angles():
    csv = str(resources.files("circkde") / "data" / "crash_times.csv")
    return read_angles(IngestSpec(csv, AngleFormat.HHMM, column="time"))


def _ste_cases():
    cases = []
    for model in builtin_models():
        for n in (2, 30, 100, 1000):
            for seed in range(4):
                cases.append(pytest.param(model.name, n, seed, id=f"{model.name}-{n}-{seed}"))
    return cases


class TestCertifiedPrescan:
    """The STE prescan reads signs off the monotone plug-in bandwidth X
    instead of evaluating every point; the selection is that of the full
    32-point scan, bit for bit."""

    @staticmethod
    def _both(sample, cfg, monkeypatch):
        certified = select_ste(sample, cfg)
        first_root = selectors._first_root
        with monkeypatch.context() as m:
            m.setattr(
                selectors,
                "_first_root",
                lambda g, lo, hi, tol, trace, plugin=None: first_root(g, lo, hi, tol, trace),
            )
            plain = select_ste(sample, cfg)
        return certified, plain

    @staticmethod
    def _assert_same(certified, plain):
        # nu, h, fallback_uniform and every trace field, exactly
        assert certified.to_json() == plain.to_json()

    @pytest.mark.parametrize("name, n, seed", _ste_cases())
    def test_zoo_matches_full_scan(self, name, n, seed, monkeypatch):
        model = {m.name: m for m in builtin_models()}[name]
        sample = model.sampler(np.random.default_rng(np.random.SeedSequence([seed, 0])), n)
        self._assert_same(*self._both(sample, SelectorConfig(), monkeypatch))

    @pytest.mark.parametrize(
        "cfg",
        [
            SelectorConfig(),
            SelectorConfig(M_max=3),
            SelectorConfig(r=1),
            SelectorConfig(pilot_family=WN),
            SelectorConfig(exact_inversion=True),
        ],
        ids=["default", "mmax3", "r1", "wn-pilot", "exact"],
    )
    @pytest.mark.parametrize("data", ["crash", "ten-identical", "kappa-3e5", "vm"])
    def test_special_samples_match_full_scan(self, data, cfg, monkeypatch):
        angles = {
            "crash": crash_angles,
            "ten-identical": lambda: np.full(10, 0.3),
            "kappa-3e5": lambda: np.random.default_rng(1).vonmises(0.5, 3e5, 100),
            "vm": lambda: vm_sample(0).angles,
        }[data]()
        self._assert_same(*self._both(CircularSample.from_data(angles), cfg, monkeypatch))

    @pytest.mark.parametrize("n, seed", [(300, 20), (1000, 64)])
    def test_uniform_draws_without_sign_change_match_full_scan(self, n, seed, monkeypatch):
        # uniform draws without a root in the bracket, whose prescan runs
        # to its end before the plug-in cascade takes over
        model = {m.name: m for m in builtin_models()}["U"]
        sample = model.sampler(np.random.default_rng(np.random.SeedSequence([seed, 0])), n)
        certified, plain = self._both(sample, SelectorConfig(), monkeypatch)
        assert any(t.label.startswith("fallback:no-sign-change:") for t in plain.trace)
        self._assert_same(certified, plain)

    def test_narrowed_bracket_without_sign_change_matches_full_scan(self, monkeypatch):
        monkeypatch.setattr(selectors, "_STE_BRACKET", (1e-3, 2e-3))
        certified, plain = self._both(vm_sample(0), SelectorConfig(), monkeypatch)
        assert any(t.label.startswith("fallback:no-sign-change:") for t in plain.trace)
        self._assert_same(certified, plain)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(2, 400),
        st.floats(0.0, 50.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["default", "r1", "wn-pilot", "exact"]),
    )
    def test_plugin_bandwidth_nondecreasing_on_prescan_grid(self, n, spread, seed, variant):
        cfg = {
            "default": SelectorConfig(),
            "r1": SelectorConfig(r=1),
            "wn-pilot": SelectorConfig(pilot_family=WN),
            "exact": SelectorConfig(exact_inversion=True),
        }[variant]
        sample = CircularSample.from_data(np.random.default_rng(seed).vonmises(0.0, spread, n))
        gap = selectors._ste_gap(sample, cfg, [])
        if gap is None:
            return
        _, plugin = gap
        xs = []
        for h in np.geomspace(*selectors._STE_BRACKET, 32):
            x = plugin(h)
            xs.append(math.inf if x is None else x)
        # no finite plug-in bandwidth (a uniform pilot) stands for +inf
        assert all(b >= a for a, b in zip(xs, xs[1:]))

    HS = np.geomspace(1e-3, 1.0, 32)

    @staticmethod
    def _gap(xs, hs):
        plugin = dict(zip(hs, xs)).get

        def g(h):
            x = plugin(h)
            return -1e9 * (1.0 + h) if x is None else h - x

        return g, plugin

    def _assert_certified_equals_full(self, xs):
        hs = self.HS
        g, plugin = self._gap(xs, hs)
        vals, signs = selectors._certified_prescan(g, plugin, hs)
        full = [g(h) for h in hs]
        np.testing.assert_array_equal(signs, np.sign(full))
        assert all(v is None or v == f for v, f in zip(vals, full))
        assert vals[0] is not None and vals[-1] is not None
        traces = [], []
        roots = [
            _first_root(g, hs[0], hs[-1], 1e-12, traces[0], plugin),
            _first_root(g, hs[0], hs[-1], 1e-12, traces[1]),
        ]
        assert roots[0] == roots[1]
        assert traces[0] == traces[1]
        return vals, roots[0], traces[0]

    def test_steps_with_several_roots_and_an_exact_zero(self):
        hs = self.HS
        # X steps up three times; g = h - X is zero at hs[3], changes sign
        # inside [hs[10], hs[11]] and [hs[20], hs[21]], jumps down at each
        # step and is the sentinel from hs[29] on
        xs = (
            [hs[3]] * 6
            + [math.sqrt(hs[10] * hs[11])] * 9
            + [math.sqrt(hs[20] * hs[21])] * 14
            + [None] * 3
        )
        vals, root, trace = self._assert_certified_equals_full(xs)
        assert root == hs[3]
        assert [t.label for t in trace] == ["ste-multiple-roots:5"]
        assert sum(v is not None for v in vals) < 32

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(st.integers(0, 31), st.floats(1e-4, 2.0)),
            min_size=32,
            max_size=32,
        ),
        st.integers(0, 32),
    )
    def test_any_nondecreasing_plugin(self, draws, sentinel_from):
        # grid points drawn as integers give exact zeros of g
        values = sorted(float(self.HS[d]) if isinstance(d, int) else d for d in draws)
        xs = [x if k < sentinel_from else None for k, x in enumerate(values)]
        self._assert_certified_equals_full(xs)


def _fast_ise(sample, nu, truth, m=2048):
    pts = np.linspace(-np.pi, np.pi, m, endpoint=False)
    if nu == 0.0:
        fhat = np.full(m, 1.0 / (2 * np.pi))
    else:
        fhat = kde_values(sample, KernelSpec.from_nu(VM, nu), pts)
    tv = np.asarray(truth(pts), dtype=float)
    return (2 * np.pi / m) * float(np.sum((fhat - tv) ** 2))


class TestLikelihoodCrossValidation:
    def test_leave_one_out_identity(self):
        # (n f(x_i) - peak) / (n - 1) equals the literal delete-one value
        s = vm_sample(0, n=40)
        spec = KernelSpec.vonmises(kappa=3.0)
        full = kde_values(s, spec, s.angles)
        peak = roughness(spec, 0, 1)
        for i in (0, 17, 39):
            rest = CircularSample.from_data(np.delete(s.angles, i))
            lit = kde_values(rest, spec, np.array([s.angles[i]]))[0]
            short = (s.n * full[i] - peak) / (s.n - 1)
            assert short == pytest.approx(lit, rel=1e-12)

    def test_selected_kernel_beats_literal_grid(self):
        s = vm_sample(2, n=60)
        cfg = SelectorConfig()
        sel = select_lcv(s, cfg)

        def literal(spec):
            # delete-one reconstruction, no algebraic shortcut
            if spec.nu == 0.0:
                return -s.n * math.log(2 * math.pi)
            tot = 0.0
            for i in range(s.n):
                rest = CircularSample.from_data(np.delete(s.angles, i))
                v = kde_values(rest, spec, np.array([s.angles[i]]))[0]
                if v <= 0.0:
                    return -np.inf
                tot += math.log(v)
            return tot

        uniform = KernelSpec.from_nu(VM, 0.0)
        best = literal(KernelSpec.from_nu(VM, sel.nu))
        for h in np.geomspace(1e-3, UNIFORM_BANDWIDTH, 20):
            spec = concentration_from_bandwidth(VM, h) if h < UNIFORM_BANDWIDTH else uniform
            if is_uniform_fallback(spec):
                spec = uniform
            assert best >= literal(spec) - 1e-9 * abs(best)

    def test_uniform_objective_value(self):
        rng = np.random.default_rng(1)
        s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 100))
        sel = select_lcv(s, SelectorConfig())
        assert sel.nu == 0.0
        assert not sel.fallback_uniform
        assert sel.h == UNIFORM_BANDWIDTH
        obj = next(t.psi for t in sel.trace if t.label == "lcv-objective")
        assert obj == pytest.approx(-100 * math.log(2 * math.pi), rel=1e-14)

    def test_two_antipodal_points(self):
        s = CircularSample.from_data(np.array([0.0, np.pi]))
        sel = select_lcv(s, SelectorConfig())
        assert sel.nu == 0.0
        assert not sel.fallback_uniform

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            select_lcv(CircularSample.from_data(np.array([0.3])), SelectorConfig())

    def test_rotation_invariance(self):
        s = vm_sample(4)
        rot = CircularSample.from_data(s.angles + 2.0)
        a = select_lcv(s, SelectorConfig())
        b = select_lcv(rot, SelectorConfig())
        assert a.nu == pytest.approx(b.nu, abs=1e-9)

    def test_median_pick_inside_gold_envelope(self):
        cfg = SelectorConfig()
        truth = vm_truth(0.0, 2.0)
        nus_lcv, nus_gs = [], []
        for seed in range(60):
            s = vm_sample(seed, n=250)
            nus_lcv.append(select_lcv(s, cfg).nu)
            nus_gs.append(select_gold(s, truth, cfg).nu)
        lo, hi = np.percentile(nus_gs, [5, 95])
        assert lo <= np.median(nus_lcv) <= hi


def _direct_density(sample, spec, points):
    """Kernel density at the points from closed forms, without any cosine
    series: the von Mises exponential form, or Gaussian translates for the
    wrapped normal."""
    d = points[:, None] - sample.angles[None, :]
    if spec.family == VM:
        vals = np.exp(spec.kappa * (np.cos(d) - 1.0)) / (2 * np.pi * i0e(spec.kappa))
    else:
        sigma = math.sqrt(-2.0 * math.log(spec.nu))
        d = (d + np.pi) % (2 * np.pi) - np.pi
        vals = sum(
            np.exp(-0.5 * ((d + 2 * np.pi * m) / sigma) ** 2) for m in range(-4, 5)
        ) / (sigma * math.sqrt(2 * np.pi))
    return vals.mean(axis=1)


def _direct_loo(sample, spec):
    n = sample.n
    full = _direct_density(sample, spec, sample.angles)
    peak = _direct_density(CircularSample.from_data(np.zeros(1)), spec, np.zeros(1))[0]
    return (n * full - peak) / (n - 1), peak


_FROZEN_SPECS = {}


def _frozen_objective(sample, cfg, h):
    """The leave-one-out objective of select_lcv as it was before the
    shared spectral table: one direct sum at the sample points.  Candidate
    kernels are memoized per (family, inversion, h)."""
    n = sample.n
    key = (cfg.kernel_family, cfg.exact_inversion, float(h))
    if key not in _FROZEN_SPECS:
        spec = None
        if h < UNIFORM_BANDWIDTH * (1.0 - 1e-12):
            spec = concentration_from_bandwidth(cfg.kernel_family, h, exact=cfg.exact_inversion)
        _FROZEN_SPECS[key] = None if is_uniform_fallback(spec) else spec
    spec = _FROZEN_SPECS[key]
    if spec is None:
        return -n * math.log(2.0 * np.pi)
    loo = (n * kde_values(sample, spec, sample.angles) - roughness(spec, 0, 1)) / (n - 1)
    if np.any(loo <= 0.0) or not np.all(np.isfinite(loo)):
        return -np.inf
    return float(np.sum(np.log(loo)))


def _frozen_lcv(sample, cfg):
    """The grid search and parabolic step of select_lcv as they were before
    the shared spectral table."""

    def objective_of_h(h):
        return _frozen_objective(sample, cfg, h)

    hs = np.geomspace(1e-4, UNIFORM_BANDWIDTH, 64)
    objs = np.array([objective_of_h(h) for h in hs])
    best = int(np.argmax(objs))
    us = np.log(hs)
    u_star = float(us[best])
    if 1 <= best <= len(hs) - 2:
        fa, fb, fc = objs[best - 1], objs[best], objs[best + 1]
        if np.isfinite(fa) and np.isfinite(fc) and fb >= fa and fb >= fc:
            ua, ub, uc = us[best - 1], us[best], us[best + 1]
            d1 = (ub - ua) ** 2 * (fb - fc) - (ub - uc) ** 2 * (fb - fa)
            d2 = (ub - ua) * (fb - fc) - (ub - uc) * (fb - fa)
            if d2 != 0.0:
                u_star = float(np.clip(ub - 0.5 * d1 / d2, ua, uc))
    h_star = math.exp(u_star)
    obj = objective_of_h(h_star)
    if h_star >= UNIFORM_BANDWIDTH * (1.0 - 1e-12):
        return 0.0, False, obj
    spec = concentration_from_bandwidth(cfg.kernel_family, h_star, exact=cfg.exact_inversion)
    if is_uniform_fallback(spec):
        return 0.0, True, obj
    return spec.nu, False, obj


def _zoo_samples(count, n=100):
    models = builtin_models()
    return [
        models[k % len(models)].sampler(np.random.default_rng([k, 0]), n) for k in range(count)
    ]


SPECTRAL_LCV = [
    SelectorConfig(),
    SelectorConfig(exact_inversion=True),
    SelectorConfig(kernel_family=WN),
]


class TestSpectralLcv:
    @pytest.mark.parametrize(
        "cfg", SPECTRAL_LCV, ids=["vm", "vm-exact", "wn"]
    )
    def test_table_objective_matches_direct_sums(self, cfg):
        hs, specs, weights, peaks = _lcv_table(cfg.kernel_family, cfg.exact_inversion)
        assert weights.shape[0] == len(hs) == len(specs) == 64
        # the series sum carries an absolute rounding error of order
        # 1e-13 K(0), so only candidates whose leave-one-out densities all
        # stay above 1e-6 K(0) can match to 1e-9
        checked = 0
        for sample in _zoo_samples(10):
            objs = _lcv_objectives(sample, specs, weights, peaks)
            for g, spec in enumerate(specs):
                if spec.nu == 0.0:
                    assert objs[g] == -sample.n * math.log(2 * math.pi)
                    continue
                loo, peak = _direct_loo(sample, spec)
                # the wrapped normal's K(0) is its cosine series, cut by
                # the tail rule with a remainder near 1e-11 of the total
                assert peaks[g] == pytest.approx(peak, rel=1e-10)
                if np.all(loo >= 1e-6 * peak):
                    assert objs[g] == pytest.approx(np.sum(np.log(loo)), rel=1e-9)
                    checked += 1
        assert checked > 100

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(2, 2000),
        st.floats(0.0, 100.0),
        st.floats(0.0, 4.0),
        st.integers(0, 2**32 - 1),
    )
    @example(30, 1.0, math.log10(6521.0), 0)
    def test_leave_one_out_error_within_stated_bound(self, n, spread, log_kappa, seed):
        # _rescore_floor's pruning allows each value above the floor the
        # relative error _SERIES_ERR / _LCV_FLOOR
        sample = CircularSample.from_data(np.random.default_rng(seed).vonmises(0.0, spread, n))
        specs, weights, peaks = _lcv_candidates(VM, [10.0**-log_kappa], False)
        loo = (n * _kde_rows(sample, specs, sample.angles, weights)[0] - peaks[0]) / (n - 1)
        direct, peak = _direct_loo(sample, specs[0])
        assert np.max(np.abs(loo - direct)) <= selectors._SERIES_ERR * peak

    @pytest.mark.parametrize("family", [VM, WN])
    def test_stated_bound_covers_a_sample_at_one_point(self, family):
        # two identical angles under the narrowest candidate: every dropped
        # term of the series adds up at the point
        sample = CircularSample.from_data(np.zeros(2))
        specs, weights, peaks = _lcv_candidates(family, [1e-4], False)
        loo = 2 * _kde_rows(sample, specs, sample.angles, weights)[0] - peaks[0]
        direct, peak = _direct_loo(sample, specs[0])
        err = np.max(np.abs(loo - direct))
        assert 0.3 * selectors._SERIES_ERR * peak < err <= selectors._SERIES_ERR * peak

    @pytest.mark.parametrize(
        "cfg,count", zip(SPECTRAL_LCV, (50, 20, 20)), ids=["vm", "vm-exact", "wn"]
    )
    def test_selection_matches_frozen_grid_code(self, cfg, count):
        for sample in _zoo_samples(count):
            sel = select_lcv(sample, cfg)
            nu, fallback, obj = _frozen_lcv(sample, cfg)
            assert sel.nu == pytest.approx(nu, rel=1e-8)
            assert sel.fallback_uniform == fallback
            assert sel.trace[0].label == "lcv-objective"
            assert sel.trace[0].psi == pytest.approx(obj, rel=1e-8)

    def test_wrapped_epanechnikov_sums_directly(self):
        cfg = SelectorConfig(kernel_family=KernelFamily.WRAPPEDEPANECHNIKOV)
        assert _lcv_table(cfg.kernel_family, False)[2] is None
        for sample in _zoo_samples(5):
            sel = select_lcv(sample, cfg)
            assert (sel.nu, sel.fallback_uniform, sel.trace[0].psi) == _frozen_lcv(sample, cfg)

    def test_table_is_shared(self):
        assert _lcv_table(VM, False) is _lcv_table(VM, False)
        assert _lcv_table(VM, True) is not _lcv_table(VM, False)

    def test_large_sample(self):
        rng = np.random.default_rng(11)
        sample = CircularSample.from_data(
            np.concatenate([rng.vonmises(0.0, 8.0, 1000), rng.vonmises(np.pi, 8.0, 1000)])
        )
        hs, specs, weights, peaks = _lcv_table(VM, False)
        objs = _lcv_objectives(sample, specs, weights, peaks)
        best = int(np.argmax(objs))
        assert 1 <= best <= 62
        direct = {}
        for g in sorted({best - 1, best, best + 1, *range(0, 64, 6)}):
            if specs[g] is None:
                continue
            loo, peak = _direct_loo(sample, specs[g])
            direct[g] = np.sum(np.log(loo)) if np.all(loo > 0) else -np.inf
            if np.all(loo >= 1e-6 * peak):
                assert objs[g] == pytest.approx(direct[g], rel=1e-9)
        assert direct[best] == max(direct.values())
        # the parabolic step through the direct objectives gives the same nu
        us = np.log(hs[best - 1 : best + 2])
        fa, fb, fc = direct[best - 1], direct[best], direct[best + 1]
        d1 = (us[1] - us[0]) ** 2 * (fb - fc) - (us[1] - us[2]) ** 2 * (fb - fa)
        d2 = (us[1] - us[0]) * (fb - fc) - (us[1] - us[2]) * (fb - fa)
        h_star = math.exp(us[1] - 0.5 * d1 / d2)
        assert select_lcv(sample, SelectorConfig()).nu == pytest.approx(
            concentration_from_bandwidth(VM, h_star).nu, rel=1e-8
        )

    # a tight cluster and one point far from it: near the optimum the
    # outlier's leave-one-out density is far below the series' rounding
    # floor, and only a direct sum resolves it (the wrapped normal has no
    # closed form, so the code before the table summed its series too)
    @pytest.mark.parametrize(
        "n,kappa,gap", [(1000, 400.0, 0.5), (1000, 400.0, 1.0), (300, 400.0, 0.5), (2000, 1000.0, 0.3)]
    )
    @pytest.mark.parametrize("cfg", SPECTRAL_LCV[:2], ids=["vm", "vm-exact"])
    def test_isolated_outlier_matches_frozen_grid_code(self, cfg, n, kappa, gap):
        rng = np.random.default_rng(3)
        sample = CircularSample.from_data(np.concatenate([rng.vonmises(0.0, kappa, n), [gap]]))
        sel = select_lcv(sample, cfg)
        nu, fallback, obj = _frozen_lcv(sample, cfg)
        assert sel.nu == pytest.approx(nu, rel=1e-8)
        assert sel.fallback_uniform == fallback
        assert sel.trace[0].psi == pytest.approx(obj, rel=1e-8)
        # the best candidate and the two the parabolic step reads
        hs, specs, weights, peaks = _lcv_table(cfg.kernel_family, cfg.exact_inversion)
        objs = _lcv_objectives(sample, specs, weights, peaks)
        best = int(np.argmax(objs))
        assert 1 <= best <= 62
        for g in (best - 1, best, best + 1):
            frozen = _frozen_objective(sample, cfg, hs[g])
            assert np.isfinite(objs[g]) == np.isfinite(frozen)
            if np.isfinite(frozen):
                assert objs[g] == pytest.approx(frozen, rel=1e-9)

    def test_rows_beside_the_maximum_are_resolved(self):
        # the narrowest candidate has leave-one-out densities below the
        # series' floor and cannot be the maximum, but the parabolic step
        # reads it as the neighbour of the best
        rng = np.random.default_rng(0)
        sample = CircularSample.from_data(np.concatenate([rng.vonmises(0.0, 30.0, 20), [0.5]]))
        hs = [0.001, 0.02, 0.03]
        objs = _lcv_objectives(sample, *_lcv_candidates(VM, hs, False))
        assert int(np.argmax(objs)) == 1
        for h, obj in zip(hs, objs):
            assert obj == pytest.approx(_frozen_objective(sample, SelectorConfig(), h), rel=1e-9)

    # nu at the smallest grid bandwidth h = 1e-4, taken from the code
    # before the spectral table
    @pytest.mark.parametrize(
        "angles",
        [[0.3, 0.3], [0.3, 0.301], [1.0] * 10],
        ids=["two-identical", "two-close", "ten-identical"],
    )
    @pytest.mark.parametrize(
        "cfg,nu",
        zip(SPECTRAL_LCV, (0.9999499987498751, 0.9999500012514068, 0.9999499962495625)),
        ids=["vm", "vm-exact", "wn"],
    )
    def test_degenerate_samples_pick_the_narrowest_kernel(self, angles, cfg, nu):
        sel = select_lcv(CircularSample.from_data(np.array(angles)), cfg)
        assert sel.nu == pytest.approx(nu, rel=1e-12)
        assert not sel.fallback_uniform
        assert [t.label for t in sel.trace] == ["lcv-objective", "final"]


class TestGoldStandard:
    def test_matches_independent_argmin(self):
        s = vm_sample(0, n=150)
        cfg = SelectorConfig()
        truth = vm_truth(0.0, 2.0)
        grid = np.array([0.3, 0.5, 0.7, 0.8, 0.87, 0.92, 0.95, 0.97, 0.99])
        sel = select_gold(s, truth, cfg, grid=grid)

        ises = []
        for nu in grid:
            est = kde(s, KernelSpec.from_nu(VM, nu))
            ises.append(ise(est, truth))
        assert sel.nu == pytest.approx(grid[int(np.argmin(ises))], rel=1e-12)

    def test_returned_point_beats_neighbors(self):
        s = vm_sample(5, n=100)
        cfg = SelectorConfig()
        truth = vm_truth(0.0, 2.0)
        sel = select_gold(s, truth, cfg)
        grid = default_gold_grid(VM)
        k = int(np.argmin(np.abs(grid - sel.nu)))
        here = _fast_ise(s, float(grid[k]), truth)
        for j in (k - 1, k + 1):
            if 0 <= j < len(grid):
                assert here <= _fast_ise(s, float(grid[j]), truth) + 1e-12

    def test_trace_ise_matches_public_integral(self):
        s = vm_sample(3, n=120)
        cfg = SelectorConfig()
        truth = vm_truth(0.0, 2.0)
        sel = select_gold(s, truth, cfg)
        traced = sel.trace[0].psi
        est = kde(s, KernelSpec.from_nu(VM, sel.nu))
        assert traced == pytest.approx(ise(est, truth), rel=1e-6)

    def test_uniform_truth_picks_uniform(self):
        cfg = SelectorConfig()
        truth = lambda t: np.full(np.shape(t), 1.0 / (2 * np.pi))
        nus = []
        for seed in range(11):
            rng = np.random.default_rng(seed)
            s = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 50))
            sel = select_gold(s, truth, cfg)
            nus.append(sel.nu)
            assert sel.trace[0].psi == pytest.approx(0.0, abs=1e-15)
        grid = default_gold_grid(VM)
        assert np.median(nus) < np.percentile(grid, 25)

    def test_single_point_grid(self):
        s = vm_sample(1, n=50)
        sel = select_gold(s, vm_truth(0.0, 2.0), SelectorConfig(), grid=[0.6])
        assert sel.nu == 0.6
        assert sel.h == pytest.approx(bandwidth(KernelSpec.from_nu(VM, 0.6)), rel=1e-12)

    def test_grid_order_is_irrelevant(self):
        s = vm_sample(2, n=80)
        truth = vm_truth(0.0, 2.0)
        grid = [0.9, 0.3, 0.7, 0.5, 0.95]
        a = select_gold(s, truth, SelectorConfig(), grid=grid)
        b = select_gold(s, truth, SelectorConfig(), grid=sorted(grid))
        assert a == b

    def test_default_grid_shape(self):
        grid = default_gold_grid(VM)
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] < 1.0
        assert len(grid) > 150

    def test_custom_grid_matches_direct_trapezoid_argmin(self):
        s = vm_sample(7, n=90)
        truth = vm_truth(0.4, 3.0)
        grid = np.array([0.0, 0.2, 0.5, 0.7, 0.8, 0.85, 0.9, 0.93, 0.96, 0.98, 0.995])
        sel = select_gold(s, truth, SelectorConfig(), grid=grid)
        direct = [_fast_ise(s, float(nu), truth) for nu in grid]
        assert sel.nu == pytest.approx(grid[int(np.argmin(direct))], rel=1e-12)
        assert sel.trace[0].psi == pytest.approx(min(direct), rel=1e-10)

    def test_truth_errors_propagate(self):
        def broken(t):
            raise RuntimeError("density bug")

        with pytest.raises(RuntimeError):
            select_gold(vm_sample(0, n=30), broken, SelectorConfig(), grid=[0.5, 0.9])

    def test_scalar_truth_callable_accepted(self):
        s = vm_sample(4, n=60)
        truth_vec = vm_truth(0.0, 2.0)
        sel_a = select_gold(s, truth_vec, SelectorConfig(), grid=[0.5, 0.8, 0.9])
        sel_b = select_gold(
            s, lambda t: float(truth_vec(float(t))), SelectorConfig(), grid=[0.5, 0.8, 0.9]
        )
        assert sel_a.nu == sel_b.nu


class TestFallbackTotality:
    @pytest.fixture(
        params=[
            np.array([0.0, 0.1, 0.2, 0.3]),
            np.array([-np.pi / 2, np.pi / 2, 0.0, np.pi]),
            np.array([0.0, 1e-9, 2e-9, 3e-9, np.pi]),
            np.linspace(-np.pi, np.pi, 6, endpoint=False),
            np.full(10, 1.234),
        ],
        ids=["cluster", "balanced4", "outlier", "balanced6", "identical"],
    )
    def nasty(self, request):
        return CircularSample.from_data(request.param)

    @pytest.mark.parametrize(
        "selector,method",
        [
            (select_rt, SelectorMethod.RT),
            (select_dpi, SelectorMethod.DPI),
            (select_ste, SelectorMethod.STE),
            (select_lcv, SelectorMethod.LCV),
        ],
    )
    def test_never_raises(self, nasty, selector, method):
        sel = selector(nasty, SelectorConfig())
        check_selection(sel, method)

    @pytest.mark.parametrize("selector", [select_rt, select_dpi, select_ste])
    def test_wrapped_epanechnikov_fallback_feeds_kde(self, selector):
        # a consumer of any selection builds its kernel with from_nu, the
        # uniform fallback of a family whose concentrations stop short of 0
        # included
        cfg = SelectorConfig(kernel_family=KernelFamily.WRAPPEDEPANECHNIKOV)
        s = CircularSample.from_data(np.full(3, 0.3))
        sel = selector(s, cfg)
        assert sel.fallback_uniform and sel.nu == 0.0 and sel.kappa_or_lambda is None
        assert sel.h == UNIFORM_BANDWIDTH
        est = kde(s, KernelSpec.from_nu(cfg.kernel_family, sel.nu))
        assert np.all(est.values == 1.0 / (2.0 * np.pi))

    def test_wrapped_epanechnikov_gold_uniform_pick(self):
        cfg = SelectorConfig(kernel_family=KernelFamily.WRAPPEDEPANECHNIKOV)
        s = CircularSample.from_data(np.array([0.0, np.pi]))
        flat = lambda t: np.full(np.shape(t), 1.0 / (2.0 * np.pi))
        sel = select_gold(s, flat, cfg, grid=[0.0, 0.6])
        assert (sel.nu, sel.kappa_or_lambda, sel.fallback_uniform) == (0.0, None, False)
        assert sel.trace[0].psi == 0.0
        est = kde(s, KernelSpec.from_nu(cfg.kernel_family, sel.nu))
        assert np.all(est.values == 1.0 / (2.0 * np.pi))

    def test_fallback_selection_shape(self):
        sel = select_dpi(balanced_sample(), SelectorConfig())
        assert sel.nu == 0.0
        assert sel.h == UNIFORM_BANDWIDTH
        assert sel.kappa_or_lambda is None
        assert sel.fallback_uniform


class TestSerialization:
    def test_selection_json_fields(self):
        sel = select_dpi(vm_sample(0), SelectorConfig())
        data = json.loads(sel.to_json())
        assert set(data) == {"nu", "h", "kappa_or_lambda", "method", "fallback_uniform", "trace"}
        assert data["method"] == "dpi"
        assert data["nu"] == sel.nu
        assert len(data["trace"]) == len(sel.trace)
        assert data["trace"][0]["label"] == "psi8:reference"

    def test_selection_frozen(self):
        sel = select_rt(vm_sample(0), SelectorConfig())
        with pytest.raises(Exception):
            sel.nu = 0.5

    def test_trace_entry_defaults(self):
        t = TraceEntry(label="x")
        assert t.psi is None and t.pilot_h is None and t.pilot_nu is None


@functools.lru_cache(maxsize=1)
def large_vm_mix3_angles():
    """One fixed n = 1e5 VM-MIX3 sample, the one that BENCH_moments.json
    and BENCH_window.json time at that size."""
    model = {m.name: m for m in builtin_models()}["VM-MIX3"]
    rng = np.random.default_rng(np.random.SeedSequence([20221, 100_000]))
    return model.sampler(rng, 100_000).angles


class TestLargeSample:
    """rt, dpi and ste at n = 1e5, where the moments come from the NUFFT,
    pinned to the values of the block-rebased engine alone (the code before
    the NUFFT), and lcv, whose leave-one-out table is a type-2 NUFFT,
    pinned to the cos/sin basis at the points (the code before the type 2).
    Each case times one selector on a fresh sample."""

    @pytest.mark.parametrize(
        "name, nu",
        [
            ("rt", 0.5547001545801693),
            ("dpi", 0.9987991666692918),
            ("ste", 0.9990562575228038),
            ("lcv", 0.99913655705059),
        ],
    )
    def test_pinned_nu(self, name, nu):
        sel = selectors.SELECTORS[name](
            CircularSample.from_data(large_vm_mix3_angles()), SelectorConfig()
        )
        assert not sel.fallback_uniform
        assert sel.nu == pytest.approx(nu, rel=1e-9)

    def test_pinned_kde_at_the_dpi_nu(self):
        # the 512-point von Mises kde at the DPI nu above (kappa 417), pinned
        # to the sum over every pair (the code before the windowed sums)
        sample = CircularSample.from_data(large_vm_mix3_angles())
        values = kde(sample, KernelSpec.vonmises(nu=0.9987991666692918)).values
        every_32nd = [
            0.006062492739528171, 0.05129263464976022, 0.2953304384389227,
            0.3690261833669256, 0.11511187293420404, 0.009225160092334778,
            0.022924134859155357, 0.19582835333734142, 0.4054088039860239,
            0.19475966010214332, 0.023579849898343008, 0.010288407636439961,
            0.11633011956010787, 0.3752068838306666, 0.29815097603098334,
            0.05248185210405539,
        ]
        np.testing.assert_allclose(values[::32], every_32nd, rtol=1e-12)
        assert values.sum() == pytest.approx(81.48733086305043, rel=1e-12)
        assert values.min() == pytest.approx(0.005495808214600677, rel=1e-12)
        assert values.max() == pytest.approx(0.4198563734062697, rel=1e-12)


class TestSmallSamples:
    """Defined behaviour at the smallest sample sizes and on identical
    angles, pinned to the values the selectors return."""

    @pytest.mark.parametrize("name", ["rt", "dpi", "ste", "lcv"])
    def test_single_angle_rejected_at_entry(self, name):
        sample = CircularSample.from_data([0.3])
        with pytest.raises(ValueError, match="at least 2 observations"):
            selectors.SELECTORS[name](sample, SelectorConfig())

    @pytest.mark.parametrize(
        "name, nu",
        [
            ("rt", 0.9311134686542261),
            ("dpi", 0.9571446224735707),
            ("ste", 0.9867796380162247),
            ("lcv", 0.6955189859995288),
        ],
    )
    def test_two_distinct_angles(self, name, nu):
        sel = selectors.SELECTORS[name](CircularSample.from_data([0.3, 1.1]), SelectorConfig())
        assert not sel.fallback_uniform
        assert sel.trace[-1].label == "final"
        assert sel.nu == pytest.approx(nu, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize(
        "name, reason",
        [("rt", "reference-fit"), ("dpi", "cascade-error"), ("ste", "numeric-error")],
    )
    def test_identical_angles_fall_back(self, n, name, reason):
        sel = selectors.SELECTORS[name](CircularSample.from_data([0.3] * n), SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0 and sel.h == UNIFORM_BANDWIDTH
        assert sel.trace[-1].label == f"fallback:{reason}"

    @pytest.mark.parametrize("n", [2, 10])
    def test_identical_angles_lcv_takes_narrowest_grid_h(self, n):
        sel = select_lcv(CircularSample.from_data([0.3] * n), SelectorConfig())
        hs, _, _, _ = _lcv_table(VM, False)
        assert not sel.fallback_uniform
        assert sel.trace[-1].label == "final"
        assert sel.trace[-1].pilot_h == pytest.approx(hs[0], rel=1e-12)
        assert sel.nu == pytest.approx(0.999949998749875, rel=1e-9)



@functools.lru_cache(maxsize=2)
def concentrated_angles(kappa=1e6):
    """100 angles from a von Mises of concentration kappa about 0.5."""
    return np.random.default_rng(1).vonmises(0.5, kappa, 100)


class TestConcentratedSample:
    """Every selector at kappa = 1e6, pinned to the values of the code
    before trig_moments ran the NUFFT at every sample size; DPI and STE
    pinned to their first selections with pilot series whose lengths
    follow the pilot kernel."""

    def test_rt(self):
        sel = select_rt(CircularSample.from_data(concentrated_angles()), SelectorConfig())
        assert not sel.fallback_uniform
        assert sel.nu == pytest.approx(0.9999999054925731, rel=1e-9)

    def test_lcv_takes_narrowest_grid_h(self):
        sel = select_lcv(CircularSample.from_data(concentrated_angles()), SelectorConfig())
        hs, _, _, _ = _lcv_table(VM, False)
        assert not sel.fallback_uniform
        assert sel.trace[-1].pilot_h == pytest.approx(hs[0], rel=1e-12)
        assert sel.nu == pytest.approx(0.999949998749875, rel=1e-9)

    def test_gold_takes_narrowest_grid_kernel(self):
        def truth(t):
            return np.exp(1e6 * (np.cos(np.asarray(t) - 0.5) - 1.0)) / (2 * np.pi * i0e(1e6))

        s = CircularSample.from_data(concentrated_angles())
        sel = select_gold(s, truth, SelectorConfig())
        assert not sel.fallback_uniform
        assert sel.nu == default_gold_grid(VM)[-1]
        assert sel.nu == pytest.approx(0.999949998749875, rel=1e-9)

    @pytest.mark.parametrize("name", ["dpi", "ste"])
    def test_plug_in_rules_select(self, name):
        # the s = 6 pilot's series runs past 10 000 terms
        sample = CircularSample.from_data(concentrated_angles())
        sel = selectors.SELECTORS[name](sample, SelectorConfig())
        assert not sel.fallback_uniform
        assert sel.nu == pytest.approx(0.9999998884803909, rel=1e-9)
        labels = [t.label for t in sel.trace]
        assert labels[-1] == "final"
        if name == "ste":
            # the root lies below the bracket, so the plug-in cascade gives
            # the bandwidth, and the selections agree
            assert any(label.startswith("fallback:no-sign-change:") for label in labels)

    @pytest.mark.parametrize(
        "name, reason",
        [("rt", "reference-fit"), ("dpi", "cascade-error"), ("ste", "numeric-error")],
    )
    def test_reference_fit_past_the_kappa_cap_falls_back(self, name, reason):
        # at kappa = 1e8 every EM run passes mixture._KAPPA_CAP
        sample = CircularSample.from_data(concentrated_angles(1e8))
        sel = selectors.SELECTORS[name](sample, SelectorConfig())
        assert sel.fallback_uniform
        assert sel.nu == 0.0 and sel.h == UNIFORM_BANDWIDTH
        assert sel.trace[-1].label == f"fallback:{reason}"

class TestSelectionBuilder:
    """Every selector's answer comes from selectors._selection: a kernel
    gives its nu, bandwidth and concentration; the uniform density (nu = 0)
    gives no concentration, flagged as a fallback only when a selector
    gave up."""

    def test_kernel_pick_carries_its_concentration(self):
        for family, conc in ((VM, "kappa"), (KernelFamily.WRAPPEDEPANECHNIKOV, "lam"), (WN, None)):
            spec = KernelSpec.from_nu(family, 0.8)
            trace = [TraceEntry(label="x", psi=1.0)]
            sel = selectors._selection(SelectorMethod.GS, spec, trace)
            assert sel.nu == spec.nu
            assert sel.h == bandwidth(spec)
            assert sel.kappa_or_lambda == (None if conc is None else getattr(spec, conc))
            assert not sel.fallback_uniform
            assert sel.trace == tuple(trace)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_uniform_pick(self, fallback):
        uniform = KernelSpec.from_nu(VM, 0.0)
        sel = selectors._selection(SelectorMethod.LCV, uniform, [], fallback=fallback)
        assert (sel.nu, sel.h, sel.kappa_or_lambda) == (0.0, UNIFORM_BANDWIDTH, None)
        assert sel.fallback_uniform is fallback
        assert sel.trace == ()

    def test_fallback_appends_its_reason(self):
        first = TraceEntry(label="psi4:reference", psi=2.0)
        sel = selectors._fallback(SelectorConfig(), SelectorMethod.DPI, [first], "cascade-error")
        assert sel.fallback_uniform and sel.kappa_or_lambda is None and sel.nu == 0.0
        assert sel.trace == (first, TraceEntry(label="fallback:cascade-error"))

    def test_gold_kernel_families_report_their_concentration(self):
        s = vm_sample(8, n=40)
        truth = vm_truth(0.0, 2.0)
        for family, attr in ((VM, "kappa"), (KernelFamily.WRAPPEDEPANECHNIKOV, "lam")):
            sel = select_gold(s, truth, SelectorConfig(kernel_family=family), grid=[0.6])
            assert sel.kappa_or_lambda == getattr(KernelSpec.from_nu(family, 0.6), attr)
            assert not sel.fallback_uniform
        sel = select_gold(s, truth, SelectorConfig(kernel_family=WN), grid=[0.6])
        assert sel.nu == 0.6 and sel.kappa_or_lambda is None and not sel.fallback_uniform


def _tied_gold_ises(values):
    def fake(sample, kernels, truth, points=2048, weights=None):
        assert len(kernels) == len(values)
        return np.array(values, dtype=float)

    return fake


class TestGridTies:
    """Ties in the grid searches: LCV keeps the first maximum of its
    64-point objective, the gold standard the smaller nu."""

    @staticmethod
    def _tied_lcv(monkeypatch, objs):
        real = selectors._lcv_objectives

        def fake(sample, specs, weights, peaks):
            if len(specs) == len(objs):
                return np.array(objs, dtype=float)
            return real(sample, specs, weights, peaks)

        monkeypatch.setattr(selectors, "_lcv_objectives", fake)

    def test_lcv_first_of_two_isolated_maxima(self, monkeypatch):
        hs = _lcv_table(VM, False)[0]
        objs = np.full(len(hs), -np.inf)
        objs[[20, 45]] = -10.0
        self._tied_lcv(monkeypatch, objs)
        sel = select_lcv(vm_sample(0, n=50), SelectorConfig())
        assert sel.trace[-1].label == "final"
        assert sel.trace[-1].pilot_h == pytest.approx(hs[20], rel=1e-12)
        assert sel.nu == concentration_from_bandwidth(VM, sel.trace[-1].pilot_h).nu

    def test_lcv_flat_objective_takes_the_narrowest_bandwidth(self, monkeypatch):
        hs = _lcv_table(VM, False)[0]
        self._tied_lcv(monkeypatch, np.full(len(hs), -3.0))
        sel = select_lcv(vm_sample(1, n=50), SelectorConfig())
        assert sel.trace[-1].pilot_h == pytest.approx(hs[0], rel=1e-12)
        assert not sel.fallback_uniform

    def test_lcv_uniform_candidate_loses_a_tie(self, monkeypatch):
        hs = _lcv_table(VM, False)[0]
        objs = np.full(len(hs), -np.inf)
        objs[[30, len(hs) - 1]] = -5.0
        self._tied_lcv(monkeypatch, objs)
        sel = select_lcv(vm_sample(2, n=50), SelectorConfig())
        assert sel.trace[-1].pilot_h == pytest.approx(hs[30], rel=1e-12)

    def test_lcv_uniform_pick_is_not_a_fallback(self, monkeypatch):
        hs = _lcv_table(VM, False)[0]
        objs = np.full(len(hs), -np.inf)
        objs[-1] = -5.0
        self._tied_lcv(monkeypatch, objs)
        sel = select_lcv(vm_sample(3, n=50), SelectorConfig())
        assert (sel.nu, sel.h, sel.kappa_or_lambda) == (0.0, UNIFORM_BANDWIDTH, None)
        assert not sel.fallback_uniform
        assert [t.label for t in sel.trace] == ["lcv-objective"]

    def test_gold_tie_keeps_the_smaller_nu(self, monkeypatch):
        # the grid is sorted ascending before the search
        monkeypatch.setattr(selectors, "grid_ise", _tied_gold_ises([1.0, 0.2, 0.5, 0.2]))
        grid = [0.9, 0.3, 0.7, 0.5]
        sel = select_gold(vm_sample(4, n=30), vm_truth(0.0, 2.0), SelectorConfig(), grid=grid)
        assert sel.nu == 0.5
        assert sel.trace == (TraceEntry(label="gold-ise", psi=0.2, pilot_nu=0.5),)

    def test_gold_tie_with_the_uniform_point_picks_uniform(self, monkeypatch):
        grid = default_gold_grid(VM)
        ises = np.ones(len(grid))
        ises[[0, 57]] = 0.25
        monkeypatch.setattr(selectors, "grid_ise", _tied_gold_ises(ises))
        sel = select_gold(vm_sample(5, n=30), vm_truth(0.0, 2.0), SelectorConfig())
        assert (sel.nu, sel.h, sel.kappa_or_lambda) == (0.0, UNIFORM_BANDWIDTH, None)
        assert not sel.fallback_uniform
        assert sel.trace == (TraceEntry(label="gold-ise", psi=0.25, pilot_nu=0.0),)


class TestGoldSmallSamples:
    """The gold standard needs no minimum sample size: it runs at n = 1,
    and n identical angles give the one-angle estimate, hence its pick."""

    # argmin of the direct trapezoid ISE over the default grid against the
    # VM2 truth (von Mises, kappa 2), from the code before the single
    # selection builder
    @pytest.mark.parametrize(
        "angles, nu",
        [
            ([0.3], 0.6614996069237983),
            ([0.3, 1.1], 0.5465149928816173),
            ([0.3, 0.3], 0.6614996069237983),
            ([0.3] * 10, 0.6614996069237983),
        ],
        ids=["one", "two", "two-identical", "ten-identical"],
    )
    def test_pick(self, angles, nu):
        truth = builtin_models()[1].density
        s = CircularSample.from_data(angles)
        sel = select_gold(s, truth, SelectorConfig())
        assert sel.nu == pytest.approx(nu, rel=1e-12)
        assert not sel.fallback_uniform
        assert sel.kappa_or_lambda == KernelSpec.from_nu(VM, sel.nu).kappa
        grid = default_gold_grid(VM)
        direct = [_fast_ise(s, float(g), truth) for g in grid]
        assert sel.nu == grid[int(np.argmin(direct))]
        assert sel.trace[0].psi == pytest.approx(min(direct), rel=1e-10)
