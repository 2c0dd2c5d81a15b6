"""Tests for circkde.mixture.

Oracles: closed-form single-component maximum likelihood (circular mean
plus concentration from the resultant length), literal log-likelihood
loops, parameter recovery on generated data, Bessel-series coefficients,
and adaptive quadrature for the density functionals.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from circkde import kernels, mixture
from circkde.errors import FitError, ToleranceError
from circkde.estimators import CircularSample
from circkde.mixture import (
    FitReport,
    MixtureModel,
    fit_em,
    mixture_density,
    mixture_fourier,
    _psi_terms,
    psi_from_model,
    select_aic,
)
from circkde.selectors import SelectorConfig, select_dpi, select_rt, select_ste
from circkde.simulate import builtin_models
from circkde.special import bessel_ratio_span, bessel_ratios, inv_bessel_ratio

em_once = mixture._em_once


def two_component_sample(n, seed, mus=(0.0, np.pi), kappa=8.0, w=0.5):
    rng = np.random.default_rng(seed)
    which = rng.random(n) < w
    draws = np.where(
        which,
        rng.vonmises(mus[0], kappa, n),
        rng.vonmises(mus[1], kappa, n),
    )
    return CircularSample.from_data(draws)


def loop_loglik(sample, model):
    total = 0.0
    for t in sample.angles:
        dens = sum(
            w * math.exp(model.kappa * math.cos(t - m)) / (2.0 * np.pi * i0(model.kappa))
            for m, w in zip(model.mus, model.weights)
        )
        total += math.log(dens)
    return total


class TestMixtureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureModel(2, np.array([0.0]), 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            MixtureModel(1, np.array([0.0]), -1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            MixtureModel(2, np.array([0.0, 1.0]), 1.0, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_equality(self, M):
        mus = np.linspace(-1.0, 2.0, M)
        weights = np.full(M, 1.0 / M)
        kappas = np.arange(1.0, M + 1.0)
        shared = MixtureModel(M, mus, 3.0, weights)
        per = MixtureModel(M, mus, kappas, weights)
        assert shared == MixtureModel(M, list(mus), 3.0, list(weights))
        assert per == MixtureModel(M, mus.copy(), kappas.copy(), weights.copy())
        assert shared != MixtureModel(M, mus + 0.1, 3.0, weights)
        assert shared != MixtureModel(M, mus, 3.5, weights)
        assert per != MixtureModel(M, mus, kappas + 1.0, weights)
        # a shared kappa is not the same model as an array repeating it
        assert shared != MixtureModel(M, mus, np.full(M, 3.0), weights)
        assert shared != per
        if M > 1:
            assert shared != MixtureModel(M, mus, 3.0, np.r_[0.7, np.full(M - 1, 0.3 / (M - 1))])
        assert shared != MixtureModel(M + 1, np.r_[mus, 0.0], 3.0, np.full(M + 1, 1.0 / (M + 1)))
        assert shared != "not a model"

    def test_json_schema(self):
        m = MixtureModel(2, np.array([0.0, 1.5]), 3.0, np.array([0.4, 0.6]))
        payload = json.loads(m.to_json())
        assert payload == {
            "M": 2,
            "mus": [0.0, 1.5],
            "kappa": 3.0,
            "weights": [0.4, 0.6],
        }


    def test_list_inputs_become_float_arrays(self):
        m = MixtureModel(1, [0.0], 1.0, [1.0])
        assert isinstance(m.mus, np.ndarray) and m.mus.dtype == float
        assert isinstance(m.weights, np.ndarray) and m.weights.dtype == float
        assert m.kappa == 1.0 and isinstance(m.kappa, float)
        per = MixtureModel(2, [0.0, 1.5], [1, 6], [0.75, 0.25])
        assert per.kappa.dtype == float and per.kappa.tolist() == [1.0, 6.0]

    def test_kappa_shape_and_sign(self):
        with pytest.raises(ValueError):
            MixtureModel(2, [0.0, 1.5], [1.0, 6.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            MixtureModel(2, [0.0, 1.5], [[1.0, 6.0]], [0.5, 0.5])
        with pytest.raises(ValueError):
            MixtureModel(2, [0.0, 1.5], [1.0, -6.0], [0.5, 0.5])


class TestPerComponentKappa:
    """A SKEW-like model with one concentration per component, against
    quadrature of its density written out with scipy's I_0."""

    MUS, KAPPAS, WEIGHTS = (0.0, 1.5), (1.0, 6.0), (0.75, 0.25)

    def model(self):
        return MixtureModel(2, self.MUS, self.KAPPAS, self.WEIGHTS)

    @staticmethod
    def integral(fn):
        return quad(fn, -np.pi, np.pi, epsabs=1e-14, limit=200)[0]

    def density(self, t):
        return sum(
            w * math.exp(k * math.cos(t - m)) / (2.0 * np.pi * i0(k))
            for m, k, w in zip(self.MUS, self.KAPPAS, self.WEIGHTS)
        )

    def test_density_matches_closed_form(self):
        m = self.model()
        for t in np.linspace(-np.pi, np.pi, 13):
            assert mixture_density(m, t) == pytest.approx(self.density(t), rel=1e-13)

    def test_fourier_matches_quadrature(self):
        m = self.model()
        coeffs = mixture_fourier(m, 12)
        for j in range(1, 13):
            a = self.integral(lambda t: mixture_density(m, t) * math.cos(j * t))
            b = self.integral(lambda t: mixture_density(m, t) * math.sin(j * t))
            assert coeffs[j - 1, 0] == pytest.approx(a, abs=1e-12)
            assert coeffs[j - 1, 1] == pytest.approx(b, abs=1e-12)

    def test_roughness_matches_quadrature(self):
        m = self.model()
        target = self.integral(lambda t: mixture_density(m, t) ** 2)
        assert psi_from_model(m, 0) == pytest.approx(target, rel=1e-10)

        def deriv(t):
            return sum(
                -w * k * math.sin(t - mu) * math.exp(k * math.cos(t - mu)) / (2.0 * np.pi * i0(k))
                for mu, k, w in zip(self.MUS, self.KAPPAS, self.WEIGHTS)
            )

        target = self.integral(lambda t: deriv(t) ** 2)
        assert psi_from_model(m, 2) == pytest.approx(-target, rel=1e-10)

    def test_zero_kappa_component(self):
        m = MixtureModel(2, [0.0, 1.0], [0.0, 3.0], [0.5, 0.5])
        assert self.integral(lambda t: mixture_density(m, t)) == pytest.approx(1.0, abs=1e-12)
        target = self.integral(lambda t: mixture_density(m, t) ** 2)
        assert psi_from_model(m, 0) == pytest.approx(target, rel=1e-10)

    def test_shared_kappa_scalar_or_repeated(self):
        mus, w = [0.2, 2.1, -1.7], [0.2, 0.5, 0.3]
        scalar = MixtureModel(3, mus, 4.0, w)
        repeated = MixtureModel(3, mus, [4.0, 4.0, 4.0], w)
        t = np.linspace(-np.pi, np.pi, 33)
        np.testing.assert_allclose(
            mixture_density(repeated, t), mixture_density(scalar, t), rtol=1e-14
        )
        np.testing.assert_allclose(
            mixture_fourier(repeated, 40), mixture_fourier(scalar, 40), rtol=1e-14, atol=0
        )
        for s in (0, 2, 4, 6):
            assert psi_from_model(repeated, s) == pytest.approx(
                psi_from_model(scalar, s), rel=1e-14
            )

    def test_json_kappa_form(self):
        per = json.loads(self.model().to_json())
        assert per["kappa"] == [1.0, 6.0]
        shared = json.loads(MixtureModel(2, [0.0, 1.5], 3.0, [0.4, 0.6]).to_json())
        assert shared["kappa"] == 3.0 and isinstance(shared["kappa"], float)


class TestFitEm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(42)
        sample = CircularSample.from_data(rng.vonmises(1.0, 3.0, 200))
        report = fit_em(sample, 1, seed=0)
        C = float(np.sum(np.cos(sample.angles)))
        S = float(np.sum(np.sin(sample.angles)))
        mean_dir = math.atan2(S, C)
        rbar = math.hypot(C, S) / sample.n
        assert report.model.mus[0] == pytest.approx(mean_dir, abs=1e-9)
        assert report.model.kappa == pytest.approx(inv_bessel_ratio(rbar), rel=1e-8)
        assert report.model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert report.converged

    def test_flat_sample_gives_small_kappa(self):
        sample = CircularSample.from_data(
            np.linspace(-np.pi, np.pi, 100, endpoint=False)
        )
        report = fit_em(sample, 1, seed=0)
        assert report.model.kappa == pytest.approx(0.0, abs=1e-6)
        assert report.loglik == pytest.approx(-100 * math.log(2.0 * np.pi), rel=1e-9)

    def test_loglik_matches_literal_loop(self):
        sample = two_component_sample(60, seed=1)
        report = fit_em(sample, 2, seed=0)
        assert report.loglik == pytest.approx(loop_loglik(sample, report.model), rel=1e-9)

    def test_parameter_recovery(self):
        sample = two_component_sample(2000, seed=7)
        report = fit_em(sample, 2, seed=0)
        model = report.model
        order = np.argsort(np.abs(model.mus))
        mus = model.mus[order]
        weights = model.weights[order]
        assert mus[0] == pytest.approx(0.0, abs=0.1)
        assert abs(abs(mus[1]) - np.pi) < 0.1
        assert model.kappa == pytest.approx(8.0, rel=0.15)
        assert weights[0] == pytest.approx(0.5, abs=0.05)

    def test_aic_formula(self):
        sample = two_component_sample(80, seed=3)
        for M in (1, 2, 3):
            report = fit_em(sample, M, seed=0)
            assert report.aic == pytest.approx(-2.0 * report.loglik + 4.0 * M, rel=1e-12)

    def test_loglik_monotone_along_path(self):
        sample = two_component_sample(150, seed=5)
        report = fit_em(sample, 3, seed=2)
        path = np.array(report.loglik_path)
        assert np.all(np.diff(path) >= -1e-8 * np.maximum(np.abs(path[:-1]), 1.0))

    def test_rotation_equivariance(self):
        sample = two_component_sample(300, seed=11)
        base = fit_em(sample, 2, seed=4)
        c = 1.234
        rotated = CircularSample.from_data(sample.angles + c)
        shifted = fit_em(rotated, 2, seed=4)
        assert shifted.loglik == pytest.approx(base.loglik, abs=1e-6)
        assert shifted.model.kappa == pytest.approx(base.model.kappa, rel=1e-6)
        base_mus = np.sort((base.model.mus + c + 4 * np.pi) % (2 * np.pi))
        shifted_mus = np.sort((shifted.model.mus + 4 * np.pi) % (2 * np.pi))
        np.testing.assert_allclose(shifted_mus, base_mus, atol=1e-6)
        np.testing.assert_allclose(
            np.sort(shifted.model.weights), np.sort(base.model.weights), atol=1e-6
        )

    def test_preconditions(self):
        sample = two_component_sample(5, seed=0)
        with pytest.raises(ValueError):
            fit_em(sample, 3, seed=0)
        with pytest.raises(ValueError):
            fit_em(sample, 0, seed=0)

    def test_degenerate_data_raises(self):
        sample = CircularSample.from_data(np.full(10, 0.3))
        with pytest.raises(FitError):
            fit_em(sample, 1, seed=0)


class TestFitMemo:
    """fit_em keeps its report on the sample, keyed by every argument."""

    @staticmethod
    def _count_fits(monkeypatch):
        """Record M for every EM run and every closed-form M = 1 fit."""
        calls = []
        fit_von_mises = mixture._fit_von_mises

        def counted(*args, **kwargs):
            calls.append(args[1])
            return em_once(*args, **kwargs)

        def counted_closed_form(sample):
            calls.append(1)
            return fit_von_mises(sample)

        monkeypatch.setattr(mixture, "_em_once", counted)
        monkeypatch.setattr(mixture, "_fit_von_mises", counted_closed_form)
        return calls

    def test_selectors_on_one_sample_fit_once(self, monkeypatch):
        calls = self._count_fits(monkeypatch)
        sample = two_component_sample(300, seed=21)
        cfg = SelectorConfig()
        for select in (select_rt, select_dpi, select_ste):
            select(sample, cfg)
        assert calls == [1]
        select_rt(two_component_sample(300, seed=21), cfg)
        assert calls == [1, 1]

    def test_other_arguments_refit(self, monkeypatch):
        calls = self._count_fits(monkeypatch)
        sample = two_component_sample(300, seed=22)
        first = fit_em(sample, 2, seed=0)
        assert fit_em(sample, 2, seed=0) is first
        n_first = len(calls)
        fit_em(sample, 2, seed=1)
        assert len(calls) == 2 * n_first
        fit_em(sample, 1, seed=0)
        fit_em(sample, 2, seed=0, tol=1e-10)
        assert len(calls) == 2 * n_first + 1 + n_first
        assert fit_em(sample, 2, seed=1) is not first

    def test_report_arrays_are_read_only(self):
        report = fit_em(two_component_sample(100, seed=23), 2, seed=0)
        for arr in (report.model.mus, report.model.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _centred_em_fit(sample):
    """The one-component fit by an EM run on the data centred at their
    circular mean, as fit_em ran it before the closed form: (mu, kappa,
    log-likelihood)."""
    C = float(np.sum(np.cos(sample.angles)))
    S = float(np.sum(np.sin(sample.angles)))
    frame = math.atan2(S, C)
    x = kernels.wrap_angle(sample.angles - frame)
    kappa0 = max(inv_bessel_ratio(min(math.hypot(C, S) / sample.n, 0.999)), 1.0)
    mus, kappa, _, ll, _, converged, _, degenerate = em_once(x, 1, [np.median(x)], kappa0)
    assert converged and not degenerate
    return float(mus[0]) + frame, kappa, ll


class TestClosedFormFit:
    """fit_em(sample, 1) is the von Mises MLE without EM."""

    @pytest.mark.parametrize("n", [2, 30, 100, 10_000])
    def test_matches_centred_em(self, n):
        for k, model in enumerate(builtin_models()):
            sample = model.sampler(np.random.default_rng([n, k]), n)
            mu, kappa, ll = _centred_em_fit(sample)
            report = fit_em(sample, 1)
            gap = (report.model.mus[0] - mu + np.pi) % (2 * np.pi) - np.pi
            assert abs(gap) <= 1e-12, model.name
            assert report.model.kappa == pytest.approx(kappa, rel=1e-12, abs=0.0), model.name
            assert report.loglik == pytest.approx(ll, rel=1e-12, abs=0.0), model.name

    def test_report_fields(self):
        sample = two_component_sample(200, seed=31)
        report = fit_em(sample, 1, seed=5, tol=1e-3)
        assert (report.iterations, report.converged) == (0, True)
        assert report.loglik_path == (report.loglik,)
        assert report.aic == -2.0 * report.loglik + 4.0
        assert report.loglik == pytest.approx(loop_loglik(sample, report.model), rel=1e-12)
        assert list(report.model.weights) == [1.0]

    def test_no_em_and_no_trig_pass_of_its_own(self, monkeypatch):
        sample = two_component_sample(500, seed=32)
        sample._sorted  # built by the direct kernel sums in the selectors

        def refused(*args, **kwargs):
            raise AssertionError("no EM run or trigonometric pass expected")

        monkeypatch.setattr(mixture, "_em_once", refused)
        monkeypatch.setattr(np, "cos", refused)
        monkeypatch.setattr(np, "sin", refused)
        report = fit_em(sample, 1)
        monkeypatch.undo()
        C = float(np.sum(np.cos(sample.angles)))
        S = float(np.sum(np.sin(sample.angles)))
        assert report.model.mus[0] == pytest.approx(math.atan2(S, C), abs=1e-12)

    def test_mean_direction_at_pi_is_wrapped(self):
        sample = CircularSample.from_data([np.pi - 0.1, -np.pi + 0.1, -np.pi])
        mu = fit_em(sample, 1).model.mus[0]
        assert -np.pi <= mu < np.pi
        assert abs(abs(mu) - np.pi) <= 1e-12

    def test_large_kappa_has_no_cap(self):
        # EM for M >= 2 degenerates past mixture._KAPPA_CAP; M = 1 has no cap
        sample = CircularSample.from_data(np.random.default_rng(1).vonmises(0.5, 1e8, 100))
        report = fit_em(sample, 1)
        assert report.model.kappa > 100 * mixture._KAPPA_CAP
        C, S = sample.resultant()
        R = math.hypot(C, S)
        assert bessel_ratios(report.model.kappa, 1).ratios[1] == pytest.approx(R / 100, rel=1e-15)


class TestSelectAic:
    def test_single_candidate_matches_fit(self):
        sample = two_component_sample(100, seed=2)
        direct = fit_em(sample, 1, seed=9)
        chosen = select_aic(sample, 1, seed=9)
        assert chosen.aic == pytest.approx(direct.aic, rel=1e-12)
        assert chosen.model.M == 1

    def test_bimodal_sample_selects_at_least_two(self):
        sample = two_component_sample(400, seed=13)
        chosen = select_aic(sample, 4, seed=0)
        assert chosen.model.M >= 2

    def test_uniform_sample_mostly_selects_one(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sample = CircularSample.from_data(rng.uniform(-np.pi, np.pi, 120))
            chosen = select_aic(sample, 5, seed=seed)
            hits += chosen.model.M == 1
        assert hits >= 18

    def test_all_failures_propagate(self):
        sample = CircularSample.from_data(np.full(12, -1.0))
        with pytest.raises(FitError):
            select_aic(sample, 3, seed=0)


class TestMixtureFourier:
    def test_uniform_zero_coefficients(self):
        model = MixtureModel(1, np.array([0.7]), 0.0, np.array([1.0]))
        coeffs = mixture_fourier(model, 6)
        np.testing.assert_array_equal(coeffs, 0.0)

    def test_single_component_bessel_ratios(self):
        model = MixtureModel(1, np.array([0.0]), 3.0, np.array([1.0]))
        coeffs = mixture_fourier(model, 5)
        from circkde.special import bessel_ratios

        ratios = bessel_ratios(3.0, 5).ratios
        for j in range(1, 6):
            assert coeffs[j - 1, 0] == pytest.approx(ratios[j], rel=1e-12)
            assert coeffs[j - 1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_density_reconstruction(self):
        model = MixtureModel(
            2, np.array([-0.5, 2.0]), 50.0, np.array([0.35, 0.65])
        )
        coeffs = mixture_fourier(model, 300)
        js = np.arange(1, 301)

        def series(t):
            harmonics = coeffs[:, 0] * np.cos(js * t) + coeffs[:, 1] * np.sin(js * t)
            return (1.0 + 2.0 * float(np.sum(harmonics))) / (2.0 * np.pi)

        for t in np.linspace(-np.pi, np.pi, 17):
            assert series(t) == pytest.approx(mixture_density(model, t), abs=1e-8)

    def test_rejects_bad_order(self):
        model = MixtureModel(1, np.array([0.0]), 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            mixture_fourier(model, 0)


class TestMixtureDensity:
    def test_normalizes(self):
        model = MixtureModel(
            3, np.array([-2.0, 0.3, 2.5]), 6.0, np.array([0.2, 0.5, 0.3])
        )
        total, _ = quad(lambda t: mixture_density(model, t), -np.pi, np.pi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_uniform_height(self):
        model = MixtureModel(1, np.array([0.0]), 0.0, np.array([1.0]))
        assert mixture_density(model, 1.7) == pytest.approx(1.0 / (2.0 * np.pi))


class TestPsiFromModel:
    def test_overflowing_harmonic_series_raises_without_a_warning(self):
        # j^180 passes 1e308 from j = 52, inside the first block
        model = MixtureModel(1, np.array([0.0]), 2.0, np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="leaves the float range"):
                psi_from_model(model, 180)

    def test_uniform_values(self):
        model = MixtureModel(1, np.array([0.0]), 0.0, np.array([1.0]))
        assert psi_from_model(model, 0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
        for s in (2, 4, 8):
            assert psi_from_model(model, s) == 0.0

    def test_single_von_mises_roughness(self):
        model = MixtureModel(1, np.array([0.0]), 1.0, np.array([1.0]))
        # I_0(2) / (2 pi I_0(1)^2) at 25 digits
        assert psi_from_model(model, 0) == pytest.approx(
            0.2263410736471501206456, rel=1e-10
        )
        target, _ = quad(lambda t: mixture_density(model, t) ** 2, -np.pi, np.pi)
        assert psi_from_model(model, 0) == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("s", [0, 2, 4, 6, 8])
    def test_matches_quadrature_of_squared_derivative(self, s):
        model = MixtureModel(
            2, np.array([0.0, 2.4]), 12.0, np.array([0.6, 0.4])
        )
        coeffs = mixture_fourier(model, 400)
        js = np.arange(1, 401)
        u = s // 2
        phase = u * np.pi / 2.0

        def deriv(t):
            if u == 0:
                return mixture_density(model, t)
            harm = coeffs[:, 0] * np.cos(js * t + phase) + coeffs[:, 1] * np.sin(
                js * t + phase
            )
            return float(js**u @ harm) / np.pi

        target, err = quad(lambda t: deriv(t) ** 2, -np.pi, np.pi, limit=400)
        assert psi_from_model(model, s) == pytest.approx(
            (-1.0) ** u * target, rel=1e-6, abs=1e-6
        )

    def test_sign_alternation(self):
        model = MixtureModel(1, np.array([0.5]), 4.0, np.array([1.0]))
        for s in (2, 4, 6, 8):
            expected = 1.0 if s % 4 == 0 else -1.0
            assert math.copysign(1.0, psi_from_model(model, s)) == expected

    def test_symmetric_mixture_not_truncated_early(self):
        # four-fold symmetric: harmonics vanish except at multiples of 4
        mus = np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])
        model = MixtureModel(4, mus, 10.0, np.full(4, 0.25))
        coeffs = mixture_fourier(model, 8)
        assert np.all(np.abs(coeffs[:3]) < 1e-12)  # j = 1..3 vanish
        assert abs(coeffs[3, 0]) > 1e-3  # j = 4 carries mass
        target, _ = quad(lambda t: mixture_density(model, t) ** 2, -np.pi, np.pi)
        assert psi_from_model(model, 0) == pytest.approx(target, rel=1e-9)

    def test_rejects_odd_order(self):
        model = MixtureModel(1, np.array([0.0]), 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            psi_from_model(model, 3)

    def test_equivariance_of_psi(self):
        model = MixtureModel(2, np.array([0.1, 1.9]), 5.0, np.array([0.5, 0.5]))
        rotated = MixtureModel(
            2, np.array([0.1 + 0.8, 1.9 + 0.8]), 5.0, np.array([0.5, 0.5])
        )
        for s in (0, 2, 4):
            assert psi_from_model(rotated, s) == pytest.approx(
                psi_from_model(model, s), rel=1e-12
            )


def _psi_terms_loop(model, s, rel_tol):
    """Frozen term-by-term tail rule of psi_from_model, with one ratio
    table for the coefficients and another for the envelope in each
    block, within the term limit of kappa's ratio series at growth s: the
    reference for the vectorised rule."""
    max_terms = bessel_ratio_span(model.kappa, s)
    terms = []
    envelope_total = 0.0
    consec = 0
    j0 = 1
    block = 64
    while j0 <= max_terms:
        hi = min(j0 + block - 1, max_terms)
        coeffs = mixture_fourier(model, hi)[j0 - 1 :]
        js = np.arange(j0, hi + 1, dtype=float)
        ratios = bessel_ratios(model.kappa, hi).ratios[j0:]
        env = js**s * ratios**2
        vals = js**s * (coeffs[:, 0] ** 2 + coeffs[:, 1] ** 2)
        for k in range(len(js)):
            terms.append(vals[k])
            envelope_total += env[k]
            if env[k] <= rel_tol * max(envelope_total, 1e-300):
                consec += 1
                if consec >= 3:
                    return np.array(terms)
            else:
                consec = 0
        j0 = hi + 1
        block = min(block * 2, 4096)
    raise ToleranceError("budget exhausted")


def _tail_rule_models():
    rng = np.random.default_rng(5)
    models = []
    for kappa in (0.05, 0.7, 3.0, 12.0, 41.0, 250.0, 3000.0, 2.0e5):
        for M in (1, 2, 4):
            mus = np.pi / 2 * np.arange(M) if M == 4 else rng.uniform(-np.pi, np.pi, M)
            models.append(MixtureModel(M, mus, kappa, np.full(M, 1.0 / M)))
    return models


class TestPsiTailRule:
    # the symmetric four-component models have harmonics only at multiples
    # of 4; a tail rule at 1e-200 runs past the first block of every model
    # and through the term limit of most
    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-200])
    def test_matches_term_by_term_loop(self, rel_tol, monkeypatch):
        monkeypatch.setattr(kernels, "_TAIL_REL_TOL", rel_tol)
        errors = 0
        for model in _tail_rule_models():
            for s in (0, 2, 4, 6, 8, 10):
                try:
                    expect = _psi_terms_loop(model, s, rel_tol)
                except ToleranceError:
                    errors += 1
                    with pytest.raises(ToleranceError):
                        _psi_terms(model, s)
                    continue
                got = _psi_terms(model, s)
                assert len(got) == len(expect), (model, s)
                assert np.array_equal(got, expect), (model, s)
                sign = -1.0 if s % 4 == 2 else 1.0
                base = 1.0 / (2.0 * np.pi) if s == 0 else 0.0
                value = base + sign * math.fsum(expect) / np.pi
                assert psi_from_model(model, s) == value
        # at the tail rule's own tolerance no series outgrows its limit
        assert (errors > 0) == (rel_tol == 1e-200)
