"""Von Mises mixtures: the reference density of the plug-in selectors and
the truths of the Monte-Carlo zoo.

The plug-in selectors need a rough parametric stand-in for the unknown
density to start from.  This module fits an M-component von Mises mixture
whose components share one concentration kappa, picks M by AIC, and
computes the mixture's Fourier coefficients and density functionals
psi_s = int f^(s) f analytically.  A model may also carry one
concentration per component; density, coefficients, functionals and the
sampler accept either form.

One component, the default reference of every plug-in rule, is fitted in
closed form: the von Mises MLE from the sample's first trigonometric
moment, with no iteration.  Two or more components are fitted by EM with
seeded random restarts.  To make that fit equivariant under rotation of
the data, initialization happens in a frame aligned with the sample's
circular mean; the fitted means are rotated back at the end.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError
from .estimators import CircularSample
from .kernels import _tail_series, wrap_angle
from .special import bessel_ratio_span, bessel_ratios, i0e, inv_bessel_ratio

__all__ = [
    "MixtureModel",
    "FitReport",
    "fit_em",
    "select_aic",
    "mixture_density",
    "mixture_fourier",
    "mixture_sample",
    "psi_from_model",
]

# an EM run for M >= 2 degenerates once kappa passes the cap
_KAPPA_CAP = 1e6
_WEIGHT_FLOOR = 1e-10
# the EM budget of every fit: restarts per component count, iterations per run
_EM_RESTARTS = 10
_EM_MAX_ITER = 500


@dataclass(frozen=True)
class MixtureModel:
    """Von Mises mixture.  ``kappa`` is one concentration shared by all
    components (a float) or one per component (an array of length M)."""

    M: int
    mus: np.ndarray
    kappa: float | np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        mus = np.asarray(self.mus, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if self.M < 1 or mus.shape != (self.M,) or weights.shape != (self.M,):
            raise ValueError("component count must match means and weights")
        if (kappa.ndim and kappa.shape != (self.M,)) or np.any(kappa < 0):
            raise ValueError("kappa must be nonnegative, one value or one per component")
        if np.any(weights < -1e-12) or abs(float(np.sum(weights)) - 1.0) > 1e-10:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kappa", kappa if kappa.ndim else float(kappa))

    def __eq__(self, other):
        """Same M and the same means, weights and kappa, elementwise; a
        shared kappa does not equal a per-component array of it."""
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return self.M == other.M and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("mus", "weights", "kappa")
        )

    @property
    def kappas(self):
        """The concentration of each component, length M."""
        return np.full(self.M, self.kappa) if np.ndim(self.kappa) == 0 else self.kappa

    def to_json(self):
        return json.dumps(
            {
                "M": self.M,
                "mus": [float(m) for m in self.mus],
                "kappa": np.asarray(self.kappa).tolist(),
                "weights": [float(w) for w in self.weights],
            }
        )


@dataclass(frozen=True)
class FitReport:
    """A fitted mixture with its log-likelihood and AIC.  ``iterations``
    counts the EM iterations of the best restart; the closed-form
    one-component fit makes none, so it reports 0, converged True and a
    ``loglik_path`` of its one log-likelihood."""

    model: MixtureModel
    loglik: float
    aic: float
    iterations: int
    converged: bool
    loglik_path: tuple = field(default=(), repr=False)


def _log_i0(kappa):
    return math.log(i0e(kappa)) + kappa


def _em_once(x, M, init_means, init_kappa, tol=1e-8):
    """One EM run on centered data.  Returns (params..., degenerate)."""
    n = len(x)
    sin_x, cos_x = np.sin(x), np.cos(x)
    mus = np.array(init_means, dtype=float)
    kappa = float(init_kappa)
    weights = np.full(M, 1.0 / M)
    path = []
    prev_ll = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, _EM_MAX_ITER + 1):
        log_comp = (
            np.log(np.maximum(weights, 1e-300))[None, :]
            + kappa * np.cos(x[:, None] - mus[None, :])
            - _log_i0(kappa)
            - math.log(2.0 * np.pi)
        )
        peak = log_comp.max(axis=1)
        scaled = np.exp(log_comp - peak[:, None])
        row_sum = scaled.sum(axis=1)
        ll = float(np.sum(peak) + np.sum(np.log(row_sum)))
        path.append(ll)
        if prev_ll > -np.inf and abs(ll - prev_ll) <= tol * max(abs(prev_ll), 1.0):
            converged = True
            break
        prev_ll = ll
        gamma = scaled / row_sum[:, None]
        col = gamma.sum(axis=0)
        if np.min(col) < _WEIGHT_FLOOR * n:
            return None, None, None, ll, iterations, False, path, True
        weights = col / n
        sin_m = gamma.T @ sin_x
        cos_m = gamma.T @ cos_x
        mus = np.arctan2(sin_m, cos_m)
        # the resultant of each responsibility-weighted component is already
        # aligned with its updated mean, so the shared-concentration target
        # is a nonnegative average of resultant lengths
        target = float(np.sum(np.hypot(sin_m, cos_m))) / n
        if target >= 1.0 - 1e-12:
            return None, None, None, ll, iterations, False, path, True
        kappa = inv_bessel_ratio(target)
        if kappa > _KAPPA_CAP:
            return None, None, None, ll, iterations, False, path, True
    return mus, kappa, weights, path[-1], iterations, converged, path, False


def _quantile_means(x_sorted, M):
    idx = ((np.arange(M) + 0.5) / M * (len(x_sorted) - 1)).round().astype(int)
    return x_sorted[idx]


def _report(M, mus, kappa, weights, ll, iterations, converged, path):
    model = MixtureModel(M=M, mus=wrap_angle(mus), kappa=kappa, weights=weights)
    # the report is shared by every later call with the same arguments
    model.mus.setflags(write=False)
    model.weights.setflags(write=False)
    return FitReport(
        model=model,
        loglik=float(ll),
        aic=-2.0 * float(ll) + 2.0 * (2 * M),
        iterations=iterations,
        converged=converged,
        loglik_path=tuple(path),
    )


def _fit_von_mises(sample):
    """The one-component fit in closed form: the von Mises MLE mu =
    atan2(S_1, C_1), kappa = A_1^-1(R / n) with R = hypot(C_1, S_1)
    (Banerjee et al. 2005), and its log-likelihood kappa R - n log(2 pi
    I_0(kappa)), written as -kappa (n - R) - n log(2 pi I0e(kappa)) so that
    it does not cancel at large kappa."""
    n = sample.n
    C1, S1 = sample.resultant()
    R = math.hypot(C1, S1)
    if R / n >= 1.0 - 1e-12:
        raise FitError("the sample's mean resultant length is 1: kappa has no finite MLE")
    kappa = inv_bessel_ratio(R / n)
    ll = -kappa * (n - R) - n * math.log(2.0 * np.pi * i0e(kappa))
    return _report(1, [math.atan2(S1, C1)], kappa, [1.0], ll, 0, True, [ll])


def fit_em(sample, M, seed=0, tol=1e-8):
    """Fit the shared-concentration mixture of M von Mises components.

    M = 1 is the von Mises MLE in closed form (_fit_von_mises), with no EM
    and no concentration cap: its report has iterations 0, converged True
    and the one log-likelihood as its path, whatever ``seed`` and ``tol``.
    M >= 2 is best-of-restarts EM: each of 10 restarts runs at most 500
    iterations, stopping once the log-likelihood changes by at most
    ``tol`` relative, and degenerates once kappa passes 1e6.
    Initialization and all randomness are derived from ``seed``; the first
    restart uses plain sample quantiles as means, later ones jitter them.
    The report is memoized on the sample under (M, seed, tol), with
    read-only arrays, so the selectors that share a sample fit once.
    """
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    key = (M, seed, tol)
    if key in sample._fits:
        return sample._fits[key]
    n = sample.n
    if n < 2 * M:
        raise ValueError(f"need at least {2 * M} observations to fit M={M}")
    report = _fit_von_mises(sample) if M == 1 else _fit_mixture(sample, M, seed, tol)
    sample._fits[key] = report
    return report


def _fit_mixture(sample, M, seed, tol):
    """Best of _EM_RESTARTS EM runs for M >= 2 components."""
    n = sample.n
    # work in the frame aligned with the circular mean so a rotated sample
    # takes a rotated-but-otherwise-identical EM trajectory
    C1 = float(np.sum(np.cos(sample.angles)))
    S1 = float(np.sum(np.sin(sample.angles)))
    frame = math.atan2(S1, C1) if (C1 != 0.0 or S1 != 0.0) else 0.0
    x = wrap_angle(sample.angles - frame)
    x_sorted = np.sort(x)
    rbar = min(math.hypot(C1, S1) / n, 0.999)
    kappa0 = max(inv_bessel_ratio(rbar), 1.0)

    best = None
    for r in range(_EM_RESTARTS):
        means = _quantile_means(x_sorted, M).copy()
        if r > 0:
            rng = np.random.default_rng([seed, r])
            means = means + rng.normal(0.0, 0.25, M)
        out = _em_once(x, M, means, kappa0, tol=tol)
        mus, kappa, weights, ll, iters, converged, path, degenerate = out
        if degenerate:
            continue
        if best is None or ll > best[3]:
            best = out
    if best is None:
        raise FitError(f"all {_EM_RESTARTS} EM restarts degenerated for M={M}")
    mus, kappa, weights, ll, iters, converged, path, _ = best
    return _report(M, mus + frame, kappa, weights, ll, iters, converged, path)


def select_aic(sample, M_max, seed=0):
    """Fit M = 1..M_max by fit_em at its default tolerance and keep the
    lowest-AIC fit (ties to smaller M).  Component counts whose fit fails
    are skipped; all failing is an error."""
    if M_max < 1:
        raise ValueError(f"M_max must be positive, got {M_max}")
    best = None
    failures = []
    for M in range(1, M_max + 1):
        if sample.n < 2 * M:
            break
        try:
            report = fit_em(sample, M, seed=seed)
        except FitError as exc:
            failures.append(exc)
            continue
        if best is None or report.aic < best.aic:
            best = report
    if best is None:
        raise FitError(f"no mixture size in 1..{M_max} could be fitted: {failures}")
    return best


def mixture_density(model, theta):
    """Mixture density evaluated at scalar or array angles."""
    th = np.asarray(theta, dtype=float)
    kappas = model.kappas
    # components along the first axis, so each ufunc loop runs over angles
    comp = np.exp(kappas[:, None] * (np.cos(th.ravel() - model.mus[:, None]) - 1.0))
    comp /= 2.0 * np.pi * np.array([[i0e(k)] for k in kappas])
    out = (model.weights @ comp).reshape(th.shape)
    return float(out) if th.ndim == 0 else out


def mixture_sample(model, rng, n):
    """A CircularSample of n draws from the mixture: component labels, then
    each component's von Mises draws, or one uniform draw if all kappa = 0."""
    kappas = model.kappas
    if not np.any(kappas):
        return CircularSample.from_data(rng.uniform(-np.pi, np.pi, n))
    comp = rng.choice(model.M, size=n, p=model.weights)
    out = np.empty(n)
    for m in range(model.M):
        mask = comp == m
        if mask.any():
            out[mask] = rng.vonmises(model.mus[m], kappas[m], mask.sum())
    return CircularSample.from_data(out)


def _harmonics(model, j0, hi):
    """Rows (a_j, b_j), j = j0..hi: for each group of components that
    share a concentration kappa, their weighted phases times
    I_j(kappa)/I_0(kappa).  Also returns those ratios for the largest
    kappa, which bound the ratios of every other group."""
    js = np.arange(j0, hi + 1)
    groups = [(model.kappa, model.mus, model.weights)]
    if np.ndim(model.kappa):
        groups = [
            (k, model.mus[model.kappa == k], model.weights[model.kappa == k])
            for k in np.unique(model.kappa)
        ]
    out = 0.0
    for kappa, mus, weights in groups:  # ascending kappa
        args = js[:, None] * mus[None, :]
        ratios = bessel_ratios(kappa, hi).ratios[j0:]
        a = (np.cos(args) * weights[None, :]).sum(axis=1) * ratios
        b = (np.sin(args) * weights[None, :]).sum(axis=1) * ratios
        out = out + np.column_stack([a, b])
    return out, ratios


def mixture_fourier(model, J):
    """Cosine/sine coefficients of the mixture, rows (a_j, b_j), j = 1..J."""
    if J < 1:
        raise ValueError(f"J must be positive, got {J}")
    return _harmonics(model, 1, J)[0]


def _psi_terms(model, s):
    """The harmonic terms j^s (a_j^2 + b_j^2), j = 1..J, of psi_s, with J
    from the tail rule on the envelope j^s ratio_j(kappa_max)^2 within its
    term limit.  The ratios grow with kappa, so the envelope bounds every
    component."""

    def block_terms(j0, hi):
        coeffs, ratios_max = _harmonics(model, j0, hi)
        powers = np.arange(j0, hi + 1).astype(float) ** s
        envelope = powers * ratios_max**2
        return powers * (coeffs[:, 0] ** 2 + coeffs[:, 1] ** 2), envelope

    kmax = model.kappas.max()
    what = f"mixture harmonic series for s={s}, kappa={model.kappa}"
    return _tail_series(block_terms, bessel_ratio_span(kmax), bessel_ratio_span(kmax, s), what)


def psi_from_model(model, s):
    """psi_s = int f^(s) f for the mixture, via orthogonality of the
    Fourier basis: the harmonics contribute (-1)^(s/2) j^s (a_j^2+b_j^2)/pi.

    The stopping rule runs on the component-independent envelope
    j^s ratio_j(kappa_max)^2, which has no zeros for kappa_max > 0, so
    symmetric mixtures whose odd harmonics vanish are not cut off early;
    at kappa_max = 0 it is zero and stops the series after three terms.
    """
    if s < 0 or s % 2 != 0:
        raise ValueError(f"s must be even and nonnegative, got {s}")
    base = 1.0 / (2.0 * np.pi) if s == 0 else 0.0
    sign = -1.0 if s % 4 == 2 else 1.0
    return base + sign * math.fsum(_psi_terms(model, s)) / np.pi
