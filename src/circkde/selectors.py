"""Data-driven smoothing selection.

Five selectors share one result type:

  * direct plug-in (DPI): the functional in the optimal-bandwidth
    formula is estimated from the data through a cascade of pilot
    kernels, seeded by an AIC-chosen mixture
  * rule of thumb (RT): the same cascade at zero pilot stages, so a
    single fitted von Mises supplies the functional
  * solve-the-equation (STE): the pilot concentration is tied to the
    final bandwidth through a function gamma, and the bandwidth solves a
    fixed-point equation
  * likelihood cross-validation (LCV): maximizes the leave-one-out
    log-likelihood over the bandwidth scale
  * gold standard (GS): simulation-only oracle minimizing the realized
    integrated squared error against the known truth

Every selector degrades to the uniform answer (nu = 0) instead of
raising when the numbers go degenerate; the trace records each stage and
any fallback reason.
"""

import enum
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BracketingError, FitError, ToleranceError, UnsupportedKernelError
from .estimators import _kde_rows, grid_ise, ise_weights, kde_values, psi_hat
from .kernels import (
    UNIFORM_BANDWIDTH,
    KernelFamily,
    KernelSpec,
    bandwidth,
    concentration_from_bandwidth,
    kernel_constants,
    roughness,
)
from .mixture import psi_from_model, select_aic
from .special import find_root

__all__ = [
    "SelectorMethod",
    "SelectorConfig",
    "TraceEntry",
    "SmoothingSelection",
    "amise_value",
    "optimal_h_amise",
    "pilot_h_amse",
    "select_rt",
    "select_dpi",
    "select_ste",
    "select_lcv",
    "select_gold",
    "default_gold_grid",
    "SELECTORS",
]

_PILOT_FAMILIES = (KernelFamily.VONMISES, KernelFamily.WRAPPEDNORMAL)
# bandwidth bracket and tolerance of the solve-the-equation root.  Pilots
# narrow as n grows: on kappa 5e5-7e5 samples the widest has kappa 4.6e6 and
# 15 679 terms at n = 1e4, and kappa 2.4e7 and 34 842 terms at n = 1e6
_STE_BRACKET = (1e-6, UNIFORM_BANDWIDTH - 1e-6)
_STE_TOL = 1e-8
# numeric failures that downgrade a selector to the uniform fallback
_SOFT_ERRORS = (FitError, ToleranceError, BracketingError, UnsupportedKernelError)


class SelectorMethod(str, enum.Enum):
    RT = "rt"
    DPI = "dpi"
    STE = "ste"
    LCV = "lcv"
    GS = "gs"


@dataclass(frozen=True)
class SelectorConfig:
    """Options shared by the selectors.

    ``nstage`` is the number of data-based refinement stages in the
    plug-in cascade; ``M_max`` bounds the reference mixture size.
    """

    kernel_family: KernelFamily = KernelFamily.VONMISES
    pilot_family: KernelFamily = KernelFamily.VONMISES
    r: int = 0
    nstage: int = 2
    M_max: int = 1
    exact_inversion: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kernel_family", KernelFamily(self.kernel_family))
        object.__setattr__(self, "pilot_family", KernelFamily(self.pilot_family))
        if self.pilot_family not in _PILOT_FAMILIES:
            raise ValueError(
                f"pilot family must support peak constants at every order; "
                f"got {self.pilot_family.value}"
            )
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        # rejects kernels without variance constants at this order
        kernel_constants(self.kernel_family, self.r)
        if self.nstage < 1:
            raise ValueError(f"nstage must be positive, got {self.nstage}")
        if self.M_max < 1:
            raise ValueError(f"M_max must be positive, got {self.M_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class TraceEntry:
    """One audited stage: a functional estimate and the pilot that made it."""

    label: str
    psi: float | None = None
    pilot_h: float | None = None
    pilot_nu: float | None = None


@dataclass(frozen=True)
class SmoothingSelection:
    nu: float
    h: float
    kappa_or_lambda: float | None
    method: SelectorMethod
    fallback_uniform: bool
    trace: tuple = field(default=())

    def to_json(self):
        return json.dumps(asdict(self))


def amise_value(h, psi_2r4, n, family, r):
    """Asymptotic mean integrated squared error at bandwidth h:
    squared-bias term h^2/4 times the derivative roughness of the truth,
    plus the variance term from the kernel's roughness constant."""
    q2 = kernel_constants(family, r).q2
    rough_truth = (-1.0) ** r * psi_2r4
    return 0.25 * h * h * rough_truth + q2 * h ** (-(2 * r + 1) / 2.0) / n


def optimal_h_amise(psi_2r4, n, family, r):
    """Bandwidth minimizing the asymptotic MISE given psi_{2r+4}.

    Returns math.inf when the functional has the wrong sign or vanishes
    (the truth looks uniform)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    denom = n * (-1.0) ** r * psi_2r4
    if denom <= 0.0:
        return math.inf
    q2 = kernel_constants(family, r).q2
    return ((2 * r + 1) * q2 / denom) ** (2.0 / (2 * r + 5))


def pilot_h_amse(psi_s2, n, family, s):
    """Pilot bandwidth minimizing the asymptotic MSE of psi_hat at order s,
    given psi_{s+2}.  The sign conditions make the base positive; a
    wrong-signed or vanishing input yields math.inf."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if s < 0 or s % 2 != 0:
        raise ValueError(f"s must be even and nonnegative, got {s}")
    q1 = kernel_constants(family, s).q1
    base = -2.0 * q1 / (n * psi_s2) if psi_s2 != 0.0 else -1.0
    if base <= 0.0:
        return math.inf
    return base ** (2.0 / (s + 3))


def _selection(method, spec, trace, fallback=False):
    """The one constructor of SmoothingSelection: the pick at kernel
    ``spec``; the uniform density (nu = 0) reports no concentration."""
    return SmoothingSelection(
        nu=spec.nu,
        h=bandwidth(spec),
        kappa_or_lambda=spec.concentration if spec.nu > 0.0 else None,
        method=method,
        fallback_uniform=fallback,
        trace=tuple(trace),
    )


def _fallback(cfg, method, trace, reason):
    """The uniform density of the configured family, flagged as a fallback."""
    uniform = KernelSpec.from_nu(cfg.kernel_family, 0.0)
    return _selection(method, uniform, [*trace, TraceEntry(label=f"fallback:{reason}")], fallback=True)


def _finalize(h_target, cfg, method, trace):
    """Invert the target bandwidth for the final kernel and package up."""
    if h_target == math.inf:
        return _fallback(cfg, method, trace, "uniform-functional")
    spec = concentration_from_bandwidth(
        cfg.kernel_family, float(h_target), exact=cfg.exact_inversion
    )
    if spec.nu == 0.0:
        return _fallback(cfg, method, trace, "bandwidth-at-uniform")
    final = TraceEntry(label="final", pilot_h=float(h_target), pilot_nu=spec.nu)
    return _selection(method, spec, [*trace, final])


def _pilot(cfg, pilot_h):
    """Pilot kernel at the given bandwidth; uniform (nu = 0) at h = inf."""
    return concentration_from_bandwidth(
        cfg.pilot_family, float(pilot_h), exact=cfg.exact_inversion
    )


def _require_two(sample, what):
    if sample.n < 2:
        raise ValueError(f"{what} needs at least 2 observations")


def _dpi_h(sample, cfg, trace, stages, M_max):
    """The plug-in cascade: the reference functional of the AIC fit of at
    most M_max components, refined through ``stages`` pilot kernels;
    returns the target bandwidth, math.inf where it has no finite one."""
    r = cfg.r
    report = select_aic(sample, M_max, seed=cfg.seed)
    order = 2 * r + 2 * stages + 4
    psi = psi_from_model(report.model, order)
    trace.append(TraceEntry(label=f"psi{order}:reference", psi=psi))
    for s in range(2 * r + 2 * stages + 2, 2 * r + 3, -2):
        pilot_h = pilot_h_amse(psi, sample.n, cfg.pilot_family, s)
        pilot = _pilot(cfg, pilot_h)
        if pilot.nu == 0.0:
            return math.inf
        psi = psi_hat(sample, pilot, s).value
        trace.append(
            TraceEntry(
                label=f"psi{s}:pilot",
                psi=psi,
                pilot_h=float(pilot_h),
                pilot_nu=pilot.nu,
            )
        )
    return optimal_h_amise(psi, sample.n, cfg.kernel_family, r)


def _plugin_selection(sample, cfg, method, stages, M_max, reason):
    """The cascade of _dpi_h, finalized; a numeric failure falls back to
    the uniform density with the given reason."""
    trace = []
    try:
        h = _dpi_h(sample, cfg, trace, stages, M_max)
    except _SOFT_ERRORS:
        return _fallback(cfg, method, trace, reason)
    return _finalize(h, cfg, method, trace)


def select_rt(sample, cfg):
    """Rule of thumb: the plug-in cascade at zero pilot stages, so a
    one-component von Mises fit stands in for the truth."""
    _require_two(sample, "the rule of thumb")
    return _plugin_selection(sample, cfg, SelectorMethod.RT, 0, 1, "reference-fit")


def select_dpi(sample, cfg):
    """Multi-stage direct plug-in selection."""
    _require_two(sample, "direct plug-in")
    return _plugin_selection(
        sample, cfg, SelectorMethod.DPI, cfg.nstage, cfg.M_max, "cascade-error"
    )


def _ste_gap(sample, cfg, trace):
    """The fixed-point gap g(h) = h - X(h) and the plug-in bandwidth X(h)
    that it compares with h, whose pilot bandwidth is gamma(h); None when
    the pilot chain that builds gamma degenerates.

    X(h) is None where the pilot is uniform or the functional has the
    wrong sign, and g is then strongly negative.  Each X(h) costs a
    psi_hat with a fresh pilot kernel and is computed once per h.  X is
    nondecreasing in h: gamma grows with h, so the pilot concentration
    falls, and every term of (-1)^r psi_hat then shrinks (I_j / I_0 grows
    with kappa, Amos 1974; rho^(j^2) with rho).
    """
    r = cfg.r
    n = sample.n
    report = select_aic(sample, cfg.M_max, seed=cfg.seed)
    psi_ref_6 = psi_from_model(report.model, 2 * r + 6)
    psi_ref_8 = psi_from_model(report.model, 2 * r + 8)
    trace.append(TraceEntry(label=f"psi{2 * r + 6}:reference", psi=psi_ref_6))
    trace.append(TraceEntry(label=f"psi{2 * r + 8}:reference", psi=psi_ref_8))

    rho1 = _pilot(cfg, pilot_h_amse(psi_ref_6, n, cfg.pilot_family, 2 * r + 4))
    rho2 = _pilot(cfg, pilot_h_amse(psi_ref_8, n, cfg.pilot_family, 2 * r + 6))
    if rho1.nu == 0.0 or rho2.nu == 0.0:
        return None
    psi_low = psi_hat(sample, rho1, 2 * r + 4).value
    psi_high = psi_hat(sample, rho2, 2 * r + 6).value
    trace.append(TraceEntry(label=f"psi{2 * r + 4}:pilot", psi=psi_low, pilot_nu=rho1.nu))
    trace.append(TraceEntry(label=f"psi{2 * r + 6}:pilot", psi=psi_high, pilot_nu=rho2.nu))

    q1 = kernel_constants(cfg.pilot_family, 2 * r + 4).q1
    q2 = kernel_constants(cfg.kernel_family, r).q2
    if psi_high == 0.0:
        return None
    inner = ((-1.0) ** (r + 1) * 2.0 * q1 / ((2 * r + 1) * q2)) * (psi_low / psi_high)
    if inner <= 0.0:
        return None
    gamma_scale = inner ** (2.0 / (2 * r + 7))
    gamma_exp = (2 * r + 5) / (2 * r + 7)
    known = {}

    def plugin(h):
        if h not in known:
            x = math.inf
            pilot = _pilot(cfg, gamma_scale * h**gamma_exp)
            # a uniform pilot kills the functional and the implied
            # bandwidth explodes
            if pilot.nu > 0.0:
                psi = psi_hat(sample, pilot, 2 * r + 4).value
                x = optimal_h_amise(psi, n, cfg.kernel_family, r)
            known[h] = None if x == math.inf else x
        return known[h]

    def g(h):
        x = plugin(h)
        return -1e9 * (1.0 + h) if x is None else h - x

    return g, plugin


def select_ste(sample, cfg):
    """Solve-the-equation selection: the bandwidth is the fixed point of
    the plug-in formula with a bandwidth-dependent pilot.

    The root is the first one of a 32-point log prescan of g(h) = h - X(h)
    (_first_root).  Each value costs a psi_hat with a fresh pilot kernel,
    so the prescan reads most signs off the nondecreasing plug-in
    bandwidth X instead (_certified_prescan); the root and the trace are
    those of the full scan.  Without a sign change in the bracket the
    plug-in cascade of select_dpi gives the bandwidth."""
    _require_two(sample, "solve-the-equation")
    trace = []
    try:
        gap = _ste_gap(sample, cfg, trace)
        if gap is None:
            return _fallback(cfg, SelectorMethod.STE, trace, "pilot-chain")
        # the root that Brent returns and the ends of the first prescan
        # have been evaluated before, so the residual and the fallback
        # reuse their values
        g, plugin = gap
        lo, hi = _STE_BRACKET
        root = _first_root(g, lo, hi, _STE_TOL, trace, plugin)
        if root is None:
            g_lo, g_hi = g(lo), g(hi)
            trace.append(
                TraceEntry(label=f"fallback:no-sign-change:g_ends=({g_lo:.6g},{g_hi:.6g})")
            )
            dpi_trace = []
            h = _dpi_h(sample, cfg, dpi_trace, cfg.nstage, cfg.M_max)
            trace.extend(dpi_trace)
            return _finalize(h, cfg, SelectorMethod.STE, trace)
        trace.append(TraceEntry(label="ste-residual", psi=abs(g(root)), pilot_h=root))
    except _SOFT_ERRORS:
        return _fallback(cfg, SelectorMethod.STE, trace, "numeric-error")
    return _finalize(root, cfg, SelectorMethod.STE, trace)


def _first_root(g, lo, hi, tol, trace, plugin=None):
    """First root of g on [lo, hi] in scan order of a 32-point log prescan:
    an exact zero of the prescan or a sign change between neighbours,
    whichever comes first; records multiplicity when the prescan shows
    several sign changes.  A sign change is refined by find_root, which
    reuses the prescan's values at the two ends.

    ``plugin``, when given, is a nondecreasing X with g(h) = h - X(h)
    (None where g has no finite X), as for the STE gap: the prescan then
    evaluates only the points whose sign no value before certifies
    (_certified_prescan), and the ends of the first sign change on
    demand.  The signs, the root and the trace are those of the full scan.
    """
    hs = np.geomspace(lo, hi, 32)
    if plugin is None:
        vals = [g(h) for h in hs]
        signs = np.sign(vals)
    else:
        vals, signs = _certified_prescan(g, plugin, hs)
    flips = [
        k for k in range(len(hs) - 1) if signs[k] != 0 and signs[k + 1] != 0 and signs[k] != signs[k + 1]
    ]
    if len(flips) > 1:
        trace.append(TraceEntry(label=f"ste-multiple-roots:{len(flips)}"))
    for k in range(len(hs)):
        if signs[k] == 0:
            return float(hs[k])
        if flips and k == flips[0]:
            g_lo, g_hi = (g(h) if v is None else v for h, v in zip(hs[k : k + 2], vals[k : k + 2]))
            return find_root(g, hs[k], hs[k + 1], tol=tol, g_lo=g_lo, g_hi=g_hi)
    return None


# relative margin of a sign certificate, far above the relative error that
# the truncated pilot series leaves in X (psi_hat within 2.6e-11 of the
# long series on zoo samples, n = 30 to 1e4; X within 2/5 of that), so
# that a certified sign is the sign that g would return
_CERT_MARGIN = 1e-6


def _certified_prescan(g, plugin, hs):
    """Signs of g(h) = h - X(h) on the ascending grid hs for a nondecreasing
    X, evaluating g only where no value before fixes the sign.

    One X(h') certifies the grid points on its far side: a larger h below
    X(h') has X(h) >= X(h') > h, so g(h) < 0, and a smaller h above X(h')
    has g(h) > 0; both with the margin _CERT_MARGIN.  A non-finite X
    certifies nothing.  The two ends are evaluated first, the lower one
    first, then the lowest and the highest point left in turn.  Returns
    the values of g (None where a sign was certified) and the signs.
    """
    m = len(hs)
    vals, signs = [None] * m, [None] * m
    left = list(range(1, m - 1))  # interior points whose sign is open
    k, low = 0, True
    while k is not None:
        vals[k] = g(hs[k])
        signs[k] = np.sign(vals[k])
        x = plugin(hs[k])
        if x is not None and math.isfinite(x):
            for j in left:
                if j > k and hs[j] < x * (1.0 - _CERT_MARGIN):
                    signs[j] = -1.0
                elif j < k and hs[j] > x * (1.0 + _CERT_MARGIN):
                    signs[j] = 1.0
            left = [j for j in left if signs[j] is None]
        if k == 0:
            k = m - 1
        elif left:
            k = left.pop(0) if low else left.pop()
            low = not low
        else:
            k = None
    return vals, np.array(signs)


def _lcv_candidates(family, hs, exact):
    """Kernels at the given bandwidths (the uniform density at or beyond
    its bandwidth), their ise_weights matrix (None for a family summed
    directly) and their peak values K(0)."""
    uniform = KernelSpec.from_nu(family, 0.0)
    specs = [
        concentration_from_bandwidth(family, float(h), exact=exact)
        if h < UNIFORM_BANDWIDTH * (1.0 - 1e-12)
        else uniform
        for h in hs
    ]
    peaks = np.array([roughness(s, 0, 1) for s in specs])
    peaks.flags.writeable = False
    return tuple(specs), ise_weights(specs), peaks


@lru_cache(maxsize=16)
def _lcv_table(family, exact):
    """The 64-point LCV bandwidth grid and its candidates as in
    _lcv_candidates; built once per (family, inversion) and shared by
    every sample."""
    hs = np.geomspace(1e-4, UNIFORM_BANDWIDTH, 64)
    hs.flags.writeable = False
    return (hs,) + _lcv_candidates(family, hs, exact)


def _log_likelihood(loo):
    """Sum of the logs of each row of leave-one-out densities; -inf where
    one is nonpositive or not finite."""
    bad = np.any(loo <= 0.0, axis=-1) | ~np.all(np.isfinite(loo), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        objs = np.sum(np.log(loo), axis=-1)
    return np.where(bad, -np.inf, objs)


# Bound on the absolute error of a leave-one-out density from the cosine
# series, in units of K(0).  The density drops the series' tail, at most
# sum_{j > J} alpha_j / pi: up to 1.2e-11 K(0) over the von Mises and
# wrapped normal LCV candidates (kappa near 1e4), reached where the whole
# sample sits at the point (about 2e-12 K(0) on spread samples); the NUFFT
# adds below 1e-15 K(0); the leave-one-out step multiplies by
# n / (n - 1) <= 2.
_SERIES_ERR = 3e-11
# Leave-one-out densities below this fraction of K(0) are summed directly
# where they can matter; above it their relative error is at most
# _SERIES_ERR / _LCV_FLOOR = 3e-5.
_LCV_FLOOR = 1e-6


def _rescore_floor(sample, specs, peaks, loo, objs):
    """Recompute by direct kernel sums the leave-one-out densities that
    the series puts below _LCV_FLOOR K(0), in every candidate that could
    hold the maximum and in the two beside the maximum.  Updates loo and
    objs in place."""
    n = sample.n
    floor = ~(loo >= _LCV_FLOOR * peaks[:, None])
    pending = np.any(floor, axis=1)
    if not pending.any():
        return

    def rescore(g):
        idx = np.flatnonzero(floor[g])
        loo[g, idx] = (n * kde_values(sample, specs[g], sample.angles[idx]) - peaks[g]) / (n - 1)
        objs[g] = _log_likelihood(loo[g])
        pending[g] = False

    # a candidate cannot reach the best clean objective if it stays below
    # it with its small values raised to twice the floor and the others
    # raised by the series' relative error, log(1 + e) <= e per value
    best = np.max(objs[~pending], initial=-np.inf)
    raised = np.fmax(loo, 2.0 * _LCV_FLOOR * peaks[:, None])
    caps = np.sum(np.log(raised), axis=1) + n * (_SERIES_ERR / _LCV_FLOOR)
    for g in np.flatnonzero(pending & (caps >= best)):
        rescore(g)
    top = int(np.argmax(objs))
    for g in (top - 1, top + 1):
        if 0 <= g < len(objs) and pending[g]:
            rescore(g)


def _lcv_objectives(sample, specs, weights, peaks):
    """Leave-one-out log-likelihood of each candidate kernel; -inf where a
    leave-one-out density is nonpositive or not finite.

    The full estimate at the sample points comes from the kernels' cosine
    series on the sample's moments, for every candidate at once; without
    a weight matrix (the wrapped Epanechnikov) each kernel is summed
    directly.  Deleting observation i leaves (n f(x_i) - K(0)) / (n - 1).
    Values the series cannot resolve are summed directly where they can
    change the maximum or its neighbours (_rescore_floor).
    """
    n = sample.n
    loo = (n * _kde_rows(sample, specs, sample.angles, weights) - peaks[:, None]) / (n - 1)
    objs = _log_likelihood(loo)
    # the uniform density's objective, free of the rounding of the sums
    objs[np.array([s.nu == 0.0 for s in specs])] = -n * math.log(2.0 * np.pi)
    if weights is not None:
        _rescore_floor(sample, specs, peaks, loo, objs)
    return objs


def select_lcv(sample, cfg):
    """Likelihood cross-validation over the bandwidth scale.

    Scores 64 log-spaced bandwidths from 1e-4 to the uniform value, then
    takes one parabolic step in log h around the best.  The candidate
    kernels and their weight matrix are built once per (family,
    inversion) and shared by every sample; the leave-one-out densities of
    all candidates come from one pass over the sample's trigonometric
    moments, with values below the series' rounding floor summed directly
    where they can change the maximum or its neighbours.  The wrapped
    Epanechnikov, whose cosine series never meets the truncation
    tolerance, sums its kernels directly.
    """
    _require_two(sample, "cross-validation")
    trace = []
    family, exact = cfg.kernel_family, cfg.exact_inversion

    try:
        hs, specs, weights, peaks = _lcv_table(family, exact)
        objs = _lcv_objectives(sample, specs, weights, peaks)
        best = int(np.argmax(objs))
        if not np.isfinite(objs[best]):
            return _fallback(cfg, SelectorMethod.LCV, trace, "objective-degenerate")
        # one parabolic step off the grid: continuous in the objective
        # values, so roundoff from a data rotation cannot move the answer
        # across an optimizer plateau
        us = np.log(hs)
        u_star = float(us[best])
        if 1 <= best <= len(hs) - 2:
            fa, fb, fc = objs[best - 1], objs[best], objs[best + 1]
            # vertex step is only a maximum for an interior peaked triple
            if np.isfinite(fa) and np.isfinite(fc) and fb >= fa and fb >= fc:
                ua, ub, uc = us[best - 1], us[best], us[best + 1]
                d1 = (ub - ua) ** 2 * (fb - fc) - (ub - uc) ** 2 * (fb - fa)
                d2 = (ub - ua) * (fb - fc) - (ub - uc) * (fb - fa)
                if d2 != 0.0:
                    u_star = float(np.clip(ub - 0.5 * d1 / d2, ua, uc))
        h_star = math.exp(u_star)
        specs, weights, peaks = _lcv_candidates(family, [h_star], exact)
        obj_star = _lcv_objectives(sample, specs, weights, peaks)[0]
        trace.append(TraceEntry(label="lcv-objective", psi=float(obj_star)))
        if h_star >= UNIFORM_BANDWIDTH * (1.0 - 1e-12):
            return _selection(SelectorMethod.LCV, specs[0], trace)
        return _finalize(h_star, cfg, SelectorMethod.LCV, trace)
    except _SOFT_ERRORS:
        return _fallback(cfg, SelectorMethod.LCV, trace, "numeric-error")


# the data-driven selectors by name; the gold standard also needs the truth
SELECTORS = {
    SelectorMethod.RT.value: select_rt,
    SelectorMethod.DPI.value: select_dpi,
    SelectorMethod.STE.value: select_ste,
    SelectorMethod.LCV.value: select_lcv,
}


@lru_cache(maxsize=32)
def default_gold_grid(family):
    """Concentration grid for the gold standard: 200 log-spaced bandwidths
    from 1e-4 up to the uniform value, converted to concentrations, plus
    the uniform point itself."""
    family = KernelFamily(family)
    hs = np.geomspace(1e-4, UNIFORM_BANDWIDTH * (1.0 - 1e-9), 200)
    nus = [0.0]
    for h in hs[::-1]:
        try:
            nus.append(concentration_from_bandwidth(family, float(h)).nu)
        except ValueError:  # bandwidth unreachable within the family
            continue
    out = np.unique(np.asarray(nus))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _gold_table(family, nus):
    """Candidate kernels and their ISE weight matrix for one (family,
    grid); built once and shared by every sample."""
    kernels = tuple(KernelSpec.from_nu(family, nu) for nu in nus)
    return kernels, ise_weights(kernels)


def select_gold(sample, truth, cfg, grid=None):
    """Oracle selection: the grid concentration whose density estimate has
    the smallest realized integrated squared error against the truth.

    ``truth`` is the density as a callable or its values on grid_ise's
    2048-point grid.  The error is grid_ise's periodic trapezoid rule on
    that grid: computed for every candidate at once by discrete Parseval
    from one table of kernel weights per (family, grid), or by direct grid
    sums for the wrapped Epanechnikov.  Ties go to the smaller nu; a
    uniform pick (nu = 0) is not a fallback.
    """
    if grid is None:
        nus = default_gold_grid(cfg.kernel_family)
    else:
        nus = np.sort(np.asarray(grid, dtype=float))  # ascending, for the tie rule
    if len(nus) == 0:
        raise ValueError("gold-standard grid is empty")
    specs, weights = _gold_table(cfg.kernel_family, tuple(map(float, nus)))
    ises = grid_ise(sample, specs, truth, weights=weights)
    best = int(np.argmin(ises))  # first minimum: ties keep the smaller nu
    spec = specs[best]
    trace = [TraceEntry(label="gold-ise", psi=float(ises[best]), pilot_nu=spec.nu)]
    return _selection(SelectorMethod.GS, spec, trace)
