"""Special functions and generic numerical routines.

Everything in this module is kernel-agnostic: ratios of modified Bessel
functions, the polylogarithm on the real interval needed by wrapped-Cauchy
closed forms, adaptive quadrature over one period of the circle, and a
bracketed scalar root finder.  Bessel functions and the dilogarithm come
from scipy.special.  Quadrature is scipy's Gauss-Kronrod ``quad``, imported
on the first ``integrate_circle`` call, so that scipy.integrate (and the
scipy.optimize, scipy.linalg and scipy.sparse it loads) stays off the
import path.  Brent's method is an in-house port of scipy's ``brentq``
and gives the same roots bit for bit.  This module pins the domains,
tolerances, and failure modes the rest of the package relies on:

* ValueError for arguments outside a function's domain, including a NaN
  function value inside ``find_root``;
* BracketingError when ``find_root`` gets no sign change;
* ToleranceError, carrying the best estimate, when an iteration or
  quadrature budget runs out before its tolerance is met.
"""

from dataclasses import dataclass, field
from math import fsum, inf, ulp

import numpy as np
from scipy.special import ive, spence

from .errors import BracketingError, ToleranceError

__all__ = [
    "BesselRatioTable",
    "QuadratureConfig",
    "bessel_ratio",
    "bessel_ratios",
    "inv_bessel_ratio",
    "polylog",
    "integrate_circle",
    "find_root",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureConfig:
    """Error budget for adaptive quadrature over the circle."""

    abs_tol: float = 1e-8
    max_subdivisions: int = 200


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class BesselRatioTable:
    """Ratios I_j(kappa)/I_0(kappa) for j = 0..max_order."""

    kappa: float
    max_order: int
    ratios: np.ndarray = field(repr=False)


def bessel_ratio(kappa, order=1):
    """Return I_order(kappa)/I_0(kappa) for kappa >= 0.

    Uses exponentially scaled Bessel functions, so the ratio stays finite
    and accurate for concentrations up to at least 1e6.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        return 1.0 if order == 0 else 0.0
    return float(ive(order, kappa) / ive(0, kappa))


def bessel_ratios(kappa, max_order):
    """Tabulate I_j(kappa)/I_0(kappa) for j = 0..max_order.

    Parameters
    ----------
    kappa : float
        Concentration, >= 0.
    max_order : int
        Largest order j to tabulate, >= 0.

    Returns
    -------
    BesselRatioTable
        ratios[0] is exactly 1; entries decrease monotonically in j.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    orders = np.arange(max_order + 1)
    if kappa == 0.0:
        ratios = np.zeros(max_order + 1)
        ratios[0] = 1.0
    else:
        scaled = ive(orders, kappa)
        ratios = scaled / scaled[0]
        ratios[0] = 1.0
    return BesselRatioTable(kappa=float(kappa), max_order=int(max_order), ratios=ratios)


def _ratio_and_derivative(kappa):
    # d/dk [I1/I0] = 1 - A/k - A^2, with the k->0 limit 1/2
    a = bessel_ratio(kappa, 1)
    if kappa < 1e-8:
        return a, 0.5
    return a, 1.0 - a / kappa - a * a


def inv_bessel_ratio(nu, rel_tol=1e-10, max_iter=100):
    """Solve I_1(kappa)/I_0(kappa) = nu for kappa.

    Safeguarded Newton iteration with an expanding bisection bracket;
    converges to relative tolerance ``rel_tol`` in kappa.  nu must lie in
    [0, 1); nu = 0 maps to kappa = 0.
    """
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"nu must be in [0, 1), got {nu}")
    if nu == 0.0:
        return 0.0
    # Small-nu Taylor start, large-nu asymptotic start.
    if nu < 0.8:
        kappa = 2.0 * nu + nu**3 + 5.0 * nu**5 / 6.0
    else:
        kappa = 1.0 / (2.0 * (1.0 - nu))
    lo, hi = 0.0, kappa
    while bessel_ratio(hi, 1) < nu:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise ToleranceError(f"no bracket for inv_bessel_ratio({nu})", estimate=hi)
    kappa = min(max(kappa, lo), hi)
    for _ in range(max_iter):
        a, da = _ratio_and_derivative(kappa)
        if a > nu:
            hi = kappa
        else:
            lo = kappa
        step = (a - nu) / da
        new = kappa - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - kappa) <= rel_tol * max(new, 1e-300):
            return new
        kappa = new
    raise ToleranceError(f"inv_bessel_ratio({nu}) did not converge", estimate=kappa)


# Eulerian-number numerators for Li_{-n}(x) = (sum_k A(n,k) x^(n-k)) / (1-x)^(n+1).
def _eulerian_row(n):
    row = [1]
    for m in range(2, n + 1):
        prev = row
        row = [0] * m
        for k in range(m):
            left = prev[k] if k < m - 1 else 0
            up = prev[k - 1] if k >= 1 else 0
            row[k] = (k + 1) * left + (m - k) * up
    return row


def polylog(order, x):
    """Polylogarithm Li_order(x) for integer order <= 2 on the real line.

    Supported domain: |x| < 1 for any order; x = 1 needs order >= 2 and
    x = -1 needs order >= 1 (elsewhere the defining series diverges and a
    ValueError is raised).  Nonpositive orders use closed rational forms,
    order 1 is a logarithm, order 2 uses the dilogarithm.
    """
    if order > 2 or order != int(order):
        raise ValueError(f"order must be an integer <= 2, got {order}")
    order = int(order)
    if abs(x) > 1.0:
        raise ValueError(f"series diverges for |x| > 1, got x={x}")
    if x == 1.0 and order < 2:
        raise ValueError(f"Li_{order}(1) diverges")
    if x == -1.0 and order < 1:
        raise ValueError(f"Li_{order}(-1) diverges")
    if order == 2:
        return float(spence(1.0 - x))
    if order == 1:
        return -np.log1p(-x)
    if order == 0:
        return x / (1.0 - x)
    n = -order
    numer = fsum(a * x ** (n - k) for k, a in enumerate(_eulerian_row(n)))
    return numer / (1.0 - x) ** (n + 1)


def integrate_circle(f, cfg=None):
    """Integrate f over one period [-pi, pi) of the circle.

    Adaptive quadrature; raises ToleranceError (with the best estimate
    attached) when the error estimate exceeds ``cfg.abs_tol`` or the
    subdivision budget is exhausted.
    """
    # imported here: scipy.integrate costs about 0.4 s of cold start
    from scipy.integrate import quad

    cfg = cfg or DEFAULT_QUADRATURE
    out = quad(
        f,
        -np.pi,
        np.pi,
        epsabs=cfg.abs_tol,
        epsrel=0.0,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > cfg.abs_tol:
        raise ToleranceError(
            f"quadrature error {abserr:.3e} exceeds abs_tol {cfg.abs_tol:.3e}",
            estimate=value,
            error=abserr,
        )
    return value


# brentq's smallest relative tolerance, 4 machine epsilons
_BRENT_RTOL = 4.0 * ulp(1.0)


def _checked(value, x):
    value = float(value)
    if value != value:
        raise ValueError(f"g({x!r}) is NaN; the root finder cannot continue")
    return value


def find_root(g, lo, hi, tol=1e-9, max_iter=200, g_lo=None, g_hi=None):
    """Find a root of g on [lo, hi] by Brent's method.

    A line-for-line port of scipy's ``brentq`` (Brent 1973): the same
    interpolation, extrapolation and bisection steps and the same stopping
    rule, |step| below (tol + 4 eps |x|)/2, so roots equal
    ``scipy.optimize.brentq(g, lo, hi, xtol=tol, maxiter=max_iter)`` bit
    for bit.  ``g_lo`` and ``g_hi``, when given, are taken as g(lo) and
    g(hi) and those ends are not evaluated again.

    Returns lo (or hi) when g vanishes there.  Raises ValueError when tol
    is not positive or a value of g is NaN; BracketingError, carrying g(lo)
    and g(hi), when the ends do not bracket a sign change; and
    ToleranceError, carrying the last iterate, when ``max_iter``
    iterations do not meet the tolerance.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = float(lo), float(hi)
    f_lo = _checked(g(lo) if g_lo is None else g_lo, lo)
    f_hi = _checked(g(hi) if g_hi is None else g_hi, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketingError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: g(lo)={f_lo:.6g}, g(hi)={f_hi:.6g}",
            g_lo=f_lo,
            g_hi=f_hi,
        )
    # xpre/xcur: the previous and current iterates; xblk: the other end of
    # the bracket; spre/scur: the previous two steps
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # IEEE division gives an infinite or NaN step, which bisects
                stry = inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _checked(g(xcur), xcur)
    raise ToleranceError(
        f"find_root did not converge in {max_iter} iterations on [{lo:.6g}, {hi:.6g}]",
        estimate=xcur,
    )
