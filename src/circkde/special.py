"""Special functions and generic numerical routines.

Everything in this module is kernel-agnostic: the exponentially scaled
Bessel function I0e, ratios of modified Bessel functions, the
polylogarithm on the real interval needed by wrapped-Cauchy closed forms,
adaptive quadrature over one period of the circle, and a bracketed scalar
root finder.  All of it is in-house and needs only numpy, except the
quadrature: scipy's Gauss-Kronrod ``quad``, imported on the first
``integrate_circle`` call so that no scipy module is on the import path.

* I0e is the Cephes Chebyshev form, with the coefficient tables of numpy's
  ``i0`` (scipy's ``i0e`` uses the same).
* Bessel ratios come from Miller's backward recurrence for
  I_j/I_{j-1} (Gautschi 1967; Amos 1974), with an asymptotic series for
  I_1/I_0 from kappa = 30 on.
* The dilogarithm is its power series on [-1/2, 1/2], extended to
  [-1, 1] by Landen's identity and the reflection formula.
* Brent's method is a port of scipy's ``brentq`` and gives the same roots
  bit for bit.

This module pins the domains, tolerances, and failure modes the rest of
the package relies on:

* ValueError for arguments outside a function's domain, including a NaN
  function value inside ``find_root``;
* BracketingError when ``find_root`` gets no sign change;
* ToleranceError, carrying the best estimate, when an iteration or
  quadrature budget runs out before its tolerance is met.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum, inf, ulp

import numpy as np

from .errors import BracketingError, ToleranceError

__all__ = [
    "BesselRatioTable",
    "i0e",
    "bessel_ratio",
    "bessel_ratio_span",
    "bessel_ratios",
    "inv_bessel_ratio",
    "polylog",
    "integrate_circle",
    "find_root",
]


@dataclass(frozen=True)
class BesselRatioTable:
    """Ratios I_j(kappa)/I_0(kappa) for j = 0..max_order."""

    kappa: float
    max_order: int
    ratios: np.ndarray = field(repr=False)


def _concentration(kappa):
    kappa = float(kappa)
    if not 0.0 <= kappa < inf:
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
    return kappa


def _order(value, name):
    if not float(value).is_integer() or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


# Cephes Chebyshev coefficients of exp(-x) I_0(x), as in numpy's i0 (scipy's
# i0e uses the same tables): _I0E_A in x/2 - 2 on [0, 8], and _I0E_B in
# 32/x - 2 on (8, inf), where the series gives sqrt(x) exp(-x) I_0(x).
_I0E_A = (
    -4.41534164647933937950e-18,
    3.33079451882223809783e-17,
    -2.43127984654795469359e-16,
    1.71539128555513303061e-15,
    -1.16853328779934516808e-14,
    7.67618549860493561688e-14,
    -4.85644678311192946090e-13,
    2.95505266312963983461e-12,
    -1.72682629144155570723e-11,
    9.67580903537323691224e-11,
    -5.18979560163526290666e-10,
    2.65982372468238665035e-9,
    -1.30002500998624804212e-8,
    6.04699502254191894932e-8,
    -2.67079385394061173391e-7,
    1.11738753912010371815e-6,
    -4.41673835845875056359e-6,
    1.64484480707288970893e-5,
    -5.75419501008210370398e-5,
    1.88502885095841655729e-4,
    -5.76375574538582365885e-4,
    1.63947561694133579842e-3,
    -4.32430999505057594430e-3,
    1.05464603945949983183e-2,
    -2.37374148058994688156e-2,
    4.93052842396707084878e-2,
    -9.49010970480476444210e-2,
    1.71620901522208775349e-1,
    -3.04682672343198398683e-1,
    6.76795274409476084995e-1,
)
_I0E_B = (
    -7.23318048787475395456e-18,
    -4.83050448594418207126e-18,
    4.46562142029675999901e-17,
    3.46122286769746109310e-17,
    -2.82762398051658348494e-16,
    -3.42548561967721913462e-16,
    1.77256013305652638360e-15,
    3.81168066935262242075e-15,
    -9.55484669882830764870e-15,
    -4.15056934728722208663e-14,
    1.54008621752140982691e-14,
    3.85277838274214270114e-13,
    7.18012445138366623367e-13,
    -1.79417853150680611778e-12,
    -1.32158118404477131188e-11,
    -3.14991652796324136454e-11,
    1.18891471078464383424e-11,
    4.94060238822496958910e-10,
    3.39623202570838634515e-9,
    2.26666899049817806459e-8,
    2.04891858946906374183e-7,
    2.89137052083475648297e-6,
    6.88975834691682398426e-5,
    3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


def _chbevl(x, coeffs):
    # Clenshaw recurrence of Cephes' chbevl; the first pass sets b0 to
    # coeffs[0] exactly, as chbevl's initialisation does
    b0 = b1 = b2 = 0.0
    for c in coeffs:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def i0e(kappa):
    """Exponentially scaled modified Bessel function exp(-kappa) I_0(kappa)
    for finite kappa >= 0, by the Cephes Chebyshev expansions."""
    x = _concentration(kappa)
    if x <= 8.0:
        return _chbevl(x / 2.0 - 2.0, _I0E_A)
    return _chbevl(32.0 / x - 2.0, _I0E_B) / math.sqrt(x)


def _backward_ratios(kappa, lo, hi):
    """[r_lo, ..., r_hi] with r_j = I_j(kappa)/I_{j-1}(kappa), 1 <= lo <= hi.

    Miller's backward recurrence r_j = kappa/(2j + kappa r_{j+1})
    (Gautschi 1967; Amos 1974), started at order N = ceil(sqrt(hi^2 +
    40 kappa)) + 16 from the Amos-type estimate r_{N+1} = kappa/(N + 1 +
    sqrt((N + 1)^2 + kappa^2)).  An error in r_{j+1} reaches r_j scaled by
    r_j^2, so by order hi the start's error has shrunk by (I_N/I_hi)^2,
    at most about exp(-(N^2 - hi^2)/kappa) < exp(-40).
    """
    n = math.ceil(math.sqrt(hi * hi + 40.0 * kappa)) + 16
    m = n + 1.0
    r = kappa / (m + math.sqrt(m * m + kappa * kappa))
    for j in range(n, hi, -1):
        r = kappa / (2.0 * j + kappa * r)
    out = []
    for j in range(hi, lo - 1, -1):
        r = kappa / (2.0 * j + kappa * r)
        out.append(r)
    out.reverse()
    return out


def bessel_ratio_span(kappa, growth=0):
    """Orders j covered by the first span of a ratio table: those where
    I_j(kappa)/I_0(kappa), about exp(-j^2 / (2 kappa)), is still above
    about exp(-50), and at least 64.  With g = max(growth, 0) it is also
    the term limit of a series j^g (I_j/I_0)^t, t >= 1, or of the wrapped
    normal's rho^(j^2) at kappa = -1 / (2 ln rho): sqrt((100 + 2g)(kappa +
    g)), past which j^g exp(-j^2 / (2 kappa)) is below exp(-39) of its peak
    (+ g for the ratios' slower fall near j = kappa, Amos 1974).  Measured
    for kappa from 1e-3 to 1e7 and g up to 60, J is at most 0.87 of it."""
    g = max(growth, 0)
    return max(64, math.ceil(math.sqrt((100.0 + 2.0 * g) * (_concentration(kappa) + g))))


@lru_cache(maxsize=256)
def _ratio_prefix(kappa, spans):
    """Read-only I_j(kappa)/I_0(kappa) for j = 0..S * 2^(spans - 1), where
    S = bessel_ratio_span(kappa) and kappa > 0.

    The table grows by whole spans, (0, S], (S, 2S], (2S, 4S], ..., each
    from its own backward recurrence and carried on from the last entry of
    the one before.  So an entry depends only on kappa and j, never on how
    long a table was asked for.
    """
    hi = bessel_ratio_span(kappa) << (spans - 1)
    head = np.ones(1) if spans == 1 else _ratio_prefix(kappa, spans - 1)
    steps = _backward_ratios(kappa, len(head), hi)
    tail = np.cumprod(np.concatenate((head[-1:], steps)))[1:]
    table = np.concatenate((head, tail))
    table.flags.writeable = False
    return table


# a memory guard on every series and ratio table (8 MB of terms) for kernels
# forced with nu near 1; the widest selector pilot measured (n = 1e6) needs
# 34 842 terms
_MAX_TERMS = 2**20


def _ratio_table(kappa, max_order):
    # the shortest cached table that reaches max_order, for kappa > 0
    span, spans = bessel_ratio_span(kappa), 1
    if span > _MAX_TERMS:
        raise ToleranceError(f"a ratio table at kappa={kappa} needs more than {_MAX_TERMS} orders")
    while span << (spans - 1) < max_order:
        spans += 1
    return _ratio_prefix(kappa, spans)


# From kappa = 30 on, I_1/I_0 takes its asymptotic series 1 + sum_k r_k
# kappa^-k, k = 1..17: the quotient of the Hankel expansions of I_1 and I_0
# (Abramowitz & Stegun 9.7.1).  The first omitted term, about 8.4e8 / kappa^18,
# is 2.2e-18 at kappa = 30, 2% of an ulp; measured against a 50-digit power-series
# oracle at 203 kappa from 30 to 2000, the Horner sum is within 0.51 ulp.
# Below 30 the order-1 recurrence takes at most 51 steps.
_RATIO_ASYMPTOTIC_KAPPA = 30.0
_RATIO_SERIES = (
    -1 / 2,
    -1 / 8,
    -1 / 8,
    -25 / 128,
    -13 / 32,
    -1073 / 1024,
    -103 / 32,
    -375733 / 32768,
    -23797 / 512,
    -55384775 / 262144,
    -2180461 / 2048,
    -24713030909 / 4194304,
    -72763141 / 2048,
    -7780757249041 / 33554432,
    -13342715521 / 8192,
    -26308967412122125 / 2147483648,
    -12878188618117 / 131072,
)


def _first_ratio(kappa):
    # I_1(kappa)/I_0(kappa) for kappa >= 0
    if kappa >= _RATIO_ASYMPTOTIC_KAPPA:
        t = 1.0 / kappa
        tail = 0.0
        for r in reversed(_RATIO_SERIES):
            tail = r + t * tail
        return 1.0 + t * tail
    return _backward_ratios(kappa, 1, 1)[0]


def bessel_ratio(kappa, order=1):
    """Return I_order(kappa)/I_0(kappa) for finite kappa >= 0 and an
    integer order >= 0.

    Order 1 is computed on its own: below kappa = 30 by the backward
    recurrence, in at most 51 steps, and from 30 on by the 18-term
    asymptotic series 1 - 1/(2 kappa) - 1/(8 kappa^2) - 1/(8 kappa^3) -
    25/(128 kappa^4) - ... - 12878188618117/(131072 kappa^17), within
    0.51 ulp of a 50-digit oracle from 30 to 2000.  Higher orders are read
    from the same table as ``bessel_ratios``.  Raises
    ValueError for a negative, NaN or infinite kappa and for an order that
    is not a nonnegative integer, and ToleranceError, before building it,
    when the table's first span would pass 2^20 orders (kappa above about
    1.1e10).
    """
    kappa = _concentration(kappa)
    order = _order(order, "order")
    if order == 0:
        return 1.0
    if kappa == 0.0:
        return 0.0
    if order == 1:
        return _first_ratio(kappa)
    return float(_ratio_table(kappa, order)[order])


def bessel_ratios(kappa, max_order):
    """Tabulate I_j(kappa)/I_0(kappa) for j = 0..max_order.

    The ratios r_j = I_j/I_{j-1} come from Miller's backward recurrence
    and the table is their running product.  Tables are cached per kappa
    and grow by whole spans (``bessel_ratio_span``), so an entry does not
    depend on max_order and a kernel's coefficients are computed once.
    Raises ToleranceError, before building it, when the first span would
    pass 2^20 orders (kappa above about 1.1e10).

    Parameters
    ----------
    kappa : float
        Concentration, finite and >= 0.
    max_order : int
        Largest order j to tabulate, an integer >= 0.

    Returns
    -------
    BesselRatioTable
        ratios[0] is exactly 1; entries decrease monotonically in j and
        underflow to 0 where the ratio does.
    """
    kappa = _concentration(kappa)
    max_order = _order(max_order, "max_order")
    if kappa == 0.0:
        ratios = np.zeros(max_order + 1)
        ratios[0] = 1.0
    else:
        ratios = _ratio_table(kappa, max_order)[: max_order + 1].copy()
    return BesselRatioTable(kappa=kappa, max_order=max_order, ratios=ratios)


# inv_bessel_ratio's Newton budget: relative step in kappa and step count
_INV_RATIO_TOL = 1e-10
_INV_RATIO_MAX_ITER = 100
# from here on its slope 1 - A/kappa - A^2, about 1/(2 kappa^2), keeps under
# four digits (0.0 near kappa = 1e8) and comes from A's asymptotic series
_SLOPE_SERIES_KAPPA = 1e6


def _ratio_and_derivative(kappa):
    # d/dk [I1/I0] = 1 - A/k - A^2, with the k->0 limit 1/2
    a = _first_ratio(kappa)
    if kappa < 1e-8:
        return a, 0.5
    if kappa >= _SLOPE_SERIES_KAPPA:
        t = 1.0 / kappa
        return a, t * t * (0.5 + t * (0.25 + t * (0.375 + t * (25.0 / 32.0 + t * (65.0 / 32.0)))))
    return a, 1.0 - a / kappa - a * a


def inv_bessel_ratio(nu):
    """Solve I_1(kappa)/I_0(kappa) = nu for kappa.

    Safeguarded Newton iteration with an expanding bisection bracket;
    converges to relative tolerance 1e-10 in kappa within 100 steps, else
    raises ToleranceError.  nu must lie in [0, 1); nu = 0 maps to kappa = 0.
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
    while _first_ratio(hi) < nu:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise ToleranceError(f"no bracket for inv_bessel_ratio({nu})", estimate=hi)
    kappa = min(max(kappa, lo), hi)
    for _ in range(_INV_RATIO_MAX_ITER):
        a, da = _ratio_and_derivative(kappa)
        if a > nu:
            hi = kappa
        else:
            lo = kappa
        step = (a - nu) / da
        new = kappa - step
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - kappa) <= _INV_RATIO_TOL * max(new, 1e-300):
            return new
        kappa = new
    raise ToleranceError(f"inv_bessel_ratio({nu}) did not converge", estimate=kappa)


def _dilog_series(x):
    # sum_k x^k / k^2 for |x| <= 1/2, until the terms drop below 2^-60 of x
    terms = []
    power, k = x, 1
    while abs(power) > 8.7e-19 * abs(x):
        terms.append(power / (k * k))
        k += 1
        power *= x
    return fsum(terms)


_ZETA2 = math.pi**2 / 6.0


def _dilog(x):
    """Li_2(x) on [-1, 1]: the power series on [-1/2, 1/2], Landen's
    identity Li_2(x) = -Li_2(x/(x-1)) - log(1-x)^2/2 below it, and the
    reflection Li_2(x) = pi^2/6 - log(x) log(1-x) - Li_2(1-x) above it."""
    if x > 0.5:
        if x == 1.0:
            return _ZETA2
        return _ZETA2 - math.log(x) * math.log1p(-x) - _dilog_series(1.0 - x)
    if x < -0.5:
        log_1mx = math.log1p(-x)
        return -_dilog_series(x / (x - 1.0)) - 0.5 * log_1mx * log_1mx
    return _dilog_series(x)


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
        return _dilog(float(x))
    if order == 1:
        return -np.log1p(-x)
    if order == 0:
        return x / (1.0 - x)
    n = -order
    numer = fsum(a * x ** (n - k) for k, a in enumerate(_eulerian_row(n)))
    return numer / (1.0 - x) ** (n + 1)


_QUAD_ABS_TOL = 1e-8
_QUAD_LIMIT = 200


def integrate_circle(f):
    """Integrate f over one period [-pi, pi) of the circle.

    Adaptive quadrature to an absolute error of 1e-8 within 200
    subdivisions; raises ToleranceError (with the best estimate attached)
    when the error estimate exceeds it or the subdivisions run out.
    """
    # imported here: scipy.integrate costs about 0.4 s of cold start
    from scipy.integrate import quad

    out = quad(
        f, -np.pi, np.pi, epsabs=_QUAD_ABS_TOL, epsrel=0.0, limit=_QUAD_LIMIT, full_output=1
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > _QUAD_ABS_TOL:
        raise ToleranceError(
            f"quadrature error {abserr:.3e} exceeds abs_tol {_QUAD_ABS_TOL:.3e}",
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
