"""Circular smoothing kernels and their Fourier-side functionals.

A kernel here is a symmetric unimodal density on the circle written as

    K_nu(theta) = (1/2pi) * (1 + 2 * sum_j alpha_j(nu) cos(j theta)),

where nu in [0, 1) is the mean resultant length.  The module provides the
coefficient sequences alpha_j for the supported families, the bandwidth
functional h(nu) = int theta^2 K_nu (the circular analogue of a squared
bandwidth), roughness functionals built from powers of the coefficients,
the asymptotic constants used by the plug-in selectors, and the inversion
from a target bandwidth back to a concentration.

The von Mises family carries its concentration kappa alongside nu, and the
wrapped Epanechnikov carries the half-support lam of its unwrapped
parabolic density.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ToleranceError, UnsupportedKernelError
from .special import (
    _MAX_TERMS,
    _ratio_table,
    bessel_ratio,
    bessel_ratio_span,
    find_root,
    i0e,
    inv_bessel_ratio,
    polylog,
)

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "KernelConstants",
    "UNIFORM_FALLBACK",
    "is_uniform_fallback",
    "wrap_angle",
    "fourier_coefficient",
    "derivative_weights",
    "bandwidth",
    "bandwidth_approx",
    "roughness",
    "kernel_constants",
    "concentration_from_bandwidth",
    "kernel_value",
    "UNIFORM_BANDWIDTH",
]

# Bandwidth of the uniform density: int theta^2 / (2 pi) = pi^2 / 3.
UNIFORM_BANDWIDTH = np.pi**2 / 3.0

_WE_NU_MIN = 3.0 / np.pi**2  # concentration of the wrapped Epanechnikov at lam = pi


class KernelFamily(str, enum.Enum):
    VONMISES = "vonmises"
    WRAPPEDNORMAL = "wrappednormal"
    WRAPPEDCAUCHY = "wrappedcauchy"
    WRAPPEDEPANECHNIKOV = "wrappedepanechnikov"
    CARDIOID = "cardioid"


# the tail rule: stop once three terms in a row are at most this fraction
# of the running sum of |terms|
_TAIL_REL_TOL = 1e-12


# The uniform answer as a bandwidth: h = inf, where a plug-in formula has no
# finite optimum.  concentration_from_bandwidth turns it into the family's
# uniform kernel, KernelSpec.from_nu(family, 0.0).
UNIFORM_FALLBACK = math.inf


def is_uniform_fallback(obj):
    """True for the bandwidth h = inf or a kernel at nu = 0."""
    if isinstance(obj, KernelSpec):
        return obj.nu == 0.0
    return obj == UNIFORM_FALLBACK


def wrap_angle(theta):
    """Reduce angles to the principal interval [-pi, pi)."""
    return (np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi


def _we_nu_from_lam(lam):
    # 3 (sin(lam) - lam cos(lam)) / lam^3, stable near zero via Taylor
    if lam < 1e-4:
        return 1.0 - lam**2 / 10.0
    return 3.0 * (math.sin(lam) - lam * math.cos(lam)) / lam**3


def _we_lam_from_nu(nu):
    if not _WE_NU_MIN <= nu < 1.0:
        raise ValueError(
            f"wrapped Epanechnikov concentration must be in [{_WE_NU_MIN:.6f}, 1), got {nu}"
        )
    if nu == _WE_NU_MIN:
        return np.pi
    return find_root(lambda lam: _we_nu_from_lam(lam) - nu, 1e-8, np.pi, tol=1e-13)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its smoothing state.

    ``nu`` is the mean resultant length.  ``kappa`` is carried for the von
    Mises family and ``lam`` (the half-support of the unwrapped parabola)
    for the wrapped Epanechnikov; both are None elsewhere.
    """

    family: KernelFamily
    nu: float
    kappa: float | None = None
    lam: float | None = None

    @classmethod
    def vonmises(cls, kappa=None, nu=None):
        if (kappa is None) == (nu is None):
            raise ValueError("give exactly one of kappa or nu")
        if kappa is None:
            kappa = inv_bessel_ratio(nu)  # ValueError outside [0, 1)
        else:
            if kappa < 0:
                raise ValueError(f"kappa must be nonnegative, got {kappa}")
            nu = bessel_ratio(kappa, 1)
        return cls(KernelFamily.VONMISES, float(nu), kappa=float(kappa))

    @classmethod
    def wrapped_normal(cls, nu):
        if not 0.0 <= nu < 1.0:
            raise ValueError(f"nu must be in [0, 1), got {nu}")
        return cls(KernelFamily.WRAPPEDNORMAL, float(nu))

    @classmethod
    def wrapped_cauchy(cls, nu):
        if not 0.0 <= nu < 1.0:
            raise ValueError(f"nu must be in [0, 1), got {nu}")
        return cls(KernelFamily.WRAPPEDCAUCHY, float(nu))

    @classmethod
    def cardioid(cls, nu):
        if not 0.0 <= nu < 0.5:
            raise ValueError(f"cardioid concentration must be in [0, 0.5), got {nu}")
        return cls(KernelFamily.CARDIOID, float(nu))

    @classmethod
    def wrapped_epanechnikov(cls, lam=None, nu=None):
        if (lam is None) == (nu is None):
            raise ValueError("give exactly one of lam or nu")
        if lam is None:
            lam = _we_lam_from_nu(nu)
        else:
            if not 0.0 < lam <= np.pi:
                raise ValueError(f"lam must be in (0, pi], got {lam}")
            nu = _we_nu_from_lam(lam)
        return cls(KernelFamily.WRAPPEDEPANECHNIKOV, float(nu), lam=float(lam))

    @classmethod
    def from_nu(cls, family, nu):
        """The family's kernel at mean resultant length nu; nu = 0 is the
        uniform density in every family."""
        family = KernelFamily(family)
        if nu == 0.0:
            return cls(family, 0.0, kappa=0.0 if family == KernelFamily.VONMISES else None)
        if family == KernelFamily.VONMISES:
            return cls.vonmises(nu=nu)
        if family == KernelFamily.WRAPPEDNORMAL:
            return cls.wrapped_normal(nu)
        if family == KernelFamily.WRAPPEDCAUCHY:
            return cls.wrapped_cauchy(nu)
        if family == KernelFamily.CARDIOID:
            return cls.cardioid(nu)
        return cls.wrapped_epanechnikov(nu=nu)

    @property
    def concentration(self):
        """kappa for von Mises, lam for wrapped Epanechnikov, else None."""
        if self.family == KernelFamily.VONMISES:
            return self.kappa
        if self.family == KernelFamily.WRAPPEDEPANECHNIKOV:
            return self.lam
        return None


def _alpha_block(spec, js):
    """Vectorized alpha_j for an array js of consecutive integers >= 1."""
    fam = spec.family
    if spec.nu == 0.0:
        return np.zeros(len(js))
    if fam == KernelFamily.VONMISES:
        # a slice of the one cached table per kappa, whose entries do not
        # depend on its length
        return _ratio_table(spec.kappa, int(js[-1]))[js[0] : js[-1] + 1]
    if fam == KernelFamily.WRAPPEDNORMAL:
        # nu^(j^2) through logs to dodge premature underflow in the power
        with np.errstate(under="ignore"):
            return np.exp(js.astype(float) ** 2 * math.log(spec.nu))
    if fam == KernelFamily.WRAPPEDCAUCHY:
        with np.errstate(under="ignore"):
            return np.exp(js.astype(float) * math.log(spec.nu))
    if fam == KernelFamily.CARDIOID:
        return np.where(js == 1, spec.nu, 0.0)
    # wrapped Epanechnikov: oscillating sign, O(j^-3) decay
    x = js.astype(float) * spec.lam
    return 3.0 * (np.sin(x) - x * np.cos(x)) / x**3


def fourier_coefficient(spec, j):
    """alpha_j(nu), the j-th cosine coefficient (without the 1/pi scale)."""
    if j < 1 or j != int(j):
        raise ValueError(f"j must be a positive integer, got {j}")
    return float(_alpha_block(spec, np.array([int(j)]))[0])


def _tail_rule(c, total, consec, rel_tol):
    """Run the tail rule over the next terms c of a series.

    ``total`` is the running sum of |terms| before c and ``consec`` the
    length of the run of small terms that ends there.  Returns the index
    in c of the term that completes three small terms in a row, or None
    with the updated (total, consec) to carry into the next block.
    """
    mags = np.abs(c)
    # running sums in the same left-to-right order as term-by-term
    # accumulation (total + |c_0| first), so the result does not depend on
    # the block sizes
    running = mags.copy()
    running[0] += total
    np.cumsum(running, out=running)
    total = float(running[-1])
    np.maximum(running, 1e-300, out=running)
    running *= rel_tol
    # one byte per term, 1 where it is small, behind the carried run: the
    # first b"\1\1\1" ends where three small terms in a row complete
    flags = b"\1" * consec + (mags <= running).tobytes()
    stop = flags.find(b"\1\1\1")
    if stop >= 0:
        return stop + 2 - consec, total, consec
    return None, total, len(flags) - len(flags.rstrip(b"\1"))


def _tail_series(block_terms, first_block, max_terms, what):
    """Terms j = 1..J of a series, with J from the tail rule.

    ``block_terms(j0, hi)`` returns (terms, envelope) for the orders
    j0..hi; the rule runs on the envelope, and the terms are kept up to
    the order where it stops.  Blocks start at ``first_block`` orders and
    double up to 4096.  Raises ToleranceError, naming ``what``, when the
    rule has not stopped within min(max_terms, _MAX_TERMS) orders, at once
    when the first block (a ratio table's span) passes _MAX_TERMS, and as
    soon as a block's running total leaves the float range (j^growth
    overflows near growth 77 for kappa >= 1e4).
    """
    if first_block > _MAX_TERMS:
        raise ToleranceError(f"{what} needs more than {_MAX_TERMS} terms")
    max_terms = min(max_terms, _MAX_TERMS)
    out = []
    total = 0.0
    consec = 0
    j0 = 1
    block = first_block
    while j0 <= max_terms:
        hi = min(j0 + block - 1, max_terms)
        # an overflow shows as a total that is not finite, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            terms, envelope = block_terms(j0, hi)
        stop, total, consec = _tail_rule(envelope, total, consec, _TAIL_REL_TOL)
        if not math.isfinite(total):
            raise ToleranceError(f"{what} leaves the float range")
        if stop is not None:
            # a copy, which holds neither the whole block nor a cached table
            if not out:
                return terms[: stop + 1].copy()
            out.append(terms[: stop + 1])
            return np.concatenate(out)
        out.append(terms)
        j0 = hi + 1
        block = min(block * 2, 4096)
    raise ToleranceError(f"{what} did not fall below tolerance within {max_terms} terms")


def _term_limit(spec, growth):
    """Orders within which a kernel's series j^growth alpha_j^t (t = 1, 2) meets the tail rule."""
    fam = spec.family
    if fam == KernelFamily.VONMISES:
        return bessel_ratio_span(spec.kappa, growth)
    if spec.nu == 0.0 or fam == KernelFamily.CARDIOID:
        return 64
    if fam == KernelFamily.WRAPPEDNORMAL:  # nu^(j^2) = exp(-j^2 / (2 kappa))
        return bessel_ratio_span(-0.5 / math.log(spec.nu), growth)
    if fam == KernelFamily.WRAPPEDCAUCHY:
        # j^g nu^j <= 2^g nu^(j/2) max_x x^g nu^x, below e^-50 of the peak here
        g = max(growth, 0)
        return max(64, math.ceil((100.0 + 2.0 * g * math.log(2.0)) / -math.log(spec.nu)))
    # wrapped Epanechnikov: alpha_j ~ j^-2, summed by no caller; raises past this
    return 10000


@lru_cache(maxsize=4096)
def _series_weights(spec, growth, power):
    """Truncated coefficient array c_j = j^growth * alpha_j^power, j = 1..J,
    with the tail rule run on the c_j themselves, within _term_limit."""

    def block_terms(j0, hi):
        js = np.arange(j0, hi + 1)
        c = _alpha_block(spec, js)
        if power != 1:
            c = c**power
        if growth != 0:
            c = js.astype(float) ** growth * c
        return c, c

    # von Mises: the orders where alpha_j ~ exp(-j^2 / 2 kappa) can still
    # pass the tail rule, which is also the first span of its ratio table,
    # so one block usually suffices
    vm = spec.family == KernelFamily.VONMISES
    first_block = bessel_ratio_span(spec.kappa) if vm else 64
    what = f"coefficient series for {spec.family.value} (growth={growth}, power={power})"
    return _tail_series(block_terms, first_block, _term_limit(spec, growth), what)


def derivative_weights(spec, deriv_order=0):
    """Truncated array of cosine-series weights j^r * alpha_j for j = 1..J,
    with J chosen by the tail rule.  These drive the spectral evaluation of
    the estimators: a sum of kernels collapses onto the sample's trigonometric
    moments with exactly these weights.  The uniform density (nu = 0) has
    none: J = 0."""
    if deriv_order < 0:
        raise ValueError(f"deriv_order must be nonnegative, got {deriv_order}")
    if spec.nu == 0.0:
        return np.empty(0)
    return _series_weights(spec, deriv_order, 1)


def bandwidth(spec):
    """Bandwidth functional h(nu) = int_{-pi}^{pi} theta^2 K_nu(theta) dtheta.

    Equals pi^2/3 + 4 sum_j (-1)^j alpha_j / j^2; closed forms are used for
    the families that admit them.
    """
    fam = spec.family
    if spec.nu == 0.0:
        return UNIFORM_BANDWIDTH
    if fam == KernelFamily.WRAPPEDCAUCHY:
        return UNIFORM_BANDWIDTH + 4.0 * polylog(2, -spec.nu)
    if fam == KernelFamily.CARDIOID:
        return UNIFORM_BANDWIDTH - 4.0 * spec.nu
    if fam == KernelFamily.WRAPPEDEPANECHNIKOV:
        return spec.lam**2 / 5.0
    weights = _series_weights(spec, -2, 1)
    js = np.arange(1, len(weights) + 1)
    return UNIFORM_BANDWIDTH + 4.0 * float(np.sum((-1.0) ** js * weights))


def bandwidth_approx(spec):
    """Large-concentration approximation (1 - alpha_2(nu)) / 2."""
    return 0.5 * (1.0 - fourier_coefficient(spec, 2))


def _roughness_sign(deriv_order, power):
    # negative only for the odd-power functional at derivative orders 1, 2 mod 4
    if power == 1 and deriv_order % 4 in (1, 2):
        return -1.0
    return 1.0


def roughness(spec, deriv_order=0, power=2):
    """Roughness functional of the kernel.

    For power t and derivative order r this is
    (2 pi)^-1 (1 + 2 sum_j alpha_j^t) when r = 0 and otherwise
    sgn * pi^-1 * sum_j j^(t r) alpha_j^t, the quantity that controls the
    estimator variance (t = 2) and the peak values K^(r)(0) (t = 2 even r).
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    if deriv_order < 0:
        raise ValueError(f"deriv_order must be nonnegative, got {deriv_order}")
    fam = spec.family
    r, t = deriv_order, power
    if spec.nu == 0.0:
        return 1.0 / (2.0 * np.pi) if r == 0 else 0.0
    if fam == KernelFamily.WRAPPEDCAUCHY:
        if r == 0:
            return (1.0 + 2.0 * polylog(0, spec.nu**t)) / (2.0 * np.pi)
        return _roughness_sign(r, t) * polylog(-t * r, spec.nu**t) / np.pi
    if fam == KernelFamily.CARDIOID:
        if r == 0:
            return (1.0 + 2.0 * spec.nu**t) / (2.0 * np.pi)
        return _roughness_sign(r, t) * spec.nu**t / np.pi
    if fam == KernelFamily.WRAPPEDEPANECHNIKOV:
        # closed forms from the unwrapped parabola; the defining series
        # converges too slowly (r=1, t=2) or diverges (r>=2) at the kink
        if r == 0 and t == 1:
            return 3.0 / (4.0 * spec.lam)
        if r == 0 and t == 2:
            return 3.0 / (5.0 * spec.lam)
        if r == 1 and t == 2:
            return 3.0 / (2.0 * spec.lam**3)
        raise ToleranceError(
            "wrapped Epanechnikov roughness series does not converge for "
            f"deriv_order={r}, power={t}"
        )
    if fam == KernelFamily.VONMISES and r == 0:
        if t == 1:
            # K(0) = exp(kappa) / (2 pi I_0(kappa))
            return 1.0 / (2.0 * np.pi * i0e(spec.kappa))
        # int K^2 = I_0(2 kappa) / (2 pi I_0(kappa)^2)
        return i0e(2.0 * spec.kappa) / (2.0 * np.pi * i0e(spec.kappa) ** 2)
    weights = _series_weights(spec, t * r, t)
    total = math.fsum(weights)
    if r == 0:
        return (1.0 + 2.0 * total) / (2.0 * np.pi)
    return _roughness_sign(r, t) * total / np.pi


@dataclass(frozen=True)
class KernelConstants:
    """Asymptotic constants: roughness ~ q2 * h^-(2r+1)/2 for the kernel
    itself and ~ q1 * h^-(s+1)/2 for its use as a pilot (q1 defined for
    even derivative orders only)."""

    q1: float | None
    q2: float | None


def kernel_constants(family, deriv_order):
    """Asymptotic roughness constants for a kernel family at derivative
    order r; only von Mises / wrapped normal (r <= 85, past which (2r)!
    leaves the float range) and the wrapped Epanechnikov (r = 0, q2 only)
    admit them."""
    family = KernelFamily(family)
    r = deriv_order
    if r < 0:
        raise ValueError(f"deriv_order must be nonnegative, got {r}")
    if family in (KernelFamily.VONMISES, KernelFamily.WRAPPEDNORMAL):
        try:
            q2 = math.factorial(2 * r) / (2 ** (2 * r + 1) * math.factorial(r) * math.sqrt(np.pi))
            q1 = None
            if r % 2 == 0:
                q1 = (
                    (-1.0) ** (r // 2)
                    * math.factorial(r)
                    / (2 ** (r // 2) * math.factorial(r // 2) * math.sqrt(2.0 * np.pi))
                )
        except OverflowError:  # (2r)! passes the float range from r = 86 on
            raise UnsupportedKernelError(
                f"asymptotic constants for deriv_order={r} leave the float range"
            ) from None
        return KernelConstants(q1=q1, q2=q2)
    if family == KernelFamily.WRAPPEDEPANECHNIKOV and r == 0:
        return KernelConstants(q1=None, q2=3.0 / (5.0 * math.sqrt(5.0)))
    raise UnsupportedKernelError(
        f"no asymptotic constants for family={family.value}, deriv_order={r}"
    )


def _exact_solve_vonmises(h):
    def gap(kappa):
        return bandwidth(KernelSpec.vonmises(kappa=kappa)) - h

    hi = max(2.0 / h, 1.0)
    while gap(hi) > 0:
        hi *= 4.0
        if hi > 1e9:
            raise ToleranceError(f"cannot bracket kappa for bandwidth {h}")
    kappa = find_root(gap, 0.0, hi, tol=1e-13)
    return KernelSpec.vonmises(kappa=kappa)


def _exact_solve_in_nu(family, h):
    def gap(nu):
        return bandwidth(KernelSpec.from_nu(family, nu)) - h

    lo, hi = 0.0, 0.9
    while gap(hi) > 0:
        hi = 1.0 - 0.25 * (1.0 - hi)
        if 1.0 - hi < 1e-13:
            raise ToleranceError(f"cannot bracket nu for bandwidth {h}")
    nu = find_root(gap, lo, hi, tol=1e-14)
    return KernelSpec.from_nu(family, nu)


def concentration_from_bandwidth(family, h, exact=False):
    """Invert the bandwidth functional: find the kernel with bandwidth h.

    The default route uses the family's large-concentration inversion
    (von Mises kappa = 1/h; wrapped normal nu = (1-2h)^(1/4); wrapped
    Epanechnikov lam = sqrt(5h)); families without a published asymptotic
    inversion fall through to the exact solve.  With ``exact`` the
    bandwidth functional itself is inverted by bracketed root finding.
    Bandwidths at least as wide as the uniform density's, h = inf
    included (or beyond the family's reachable range), return the
    family's uniform kernel, KernelSpec.from_nu(family, 0.0).
    """
    family = KernelFamily(family)
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if h >= UNIFORM_BANDWIDTH:
        return KernelSpec.from_nu(family, 0.0)

    if family == KernelFamily.WRAPPEDEPANECHNIKOV:
        # exact and asymptotic coincide: h = lam^2 / 5 on lam <= pi
        lam = math.sqrt(5.0 * h)
        if lam >= np.pi:
            return KernelSpec.from_nu(family, 0.0)
        return KernelSpec.wrapped_epanechnikov(lam=lam)
    if family == KernelFamily.CARDIOID:
        # h = pi^2/3 - 4 nu, reachable only down to pi^2/3 - 2
        nu = (UNIFORM_BANDWIDTH - h) / 4.0
        if nu >= 0.5:
            raise ValueError(f"bandwidth {h} is below the cardioid family's range")
        return KernelSpec.cardioid(nu)

    if not exact:
        if family == KernelFamily.VONMISES:
            return KernelSpec.vonmises(kappa=1.0 / h)
        if family == KernelFamily.WRAPPEDNORMAL:
            if h >= 0.5:
                return KernelSpec.from_nu(family, 0.0)
            return KernelSpec.wrapped_normal((1.0 - 2.0 * h) ** 0.25)
        # no published asymptotic inversion for the wrapped Cauchy
        return _exact_solve_in_nu(family, h)

    if family == KernelFamily.VONMISES:
        return _exact_solve_vonmises(h)
    return _exact_solve_in_nu(family, h)


def _series_eval(weights, theta, phase, chunk=8192):
    """(1/pi) * sum_j w_j cos(j theta + phase) for a flat theta array."""
    js = np.arange(1, len(weights) + 1, dtype=float)
    out = np.empty_like(theta, dtype=float)
    for start in range(0, len(theta), chunk):
        block = theta[start : start + chunk, None] * js[None, :] + phase
        out[start : start + chunk] = np.cos(block) @ weights
    return out / np.pi


# families whose density is an elementary function of sin^2(theta / 2)
_HALF_ANGLE_FAMILIES = {KernelFamily.VONMISES, KernelFamily.WRAPPEDCAUCHY, KernelFamily.CARDIOID}


def _half_angle_density(spec, s):
    """K(theta) of a _HALF_ANGLE_FAMILIES kernel from s = sin^2(theta / 2),
    i.e. cos theta = 1 - 2s.  The von Mises exponent kappa (cos theta - 1)
    = -2 kappa s then keeps full relative accuracy near theta = 0, where
    cos theta - 1 cancels."""
    fam = spec.family
    two_pi = 2.0 * np.pi
    if fam == KernelFamily.VONMISES:
        return np.exp(-2.0 * spec.kappa * s) / (two_pi * i0e(spec.kappa))
    nu = spec.nu
    if fam == KernelFamily.WRAPPEDCAUCHY:
        return (1.0 - nu * nu) / (two_pi * ((1.0 - nu) ** 2 + 4.0 * nu * s))
    return (1.0 + 2.0 * nu * (1.0 - 2.0 * s)) / two_pi


def _epanechnikov_value(spec, d, deriv_order):
    """K^(r)(d) of a wrapped Epanechnikov kernel at differences d within a
    period of 0: 3 (1 - (d / lam)^2) / (4 lam) or its first or second
    derivative where |d| < lam, else 0 (at |d| = lam too)."""
    if deriv_order >= 3:
        raise UnsupportedKernelError(
            "wrapped Epanechnikov derivatives beyond order 2 are distributional"
        )
    lam = spec.lam
    if deriv_order == 0:
        out = 3.0 * (1.0 - (d / lam) ** 2) / (4.0 * lam)
    else:
        out = (-3.0 * d if deriv_order == 1 else np.full(np.shape(d), -3.0)) / (2.0 * lam**3)
    np.copyto(out, 0.0, where=np.abs(d) >= lam)
    return out


def kernel_value(spec, theta, deriv_order=0):
    """Evaluate K^(r)(theta) for scalar or array theta.

    r = 0 uses closed-form densities where the family has one; r >= 1 uses
    the term-by-term differentiated cosine series, except for the wrapped
    Epanechnikov whose piecewise-polynomial derivatives (orders 1 and 2)
    are evaluated directly.
    """
    r = deriv_order
    if r < 0:
        raise ValueError(f"deriv_order must be nonnegative, got {r}")
    scalar = np.isscalar(theta) or np.ndim(theta) == 0
    fam = spec.family
    two_pi = 2.0 * np.pi

    if spec.nu == 0.0:  # the uniform density: every derivative vanishes
        out = np.full(np.shape(np.atleast_1d(theta)), 1.0 / two_pi if r == 0 else 0.0)
        return float(out[0]) if scalar else out

    if r == 0 and fam in _HALF_ANGLE_FAMILIES:
        # sin^2(theta / 2) is 2 pi periodic, so theta needs no reduction
        out = _half_angle_density(spec, np.sin(0.5 * np.atleast_1d(theta).astype(float)) ** 2)
        return float(out[0]) if scalar else out
    th = np.atleast_1d(wrap_angle(theta)).astype(float)
    if fam == KernelFamily.WRAPPEDEPANECHNIKOV:
        out = _epanechnikov_value(spec, th, r)
    elif r == 0:  # wrapped normal: no elementary closed form
        weights = _series_weights(spec, 0, 1)
        out = 1.0 / two_pi + _series_eval(weights, th, 0.0)
    else:
        weights = _series_weights(spec, r, 1)
        out = _series_eval(weights, th, r * np.pi / 2.0)

    return float(out[0]) if scalar else out
