"""Kernel estimators on the circle.

Provides the density estimate built from a circular sample and a kernel,
its derivative estimates, the quadratic functional estimate psi_hat used
by the plug-in selectors, and an integrated-squared-error metric.

Sums of kernels are evaluated either directly or through the kernel's
cosine series, which collapses the sum over observations onto the sample's
trigonometric moments

    C_j = sum_i cos(j Theta_i),   S_j = sum_i sin(j Theta_i).

Both routes compute the same quantity up to rounding; psi_hat keeps the
direct double sum available as a cross-checking mode.

* Direct: the density (r = 0) of the closed-form families (von Mises,
  wrapped Cauchy and cardioid from the squared half chord between angles,
  the wrapped Epanechnikov from its parabola) and the wrapped Epanechnikov
  derivatives of orders 1 and 2.  The density stays direct because a
  direct sum keeps its relative accuracy far below the peak, where the
  series only reaches about 1e-12 K(0) in absolute terms and can even go
  negative; likelihood cross-validation rescores such values through it.
* Spectral: the wrapped normal density, derivatives of the smooth families,
  psi_hat, the leave-one-out table of select_lcv and the Parseval ISE.

The moments come from a type-1 nonuniform FFT (Dutt & Rokhlin 1993;
Barnett, Magland & af Klinteberg 2019): each angle is spread onto a
periodic grid with 16 taps of the "exponential of semicircle" kernel, one
real FFT follows, and each order is divided by the kernel's Fourier
transform.  Its cost is about 16 n kernel values plus one FFT, whatever the
number of orders, so every call sums at least 1024 orders (rounded up to a
power of two) and the extensions of one analysis become one pass.  The grid
position x = Theta N / (2 pi) is formed from the angle itself, carried to
twice double precision: shifting Theta into [0, 2 pi) first costs an ulp of
2 pi in the phase of angles just below 0, and that broke the moment tests'
error bound on concentrated samples at n <= 2000.

Series at points (_spectral_sum) run the same transform backwards, a
type-2 NUFFT with the same kernel, positions and Fourier transform: the
series' coefficients, divided by the kernel's transform, fill the half
spectrum of a grid, one inverse real FFT gives the grid values, and each
point sums its 16 taps.  An equispaced grid of points is just points.

Every direct sum runs in one loop over the sample's memoized sorted view
(CircularSample._sorted): the angles in ascending order with their cosines
and sines.  Binary searches of the view give each evaluation point its
window, in the spirit of the fast sum updating of Langrene & Warin (2019):
a wrapped Epanechnikov row keeps its support, and a von Mises row the
observations within e^-T of its largest term, T = 40 + ln n, under a third
of the pairs at the concentrations DPI picks for n = 1e4, so that no
retained exponent reaches exp's underflow path.
"""

import functools
import json
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import (
    _HALF_ANGLE_FAMILIES,
    KernelFamily,
    KernelSpec,
    _epanechnikov_value,
    _half_angle_density,
    derivative_weights,
    kernel_value,
    wrap_angle,
)
from .special import i0e, integrate_circle

__all__ = [
    "CircularSample",
    "DensityGrid",
    "FunctionalEstimate",
    "default_grid",
    "kde",
    "kde_values",
    "kde_deriv",
    "psi_hat",
    "ise",
    "ise_weights",
    "grid_ise",
    "truth_on_ise_grid",
]

# the number of array elements a row block of a direct kernel sum, a
# spreading block of the type-1 NUFFT or a gathering block of the type 2 may
# hold: 2^16 doubles (512 KB).  At n = 1e4 (2-core Xeon VM, one thread) a
# 512-point kde took 20 ms against 22-30 ms at 2^14 and 20-26 ms at 2^18,
# and a large-n benchmark op 59-71 ms against 64-82 ms
_BLOCK_ELEMS = 1 << 16

# a von Mises density row keeps the terms within e^-T of its largest, T =
# _TAIL_EXPONENT + ln n: the n terms dropped carry less than e^-40 (4e-18) of
# the row sum together
_TAIL_EXPONENT = 40.0

# grid_ise's default grid, on which simulations score their estimates
_ISE_POINTS = 2048

# NUFFT parameters: taps per angle, the kernel's shape parameter beta =
# 2.30 taps (Barnett et al.'s choice for an oversampling of 2; the grid here
# oversamples at least that), the fewest orders one NUFFT sums, and the
# trapezoid points per period of the kernel's Fourier transform (64 are
# within 2e-16 of a 30-digit quadrature)
_NUFFT_TAPS = 16
_NUFFT_BETA = 2.30 * _NUFFT_TAPS
_NUFFT_MIN_ORDERS = 1024
_NUFFT_NODES = 128
# 1/(2 pi) as a sum of two doubles, and Veltkamp's splitting constant 2^27 + 1
_INV_2PI_HI = 0.15915494309189535
_INV_2PI_LO = -9.839338337591243e-18
_SPLITTER = 134217729.0


def _nufft_size(orders):
    """Points of the NUFFT grid for ``orders`` orders: the smallest power of
    two that oversamples the 2 orders + 1 frequencies by 2."""
    return 1 << (2 * (2 * orders + 1) - 1).bit_length()


def _split(a):
    """Veltkamp's split of a into a_hi + a_lo, each with at most 26
    significant bits, so that products of halves are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _es_kernel(z):
    """The spreading kernel phi(z) = exp(beta (sqrt(1 - z^2) - 1)) on
    [-1, 1], in place.  The exponent is taken as -beta z^2 / (1 + sqrt(1 -
    z^2)), which keeps its relative accuracy: the difference form rounds it
    to about ulp(1) beta near the peak, a relative error of 4e-15 in the
    kernel value, and that doubled the NUFFT's worst moment error on
    concentrated samples."""
    q = np.square(z, out=z)
    root = np.subtract(1.0, q)
    np.sqrt(root, out=root)
    root += 1.0
    q /= root
    q *= -_NUFFT_BETA
    return np.exp(q, out=q)


@functools.lru_cache(maxsize=None)
def _es_transform(orders):
    """Fourier transform of the spreading kernel at orders 1..``orders`` of
    the grid of _nufft_size(orders) points N, in grid units:

        psi_hat_j = int_{-w/2}^{w/2} phi(2t/w) cos(2 pi j t / N) dt,

    with phi from _es_kernel.  With 2t/w = sin u it is a periodic integral,

        psi_hat_j = (w/4) int_{-pi}^{pi} phi(sin u) cos(pi j w sin u / N) |cos u| du,

    smooth but for kinks at u = +-pi/2, where phi is e^-beta of its peak,
    so the trapezoid rule on _NUFFT_NODES points converges to rounding.  The
    integrand is the same at u, -u and pi - u, so one quarter is summed.
    Gauss-Legendre in z misses by 1e-15 to 1e-14 of psi_hat: the kernel's
    square-root edge and numpy's leggauss weights.
    """
    k = np.arange(_NUFFT_NODES // 4 + 1)
    u = (2.0 * np.pi / _NUFFT_NODES) * k
    z = np.sin(u)
    copies = np.where((k == 0) | (k == k[-1]), 2.0, 4.0)
    weights = copies * np.cos(u) * _es_kernel(z.copy())
    freqs = (np.pi * _NUFFT_TAPS / _nufft_size(orders)) * np.arange(1, orders + 1)
    out = np.cos(np.multiply.outer(freqs, z)) @ weights
    out *= (_NUFFT_TAPS / 4.0) * (2.0 * np.pi / _NUFFT_NODES)
    out.flags.writeable = False
    return out


def _taps(angles, size):
    """The grid index of each angle's first tap, mod ``size``, and the
    kernel values phi(2 (m - x)/w) at its w taps m, with a last axis of
    length w, on the grid of ``size`` points, where x = Theta size / (2 pi)
    is the angle's grid position.  ``size`` is a power of two, or an integer
    array of them that broadcasts against ``angles``.

    x carries the rounding error of its product (Dekker's exact product,
    plus the low half of 1/(2 pi)): an error d in x is a phase error
    2 pi j d / size at order j.
    """
    half = _NUFFT_TAPS // 2
    # size is a power of two, so both halves of the scale are exact
    s_hi, s_lo = size * _INV_2PI_HI, size * _INV_2PI_LO
    b_hi, b_lo = _split(s_hi)
    # x = p + e: p = fl(a s_hi), e its rounding error plus a s_lo
    p = angles * s_hi
    a_hi, a_lo = _split(angles)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    e += angles * s_lo
    first = np.ceil(p - half)
    # first tap's offset from x; e can move it past the kernel's support by
    # about 1e-12, where the kernel is e^-beta of its peak
    d = (first - p) - e
    np.clip(d, -half, 1 - half, out=d)
    z = np.add.outer(d / half, np.arange(_NUFFT_TAPS) / half)
    return first.astype(np.intp) & (size - 1), _es_kernel(z)


def _nufft_moments(angles, orders):
    """(C, S) at orders 1..``orders`` by a type-1 NUFFT.

    Each angle adds phi(2 (m - x)/w) to the w grid points m nearest to its
    grid position x (_taps), indices taken mod N, so that by Poisson
    summation the grid's FFT at order j is psi_hat_j sum_i e^{-i j Theta_i}
    up to the kernel's aliasing error.  The angles are spread in blocks of
    about _BLOCK_ELEMS taps.
    """
    size = _nufft_size(orders)
    taps = np.arange(_NUFFT_TAPS)
    rows = _BLOCK_ELEMS // _NUFFT_TAPS
    grid = np.zeros(size + _NUFFT_TAPS)
    for lo in range(0, len(angles), rows):
        first, z = _taps(angles[lo : lo + rows], size)
        idx = np.add.outer(first, taps)
        grid += np.bincount(idx.ravel(), weights=z.ravel(), minlength=grid.size)
    grid[:_NUFFT_TAPS] += grid[size:]
    spec = np.fft.rfft(grid[:size])[1 : orders + 1]
    psi_hat = _es_transform(orders)
    return spec.real / psi_hat, -spec.imag / psi_hat


def default_grid(num=512):
    """Equispaced evaluation grid on [-pi, pi), starting at -pi."""
    if num < 2:
        raise ValueError(f"grid needs at least 2 points, got {num}")
    return np.linspace(-np.pi, np.pi, num, endpoint=False)


class _SortedView(NamedTuple):
    """A sample's angles in ascending order, with their cosines and sines,
    all read-only.  Read as extended by +-2 pi, entry k is entry k mod n
    shifted by 2 pi floor(k / n); the coordinates need no shift, so any
    window of the circle is one run of consecutive indices mod n."""

    angles: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


@dataclass(frozen=True, eq=False)
class CircularSample:
    """A validated sample of angles, wrapped into [-pi, pi).

    Trigonometric moments are memoized on the instance because every
    spectral evaluation against the same data reuses them.  So are the
    reference mixture fits of mixture.fit_em, keyed by all of its
    arguments, because the rule of thumb, DPI and STE each start from the
    same fit, and the sorted view (_sorted) that the direct kernel sums
    search for each evaluation point's window.
    """

    angles: np.ndarray
    _moments: dict = field(default_factory=dict, repr=False, compare=False)
    _fits: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_data(cls, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("sample must contain at least one angle")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite angles")
        arr = wrap_angle(arr)
        arr.setflags(write=False)
        return cls(arr)

    @property
    def n(self):
        return int(self.angles.size)

    @functools.cached_property
    def _sorted(self):
        """The _SortedView of the angles, built on first use."""
        angles = np.sort(self.angles)
        view = _SortedView(angles, np.cos(angles), np.sin(angles))
        for arr in view:
            arr.setflags(write=False)
        return view

    def trig_moments(self, max_order):
        """(C, S) with C[k] = sum_i cos((k+1) Theta_i), k = 0..max_order-1.

        Orders beyond those memoized come from one NUFFT of at least 1024
        orders, rounded up to a power of two, and only the new orders are
        appended, so the memoized prefix is never recomputed.  max_order is
        any integer, numpy's included (operator.index).
        """
        max_order = operator.index(max_order)
        if max_order < 0:
            raise ValueError("max_order must be nonnegative")
        if max_order == 0:
            return np.empty(0), np.empty(0)
        have = self._moments.get("J", 0)
        if max_order > have:
            top = max(_NUFFT_MIN_ORDERS, 1 << (max_order - 1).bit_length())
            new_c, new_s = (m[have:] for m in _nufft_moments(self.angles, top))
            if have:
                new_c = np.concatenate([self._moments["C"], new_c])
                new_s = np.concatenate([self._moments["S"], new_s])
            self._moments.update(J=top, C=new_c, S=new_s)
        return self._moments["C"][:max_order], self._moments["S"][:max_order]


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Density (or derivative) values over a strictly increasing angle grid.

    When produced by kde / kde_deriv the originating sample and kernel ride
    along so downstream consumers can re-evaluate exactly off-grid.
    """

    thetas: np.ndarray
    values: np.ndarray
    deriv_order: int = 0
    sample: CircularSample | None = None
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if len(self.thetas) != len(self.values):
            raise ValueError("thetas and values must have equal length")
        if len(self.thetas) >= 2 and not np.all(np.diff(self.thetas) > 0):
            raise ValueError("thetas must be strictly increasing")

    def to_csv(self):
        lines = ["theta,value"]
        for t, v in zip(self.thetas, self.values):
            lines.append(f"{float(t)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "deriv_order": self.deriv_order,
                "theta": list(map(float, self.thetas)),
                "value": list(map(float, self.values)),
            }
        )


@dataclass(frozen=True)
class FunctionalEstimate:
    """Estimate of the density functional int f^(s) f, tagged with the
    pilot kernel that produced it."""

    s: int
    value: float
    pilot: KernelSpec


def _extended(angles, idx):
    """Entries ``idx`` of the sorted ``angles`` read as extended by +-2 pi:
    entry k is angle k mod n plus 2 pi floor(k / n)."""
    return angles.take(idx, mode="wrap") + 2.0 * np.pi * (idx // len(angles))


def _windows(view, spec, x, px, py):
    """Window [lo, hi) of the extended sorted view (_SortedView) for each
    point x in [-pi, pi), with coordinates (px, py).

    A wrapped Epanechnikov window is the support, |x - e| < lam, searched as
    the rounded ends x -+ lam among the doubles e the row subtracts; it may
    add an entry at the edge and keeps one after an empty support, terms 0.

    For von Mises the nearest observation, entry j - 1 or j with j =
    searchsorted(x), gives the row's smallest squared chord q_min and so its
    largest exponent -kappa q_min / 2.  The window holds every observation
    with q <= q_min + 2 T / kappa, T = _TAIL_EXPONENT + ln n, widened to take
    in that nearest entry whatever the rounding.  A window that would hold n
    entries or more is the whole sample, [0, n), as is every wrapped Cauchy
    and cardioid window: they have no negligible tail.
    """
    n = len(view.angles)
    if spec.family == KernelFamily.WRAPPEDEPANECHNIKOV:
        ext = _extended(view.angles, np.arange(-n, 2 * n))
        lo = np.searchsorted(ext, x - spec.lam) - n
        hi = np.searchsorted(ext, x + spec.lam, side="right") - n
        return lo, np.maximum(hi, lo + 1)
    if spec.family != KernelFamily.VONMISES:
        lo = np.zeros(len(x), dtype=np.intp)
        return lo, lo + n
    j = np.searchsorted(view.angles, x)
    nxt = j % n
    q_prev = (px - view.cos[j - 1]) ** 2 + (py - view.sin[j - 1]) ** 2
    q_next = (px - view.cos[nxt]) ** 2 + (py - view.sin[nxt]) ** 2
    near = np.where(q_prev <= q_next, j - 1, j)
    bound = np.minimum(q_prev, q_next) + 2.0 * (_TAIL_EXPONENT + np.log(n)) / spec.kappa
    # q = 4 sin^2(d / 2) as an angular half-width
    half = 2.0 * np.arcsin(0.5 * np.sqrt(np.minimum(bound, 4.0)))
    a, b = x - half, x + half
    below, above = a < -np.pi, b >= np.pi
    lo = np.searchsorted(view.angles, np.where(below, a + 2.0 * np.pi, a)) - n * below
    hi = np.searchsorted(view.angles, np.where(above, b - 2.0 * np.pi, b), side="right")
    hi += n * above
    lo, hi = np.minimum(lo, near), np.maximum(hi, near + 1)
    full = hi - lo >= n
    return np.where(full, 0, lo), np.where(full, n, hi)


def _direct_sum(sample, spec, deriv_order, thetas):
    """Mean of kernel values K^(r) over the sample at each angle.

    The points are walked in ascending order, a block of consecutive points
    at a time, and a block evaluates the pairs of one contiguous run of the
    sample's extended sorted view, the union of its windows (_windows),
    about _BLOCK_ELEMS pairs; each row then sums only its own window, so its
    value does not depend on the other points asked for.

    The von Mises, wrapped Cauchy and cardioid densities are functions of
    the squared chord q = |e^{ix} - e^{i Theta}|^2 = 4 sin^2((x - Theta)/2)
    from the view's coordinates: no pair needs a trig call.  The von Mises
    block is exp(-(kappa/2) q) in place, bit for bit _half_angle_density's
    exponent, and its normaliser 1/(2 pi I0e(kappa)) is applied per row.
    The wrapped Epanechnikov (r <= 2) evaluates the signed differences d to
    the view's angles with _epanechnikov_value; points in [-pi, pi) skip
    wrap_angle, whose moves by an ulp of pi would decide ties |d| = lam.
    """
    n = sample.n
    view = sample._sorted
    x = np.where((thetas >= -np.pi) & (thetas < np.pi), thetas, wrap_angle(thetas))
    order = np.argsort(x, kind="stable")
    x = x[order]
    px, py = np.cos(thetas[order]), np.sin(thetas[order])
    lo, hi = _windows(view, spec, x, px, py)
    vonmises = spec.family == KernelFamily.VONMISES
    out = np.empty(len(thetas))
    # a block holds at most _BLOCK_ELEMS pairs, or one row
    buf = np.empty((2, max(_BLOCK_ELEMS, int(np.max(hi - lo, initial=0)))))
    a, m = 0, len(thetas)
    while a < m:
        # the most points from a whose union of windows fits in one block
        look = min(m - a, max(1, _BLOCK_ELEMS // (hi[a] - lo[a])))
        left = np.minimum.accumulate(lo[a : a + look])
        right = np.maximum.accumulate(hi[a : a + look])
        cost = (right - left) * np.arange(1, look + 1)
        k = max(1, int(np.searchsorted(cost, _BLOCK_ELEMS, side="right")))
        first, width = int(left[k - 1]), int(right[k - 1] - left[k - 1])
        idx = np.arange(first, first + width)
        q = buf[0, : k * width].reshape(k, width)
        if spec.family == KernelFamily.WRAPPEDEPANECHNIKOV:
            np.subtract(x[a : a + k, None], _extended(view.angles, idx), out=q)
            vals = _epanechnikov_value(spec, q, deriv_order)
        else:
            tmp = buf[1, : k * width].reshape(k, width)
            if 0 <= first and first + width <= n:
                dx, dy = view.cos[first : first + width], view.sin[first : first + width]
            else:
                dx, dy = view.cos.take(idx, mode="wrap"), view.sin.take(idx, mode="wrap")
            np.subtract(px[a : a + k, None], dx, out=q)
            np.square(q, out=q)
            np.subtract(py[a : a + k, None], dy, out=tmp)
            np.square(tmp, out=tmp)
            q += tmp
            if vonmises:
                q *= -0.5 * spec.kappa
                vals = np.exp(q, out=q)
            else:
                q *= 0.25
                vals = _half_angle_density(spec, q)
        # row r's window, as offsets into the flattened block
        bounds = np.empty(2 * k, dtype=np.intp)
        bounds[0::2] = lo[a : a + k] - first
        bounds[1::2] = hi[a : a + k] - first
        bounds += np.repeat(width * np.arange(k), 2)
        # reduceat runs its last segment to the end of the block
        if bounds[-1] == vals.size:
            bounds = bounds[:-1]
        out[order[a : a + k]] = np.add.reduceat(vals.ravel(), bounds)[0::2]
        a += k
    out /= n
    if vonmises:
        out /= 2.0 * np.pi * i0e(spec.kappa)
    return out


def _spectral_sum(sample, weights, deriv_order, thetas):
    """Same mean via the kernel's cosine series and the sample's moments.

    ``weights`` is one kernel's (J,) derivative_weights, giving one value
    per angle, or a zero-padded (G, J) matrix with one kernel per row,
    giving a (len(thetas), G) array.  The series is a type-2 NUFFT, the
    transpose of the moments' type 1.  A row whose series ends at order J_g
    puts w_j i^r (C_j - i S_j) / psi_hat_j on the half spectrum of the grid
    of _nufft_size(J_g) points; one inverse real FFT per group of rows that
    share a grid size gives their grid values; each angle then sums the
    values at its _taps, weighted by the kernel, in blocks of points.  So a
    row's value at an angle depends on nothing else asked for, and an angle
    that is not finite gives NaN.
    """
    rows = np.atleast_2d(weights)
    G, J = rows.shape
    C, S = sample.trig_moments(J)
    # sum_i cos(j (x - Theta_i) + r pi/2) = Re e^{ijx} (u_j - i v_j): the
    # phase of the differentiated series is a quarter turn, which swaps and
    # negates the moments exactly
    u, v = ((C, S), (S, -C), (-C, -S), (-S, C))[deriv_order % 4]
    coef = (u - 1j * v) / (2.0 * np.pi * sample.n)
    # each row's series ends at its last nonzero weight; the leading column
    # ends an all-zero row at 0
    nonzero = np.hstack([np.ones((G, 1), dtype=bool), rows != 0.0])
    ends = J - np.argmax(nonzero[:, ::-1], axis=1)
    sizes = np.array([_nufft_size(int(e)) if e else 0 for e in ends])
    grids = []
    for size in sorted(set(sizes[ends > 0].tolist())):
        group = np.flatnonzero(sizes == size)
        k = int(ends[group].max())
        # orders 0..k of the half spectrum, which irfft pads with zeros;
        # psi_hat of this grid is keyed by the most orders it holds
        spec = np.zeros((len(group), k + 1), dtype=complex)
        np.multiply(rows[group, :k], coef[:k] * (size / _es_transform(size // 4 - 1)[:k]), out=spec[:, 1:])
        grids.append((size, group, np.fft.irfft(spec, size, axis=1)))
    # _taps places angles below 1e6 exactly, on grids of up to 2^30 points;
    # farther ones are wrapped first
    finite = np.isfinite(thetas)
    x = np.where(finite, thetas, 0.0)
    x = np.where(np.abs(x) < 1e6, x, wrap_angle(x))
    out = np.zeros((G, len(x)))
    if grids:
        scale = np.array([size for size, _, _ in grids])[:, None]
        taps = np.arange(_NUFFT_TAPS)
        # a block of points spreads at most _BLOCK_ELEMS taps over the grids
        # and gathers about as many values from each
        widest = max([len(grids)] + [len(group) for _, group, _ in grids])
        step = max(1, _BLOCK_ELEMS // (_NUFFT_TAPS * widest))
        for lo in range(0, len(x), step):
            first, phi = _taps(x[None, lo : lo + step], scale)
            idx = np.add(first[..., None], taps) & (scale[..., None] - 1)
            for c, (_, group, grid) in enumerate(grids):
                vals = np.take(grid, idx[c], axis=1)
                out[group, lo : lo + step] = np.einsum("gmt,mt->gm", vals, phi[c])
    if deriv_order == 0:
        out += 1.0 / (2.0 * np.pi)
    out[:, ~finite] = np.nan
    return out[0] if weights.ndim == 1 else out.T


def kde_values(sample, kernel, points, deriv_order=0):
    """Raw estimator values at arbitrary angles (no ordering required), in
    the shape of ``points``: a float for a scalar, as kernel_value gives.

    The density (deriv_order 0) of a closed-form family and the wrapped
    Epanechnikov at orders 1 and 2 (UnsupportedKernelError beyond) are
    direct sums over windows of the sorted sample (_direct_sum), which keep
    their relative accuracy in the tails; every other case sums the
    kernel's cosine series on the sample's moments, accurate to about 1e-12
    of the peak.  The uniform kernel (nu = 0) gives its constant; any other
    kernel gives NaN at a point that is not finite.
    """
    points = np.asarray(points, dtype=float)
    if sample.n < 1:
        raise ValueError("sample must contain at least one angle")
    if deriv_order < 0:
        raise ValueError(f"deriv_order must be nonnegative, got {deriv_order}")
    flat = points.ravel()
    # the wrapped Epanechnikov series decays too slowly past the kernel's
    # kinks; its piecewise polynomial is exact and cheap at orders 0 to 2
    epanechnikov = kernel.family == KernelFamily.WRAPPEDEPANECHNIKOV
    if kernel.nu == 0.0:
        out = np.full(flat.size, 1.0 / (2.0 * np.pi) if deriv_order == 0 else 0.0)
    elif epanechnikov or (deriv_order == 0 and kernel.family in _HALF_ANGLE_FAMILIES):
        out = _direct_sum(sample, kernel, deriv_order, flat)
    else:
        weights = derivative_weights(kernel, deriv_order)
        out = _spectral_sum(sample, weights, deriv_order, flat)
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def _kde_rows(sample, kernels, points, weights=None):
    """Density estimates at the given angles, one row per kernel: from the
    kernels' cosine series in one pass when ``weights`` holds their
    ise_weights matrix, otherwise kernel by kernel through kde_values."""
    if weights is not None:
        return _spectral_sum(sample, weights, 0, points).T
    return np.array([kde_values(sample, k, points) for k in kernels])


def kde(sample, kernel, thetas=None):
    """Kernel density estimate: the average of kernels centered at the
    observations, evaluated over a grid (default 512 equispaced points)."""
    thetas = default_grid() if thetas is None else np.asarray(thetas, dtype=float)
    values = kde_values(sample, kernel, thetas, 0)
    return DensityGrid(thetas, values, 0, sample=sample, kernel=kernel)


def kde_deriv(sample, kernel, deriv_order, thetas=None):
    """Estimate of the density derivative of the given order (>= 1)."""
    if deriv_order < 1:
        raise ValueError(f"deriv_order must be >= 1, got {deriv_order}")
    thetas = default_grid() if thetas is None else np.asarray(thetas, dtype=float)
    values = kde_values(sample, kernel, thetas, deriv_order)
    return DensityGrid(thetas, values, deriv_order, sample=sample, kernel=kernel)


def psi_hat(sample, pilot, s, method="spectral"):
    """Estimate of psi_s = int f^(s) f at pilot kernel L.

    This is the full double sum n^-2 sum_i sum_j L^(s)(Theta_i - Theta_j),
    diagonal included.  The default route reorders it through the kernel's
    cosine series onto the sample moments, which is exact up to float
    summation order; ``method="pairwise"`` performs the literal double sum.
    """
    if sample.n < 2:
        raise ValueError("psi_hat needs a sample of at least 2 angles")
    if s < 0 or s % 2 != 0:
        raise ValueError(f"s must be even and nonnegative, got {s}")
    n = sample.n
    base = 1.0 / (2.0 * np.pi) if s == 0 else 0.0
    if method == "pairwise":
        total = 0.0
        data = sample.angles
        for lo in range(0, n, 512):
            diffs = data[lo : lo + 512, None] - data[None, :]
            total += float(np.sum(kernel_value(pilot, diffs.ravel(), s)))
        value = total / n**2
    elif method == "spectral":
        weights = derivative_weights(pilot, s)
        J = len(weights)
        C, S = sample.trig_moments(J)
        power = C * C + S * S
        sign = -1.0 if s % 4 == 2 else 1.0
        value = base + sign * float(weights @ power) / (np.pi * n * n)
    else:
        raise ValueError(f"unknown method {method!r}")
    return FunctionalEstimate(s=s, value=float(value), pilot=pilot)


def _periodic_interp(thetas, values):
    """Periodic linear interpolant through grid values."""

    def fn(t):
        return np.interp(
            wrap_angle(t), thetas, values, period=2.0 * np.pi
        )

    return fn


def ise(est, truth):
    """Integrated squared error between a density estimate and a known
    density, by adaptive quadrature: integrate_circle, to an absolute
    error of 1e-8.

    When the grid carries its sample and kernel the estimate is
    re-evaluated exactly at the quadrature nodes; otherwise the grid is
    interpolated periodically.
    """
    if est.deriv_order != 0:
        raise ValueError("ise is defined for density estimates, not derivatives")
    if est.sample is not None and est.kernel is not None:
        sample, kernel = est.sample, est.kernel

        def fhat(t):
            return kde_values(sample, kernel, t)

    else:
        interp = _periodic_interp(est.thetas, est.values)

        def fhat(t):
            return float(interp(t))

    value = integrate_circle(lambda t: (fhat(t) - truth(t)) ** 2)
    return max(value, 0.0)


def _truth_on_grid(truth, grid):
    """Known density on the grid: ``truth`` is either a callable, and one
    that only takes scalars is evaluated point by point, or already its
    values on the grid."""
    if not callable(truth):
        vals = np.asarray(truth, dtype=float)
        if vals.shape != grid.shape:
            raise ValueError(f"truth values must have shape {grid.shape}, got {vals.shape}")
        return vals
    try:
        vals = np.asarray(truth(grid), dtype=float)
        if vals.shape != grid.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(truth(t)) for t in grid], dtype=float)
    return vals


def truth_on_ise_grid(density):
    """A known density's values on grid_ise's default grid, which grid_ise
    takes as its ``truth`` in place of the callable, with the same bits."""
    return _truth_on_grid(density, default_grid(_ISE_POINTS))


def ise_weights(kernels):
    """Zero-padded (G, J) matrix whose row g holds the cosine weights
    derivative_weights(kernels[g], 0); the uniform density (nu = 0) of any
    family is a zero row.  Returns None when a kernel's series cannot be
    summed to tolerance, in which case grid_ise sums the estimate directly."""
    # the wrapped Epanechnikov r = 0 series decays like j^-3 and never meets
    # the truncation tolerance, so its ISE is summed on the grid
    if any(k.nu > 0.0 and k.family == KernelFamily.WRAPPEDEPANECHNIKOV for k in kernels):
        return None
    rows = [derivative_weights(k, 0) for k in kernels]
    out = np.zeros((len(rows), max(map(len, rows), default=0)))
    for g, w in enumerate(rows):
        out[g, : len(w)] = w
    out.flags.writeable = False
    return out


def _parseval_ise(sample, weights, truth_values):
    """Trapezoid ISE for each weight row, by discrete Parseval on the
    half spectrum of the grid.

    Term j of a row lands in grid bin j as w_gj c_j, with c_j the bin's
    share of the sample moments.  While every order stays inside the half
    spectrum, J <= (N - 1)/2, nothing aliases and the sum over bins k of
    m_k |X_gk - T_k|^2 (m_k: the bin's multiplicity) opens up into

        sum_j w_gj^2 2|c_j|^2 - sum_j w_gj 4 Re(c_j conj T_j) + E_T,

    E_T the truth's energy against the uniform DC bin: two products with
    the weights instead of a (G, N/2 + 1) spectrum.  Longer series fold
    their aliased orders onto the grid's bins one by one.
    """
    N = len(truth_values)
    G, J = weights.shape
    half = N // 2 + 1
    C, S = sample.trig_moments(J)
    js = np.arange(1, J + 1)
    # DFT over the grid of the e^{ij theta} half of each cosine term; the
    # grid starts at -pi, hence (-1)^j
    coef = (N / 2.0) * np.where(js % 2, -1.0, 1.0) * (C - 1j * S) / (np.pi * sample.n)
    T = np.fft.rfft(truth_values)
    mult = np.full(half, 2.0)
    mult[0] = 1.0
    if N % 2 == 0:
        mult[-1] = 1.0
    scale = 2.0 * np.pi / N**2
    # j <= L lands in bin j and its conjugate outside the half spectrum
    L = min(J, (N - 1) // 2)
    if L == J:
        dc = N / (2.0 * np.pi) - T[0].real
        energy = dc * dc + mult[1:] @ (T.real[1:] ** 2 + T.imag[1:] ** 2)
        a = 2.0 * (coef.real**2 + coef.imag**2)
        b = 4.0 * (coef.real * T.real[1 : J + 1] + coef.imag * T.imag[1 : J + 1])
        quad = np.einsum("gj,gj,j->g", weights, weights, a)
        return np.maximum(scale * (quad - weights @ b + energy), 0.0)
    X = np.zeros((G, half), dtype=complex)
    X[:, 0] = N * (1.0 / (2.0 * np.pi))
    np.multiply(weights[:, :L], coef[:L], out=X[:, 1 : L + 1])
    # higher j alias: term j lands in bin j mod N and its conjugate in bin
    # -j mod N, exactly as the sum over the grid folds them
    bins = js[L:] % N
    terms = weights[:, L:] * coef[L:]
    pos = bins < half
    neg = (N - bins) % N < half
    np.add.at(X, (slice(None), bins[pos]), terms[:, pos])
    np.add.at(X, (slice(None), ((N - bins) % N)[neg]), np.conj(terms[:, neg]))
    X -= T
    D = X.view(float)  # interleaved real and imaginary parts
    np.square(D, out=D)
    return scale * (D @ np.repeat(mult, 2))


def grid_ise(sample, kernels, truth, points=_ISE_POINTS, weights=None):
    """Integrated squared error of the density estimate at each kernel
    against a known density, by the periodic trapezoid rule on
    default_grid(points).

    ``truth`` is the density as a callable or its values on that grid;
    both give the same bits.  The
    rule is spectrally accurate for these smooth integrands.  It is
    evaluated exactly in coefficient space by discrete Parseval, which
    costs O(G J + points log points) for G kernels instead of a kernel sum
    at every grid point; ``weights`` may pass in a precomputed
    ise_weights(kernels).  Families whose series does not converge (the
    wrapped Epanechnikov, except its uniform density) sum the estimate
    directly on the grid.
    """
    grid = default_grid(points)
    tv = _truth_on_grid(truth, grid)
    if weights is None:
        weights = ise_weights(kernels)
    if weights is not None:
        return _parseval_ise(sample, weights, tv)
    fhat = _kde_rows(sample, kernels, grid)
    return (2.0 * np.pi / points) * np.sum((fhat - tv) ** 2, axis=1)
