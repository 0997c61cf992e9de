"""Error measurement and experiment analytics.

Provides the discrete L_q error against a reconstruction, an energy-norm
surrogate built from residual surpluses, least-squares rate fitting, and
the analytic corpus of test functions (polynomial controls, smooth
products, kinks with tunable smoothness).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import bspline, recovery
from .grids import SmoothnessSpec
from .quasi_interp import vectorize_handle

_LATTICE_CAP = 1 << 24
_FALLBACK_POINTS = 10 ** 6


@dataclass
class TestFunction:
    label: str
    handle: object          # vectorized (npts, d) -> (npts,)
    exact_integral: float | None


@dataclass
class RateFit:
    """log2(error) ~ slope log2(n) + intercept, and the root mean square of
    the fit's residuals."""

    slope: float
    intercept: float
    residual: float


# ---------------------------------------------------------------------------
# discrete L_q error

def _lattice_axes(rec, resolution, offset):
    d = rec.d
    if resolution is None:
        kmax = rec.delta.max_level()
        counts = [(1 << (kmax[i] + 3)) + 1 for i in range(d)]
    else:
        counts = ([resolution] * d if np.ndim(resolution) == 0
                  else list(resolution))
        if len(counts) != d:
            raise ValueError("resolution length does not match dimension")
        if not all(float(m).is_integer() for m in counts):
            raise ValueError(f"resolution must be whole numbers: "
                             f"{resolution!r}")
        counts = list(map(int, counts))
    if any(m < 2 for m in counts):
        raise ValueError("resolution must be at least 2 per dimension")
    axes, wts = [], []
    for m in counts:
        h = 1.0 / (m - 1)
        if offset:
            axes.append((np.arange(m - 1) + 0.5) * h)
            wts.append(np.full(m - 1, h))
        else:
            axes.append(np.arange(m) * h)
            w = np.full(m, h)
            w[0] = w[-1] = h / 2.0
            wts.append(w)
    return axes, wts


def _tiles(shape):
    """Sub-boxes of at most bspline.SLAB points that cover the lattice,
    their edges filled from the last axis backwards, whatever its shape."""
    steps, room = [], bspline.SLAB
    for n in reversed(shape):
        steps.insert(0, max(1, min(n, room)))
        room //= steps[0]
    return itertools.product(*([slice(a, a + s) for a in range(0, n, s)]
                               for n, s in zip(shape, steps)))


def _primes(d: int) -> list:
    """The first d primes."""
    found, n = [], 2
    while len(found) < d:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


@lru_cache(maxsize=4)
def _halton_design(d: int, points: int, seed) -> np.ndarray:
    """Scrambled Halton points (Owen, "A randomized Halton algorithm in R",
    arXiv:1706.02808, 2017), (points, d), F-contiguous and read-only, as
    the cache shares them: column i sums the digits of the point index in
    the i-th prime base, each put through its own random permutation.
    An integer or None seed shuffles through random.Random(seed), Python's
    Mersenne Twister (None seeds it from OS entropy), so numpy.random is
    never imported.  A Generator shuffles through its first spawned child,
    and so draws anew on every call, bitwise as scipy.stats.qmc.Halton(d,
    scramble=True, seed=seed).random(points) does; any other seed shuffles
    through np.random.default_rng(seed).  Once every index is spent its
    digits are 0, and the remaining terms add the scalar perm[0] * base^-j.
    """
    if isinstance(seed, numbers.Integral):
        seed = operator.index(seed)  # np.int64(7) and 7 name one design
        if seed < 0:
            raise ValueError("expected non-negative integer")
    rng = (random.Random(seed) if seed is None or isinstance(seed, int)
           else seed.spawn(1)[0] if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    X = np.zeros((d, points))
    for col, base in zip(X, _primes(d)):
        digits = math.ceil(54 / math.log2(base)) - 1  # base^-j > 2^-54
        perms = np.tile(np.arange(base), (digits, 1))
        for perm in perms:  # Random swaps list items faster than numpy's
            items = perm.tolist() if isinstance(rng, random.Random) else perm
            rng.shuffle(items)
            perm[:] = items
        q, top, b2r = np.arange(points), points - 1, 1.0 / base
        for perm in perms:
            if top:  # some index still has a nonzero digit here
                q, digit = np.divmod(q, base)
                col += (perm * b2r)[digit]
                top //= base
            else:
                col += perm[0] * b2r
            b2r /= base
    X = X.T
    X.flags.writeable = False
    return X


def discrete_lq_error(f, rec, q_norm: float, resolution=None, offset=False,
                      method=None, points=None, seed=7) -> float:
    """Discrete L_q distance between f and the reconstruction.

    method: "lattice" (tensor trapezoid, or midpoint when offset=True),
    "halton", or "mc"; None picks the lattice unless its total size would
    exceed 2^24 points, then falls back to 10^6 Halton points.  q_norm may
    be inf for the lattice max, which is walked in tiles (see _tiles).
    resolution is one or d whole numbers of at least 2 (default
    2^(k_i + 3) + 1 per axis); points (default 10^6) is a whole number of
    at least 1.  For "halton" an integer seed names one design, cached and
    shuffled through random.Random (see _halton_design), and None draws a
    fresh one from OS entropy; a numpy Generator draws through
    numpy.random, as "mc" always does.
    Non-finite values of f raise ValueError.
    """
    if not (q_norm > 0):
        raise ValueError("q must be positive")
    if points is not None and not (points >= 1
                                   and float(points).is_integer()):
        raise ValueError(f"points must be a whole number of at least 1: "
                         f"{points!r}")
    fv = vectorize_handle(f, rec.d)

    if method in (None, "lattice"):
        axes, wts = _lattice_axes(rec, resolution, offset)
        big = math.prod(map(len, axes)) > _LATTICE_CAP
        method = "halton" if method is None and big else "lattice"
    if method == "lattice":
        parts = []
        for box in _tiles([len(ax) for ax in axes]):
            sub = [ax[sl] for ax, sl in zip(axes, box)]
            R = recovery.evaluate_lattice(rec, sub)
            X = np.stack(np.meshgrid(*sub, indexing="ij"), -1)
            diff = np.abs(fv(X.reshape(R.size, -1)) - R.reshape(-1))
            w = reduce(np.multiply.outer, [wt[s] for wt, s in zip(wts, box)])
            # numpy fixes the order of add.reduce (see cubature.apply_rule)
            parts.append(float(diff.max() if math.isinf(q_norm) else
                               np.add.reduce(w.reshape(-1) * diff ** q_norm)))
        if math.isinf(q_norm):
            return max(parts)
        return math.fsum(parts) ** (1.0 / q_norm)

    npts = _FALLBACK_POINTS if points is None else int(points)
    if method == "halton":
        # an integer seed names one design; a Generator or None draws anew
        X = (_halton_design if isinstance(seed, numbers.Integral) else
             _halton_design.__wrapped__)(rec.d, npts, seed)
    elif method == "mc":
        X = np.random.default_rng(seed).random((npts, rec.d))
    else:
        raise ValueError("unknown error estimation method")
    # f gets a copy: it may write into its input, and X may be cached
    diff = np.abs(fv(X.copy()) - recovery.evaluate_batch(rec, X))
    if math.isinf(q_norm):
        return float(diff.max())
    return float(np.mean(diff ** q_norm) ** (1.0 / q_norm))


# ---------------------------------------------------------------------------
# energy surrogate

def _coeff_norm(arr: np.ndarray, p: float) -> float:
    a = np.abs(arr)
    if math.isinf(p):
        return float(a.max())
    return float((a ** p).sum() ** (1.0 / p))


def energy_error_surrogate(f, rec, spec: SmoothnessSpec, tau: float,
                           reference) -> float:
    """Residual-surplus surrogate for the energy-norm error.

    Rebuilds f on a strictly larger reference level set; levels already in
    rec carry identical surpluses and drop out, so the sum runs over the
    shell of missing levels, each weighted 2^{gamma |k|_inf - |k|_1 / q}
    (gamma = spec.gamma) in the q coefficient norm and aggregated in the
    tau power, tau in (0, inf] (inf takes the max).
    """
    gamma = spec.gamma
    if gamma is None:
        raise ValueError("surrogate needs a gamma weight")
    if not tau > 0:
        raise ValueError(f"tau must be positive: {tau!r}")
    if not (rec.delta.issubset(reference) and len(reference) > len(rec.delta)):
        raise ValueError("reference set must strictly contain the "
                         "reconstruction levels")
    ref = recovery.build(f, reference, rec.r)
    q = spec.q
    terms = []
    for k in sorted(ref.surplus):
        if k in rec.surplus:
            continue  # identical surplus, exact zero residual
        lg = gamma * max(k)
        if not math.isinf(q):
            lg -= sum(k) / q
        terms.append(2.0 ** lg * _coeff_norm(ref.surplus[k].coeffs, q))
    if not terms:
        return 0.0
    if math.isinf(tau):
        return max(terms)
    return float(np.sum(np.array(terms) ** tau) ** (1.0 / tau))


# ---------------------------------------------------------------------------
# rate fitting

def fit_rate(points) -> RateFit:
    """Least-squares line through the (log2 n, log2 error) of points, n a
    whole number of at least 1, in closed form: slope = sum(dx dy) /
    sum(dx^2) about the means, each sum numpy's add.reduce, so no LAPACK
    is loaded."""
    pts = tuple(points)
    if not all(n >= 1 and float(n).is_integer() for n, _ in pts):
        raise ValueError(f"budgets must be whole numbers of at least 1: "
                         f"{[n for n, _ in pts]}")
    if len(pts) < 4:
        raise ValueError("need at least 4 points for a rate fit")
    ns = np.array([float(n) for n, _ in pts])
    es = np.array([float(e) for _, e in pts])
    if not (np.diff(ns) > 0).all():
        raise ValueError("budgets must be strictly increasing")
    if not (np.isfinite(es) & (es > 0)).all():
        raise ValueError("cannot fit log of nonpositive or non-finite")
    n, x, y = len(pts), np.log2(ns), np.log2(es)
    xm, ym = np.add.reduce(x) / n, np.add.reduce(y) / n
    dx = x - xm
    slope = np.add.reduce(dx * (y - ym)) / np.add.reduce(dx * dx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    return RateFit(float(slope), float(intercept),
                   float(np.sqrt(np.add.reduce(resid ** 2) / n)))


# ---------------------------------------------------------------------------
# test corpus

def _clip_exponent(lam: float, r: int) -> float:
    # the floor wins: for r = 1 the cap r - 1 - 1e-9 is negative, and a
    # negative exponent makes the kink infinite at the grid node 1/2
    return float(max(min(lam, r - 1 - 1e-9), 1e-6))


def _kink_exponents(spec: SmoothnessSpec, r: int):
    inv_p = 0.0 if math.isinf(spec.p) else 1.0 / spec.p
    if spec.kind == "mixed":
        return [_clip_exponent(ai - inv_p, r) for ai in spec.a]
    if spec.beta is not None and spec.beta != 0.0:
        # dominant direction carries the whole alpha+beta budget
        return [_clip_exponent(spec.alpha + spec.beta - inv_p, r)]
    return [_clip_exponent(spec.alpha - inv_p, r)] * spec.d


def _kink_handle(lams):
    lams = np.array(lams)

    def h(X):
        return reduce(np.multiply, (np.abs(X[:, :len(lams)] - 0.5) ** lams).T)

    return h


def kink_integral_1d(lam: float) -> float:
    return 0.5 ** lam / (lam + 1.0)


def corpus(d: int, r: int, spec: SmoothnessSpec):
    """Test functions: exact-reproduction control, smooth product, kink."""
    deg, lams = r - 1, _kink_exponents(spec, r)
    return [
        TestFunction("poly", lambda X: reduce(np.multiply, (X ** deg).T),
                     (1.0 / r) ** d),
        TestFunction("sinprod",
                     lambda X: reduce(np.multiply, np.sin(np.pi * X).T),
                     (2.0 / math.pi) ** d),
        TestFunction("kink", _kink_handle(lams),
                     math.prod(kink_integral_1d(l) for l in lams)),
    ]
