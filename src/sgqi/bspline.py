"""Centered cardinal B-splines and their dyadic dilates.

The splines here are the r-fold convolutions of the unit box, centered at
the origin, hard-coded as piecewise polynomials for orders r = 1..4.  The
test suite validates them against a Cox-de Boor recursion written
independently.

Conventions:
  * order r has support [-r/2, r/2],
  * even r uses integer shifts M(2^k x - s), odd r half-integer shifts
    M(2^k x - s/2); shift_bounds(r, k) indexes every level-k coefficient
    vector of the package, and an integer shift of odd r is index 2s,
  * only this module derives the translation denominator from r,
  * the r = 1 box is right-continuous (value 1 on [-1/2, 1/2)) so point
    evaluation is single-valued at the jump.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

ORDERS = (1, 2, 3, 4)


def _check_order(r: int) -> None:
    if r not in ORDERS:
        raise ValueError("order out of range")


def shift_denominator(r: int) -> int:
    """2 for odd orders (half-integer translation scheme), 1 for even."""
    _check_order(r)
    return 1 if r % 2 == 0 else 2


def eval_centered(r: int, t):
    """Value of the centered B-spline of order r at t (scalar or ndarray)."""
    _check_order(r)
    t = np.asarray(t, dtype=float)
    u = np.abs(t)
    if r == 1:
        v = np.where((t >= -0.5) & (t < 0.5), 1.0, 0.0)
    elif r == 2:
        v = np.maximum(1.0 - u, 0.0)
    elif r == 3:
        v = np.where(u <= 0.5, 0.75 - u * u, 0.0)
        mid = (u > 0.5) & (u < 1.5)
        # parabola pieces meet at u = 1/2 with value 1/2
        v = np.where(mid, 0.5 * (1.5 - u) ** 2, v)
    else:
        v = np.where(u <= 1.0, 2.0 / 3.0 - u * u + 0.5 * u**3, 0.0)
        outer = (u > 1.0) & (u < 2.0)
        v = np.where(outer, (2.0 - u) ** 3 / 6.0, v)
    if v.ndim == 0:
        return float(v)
    return v


def _as_level(k, name="k"):
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(v) for v in k)
    if any(v < 0 for v in k):
        raise ValueError(f"{name} must be nonnegative")
    return k


def shift_bounds(r: int, k: int) -> tuple[int, int]:
    """Inclusive bounds of the univariate active-shift set at level k.

    Even r: integer s with -r/2 < s < 2^k + r/2.
    Odd r:  integer s with -r  < s < 2^(k+1) + r (half-integer scheme).

    The order-1 box is right-open, so the shift just past the right edge
    (support meeting [0,1] only at x = 1) still evaluates to 1 there and
    must stay active; dropping it would break the level telescoping at
    that single point.  Higher orders vanish at their support edge.
    """
    _check_order(r)
    if r % 2 == 0:
        return (-(r // 2) + 1, (1 << k) + r // 2 - 1)
    if r == 1:
        return (0, (1 << (k + 1)) + 1)
    return (-r + 1, (1 << (k + 1)) + r - 1)


@lru_cache(maxsize=None)
def _integral_centered(r: int, a: float, b: float) -> float:
    """Integral of M over [a, b], a subinterval of its support, piece by
    piece between the knots with a Gauss rule of ceil(r/2) points, exact
    for the degree r-1 polynomial pieces.  The clipped intervals repeat
    from level to level, so each is integrated once per process."""
    half = r / 2.0
    knots = [-half + i for i in range(r + 1)]
    cuts = sorted({a, b, *[c for c in knots if a < c < b]})
    gx, gw = np.polynomial.legendre.leggauss((r + 1) // 2)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        rad = 0.5 * (hi - lo)
        total += rad * float(np.dot(gw, eval_centered(r, mid + rad * gx)))
    return total


@lru_cache(maxsize=None)
def integral_vector(r: int, k: int) -> np.ndarray:
    """Integrals over [0,1] of M(2^k x - s/den), one per shift s of
    shift_bounds(r, k).

    Substituting t = 2^k x - s/den leaves M integrated over its support
    clipped to [-s/den, 2^k - s/den], scaled by 2^-k.  All interior shifts
    share the whole support, so M is integrated once per distinct clipped
    interval; an empty one (the right-open order-1 box past x = 1)
    integrates to 0.
    """
    lo, hi = shift_bounds(r, k)
    s = np.arange(lo, hi + 1)
    den = shift_denominator(r)
    half = r / 2.0
    ends = np.stack([np.maximum(-s / den, -half),
                     np.minimum(math.ldexp(1.0, k) - s / den, half)], axis=1)
    pieces, which = np.unique(ends, axis=0, return_inverse=True)
    vals = np.array([_integral_centered(r, a, b) if a < b else 0.0
                     for a, b in pieces.tolist()])
    out = np.ldexp(vals[which.reshape(-1)], -k)
    out.flags.writeable = False  # the cache hands it to every caller
    return out


# (r-1)! N_r(t + r - 1 - j) on t in [0, 1) for j = 0..r-1, highest power of
# t first; N_r(v - b) = M(v - b - r/2) is the B-spline on the knots b..b+r
_PIECES = {
    1: ((1,),),
    2: ((-1, 1), (1, 0)),
    3: ((1, -2, 1), (-2, 2, 1), (1, 0, 0)),
    4: ((-1, 3, -3, 1), (3, -6, 0, 4), (-3, 3, 3, 1), (1, 0, 0, 0)),
}


def _basis_values(r: int, t: np.ndarray) -> np.ndarray:
    """N_r(t + r - 1 - j), j = 0..r-1, along a new first axis, by Horner."""
    v = np.zeros((r,) + t.shape)
    for c in np.array(_PIECES[r], dtype=float).T:
        v *= t
        v += c.reshape((r,) + (1,) * t.ndim)
    v /= math.factorial(r - 1)
    return v


def _integer_knots(r: int, k: tuple, s_min, coeffs: np.ndarray):
    """(K, first left knot b per axis, coeffs) of the same expansion written
    as sum_b c_b N_r(2^K x - b).  Even r: b = s - r/2 and K = k.  Odd r:
    M(2^k x - s/2) = 2^{1-r} sum_j C(r, j) N_r(2^{k+1} x - (s + j - r)) by
    the two-scale relation, so each axis is convolved once with the
    binomial weights and lands on integer knots at K = k + 1."""
    if r % 2 == 0:
        return k, [s - r // 2 for s in s_min], coeffs
    w = [math.comb(r, j) / (1 << (r - 1)) for j in range(r + 1)]
    for axis in range(coeffs.ndim):
        c = np.moveaxis(coeffs, axis, 0)
        out = np.zeros((len(c) + r,) + c.shape[1:])
        for j, wj in enumerate(w):
            out[j:j + len(c)] += wj * c
        coeffs = np.moveaxis(out, 0, axis)
    return tuple(ki + 1 for ki in k), [s - r for s in s_min], coeffs


def eval_expansion(r: int, k, s_min, coeffs: np.ndarray, X) -> np.ndarray:
    """Evaluate a single-level tensor spline expansion at the (npts, d)
    points X, or on a list of d coordinate arrays that broadcast (a lattice
    passes axis i extending along dimension i), in their broadcast shape.

    coeffs[i_1,...,i_d] is the coefficient of the shift s_min + i (per
    dimension) of shift_bounds(r, k).  Shifts outside the coefficient
    array contribute nothing.  On integer knots (_integer_knots) r splines
    per axis are nonzero at x, with left knots floor(2^K x) - r + 1 + j.
    """
    _check_order(r)
    return eval_knots(r, *_integer_knots(r, _as_level(k), s_min, coeffs), X)


def eval_knots(r: int, K: tuple, b_min, coeffs: np.ndarray, X):
    """eval_expansion of sum_b c_b N_r(2^K x - b) from _integer_knots."""
    d = len(K)
    # per dimension, entry j of vals and offs holds the j-th candidate of
    # every coordinate: its spline value and its offset into the flat coeffs
    offs, vals = [], []
    for i, x in enumerate(X.T if isinstance(X, np.ndarray) else X):
        u = x * float(1 << K[i])
        fl = np.floor(u)
        B = _basis_values(r, u - fl)
        col = (np.arange(r).reshape((r,) + (1,) * u.ndim)
               + (fl.astype(np.int64) + (1 - r - b_min[i])))
        B *= (col >= 0) & (col < coeffs.shape[i])  # B is finite, t in [0, 1)
        np.clip(col, 0, coeffs.shape[i] - 1, out=col)
        col *= math.prod(coeffs.shape[i + 1:])
        vals.append(B)
        offs.append(col)
    shape = np.broadcast_shapes(*(v.shape[1:] for v in vals))
    flat = coeffs.reshape(-1)
    out, term = np.zeros(shape), np.empty(shape)
    # running products of weights and sums of offsets over axes 0..i; only
    # the axes from the combination's last nonzero index on changed
    w = [None] + [np.empty(shape) for _ in range(1, d)]
    idx = [None] + [np.empty(shape, np.int64) for _ in range(1, d)]
    for combo in np.ndindex(*([r] * d)):
        w[0], idx[0] = vals[0][combo[0]], offs[0][combo[0]]
        first = max([1, *(i for i, c in enumerate(combo) if c)])
        for i in range(first, d):
            np.multiply(w[i - 1], vals[i][combo[i]], out=w[i])
            np.add(idx[i - 1], offs[i][combo[i]], out=idx[i])
        # offsets are clipped already; the default mode buffers the take
        np.take(flat, idx[-1], out=term, mode="clip")
        term *= w[-1]
        out += term
    return out
