"""Quasi-interpolation machinery on dyadic grids over [0,1]^d.

Univariate building blocks: a finite even mask Lambda, Lagrange boundary
extension of sampled functions, the sample functionals a_{k,s}, and the
hierarchical (surplus) functionals c_{k,s} that express the level
difference Q_k - Q_{k-1} in the dilated B-spline basis.  Tensorization is
coordinatewise, dimension 1 outermost.

All functionals are finite linear combinations of samples at the dyadic
nodes j 2^{-k}; the combination weights are exact rationals (Fractions)
and are tabulated once per (r, k, s).  Floating point enters only when a
weight table is applied to actual sample values.

The surplus convention used throughout: level 0 carries Q_0 itself and,
for k > 0, even half-integer shifts inherit the level-k sample functional
while odd shifts carry the refined remainder of -Q_{k-1}.  With this
convention the telescoping identity sum_{k' <= k} q_{k'} = Q_k holds
exactly for every order, which the test suite checks directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import bspline

__all__ = [
    "Mask", "mask_for_order", "BoundaryExtendedSampler", "extend",
    "a_coeff", "c_coeff_even", "c_coeff_odd", "a_weights", "surplus_weights",
    "SurplusLevel", "q_level", "apply_Q", "coeff_shift_bounds",
    "sample_matrix", "surplus_matrix", "refine_matrix", "vectorize_handle",
    "contract",
]

_MASKS = {
    1: {0: Fraction(1)},
    2: {0: Fraction(1)},
    3: {-1: Fraction(-1, 8), 0: Fraction(10, 8), 1: Fraction(-1, 8)},
    4: {-1: Fraction(-1, 6), 0: Fraction(8, 6), 1: Fraction(-1, 6)},
}


@dataclass(frozen=True)
class Mask:
    """Finite even coefficient sequence lam(j), |j| <= mu, sum = 1."""

    r: int
    mu: int
    lam: tuple  # ((j, Fraction), ...) sorted by j

    def weights(self) -> dict:
        return dict(self.lam)

    def norm(self) -> float:
        return float(sum(abs(w) for _, w in self.lam))


def mask_for_order(r: int) -> Mask:
    bspline._check_order(r)
    lam = _MASKS[r]
    mu = max(abs(j) for j in lam)
    return Mask(r=r, mu=mu, lam=tuple(sorted(lam.items())))


def coeff_shift_bounds(r: int, k: int) -> tuple[int, int]:
    """Inclusive bounds of the sample-functional index set at level k,
    the integers s with -r/2 < s < 2^k + r/2."""
    bspline._check_order(r)
    if r % 2 == 0:
        return (-(r // 2) + 1, (1 << k) + r // 2 - 1)
    return (-((r - 1) // 2), (1 << k) + (r - 1) // 2)


# ---------------------------------------------------------------------------
# exact rational weight tables


@lru_cache(maxsize=None)
def _lagrange_weights(nodes: tuple, t: int) -> tuple:
    """Weights w_i with P(t) = sum_i w_i f(nodes[i]) for the polynomial
    interpolating f at the given integer nodes."""
    out = []
    for i, xi in enumerate(nodes):
        w = Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                w *= Fraction(t - xj, xi - xj)
        out.append(w)
    return tuple(out)


@lru_cache(maxsize=None)
def _fbar_weights(r: int, k: int, tau: int) -> tuple:
    """Node weights of the extended sample fbar_k(tau 2^{-k}).

    Inside [0, 2^k] this is the sample itself.  Outside, the value of the
    Lagrange polynomial through the r nearest boundary nodes; when the
    level has fewer than r nodes the stencil is capped at what exists, so
    every level is defined (full degree r-1 extension needs 2^k + 1 >= r).
    """
    n = 1 << k
    if 0 <= tau <= n:
        return ((tau, Fraction(1)),)
    m = min(r, n + 1)
    if tau < 0:
        nodes = tuple(range(m))
    else:
        nodes = tuple(range(n - m + 1, n + 1))
    ws = _lagrange_weights(nodes, tau)
    return tuple((nd, w) for nd, w in zip(nodes, ws) if w != 0)


@lru_cache(maxsize=None)
def a_weights(r: int, k: int, s: int) -> tuple:
    """Exact node-weight table of a_{k,s}: pairs (j, w) meaning
    a_{k,s}(f) = sum w * f(j 2^{-k})."""
    acc: dict[int, Fraction] = {}
    for j, lam in _MASKS[r].items():
        for node, w in _fbar_weights(r, k, s - j):
            acc[node] = acc.get(node, Fraction(0)) + lam * w
    return tuple(sorted((nd, w) for nd, w in acc.items() if w != 0))


def _pairs_even(r: int, k: int, s: int):
    """(m, j) with 2m + j - r/2 = s, 0 <= j <= r, m in the level k-1
    sample index set."""
    lo, hi = coeff_shift_bounds(r, k - 1)
    out = []
    for j in range(r + 1):
        num = s - j + r // 2
        if num % 2 == 0 and lo <= num // 2 <= hi:
            out.append((num // 2, j))
    return out


def _pairs_odd(r: int, k: int, s: int):
    """(m, j) with 4m + 2j - r = s, 0 <= j <= r, m in the level k-1
    sample index set."""
    lo, hi = coeff_shift_bounds(r, k - 1)
    out = []
    for j in range(r + 1):
        num = s + r - 2 * j
        if num % 4 == 0 and lo <= num // 4 <= hi:
            out.append((num // 4, j))
    return out


@lru_cache(maxsize=None)
def surplus_weights(r: int, k: int, s: int) -> tuple:
    """Exact node-weight table of the surplus functional c_{k,s} at level
    k: pairs (j, w) meaning c_{k,s}(f) = sum w * f(j 2^{-k})."""
    if r % 2 == 0:
        if k == 0:
            return a_weights(r, 0, s)
        acc = {nd: w for nd, w in a_weights(r, k, s)}
        scale = Fraction(1, 1 << (r - 1))
        for m, j in _pairs_even(r, k, s):
            cw = scale * math.comb(r, j)
            for node, w in a_weights(r, k - 1, m):
                key = 2 * node
                acc[key] = acc.get(key, Fraction(0)) - cw * w
        return tuple(sorted((nd, w) for nd, w in acc.items() if w != 0))
    # odd order: even shifts restate the level-k sample functional, odd
    # shifts carry the refined -Q_{k-1} part
    if s % 2 == 0:
        return a_weights(r, k, s // 2)
    if k == 0:
        return ()
    acc = {}
    scale = Fraction(1, 1 << (r - 1))
    for m, j in _pairs_odd(r, k, s):
        cw = scale * math.comb(r, j)
        for node, w in a_weights(r, k - 1, m):
            key = 2 * node
            acc[key] = acc.get(key, Fraction(0)) - cw * w
    return tuple(sorted((nd, w) for nd, w in acc.items() if w != 0))


# ---------------------------------------------------------------------------
# public scalar operations


class BoundaryExtendedSampler:
    """Samples of f on the level-k dyadic grid with Lagrange extension.

    Returns f itself on [0,1] and the degree r-1 extrapolation through the
    r leftmost (rightmost) grid nodes outside.
    """

    def __init__(self, f, k: int, r: int):
        bspline._check_order(r)
        if (1 << k) + 1 < r:
            raise ValueError("insufficient nodes for extension")
        self.f = f
        self.k = int(k)
        self.r = int(r)
        n = 1 << k
        self.nodes = np.arange(n + 1) * math.ldexp(1.0, -k)
        self.samples = np.array([float(f(x)) for x in self.nodes])

    def _lagrange(self, xs, nodes, vals):
        out = np.zeros_like(xs)
        for i in range(len(nodes)):
            term = np.full_like(xs, vals[i])
            for j in range(len(nodes)):
                if j != i:
                    term *= (xs - nodes[j]) / (nodes[i] - nodes[j])
            out += term
        return out

    def __call__(self, x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        left = xa < 0.0
        right = xa > 1.0
        inner = ~(left | right)
        if inner.any():
            out[inner] = [float(self.f(v)) for v in xa[inner]]
        if left.any():
            out[left] = self._lagrange(xa[left], self.nodes[: self.r],
                                       self.samples[: self.r])
        if right.any():
            out[right] = self._lagrange(xa[right], self.nodes[-self.r:],
                                        self.samples[-self.r:])
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out


def extend(f, k: int, r: int) -> BoundaryExtendedSampler:
    """Boundary-extended sampler of f at level k for order r."""
    return BoundaryExtendedSampler(f, k, r)


def a_coeff(sampler: BoundaryExtendedSampler, mask: Mask, k: int, s: int) -> float:
    """Sample functional a_{k,s}(f) = sum_j lam(j) fbar_k((s-j) 2^{-k})."""
    if sampler.k != k:
        raise ValueError("sampler level does not match k")
    h = math.ldexp(1.0, -k)
    return float(sum(float(w) * sampler((s - j) * h) for j, w in mask.lam))


def _apply_table(table, f, k: int) -> float:
    h = math.ldexp(1.0, -k)
    return float(sum(float(w) * float(f(nd * h)) for nd, w in table))


def c_coeff_even(f, r: int, k: int, s: int) -> float:
    """Surplus coefficient c_{k,s}(f) for even order."""
    if r % 2 != 0:
        raise ValueError("parity mismatch")
    return _apply_table(surplus_weights(r, k, s), f, k)


def c_coeff_odd(f, r: int, k: int, s: int) -> float:
    """Surplus coefficient c_{k,s}(f) for odd order (half-integer shifts)."""
    if r % 2 == 0:
        raise ValueError("parity mismatch")
    return _apply_table(surplus_weights(r, k, s), f, k)


# ---------------------------------------------------------------------------
# vectorized level operators


def _table_matrix(rows, k: int):
    n = (1 << k) + 1
    indptr = [0]
    indices = []
    data = []
    for table in rows:
        for nd, w in table:
            indices.append(nd)
            data.append(float(w))
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(len(rows), n))


@lru_cache(maxsize=None)
def surplus_matrix(r: int, k: int):
    """CSR matrix of all surplus functionals at level k over the node
    values, and the first row's shift index."""
    lo, hi = bspline.shift_bounds(r, k)
    rows = [surplus_weights(r, k, s) for s in range(lo, hi + 1)]
    return _table_matrix(rows, k), lo


@lru_cache(maxsize=None)
def sample_matrix(r: int, k: int):
    """CSR matrix of the sample functionals a_{k,s} over node values."""
    lo, hi = coeff_shift_bounds(r, k)
    rows = [a_weights(r, k, s) for s in range(lo, hi + 1)]
    return _table_matrix(rows, k), lo


@lru_cache(maxsize=None)
def refine_matrix(r: int, k: int):
    """CSR matrix taking the coefficients of a level-k expansion (shifts
    of shift_bounds(r, k)) to those of the same function on [0,1] at level
    k + 1, by the two-scale relation
    M(x) = 2^{1-r} sum_j C(r, j) M(2x - j + r/2).

    Shift s feeds t = 2s + j - r/2 for even r and t = 2s + 2j - r for odd r
    (half-integer scheme).  Targets outside shift_bounds(r, k + 1) vanish
    on [0,1], the right-open order-1 box at x = 1 included, and are
    dropped.
    """
    lo, hi = bspline.shift_bounds(r, k)
    t_lo, t_hi = bspline.shift_bounds(r, k + 1)
    s = np.arange(lo, hi + 1)[:, None]
    j = np.arange(r + 1)[None, :]
    t = 2 * s + (j - r // 2 if r % 2 == 0 else 2 * j - r)
    w = np.array([math.comb(r, i) for i in range(r + 1)]) / (1 << (r - 1))
    keep = (t >= t_lo) & (t <= t_hi)
    cols = np.broadcast_to(s - lo, t.shape)[keep]
    data = np.broadcast_to(w[None, :], t.shape)[keep]
    return sparse.csr_matrix((data, (t[keep] - t_lo, cols)),
                             shape=(t_hi - t_lo + 1, hi - lo + 1))


def _one_per_row(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape == (n, 1):
        y = y.reshape(n)
    if y.shape != (n,):
        raise ValueError(f"f returned shape {y.shape} for {n} points")
    return y


def vectorize_handle(f, d: int):
    """Adapt a user function handle to the internal (npts, d) -> (npts,)
    calling convention.

    f may take the (npts, d) array, one array per coordinate, d scalars or
    one row.  The convention is found on the first input f is really asked
    for, trying each in that order, so f is called on no other points.
    Every result must hold one value per input row, else ValueError.
    """
    tries = [lambda X: f(X), lambda X: f(*X.T),
             lambda X: [f(*row) for row in X]]
    if d > 1:
        tries.append(lambda X: [f(row) for row in X])
    found = None

    def fv(X):
        nonlocal found
        X = np.asarray(X, dtype=float)
        if found is not None:
            return _one_per_row(found(X), len(X))
        first = None
        for call in tries:
            try:
                y = _one_per_row(call(X), len(X))
            except Exception as exc:  # f does not take this convention
                first = first or exc
                continue
            found = call
            return y
        raise ValueError("f accepts none of the calling conventions "
                         "(npts, d) array, d arrays, d scalars or one row; "
                         f"as an (npts, d) array: {first}") from first

    return fv


def _node_tensor(fv, k: tuple) -> np.ndarray:
    axes = [np.arange((1 << ki) + 1) * math.ldexp(1.0, -ki) for ki in k]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return fv(pts).reshape([(1 << ki) + 1 for ki in k])


def _apply_along_axis(W, T: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(T, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    res = W @ flat
    out = res.reshape((W.shape[0],) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def contract(T: np.ndarray, mats) -> np.ndarray:
    """Apply mats[i] along axis i of the node tensor T, one coordinate at a
    time (dimension 1 outermost)."""
    for axis in reversed(range(T.ndim)):
        T = _apply_along_axis(mats[axis], T, axis)
    return T


@dataclass
class SurplusLevel:
    """Dense surplus coefficients of one level: entry [i_1,...,i_d] is
    c_{k, s_min + i}(f)."""

    k: tuple
    s_min: tuple
    coeffs: np.ndarray


class SurplusField(dict):
    """Map level vector -> SurplusLevel."""


def q_level(f, r: int, k) -> SurplusLevel:
    """All surplus coefficients of the level k, computed by applying the
    univariate surplus functional one coordinate at a time (dimension 1
    outermost)."""
    k = bspline._as_level(k)
    T = _node_tensor(vectorize_handle(f, len(k)), k)
    T = contract(T, [surplus_matrix(r, ki)[0] for ki in k])
    s_min = tuple(bspline.shift_bounds(r, ki)[0] for ki in k)
    return SurplusLevel(k=k, s_min=s_min, coeffs=T)


def apply_Q(f, r: int, k, x) -> float | np.ndarray:
    """Value of the tensor quasi-interpolant Q_k(f) at x (a point or an
    (npts, d) array), computed directly from the sample functionals."""
    k = bspline._as_level(k)
    d = len(k)
    T = _node_tensor(vectorize_handle(f, d), k)
    T = contract(T, [sample_matrix(r, ki)[0] for ki in k])
    s_min = tuple(coeff_shift_bounds(r, ki)[0] for ki in k)
    X = np.asarray(x, dtype=float)
    single = X.ndim <= 1
    X = np.atleast_2d(X)
    if X.shape[1] != d:
        raise ValueError("point dimension mismatch")
    # Q_k expands in integer shifts for every order
    vals = bspline.eval_expansion(r, k, s_min, T, X, den=1)
    return float(vals[0]) if single else vals
