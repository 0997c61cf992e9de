"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions, on purpose not
sharing code with the package: the centered splines as closed-form
pieces (eval_centered) and by the Cox-de Boor recursion, their exact
integrals in Fractions from the truncated-power form, the classical
Faber (hat-function) surplus for order 2, exact rational sample and
surplus functionals derived row by row in Fractions, a scalar
boundary-extended sampler, brute-force box scans for the level sets, a
breakpoint scan for the budget inversion, and grid points identified by
exact fractions.  The exceptions are the paths the package replaced, kept
here as their references: the depth-first level search with a bisection
per budget, the per-level walk of lower neighbours for downward closure,
the search of a level's node ids in the sorted grid ids, the
np.moveaxis axis product, the per-level evaluation kernel (it calls the
package's single-level bspline.eval_expansion),
centered_expansion, the half-integer candidate kernel that was
bspline.eval_expansion before the integer-knot one and is now its
reference, and the pointwise tensor spline (both value eval_centered).
The Besov-type coefficient quasinorm lives here too: only tests use it.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse


# --------------------------------------------------------------------------
# the centered cardinal B-spline: closed-form pieces, Cox-de Boor recursion


def eval_centered(r: int, t):
    """Value of the centered B-spline of order r at t (scalar or ndarray)."""
    if r not in (1, 2, 3, 4):
        raise ValueError("order out of range")
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


def cox_de_boor(r: int, t: float) -> float:
    """Centered cardinal B-spline of order r via the Cox-de Boor recursion
    on the integer knot vector 0..r, shifted so the support is centered.

    The order-1 box is half-open on the right, matching the package
    convention for point evaluation at knots.
    """
    x = t + r / 2.0

    def N(i, m):
        if m == 1:
            return 1.0 if i <= x < i + 1 else 0.0
        left = (x - i) / (m - 1) * N(i, m - 1)
        right = (i + m - x) / (m - 1) * N(i + 1, m - 1)
        return left + right

    return N(0, r)


# --------------------------------------------------------------------------
# Faber surplus for order 2, exact rational node-weight tables


def faber_table(k: int, s: int) -> tuple:
    """Node-weight table of the classical hierarchical hat surplus at
    level k, shift s: pairs (node, weight) against samples f(node 2^-k).

    Level 0 keeps the endpoint samples; at finer levels odd shifts carry
    the midpoint minus the average of its two neighbours and even shifts
    vanish (their value is already known from the coarser level).
    """
    if k == 0:
        return ((s, Fraction(1)),)
    if s % 2 == 0:
        return ()
    return ((s - 1, Fraction(-1, 2)), (s, Fraction(1)),
            (s + 1, Fraction(-1, 2)))


def apply_table_exact(table, values) -> Fraction:
    """Evaluate a node-weight table against exact sample values (a
    node -> Fraction mapping)."""
    return sum((w * values[nd] for nd, w in table), Fraction(0))


# --------------------------------------------------------------------------
# pointwise tensor splines (the scalar path the expansion kernel replaced)


def shift_ranges(r: int, k) -> list:
    """Per-dimension shift ranges of the basis functions alive on [0,1]^d."""
    return [range(lo, hi + 1)
            for lo, hi in (surplus_bounds(r, ki) for ki in k)]


def eval_dilated(r: int, k, s, x) -> float:
    """prod_i M(2^{k_i} x_i - s_i / den) at one point x."""
    from sgqi import bspline

    den = bspline.shift_denominator(r)
    val = 1.0
    for ki, si, xi in zip(k, s, x):
        val *= eval_centered(r, math.ldexp(float(xi), ki) - si / den)
    return val


def integral_dilated_1d(r: int, k: int, s: int) -> float:
    """Integral over [0,1] of M(2^k x - s/den), one shift at a time, as the
    float nearest the exact rational.

    Substituting v = 2^k x - s/den + r/2 leaves the B-spline N_r on the
    knots 0..r, in truncated-power form sum_j (-1)^j C(r, j) (v - j)_+^(r-1)
    / (r-1)!, integrated over [0, r] clipped to [r/2 - s/den, 2^k + r/2 -
    s/den]: the difference of its antiderivative, the same sum with
    exponent r over r!, in Fractions, scaled by 2^-k.
    """
    def antiderivative(v):
        return sum((-1) ** j * math.comb(r, j) * max(v - j, 0) ** r
                   for j in range(r + 1)) / math.factorial(r)

    shift = Fraction(s, 1 if r % 2 == 0 else 2)
    lo = max(Fraction(r, 2) - shift, Fraction(0))
    hi = min((1 << k) + Fraction(r, 2) - shift, Fraction(r))
    if hi <= lo:
        return 0.0
    return math.ldexp(float(antiderivative(hi) - antiderivative(lo)), -k)


def integral_on_cube(r: int, k, s) -> float:
    """Integral of the tensor dilated spline over the unit cube."""
    return math.prod(integral_dilated_1d(r, ki, si) for ki, si in zip(k, s))


# --------------------------------------------------------------------------
# exact rational sample and surplus functionals, row by row

MASKS = {
    1: {0: Fraction(1)},
    2: {0: Fraction(1)},
    3: {-1: Fraction(-1, 8), 0: Fraction(10, 8), 1: Fraction(-1, 8)},
    4: {-1: Fraction(-1, 6), 0: Fraction(8, 6), 1: Fraction(-1, 6)},
}


def coeff_bounds(r: int, k: int) -> tuple:
    """Integers s with -r/2 < s < 2^k + r/2."""
    return (-(r // 2) + 1 if r % 2 == 0 else -((r - 1) // 2),
            (1 << k) + (r // 2 - 1 if r % 2 == 0 else (r - 1) // 2))


def surplus_bounds(r: int, k: int) -> tuple:
    """Shifts of the level-k splines alive on [0,1]: integers for even r,
    half-integer indices for odd r (the order-1 box keeps the shift whose
    support meets [0,1] only at x = 1)."""
    if r % 2 == 0:
        return coeff_bounds(r, k)
    if r == 1:
        return (0, (1 << (k + 1)) + 1)
    return (-r + 1, (1 << (k + 1)) + r - 1)


def lagrange_weights(nodes, t) -> tuple:
    """Weights w_i with P(t) = sum_i w_i f(nodes[i]) for the polynomial
    interpolating f at the given nodes."""
    out = []
    for i, xi in enumerate(nodes):
        w = Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                w *= Fraction(t - xj, xi - xj)
        out.append(w)
    return tuple(out)


def fbar_weights(r: int, k: int, tau: int) -> tuple:
    """Node weights of the extended sample fbar_k(tau 2^{-k}): the sample
    inside [0, 2^k], outside the Lagrange polynomial through the r nearest
    boundary nodes (fewer when the level has fewer nodes)."""
    n = 1 << k
    if 0 <= tau <= n:
        return ((tau, Fraction(1)),)
    m = min(r, n + 1)
    nodes = tuple(range(m)) if tau < 0 else tuple(range(n - m + 1, n + 1))
    return tuple((nd, w) for nd, w in zip(nodes, lagrange_weights(nodes, tau))
                 if w != 0)


@lru_cache(maxsize=None)
def a_weights(r: int, k: int, s: int) -> tuple:
    """Node-weight table of a_{k,s}: pairs (j, w) meaning
    a_{k,s}(f) = sum w f(j 2^{-k})."""
    acc = {}
    for j, lam in MASKS[r].items():
        for node, w in fbar_weights(r, k, s - j):
            acc[node] = acc.get(node, Fraction(0)) + lam * w
    return tuple(sorted((nd, w) for nd, w in acc.items() if w != 0))


def pairs_even(r: int, k: int, s: int) -> list:
    """(m, j) with 2m + j - r/2 = s, 0 <= j <= r, m a level k-1 sample
    index."""
    lo, hi = coeff_bounds(r, k - 1)
    return [((s - j + r // 2) // 2, j) for j in range(r + 1)
            if (s - j + r // 2) % 2 == 0 and lo <= (s - j + r // 2) // 2 <= hi]


def pairs_odd(r: int, k: int, s: int) -> list:
    """(m, j) with 4m + 2j - r = s, 0 <= j <= r, m a level k-1 sample
    index."""
    lo, hi = coeff_bounds(r, k - 1)
    return [((s + r - 2 * j) // 4, j) for j in range(r + 1)
            if (s + r - 2 * j) % 4 == 0 and lo <= (s + r - 2 * j) // 4 <= hi]


@lru_cache(maxsize=None)
def surplus_weights(r: int, k: int, s: int) -> tuple:
    """Node-weight table of the surplus functional c_{k,s}: the level-k
    sample functional (even r, or even half-integer index s for odd r)
    minus the two-scale refinement of the level k-1 ones,
    M(x) = 2^{1-r} sum_j C(r, j) M(2x - j + r/2)."""
    if r % 2 == 0:
        acc = dict(a_weights(r, k, s))
        pairs = pairs_even(r, k, s) if k > 0 else []
    else:
        acc = dict(a_weights(r, k, s // 2)) if s % 2 == 0 else {}
        pairs = pairs_odd(r, k, s) if k > 0 else []
    for m, j in pairs:
        cw = Fraction(math.comb(r, j), 1 << (r - 1))
        for node, w in a_weights(r, k - 1, m):
            acc[2 * node] = acc.get(2 * node, Fraction(0)) - cw * w
    return tuple(sorted((nd, w) for nd, w in acc.items() if w != 0))


def table_csr(tables, k: int):
    """CSR matrix over the 2^k + 1 level-k nodes with one row per table:
    float() of each exact weight, zero weights dropped, indices sorted."""
    indptr = np.cumsum([0] + [len(t) for t in tables])
    indices = [nd for t in tables for nd, _ in t]
    data = [float(w) for t in tables for _, w in t]
    return sparse.csr_matrix((np.array(data, dtype=float),
                              np.array(indices, dtype=np.int64), indptr),
                             shape=(len(tables), (1 << k) + 1))


# --------------------------------------------------------------------------
# scalar boundary-extended sampler


class BoundaryExtendedSampler:
    """Samples of f on the level-k dyadic grid with Lagrange extension.

    Returns f itself on [0,1] and the degree r-1 extrapolation through the
    r leftmost (rightmost) grid nodes outside.
    """

    def __init__(self, f, k: int, r: int):
        if (1 << k) + 1 < r:
            raise ValueError("insufficient nodes for extension")
        self.f = f
        self.k = k
        self.r = r
        self.nodes = np.arange((1 << k) + 1) * math.ldexp(1.0, -k)
        self.samples = np.array([float(f(x)) for x in self.nodes])

    @staticmethod
    def _lagrange(x, nodes, vals):
        out = 0.0
        for i in range(len(nodes)):
            term = vals[i]
            for j in range(len(nodes)):
                if j != i:
                    term *= (x - nodes[j]) / (nodes[i] - nodes[j])
            out += term
        return out

    def __call__(self, x: float) -> float:
        if x < 0.0:
            return self._lagrange(x, self.nodes[:self.r],
                                  self.samples[:self.r])
        if x > 1.0:
            return self._lagrange(x, self.nodes[-self.r:],
                                  self.samples[-self.r:])
        return float(self.f(x))


def a_coeff(sampler: BoundaryExtendedSampler, s: int) -> float:
    """Sample functional a_{k,s}(f) = sum_j lam(j) fbar_k((s-j) 2^{-k}) at
    the sampler's level k."""
    h = math.ldexp(1.0, -sampler.k)
    return math.fsum(float(w) * sampler((s - j) * h)
                     for j, w in MASKS[sampler.r].items())


# --------------------------------------------------------------------------
# brute-force level-set scan


def box_scan_levels(d: int, b, cinf: float, xi: float, kmax: int = 64):
    """All level vectors k in [0, kmax]^d with sum b_i k_i + cinf max(k)
    below xi, by exhaustive scan (same float tolerance as the package)."""
    tol = 1e-9 * max(1.0, abs(xi))
    out = []
    for k in np.ndindex(*([kmax + 1] * d)):
        val = sum(bi * ki for bi, ki in zip(b, k)) + cinf * max(k)
        if val <= xi + tol:
            out.append(tuple(int(v) for v in k))
    return sorted(out)


def level_lattice(k) -> list:
    """Points of the full level-k dyadic lattice as tuples of reduced
    fractions, in C order of the node tensor."""
    grid = [()]
    for ki in k:
        grid = [g + (Fraction(j, 1 << ki),) for g in grid
                for j in range((1 << ki) + 1)]
    return grid


def dyadic_point_set(levels) -> list:
    """Distinct points of the union of dyadic lattices, sorted, by
    literally collecting all reduced fractions."""
    seen = set()
    for k in levels:
        seen.update(level_lattice(k))
    return sorted(seen)


def distinct_dyadic_points(levels) -> int:
    return len(dyadic_point_set(levels))


def neighbour_walk_closed(levels) -> bool:
    """Whether a set of distinct levels is downward closed: every lower
    neighbour k - e_i (k_i > 0) of every level looked up in the set."""
    index = set(levels)
    return all(k[:i] + (k[i] - 1,) + k[i + 1:] in index
               for k in levels for i in range(len(k)) if k[i] > 0)


def searchsorted_positions(grid, k) -> np.ndarray:
    """Rows of the level-k nodes of grid, in C order of the node tensor:
    each node's coordinates on the finest lattice packed into an id and
    looked up in the sorted grid ids."""
    axes = [np.arange((1 << ki) + 1) << (Ki - ki) for ki, Ki in zip(k, grid.K)]
    ids = np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"),
                               [(1 << Ki) + 1 for Ki in grid.K])
    return np.searchsorted(grid.ids, ids.reshape(-1))


def dict_weights(levels, level_weights):
    """Cubature weights scattered onto the distinct points through a dict
    keyed by exact point identity, levels in the given order.

    level_weights(k) gives the node weights of level k on its node tensor.
    Returns the sorted points and their weights.
    """
    acc = {}
    for k in levels:
        flat = np.asarray(level_weights(k)).reshape(-1)
        for key, wt in zip(level_lattice(k), flat):
            acc[key] = acc.get(key, 0.0) + float(wt)
    keys = sorted(acc)
    return keys, np.array([acc[key] for key in keys])


# --------------------------------------------------------------------------
# per-level evaluation of a reconstruction (the kernel before level groups)

# relative cutoff below which a whole level's coefficients count as noise
# (they arise when a functional with weights summing to 0 exactly in
# rationals is applied, in floats, to samples constant in a coordinate)
SKIP_TOL = 1e-14


def per_level_evaluate(rec, X, skip_tol: float = SKIP_TOL) -> np.ndarray:
    """Sum of one single-level expansion per level at the (npts, d)
    points X.  Levels whose coefficients are uniformly below skip_tol
    relative to the largest coefficient are skipped; skip_tol=0 sums all.
    """
    from sgqi import bspline

    X = np.asarray(X, dtype=float)
    scale = max((float(np.max(np.abs(lvl.coeffs)))
                 for lvl in rec.surplus.values()), default=0.0)
    cutoff = skip_tol * scale
    out = np.zeros(X.shape[0])
    for lvl in rec.surplus.values():
        if float(np.max(np.abs(lvl.coeffs))) > cutoff:
            out += bspline.eval_expansion(rec.r, lvl.k, lvl.s_min,
                                          lvl.coeffs, X)
    return out


def centered_expansion(r: int, k, s_min, coeffs: np.ndarray,
                       X: np.ndarray) -> np.ndarray:
    """bspline.eval_expansion at the (npts, d) points X as it was before
    the integer-knot kernel: den*r candidate shifts per axis (2r for odd
    r), each valued by eval_centered at u - s/den."""
    from sgqi import bspline

    d = len(k)
    den = bspline.shift_denominator(r)
    m = den * r
    offs = []
    vals = []
    for i in range(d):
        u = X[:, i] * float(1 << k[i])
        a = den * u - den * r / 2.0
        s_lo = np.floor(a).astype(np.int64) + 1
        cand = np.arange(m, dtype=np.int64)[:, None] + s_lo[None, :]
        B = eval_centered(r, u[None, :] - cand / den)
        col = cand - s_min[i]
        inside = (col >= 0) & (col < coeffs.shape[i])
        vals.append(np.where(inside, B, 0.0))
        offs.append(np.clip(col, 0, coeffs.shape[i] - 1)
                    * math.prod(coeffs.shape[i + 1:]))
    flat = coeffs.reshape(-1)
    out = np.zeros(X.shape[0])
    for combo in np.ndindex(*([m] * d)):
        w = vals[0][combo[0]].copy()
        idx = offs[0][combo[0]]
        for i in range(1, d):
            w *= vals[i][combo[i]]
            idx = idx + offs[i][combo[i]]
        out += flat.take(idx) * w
    return out


# --------------------------------------------------------------------------
# level sets and budget inversion as the package had them before
# xi_for_budget budgeted one enumeration: a depth-first search per xi and
# a bisection over the breakpoints, one search per probe


class DfsSet:
    """The levels (sorted) and functional values of one depth-first
    search, with the package's budget."""

    def __init__(self, levels, phi):
        self.levels, self.phi = tuple(levels), tuple(phi)

    def budget(self) -> int:
        return sum(math.prod((1 << ki) + 1 for ki in k) for k in self.levels)


def dfs_set(d: int, b: tuple, cinf: float, xi: float) -> DfsSet:
    """All k >= 0 with sum b_i k_i + cinf*max(k) <= xi, by depth-first
    search; requires b_i >= 0 and b_i + cinf > 0 (monotone, finite) and a
    finite xi."""
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, not {xi!r}")
    for bi in b:
        if bi < 0 or bi + cinf <= 0:
            raise ValueError("level-set functional is not monotone "
                             "increasing for these parameters")
    levels = []
    phis = []
    k = [0] * d
    bound = xi + 1e-9 * max(1.0, abs(xi))

    def rec(i, lin, mx):
        if i == d:
            levels.append(tuple(k))
            phis.append(lin + cinf * mx)
            return
        v = 0
        while True:
            nl = lin + b[i] * v
            nm = max(mx, v)
            if nl + cinf * nm > bound:
                break
            k[i] = v
            rec(i + 1, nl, nm)
            v += 1
        k[i] = 0

    if xi >= 0:
        rec(0, 0.0, 0)
    del rec
    order = sorted(range(len(levels)), key=lambda i: levels[i])
    return DfsSet([levels[i] for i in order], [phis[i] for i in order])


def bisection_xi_for_budget(n: int, make_delta) -> float:
    """Largest xi on the breakpoint lattice of the family's functional
    with budget(make_delta(xi)) <= n.

    The budget is a nondecreasing step function of xi, so a bisection over
    the functional values phi(k) finds it.
    """
    if make_delta(0.0).budget() > n:
        raise ValueError("budget below minimal grid")
    hi = 1.0
    while make_delta(hi).budget() <= n:
        hi *= 2.0
    cands = sorted({round(v, 9) for v in make_delta(hi).phi})
    lo_i, hi_i = 0, len(cands) - 1
    best = 0.0
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        if make_delta(cands[mid]).budget() <= n:
            best = cands[mid]
            lo_i = mid + 1
        else:
            hi_i = mid - 1
    return float(best)


def apply_along_axis_moveaxis(W, T: np.ndarray, axis: int) -> np.ndarray:
    """W applied along one axis of T, the axis moved by np.moveaxis."""
    moved = np.moveaxis(T, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    res = W @ flat
    out = res.reshape((W.shape[0],) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def xi_scan(n: int, make_delta, xi_max: float, step: float = 1.0 / 64.0):
    """Largest xi on a fine grid with budget(make_delta(xi)) <= n."""
    best = 0.0
    xi = 0.0
    while xi <= xi_max:
        if make_delta(xi).budget() <= n:
            best = xi
        xi += step
    return best


# --------------------------------------------------------------------------
# discrete Besov-type quasinorm (a membership diagnostic only tests use)


def _level_weight_log2(k, spec) -> float:
    if spec.kind == "mixed":
        return float(np.dot(spec.a, k))
    return spec.alpha * sum(k) + spec.beta * max(k)


def besov_quasinorm_B3(rec, spec, truncation=None) -> float:
    """Discrete scale-weighted coefficient quasinorm.

    Sums (level weight) * 2^{-|k|_1/p} * ||c_k||_p over stored levels with
    |k|_inf <= truncation, aggregated in the theta power (sup for inf).
    """
    p, theta = spec.p, spec.theta
    terms = []
    for k, lvl in sorted(rec.surplus.items()):
        if truncation is not None and max(k) > truncation:
            continue
        lg = _level_weight_log2(k, spec)
        a = np.abs(lvl.coeffs)
        if math.isinf(p):
            norm = float(a.max())
        else:
            lg -= sum(k) / p
            norm = float((a ** p).sum() ** (1.0 / p))
        terms.append(2.0 ** lg * norm)
    if not terms:
        return 0.0
    if math.isinf(theta):
        return max(terms)
    return float(np.sum(np.array(terms) ** theta) ** (1.0 / theta))


# --------------------------------------------------------------------------
# dense-lattice function norms (for stability checks)


def lattice_lp_norm(g, d: int, p: float, res: int = 513) -> float:
    """L_p([0,1]^d) norm of a callable g on an offset midpoint lattice.

    Midpoints avoid sitting on dyadic knots, where the lowest-order
    splines jump.
    """
    ax = (np.arange(res) + 0.5) / res
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    X = np.stack([v.reshape(-1) for v in grids], axis=-1)
    vals = np.abs(np.asarray(g(X), dtype=float))
    if np.isinf(p):
        return float(vals.max())
    return float((vals**p).mean() ** (1.0 / p))
