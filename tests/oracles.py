"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions, on purpose not
sharing code with the package: Cox-de Boor recursion for the splines, the
classical Faber (hat-function) surplus for order 2, brute-force box scans
for the level sets, a breakpoint scan for the budget inversion, and grid
points identified by exact fractions.  The one exception is the per-level
evaluation kernel, the path grouped evaluation replaced, kept here as its
reference; it calls the package's single-level bspline.eval_expansion.
"""

from fractions import Fraction

import numpy as np


# --------------------------------------------------------------------------
# Cox-de Boor recursion for the centered cardinal B-spline


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


def per_level_evaluate(rec, X, chunk: int = 1 << 16,
                       skip_tol: float = SKIP_TOL) -> np.ndarray:
    """Sum of one single-level expansion per level at the (npts, d)
    points X.  Levels whose coefficients are uniformly below skip_tol
    relative to the largest coefficient are skipped; skip_tol=0 sums all.
    """
    from sgqi import bspline

    X = np.asarray(X, dtype=float)
    den = bspline.shift_denominator(rec.r)
    scale = max((float(np.max(np.abs(lvl.coeffs)))
                 for lvl in rec.surplus.values()), default=0.0)
    cutoff = skip_tol * scale
    active = [lvl for lvl in rec.surplus.values()
              if float(np.max(np.abs(lvl.coeffs))) > cutoff]
    out = np.zeros(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        sl = slice(start, min(start + chunk, X.shape[0]))
        for lvl in active:
            out[sl] += bspline.eval_expansion(rec.r, lvl.k, lvl.s_min,
                                              lvl.coeffs, X[sl], den=den)
    return out


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
