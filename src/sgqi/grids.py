"""Anisotropic level sets, sample grids, and cardinality accounting.

A level set is a finite downward-closed family of level vectors k >= 0.
Every family used here is a sublevel set {k: phi(k) <= xi} of a monotone
functional phi(k) = sum_i b_i k_i + c * max_i k_i, with (b, c) determined
by the smoothness parameters, the (p, theta, q) class, and for the energy
variant the relation between theta and tau* = min(tau, 1).

Budgets follow the with-multiplicity count n = sum_k prod_i (2^{k_i}+1);
the number of distinct grid points is reported separately.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bspline

_TOL = 1e-9


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def trade_exponent(p: float, q: float) -> float:
    """(1/p - 1/q)_+ with the convention 1/inf = 0."""
    return max(0.0, _inv(p) - _inv(q))


def classify_triple(p: float, theta: float, q: float) -> str:
    """Class tag of the integrability triple.

    The three regimes p >= q, p < q < infinity, p < q = infinity are read
    as mutually exclusive; within each, class A holds below the stated
    theta threshold and class B above it.
    """
    for v in (p, theta, q):
        if not (v > 0):
            raise ValueError("triple entries must be positive")
    if p >= q:
        return "A" if theta <= min(q, 1.0) else "B"
    if math.isinf(q):
        return "A" if theta <= 1.0 else "B"
    return "A" if theta <= q else "B"


def theta_le_taustar(theta: float, tau: float) -> bool:
    return theta <= min(tau, 1.0)


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness/integrability parameters of a target function class.

    kind "mixed" uses the per-coordinate vector a (nondecreasing, with
    a_1 strictly smallest); kind "hybrid" uses (alpha, beta), optionally
    with the energy exponent gamma.  The class, A (sharp) or B
    (epsilon-perturbed), is read off (p, theta, q) by classify_triple
    alone, with no override; epsilon only sets the class-B perturbation
    (default half of its legal upper bound).
    """

    d: int
    r: int
    p: float
    theta: float
    q: float
    kind: str
    a: tuple = None
    alpha: float = None
    beta: float = None
    gamma: float = None
    epsilon: float = None

    def __post_init__(self):
        if self.a is not None:
            object.__setattr__(self, "a", tuple(float(v) for v in self.a))

    def validate(self) -> None:
        """Check the parameter conditions the level sets need, boundary
        included: 1/p <= a_1, a_d <= r and 1/p <= min(alpha, alpha+beta),
        max(alpha, alpha+beta) <= r, where the convergence rates need the
        strict inequalities.  ValueError names the first one violated."""
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        bspline._check_order(self.r)
        for name in ("p", "theta", "q"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be in (0, inf]")
        ip = _inv(self.p)
        if self.kind == "mixed":
            if self.a is None or len(self.a) != self.d:
                raise ValueError("mixed kind needs a d-vector a")
            a = self.a
            if not ip <= a[0] <= self.r:
                raise ValueError("need 1/p <= a_1 <= r")
            if self.d >= 2:
                if not (a[0] < a[1]):
                    raise ValueError("need a_1 < a_2")
                for i in range(1, self.d - 1):
                    if not (a[i] <= a[i + 1]):
                        raise ValueError("a must be nondecreasing")
                if not a[-1] <= self.r:
                    raise ValueError("need a_d <= r")
        elif self.kind == "hybrid":
            if self.alpha is None or self.beta is None:
                raise ValueError("hybrid kind needs alpha and beta")
            al, be = self.alpha, self.beta
            if self.gamma is None and be == 0:
                raise ValueError("hybrid beta must be nonzero")
            lo, hi = min(al, al + be), max(al, al + be)
            if not (ip <= lo and hi <= self.r):
                raise ValueError("need 1/p <= min(alpha, alpha+beta) and "
                                 "max(alpha, alpha+beta) <= r")
            if self.gamma is not None:
                g = self.gamma
                if not g > 0:
                    raise ValueError("gamma must be positive")
                if be == g:
                    raise ValueError("beta must differ from gamma")
                need = (g - be) / self.d if be > g else g - be
                if not al > need:
                    raise ValueError("alpha too small for the energy grid")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.epsilon is not None and not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class LevelSet:
    """Finite set of distinct level vectors of d >= 1 nonnegative entries
    each (else ValueError) with its defining xi; see is_downward_closed.

    A set enumerated from a functional also holds, per level, its value
    phi and its gate, the largest functional value compared on the
    level's search path: the set at any xi' <= xi is the levels whose gate
    is within _bound(xi').  No step of a path lowers a monotone functional,
    so gate is phi in exact arithmetic; the gate is the search's own
    floating-point comparisons, so membership by it is exact.
    """

    d: int
    levels: tuple
    xi: float
    family: str
    phi: tuple = ()
    gate: tuple = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if set(map(len, self.levels)) - {self.d}:
            k = next(k for k in self.levels if len(k) != self.d)
            raise ValueError(f"level {k!r} has {len(k)} entries, not {self.d}")
        if min(itertools.chain.from_iterable(self.levels), default=0) < 0:
            k = next(k for k in self.levels if min(k) < 0)
            raise ValueError(f"level {k!r} has a negative entry")
        if len(self._index) != len(self.levels):
            raise ValueError("a level appears twice")

    @cached_property
    def _index(self):
        return frozenset(self.levels)

    def __contains__(self, k) -> bool:
        return tuple(k) in self._index

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @cached_property
    def _sizes(self) -> list:
        """prod_i (2^{k_i} + 1), the node count, of every level."""
        out = []
        for k in self.levels:
            m = 1
            for ki in k:
                m *= (1 << ki) + 1
            out.append(m)
        return out

    def budget(self) -> int:
        """Sample count with multiplicity: the sum of the sizes."""
        return sum(self._sizes)

    def distinct_points(self) -> int:
        """Number of distinct grid points of the union grid.

        Counts reduced dyadic profiles: a point with exact per-dimension
        levels l contributes iff l is in the (downward closed) set, and
        there are 2 numerators at level 0 and 2^{l-1} odd ones at l >= 1.
        """
        total = 0
        for k in self.levels:
            m = 1
            for ki in k:
                m *= 2 if ki == 0 else 1 << (ki - 1)
            total += m
        return total

    def max_level(self) -> tuple:
        return tuple(max((k[i] for k in self.levels), default=0)
                     for i in range(self.d))

    def is_downward_closed(self) -> bool:
        """Whether every level's lower neighbours are levels too: each chain
        holds m + 1 levels (it runs 0..m), and the chain one step lower on
        each nonzero axis off axis 0 reaches at least m."""
        tops = chains(self.levels)
        return sum(tops.values()) + len(tops) == len(self.levels) and all(
            tops.get(rest[:i] + (ki - 1,) + rest[i + 1:], -1) >= m
            for rest, m in tops.items() for i, ki in enumerate(rest) if ki)

    def issubset(self, other: "LevelSet") -> bool:
        return self._index <= other._index

    def to_text(self) -> str:
        """Line-based text form, one `k_1 ... k_d` per line, sorted."""
        return "\n".join(" ".join(str(v) for v in k)
                         for k in sorted(self.levels)) + "\n"


def _bound(xi: float) -> float:
    """The largest functional value the set at xi admits."""
    return xi + _TOL * max(1.0, abs(xi))


def _enumerate(d: int, b: tuple, cinf: float, xi: float):
    """Levels, phi and gate of all k >= 0 with sum b_i k_i + cinf*max(k)
    <= xi, by depth-first search; requires b_i >= 0, b_i + cinf above
    _bound(0) (monotone, and only level 0 at xi = 0) and a finite xi."""
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, not {xi!r}")
    for bi in b:
        if bi < 0 or bi + cinf <= 0:
            raise ValueError("level-set functional is not monotone "
                             "increasing for these parameters")
        if bi + cinf <= _bound(0.0):
            raise ValueError("level-set functional is degenerate: unit step "
                             f"{bi + cinf!r} is within the tolerance of xi")
    levels = []
    phis = []
    gates = []
    k = [0] * d
    bound = _bound(xi)

    def rec(i, lin, mx, gate):
        if i == d:
            levels.append(tuple(k))
            phis.append(lin + cinf * mx)
            gates.append(gate)
            return
        v = 0
        while True:
            nl = lin + b[i] * v
            nm = v if v > mx else mx
            val = nl + cinf * nm
            if val > bound:
                break
            if val > gate:
                gate = val
            k[i] = v
            rec(i + 1, nl, nm, gate)
            v += 1
        k[i] = 0

    if xi >= 0:
        rec(0, 0.0, 0, 0.0)
    # rec holds itself through its closure cell; without this the cycle
    # keeps levels, phis and gates alive until the cyclic collector runs
    del rec
    order = sorted(range(len(levels)), key=lambda i: levels[i])
    return ([levels[i] for i in order], [phis[i] for i in order],
            [gates[i] for i in order])


def _build(xi, d, b, cinf, family) -> LevelSet:
    levels, phis, gates = _enumerate(d, tuple(b), float(cinf), float(xi))
    return LevelSet(d=d, levels=tuple(levels), xi=float(xi),
                    family=family, phi=tuple(phis), gate=tuple(gates))


def _family_spec(spec: SmoothnessSpec, family: str) -> SmoothnessSpec:
    """spec, validated and of the kind family needs; for the energy family
    the hybrid spec at beta - gamma."""
    spec.validate()
    if family == "energy":
        if spec.kind != "hybrid" or spec.gamma is None:
            raise ValueError("spec must be hybrid with gamma for energy grids")
        return replace(spec, beta=spec.beta - spec.gamma)
    if family not in ("mixed", "hybrid"):
        raise ValueError(f"unknown family {family!r}")
    if spec.kind != family:
        raise ValueError(f"spec kind must be {family}")
    return spec


def _functional(spec: SmoothnessSpec, family: str, flag=None) -> tuple:
    """(b, c, set name) of the family's functional for spec: sharp in class
    A, epsilon-perturbed in class B, the class read off (p, theta, q); the
    energy functional is the hybrid one at beta - gamma, sharp iff flag
    (theta <= tau*).  A mixed set in d = 1 has nothing to perturb."""
    spec = _family_spec(spec, family)
    cls = classify_triple(spec.p, spec.theta, spec.q)
    sharp, name = cls == "A", f"{family}-{cls}"
    if family == "energy":
        if flag is None:
            raise ValueError("energy family needs the theta/tau* flag")
        sharp, name = flag, "energy" if flag else "energy-eps"
    tr = trade_exponent(spec.p, spec.q)
    if family == "mixed":
        a = spec.a
        if sharp or spec.d == 1:
            return tuple(ai - tr for ai in a), 0.0, name
        upper = a[1] - a[0]
    else:
        al, beta = spec.alpha - tr, spec.beta
        if sharp:
            return (al,) * spec.d, beta, name
        upper = min(al, abs(beta))
    if upper <= 0:
        raise ValueError("epsilon violates class-B constraint: "
                         "no legal interval for these parameters")
    eps = spec.epsilon if spec.epsilon is not None else 0.5 * upper
    if not eps < upper:  # validate has checked eps > 0
        raise ValueError("epsilon violates class-B constraint: legal "
                         f"interval is (0, {upper!r})")
    if family == "mixed":
        return (a[0] - tr,) + tuple(ai - eps - tr for ai in a[1:]), 0.0, name
    if beta > 0:
        return (al + eps / spec.d,) * spec.d, beta - eps, name
    return (al - eps,) * spec.d, beta + eps, name


def delta_hybrid(xi: float, spec: SmoothnessSpec) -> LevelSet:
    """Level set for hybrid smoothness (alpha, beta), sharp in class A and
    epsilon-perturbed in class B; the class is read off (p, theta, q)."""
    return _build(xi, spec.d, *_functional(spec, "hybrid"))


def delta_mixed(xi: float, spec: SmoothnessSpec) -> LevelSet:
    """Level set for mixed smoothness vector a, sharp in class A and
    epsilon-perturbed in class B; the class is read off (p, theta, q)."""
    return _build(xi, spec.d, *_functional(spec, "mixed"))


def delta_energy(xi: float, spec: SmoothnessSpec,
                 theta_le_taustar: bool) -> LevelSet:
    """Level set for the error in the energy norm with exponent gamma:
    sharp if theta <= tau*, else epsilon-perturbed (see _functional)."""
    return _build(xi, spec.d, *_functional(spec, "energy", theta_le_taustar))


def comparison_sets(xi: float, lam: float, kind: str, d: int) -> LevelSet:
    """Reference full-grid box {lam*|k|_inf <= xi} or Smolyak simplex
    {lam*|k|_1 <= xi}."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, not {lam!r}")
    if kind == "fullgrid":
        return _build(xi, d, (0.0,) * d, lam, "fullgrid")
    if kind == "smolyak":
        return _build(xi, d, (lam,) * d, 0.0, "smolyak")
    raise ValueError(f"unknown comparison kind {kind!r}")


def delta_for_family(xi: float, spec: SmoothnessSpec, family: str,
                     theta_le_taustar_flag: bool | None = None) -> LevelSet:
    """The family's level set, through the module's delta_* functions."""
    if family == "energy":
        return delta_energy(xi, spec, theta_le_taustar_flag)
    if family not in ("mixed", "hybrid"):
        raise ValueError(f"unknown family {family!r}")
    return (delta_mixed if family == "mixed" else delta_hybrid)(xi, spec)


def nu_exponent(spec: SmoothnessSpec, family: str,
                integration: bool = False) -> float:
    """The exponent nu with budget ~ 2^{xi/nu} and error ~ n^{-nu}.

    With integration=True the trade-off term becomes (1/p - 1)_+, the
    cubature version of the same exponent.
    """
    spec = _family_spec(spec, family)
    tr = trade_exponent(spec.p, 1.0 if integration else spec.q)
    if family == "mixed":
        return spec.a[0] - tr
    if spec.beta > 0:
        return spec.alpha + spec.beta / spec.d - tr
    return spec.alpha + spec.beta - tr


def xi_for_budget(n: int, make_delta) -> float:
    """Largest xi on the breakpoint lattice of the family's functional
    (the values phi(k), rounded to 9 places) with budget(make_delta(xi))
    <= n.

    Growing a trial xi finds a set past n; it holds every smaller set, as
    the levels whose gate is within _bound(xi).  With its levels sorted by
    gate, the prefix sums of their sizes budget every candidate xi by one
    bisection, and the budget is nondecreasing in xi.  ValueError unless n
    is a finite number at least the budget of the set at xi = 0.
    """
    if not n < math.inf:  # NaN fails too; the comparison takes any int
        raise ValueError(f"budget must be a finite number, not {n!r}")
    bottom = make_delta(0.0)
    if bottom.budget() > n:
        raise ValueError("budget below minimal grid")
    # Up to 1, xi jumps from 2^-24 by 2^12 while the set is the one at 0:
    # a family with breakpoints far below 1 (a rate near 0) then meets a
    # first set at most 2^12 levels deep per axis, not one astronomically
    # large at xi = 1 (breakpoints under the 1e-9 of _bound(0) are in the
    # set at 0 already).  Level counts grow about like xi^d, so from there
    # a step of 2^(3/d) enumerates at most about 8 times the set before
    # it, as doubling does in d = 3.
    step = 2.0 ** min(1.0, 3.0 / bottom.d)
    hi = 2.0 ** -24
    while (top := make_delta(hi)).budget() <= n:
        if hi < 1.0 and len(top) == len(bottom):
            hi = min(1.0, hi * 4096.0)
        else:
            hi *= step
    order = sorted(range(len(top)), key=top.gate.__getitem__)
    gates = [top.gate[i] for i in order]
    budgets = list(itertools.accumulate((top._sizes[i] for i in order),
                                        initial=0))
    best = 0.0
    for xi in sorted({round(v, 9) for v in set(top.phi)}):
        if budgets[bisect.bisect_right(gates, _bound(xi))] > n:
            break
        best = xi
    return float(best)


# ---------------------------------------------------------------------------
# grid point identity shared by recovery and cubature


def _pack(axes, K) -> np.ndarray:
    """Ids of the tensor product of per-axis lattice coordinates, in C
    order."""
    ids = np.zeros((), dtype=np.int64)
    stride = 1
    for i in range(len(axes) - 1, -1, -1):
        ids = np.add.outer(axes[i] * stride, ids)
        stride *= (1 << K[i]) + 1
    return ids.reshape(-1)


@dataclass(frozen=True)
class SampleGrid:
    """The distinct points of a level set's sample grid.

    A point is named by its integer coordinates c_i = j_i 2^{K_i - k_i} on
    the finest per-axis lattice, K = delta.max_level(), packed in C order
    over dims 2^{K_i} + 1 into one int64 id.  ids holds every distinct
    point once, sorted, so row order is lexicographic coordinate order.
    sample_grid makes the points as one block of new points per axis-0
    chain, in chains order; point i of those blocks concatenated is row
    rows[i], and node tensors are gathered through them by chain.
    """

    delta: LevelSet
    K: tuple
    ids: np.ndarray
    rows: np.ndarray

    @property
    def distinct_points(self) -> int:
        return len(self.ids)

    def _chain_tensors(self):
        """Yield (rest, m, T) per chain of chains(delta.levels), in its
        order: T holds the row of every node of the chain top (m,) + rest,
        in the shape of its node tensor.

        Off axis 0 a node is new at rest where it is odd on every nonzero
        axis; those nodes are the chain's own block.  The nodes even on a
        nonzero axis i are the tensor of the parent chain rest - e_i, whose
        top m_i >= m, at axis-0 stride 2^(m_i - m).  Parents sort before
        their children, and each is dropped once its last child is made."""
        tops = chains(self.delta.levels)
        parents = {rest: [(i, rest[:i] + (ki - 1,) + rest[i + 1:])
                          for i, ki in enumerate(rest) if ki] for rest in tops}
        children = Counter(p for ps in parents.values() for _, p in ps)
        live, at = {}, 0
        for rest, m in tops.items():
            T = np.empty([(1 << m) + 1] + [(1 << ki) + 1 for ki in rest],
                         dtype=self.rows.dtype)
            own = T[(slice(None),) + tuple(slice(None) if ki == 0 else
                                           slice(1, None, 2) for ki in rest)]
            own[...] = self.rows[at:at + own.size].reshape(own.shape)
            at += own.size
            for i, parent in parents[rest]:
                P, mp = live[parent]
                T[(slice(None),) * (i + 1) + (slice(None, None, 2),)] = \
                    P[:: 1 << (mp - m)]
                children[parent] -= 1
                if not children[parent]:
                    del live[parent]
            if children[rest]:
                live[rest] = T, m
            yield rest, m, T

    def lattice(self) -> np.ndarray:
        """(npts, d) integer coordinates on the finest per-axis lattice."""
        dims = tuple((1 << Ki) + 1 for Ki in self.K)
        return np.stack(np.unravel_index(self.ids, dims), axis=1)

    def coords(self) -> np.ndarray:
        """(npts, d) point coordinates (exact: dyadic rationals, each an
        integer times a power of two)."""
        return self.lattice() * np.array([math.ldexp(1.0, -Ki)
                                          for Ki in self.K])


def chains(levels) -> dict:
    """{level without its axis-0 entry: m} of the chains of levels agreeing
    off axis 0; downward closed, a chain runs 0..m.  Axis 0 leaves the
    fewest chains on every set made here: mixed sets weigh it least (b_0
    <= b_j), the other families are symmetric."""
    return {k[1:]: k[0] for k in sorted(levels)}


def sample_grid(delta: LevelSet) -> SampleGrid:
    """Distinct points of the grid of a nonempty downward-closed level
    set; ValueError otherwise.

    The new points of level k (odd numerators where k_i >= 1, the two
    endpoints where k_i = 0) partition the grid, so collecting them needs
    no deduplication.  Along axis 0 the new points of a chain's levels
    make up its top level's full lattice, so each chain is one block, in
    C order over the chain top's axis-0 nodes and its new nodes off axis 0.
    The blocks are kept as the row of each of their points.
    """
    if not delta.levels:
        raise ValueError("level set has no levels")
    if not delta.is_downward_closed():
        raise ValueError("level set must be downward closed")
    K = delta.max_level()
    if math.prod((1 << Ki) + 1 for Ki in K) > np.iinfo(np.int64).max:
        raise ValueError("grid too fine for int64 point ids: finest "
                         f"per-axis levels {K}")
    parts = []
    for rest, m in chains(delta.levels).items():
        axes = [np.arange((1 << m) + 1, dtype=np.int64) << (K[0] - m)]
        axes += [np.array([0, 1 << Ki], dtype=np.int64) if ki == 0 else
                 np.arange(1, 1 << ki, 2, dtype=np.int64) << (Ki - ki)
                 for ki, Ki in zip(rest, K[1:])]
        parts.append(_pack(axes, K))
    ids = np.concatenate(parts)
    order = np.argsort(ids, kind="stable")  # merges the blocks' sorted runs
    # the smallest unsigned type of the row numbers: a CubatureRule keeps
    # its grid, and chain tensors of rows are live while build walks
    rows = np.empty(len(order), dtype=np.min_scalar_type(len(order)))
    rows[order] = np.arange(len(order))
    return SampleGrid(delta=delta, K=K, ids=ids[order], rows=rows)
