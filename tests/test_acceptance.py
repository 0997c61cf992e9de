"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL <detail>` line, so running
this module with -s gives the whole scoreboard.  The empirical rate checks
use fixed seeds and fixed budget ladders; they are deterministic reruns of
tuned experiments, not statistical tests.
"""

import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

from sgqi import analysis, bspline, cubature, grids, quasi_interp, recovery
from oracles import faber_table, surplus_weights

# smallest level at which the boundary stencil has enough nodes for full
# degree r-1 reproduction (2^k + 1 >= r)
K0 = {1: 0, 2: 0, 3: 1, 4: 2}


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def box_set(kmax):
    levels = tuple(sorted(np.ndindex(*[m + 1 for m in kmax])))
    return grids.LevelSet(d=len(kmax), levels=levels, xi=float(max(kmax)),
                          family="box")


def unit_lattice(d, m=17):
    axes = [np.linspace(0.0, 1.0, m)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([mm.ravel() for mm in mesh])


def rand_trig(rng, d, modes=3):
    c = rng.uniform(-1.0, 1.0, size=(d, modes))
    ph = rng.uniform(0.0, 2.0 * np.pi, size=(d, modes))

    def f(X):
        out = np.zeros(X.shape[0])
        for i in range(d):
            for m in range(modes):
                out += c[i, m] * np.cos(np.pi * (m + 1) * X[:, i] + ph[i, m])
        return out

    return f


def strictly_increasing(pts):
    out = []
    for b, e in pts:
        if not out or b > out[-1][0]:
            out.append((b, e))
    return out


# ---------------------------------------------------------------------------
# 1. polynomial reproduction


def test_criterion_01_polynomial_reproduction():
    worst = 0.0
    for r in (1, 2, 3, 4):
        k0 = K0[r]
        for d in (1, 2, 3):
            X = unit_lattice(d)
            if d <= 2:
                boxes = list(itertools.product(range(k0, 5), repeat=d))
            else:
                boxes = [(k,) * 3 for k in range(k0, 5)]
                boxes += sorted(set(itertools.permutations((k0, 3, 4))))
            exps = list(itertools.product(range(r), repeat=d))
            for k in boxes:
                for e in exps:
                    f = lambda P, e=e: np.prod(P ** np.asarray(e), axis=1)
                    err = np.max(np.abs(quasi_interp.apply_Q(f, r, k, X)
                                        - f(X)))
                    worst = max(worst, float(err))
    _report(1, worst <= 1e-9,
            f"max monomial reproduction error {worst:.3e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 2. telescoping: summed surpluses over a full box equal the direct operator


def test_criterion_02_telescoping():
    rng = np.random.default_rng(5)
    worst = 0.0
    for r in (1, 2, 3, 4):
        for kmax in [(3,), (1, 2), (1, 1, 2)]:
            d = len(kmax)
            f = rand_trig(rng, d)
            rec = recovery.build(f, box_set(kmax), r)
            X = rng.uniform(0.0, 1.0, size=(100, d))
            direct = quasi_interp.apply_Q(f, r, kmax, X)
            err = np.max(np.abs(recovery.evaluate_batch(rec, X) - direct))
            worst = max(worst, float(err))
    _report(2, worst <= 1e-10,
            f"max |sum of details - direct operator| {worst:.3e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. single-level stability: L_p norm vs scaled coefficient norm


def _level_coeffs(f, r, k):
    fv = quasi_interp.vectorize_handle(f, len(k))
    T = quasi_interp._node_tensor(fv, k)
    for axis in range(len(k) - 1, -1, -1):
        W = quasi_interp.sample_matrix(r, k[axis])
        T = quasi_interp._apply_along_axis(W, T, axis)
    s_min = tuple(bspline.shift_bounds(r, ki)[0] for ki in k)
    return T, s_min


def _midpoint_lp(r, k, s_min, coeffs, p):
    axes = [(np.arange(1 << (ki + 2)) + 0.5) / (1 << (ki + 2)) for ki in k]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.column_stack([m.ravel() for m in mesh])
    g = bspline.eval_expansion(r, k, s_min, coeffs, X)
    if math.isinf(p):
        return float(np.max(np.abs(g)))
    return float((np.sum(np.abs(g) ** p) / X.shape[0]) ** (1.0 / p))


def test_criterion_03_single_level_stability():
    # levels need enough nodes for the interior averaging window, so the
    # wider masks start one level higher
    floor = {1: 0, 2: 0, 3: 2, 4: 2}
    rng = np.random.default_rng(31)
    worst = 0.0
    for r in (1, 2, 3, 4):
        lo = floor[r]
        levels = [(k,) for k in range(lo, 7)]
        levels += [kv for kv in
                   [(0, 0), (1, 2), (3, 3), (2, 5), (6, 6), (0, 6)]
                   if min(kv) >= lo]
        levels += [(lo, lo), (lo, 6)]
        for p in (1.0, 2.0, math.inf):
            ratios = []
            for k in levels:
                for _ in range(3):
                    f = rand_trig(rng, len(k))
                    a, s_min = _level_coeffs(f, r, k)
                    if math.isinf(p):
                        anorm = float(np.max(np.abs(a)))
                        scale = 1.0
                    else:
                        anorm = float(np.sum(np.abs(a) ** p) ** (1.0 / p))
                        scale = 2.0 ** (-sum(k) / p)
                    ratios.append(_midpoint_lp(r, k, s_min, a, p)
                                  / (scale * anorm))
            worst = max(worst, max(ratios) / min(ratios))
    _report(3, worst <= 20.0,
            f"worst norm-ratio spread {worst:.2f} across (r, p) groups "
            "(tol 20)")


# ---------------------------------------------------------------------------
# 4. grid cardinality tracks 2^(xi/nu) for every family and class


def _cardinality_cases(d):
    a = (1.0, 2.0) if d == 2 else (1.0, 1.5, 2.0)
    mk = dict(d=d, r=4, p=2.0, q=2.0)
    sA = grids.SmoothnessSpec(theta=1.0, kind="mixed", a=a, **mk)
    sB = grids.SmoothnessSpec(theta=2.0, kind="mixed", a=a, **mk)
    hA = grids.SmoothnessSpec(theta=1.0, kind="hybrid", alpha=1.0,
                              beta=0.5, **mk)
    hB = grids.SmoothnessSpec(theta=2.0, kind="hybrid", alpha=1.5,
                              beta=-0.5, **mk)
    eS = grids.SmoothnessSpec(theta=1.0, kind="hybrid", alpha=2.0, beta=0.0,
                              gamma=1.0, **mk)
    eE = grids.SmoothnessSpec(theta=2.0, kind="hybrid", alpha=2.0, beta=1.5,
                              gamma=1.0, **mk)
    return [
        ("mixed-A", lambda x: grids.delta_mixed(x, sA),
         grids.nu_exponent(sA, "mixed")),
        ("mixed-B", lambda x: grids.delta_mixed(x, sB),
         grids.nu_exponent(sB, "mixed")),
        ("hybrid-A", lambda x: grids.delta_hybrid(x, hA),
         grids.nu_exponent(hA, "hybrid")),
        ("hybrid-B", lambda x: grids.delta_hybrid(x, hB),
         grids.nu_exponent(hB, "hybrid")),
        ("energy-sharp", lambda x: grids.delta_energy(x, eS, True),
         grids.nu_exponent(eS, "energy")),
        ("energy-eps", lambda x: grids.delta_energy(x, eE, False),
         grids.nu_exponent(eE, "energy")),
    ]


def test_criterion_04_cardinality_asymptotics():
    worst = 0.0
    worst_name = ""
    for d in (2, 3):
        for name, make, nu in _cardinality_cases(d):
            vals = [make(float(x)).budget() * 2.0 ** (-x / nu)
                    for x in range(5, 26)]
            spread = max(vals) / min(vals)
            if spread > worst:
                worst, worst_name = spread, f"{name} d={d}"
    _report(4, worst <= 10.0,
            f"worst budget*2^(-xi/nu) spread {worst:.2f} ({worst_name}, "
            "xi 5..25, tol 10)")


# ---------------------------------------------------------------------------
# 5. recovery rate for the mixed vector, class B, product kink


def test_criterion_05_recovery_rate_mixed():
    spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                kind="mixed", a=(1.0, 1.5))
    make = lambda xi: grids.delta_mixed(xi, spec)
    tf = [t for t in analysis.corpus(2, 4, spec) if t.label == "kink"][0]
    budgets = [int(round(100 * 1000 ** (i / 7))) for i in range(8)]
    pts = []
    for n in budgets:
        delta = make(grids.xi_for_budget(n, make))
        rec = recovery.build(tf.handle, delta, 4)
        err = analysis.discrete_lq_error(tf.handle, rec, q_norm=2.0,
                                         method="halton", points=1 << 18,
                                         seed=11)
        pts.append((delta.budget(), err))
    slope = analysis.fit_rate(strictly_increasing(pts)).slope
    _report(5, abs(slope - (-1.0)) <= 0.2,
            f"fitted L2 rate {slope:.4f} vs -1.0 (tol 0.2)")


# ---------------------------------------------------------------------------
# 6. recovery rate for the two-exponent grids, both correction signs


def _hybrid_recovery_slope(alpha, beta):
    spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                                kind="hybrid", alpha=alpha, beta=beta)
    make = lambda xi: grids.delta_hybrid(xi, spec)
    lam = alpha + beta - 0.5
    f = lambda X: np.abs(X[:, 0] - 0.5) ** lam
    budgets = [int(round(100 * 1000 ** (i / 7))) for i in range(8)]
    sets = [make(grids.xi_for_budget(n, make)) for n in budgets]
    lx = max(k[0] for k in sets[-1].levels)
    res = ((1 << (lx + 2)) + 1, 3)
    pts = []
    for delta in sets:
        rec = recovery.build(f, delta, 4)
        err = analysis.discrete_lq_error(f, rec, q_norm=2.0, resolution=res)
        pts.append((delta.budget(), err))
    return analysis.fit_rate(strictly_increasing(pts)).slope


def test_criterion_06_recovery_rate_hybrid():
    s1 = _hybrid_recovery_slope(1.0, 0.5)
    s2 = _hybrid_recovery_slope(1.5, -0.5)
    ok = abs(s1 - (-1.25)) <= 0.2 and abs(s2 - (-1.0)) <= 0.2
    _report(6, ok,
            f"fitted rates {s1:.4f} vs -1.25 and {s2:.4f} vs -1.0 (tol 0.2)")


# ---------------------------------------------------------------------------
# 7. cubature rules: unit weight sum, polynomial exactness


def _c7_specs(r):
    mk = dict(d=2, r=r, p=4.0, q=2.0)
    sm = grids.SmoothnessSpec(theta=1.0, kind="mixed",
                              a=(r - 0.4, r - 0.2), **mk)
    hy = grids.SmoothnessSpec(theta=1.0, kind="hybrid", alpha=r - 0.5,
                              beta=0.25, **mk)
    en = grids.SmoothnessSpec(theta=1.0, kind="hybrid", alpha=r - 0.5,
                              beta=0.25, gamma=0.5, **mk)
    return [
        ("mixed", lambda x: grids.delta_mixed(x, sm)),
        ("hybrid", lambda x: grids.delta_hybrid(x, hy)),
        ("energy-sharp", lambda x: grids.delta_energy(x, en, True)),
        ("energy-eps", lambda x: grids.delta_energy(x, en, False)),
    ]


def test_criterion_07_cubature_exactness():
    worst_sum = 0.0
    worst_poly = 0.0
    for r in (1, 2, 3, 4):
        k0 = K0[r]
        for name, make in _c7_specs(r):
            xi = 0.0
            while (k0, k0) not in make(xi):
                xi += 0.25
            rule = cubature.assemble_weights(make(xi), r)
            worst_sum = max(worst_sum,
                            abs(math.fsum(rule.weights) - 1.0))
            for e in itertools.product(range(r), repeat=2):
                f = lambda X, e=e: np.prod(X ** np.asarray(e), axis=1)
                exact = 1.0
                for ei in e:
                    exact *= 1.0 / (ei + 1)
                err = abs(cubature.apply_rule(rule, f) - exact)
                worst_poly = max(worst_poly, err)
            # weight sum must hold on cruder grids too
            small = cubature.assemble_weights(make(xi / 2.0), r)
            worst_sum = max(worst_sum,
                            abs(math.fsum(small.weights) - 1.0))
    ok = worst_sum <= 1e-10 and worst_poly <= 1e-9
    _report(7, ok, f"weight sum off by {worst_sum:.2e} (tol 1e-10), "
                   f"max monomial error {worst_poly:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 8. cubature rate on the two-exponent grid


def test_criterion_08_cubature_rate():
    spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                                kind="hybrid", alpha=1.0, beta=0.5)
    make = lambda xi: grids.delta_hybrid(xi, spec)
    c = 1.0 / 3.0
    one_d = (c ** 1.5 + (1 - c) ** 1.5) / 1.5
    exact = one_d ** 2

    def f(X):
        return np.sqrt(np.abs(X[:, 0] - c)) * np.sqrt(np.abs(X[:, 1] - c))

    budgets = [int(round(100 * 1000 ** (i / 11))) for i in range(12)]
    pts = []
    for n in budgets:
        delta = make(grids.xi_for_budget(n, make))
        rule = cubature.assemble_weights(delta, 4)
        err = abs(cubature.apply_rule(rule, f) - exact)
        pts.append((delta.budget(), err))
    slope = analysis.fit_rate(strictly_increasing(pts)).slope
    _report(8, abs(slope - (-1.25)) <= 0.2,
            f"fitted cubature rate {slope:.4f} vs -1.25 (tol 0.2)")


# ---------------------------------------------------------------------------
# 9. budget gap against the isotropic full grid, via the CLI


def test_criterion_09_sparsity_gap():
    res = subprocess.run(
        [sys.executable, "-m", "sgqi.cli", "compare",
         "--set", "problem.family=hybrid",
         "--set", "problem.d=2",
         "--set", "problem.r=4",
         "--set", "problem.p=2",
         "--set", "problem.theta=1",
         "--set", "problem.q=2",
         "--set", "problem.alpha=1.5",
         "--set", "problem.beta=-0.5",
         "--set", "sweep.xi=4,8,12"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    header = lines[0].split(",")
    col = header.index("ratio_fullgrid")
    ratios = {float(ln.split(",")[3]): float(ln.split(",")[col])
              for ln in lines[1:]}
    ok = ratios[12.0] > 10.0
    detail = " ".join(f"xi={x:g}:{ratios[x]:.1f}x" for x in sorted(ratios))
    _report(9, ok, f"full-grid/anisotropic budget ratios {detail} "
                   "(need >10 by xi=12)")


# ---------------------------------------------------------------------------
# 10. duality: integrating the reconstruction equals applying the rule


def test_criterion_10_duality():
    rng = np.random.default_rng(23)
    worst = 0.0
    for family in ("mixed", "hybrid", "energy"):
        d = 3 if family == "mixed" else 2
        for r in (1, 2, 3, 4):
            if family == "mixed":
                a = tuple(r - 0.4 + 0.15 * i for i in range(d))
                spec = grids.SmoothnessSpec(d=d, r=r, p=4.0, theta=1.0,
                                            q=2.0, kind="mixed", a=a)
                make = lambda x: grids.delta_mixed(x, spec)
            else:
                g = 0.5 if family == "energy" else None
                spec = grids.SmoothnessSpec(d=d, r=r, p=4.0, theta=1.0,
                                            q=2.0, kind="hybrid",
                                            alpha=r - 0.5, beta=0.25,
                                            gamma=g)
                if family == "energy":
                    make = lambda x: grids.delta_energy(x, spec, True)
                else:
                    make = lambda x: grids.delta_hybrid(x, spec)
            delta = make(grids.xi_for_budget(300, make))
            rule = cubature.assemble_weights(delta, r)
            for _ in range(5):
                f = rand_trig(rng, d)
                via_rule = cubature.apply_rule(rule, f)
                via_rec = cubature.integrate_reconstruction(
                    recovery.build(f, delta, r))
                worst = max(worst, abs(via_rule - via_rec))
    _report(10, worst <= 1e-10,
            f"max |rule - integrated reconstruction| {worst:.3e} "
            "(tol 1e-10, 20 functions per family)")


# ---------------------------------------------------------------------------
# 11. order-2 detail coefficients match the classical hat-function surpluses


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(17)
    n_fine = (1 << 8) + 1
    funcs = [[Fraction(int(z), 64) for z in row]
             for row in rng.integers(-256, 257, size=(50, n_fine))]
    checked = 0
    for k in range(9):
        lo, hi = bspline.shift_bounds(2, k)
        W = quasi_interp.surplus_matrix(2, k)
        shift = 8 - k
        for s in range(lo, hi + 1):
            mine = surplus_weights(2, k, s)
            orc = faber_table(k, s)
            assert mine == orc, (k, s)
            # the package's table holds the same weights, exactly
            row = slice(W.indptr[s - lo], W.indptr[s - lo + 1])
            assert list(zip(W.indices[row].tolist(), W.data[row].tolist())) \
                == [(m, float(w)) for m, w in orc], (k, s)
            for vals in funcs:
                got = sum(w * vals[m << shift] for m, w in mine)
                want = sum(w * vals[m << shift] for m, w in orc)
                assert got == want
                checked += 1
    # float pipeline agrees with the exact tables
    fdiff = 0.0
    for k in range(9):
        lvl = quasi_interp.q_level(np.sin, 2, (k,))
        lo = lvl.s_min[0]
        for i, cf in enumerate(lvl.coeffs):
            exact = math.fsum(w * math.sin(m / (1 << k))
                              for m, w in faber_table(k, lo + i))
            fdiff = max(fdiff, abs(cf - exact))
    ok = fdiff <= 1e-14
    _report(11, ok,
            f"tables identical, {checked} exact rational evaluations equal, "
            f"float pipeline within {fdiff:.1e}")


# ---------------------------------------------------------------------------
# 12. energy-norm grids: cardinality and surrogate error rate


def test_criterion_12_energy_grid():
    # cardinality, both signs of the isotropic correction
    mk = dict(d=2, r=4, p=2.0, theta=2.0, q=2.0, kind="hybrid")
    lt = grids.SmoothnessSpec(alpha=2.0, beta=0.0, gamma=1.0, **mk)
    gt = grids.SmoothnessSpec(alpha=2.0, beta=1.5, gamma=1.0, **mk)
    spread = 0.0
    for spec in (lt, gt):
        nu = grids.nu_exponent(spec, "energy")
        make = lambda x, s=spec: grids.delta_energy(x, s, False)
        vals = [make(float(x)).budget() * 2.0 ** (-x / nu)
                for x in range(5, 26)]
        spread = max(spread, max(vals) / min(vals))

    # surrogate error decay on a multi-scale wave with dyadic kinks
    def wave_sum(X):
        out = np.zeros(X.shape[0])
        for j in range(16):
            w = np.abs(np.sin(np.pi * X * (1 << j))) ** 1.5
            out += 4.0 ** -j * w.sum(axis=1)
        return out

    emake = lambda xi: grids.delta_energy(xi, lt, False)
    budgets = [int(round(100 * 100 ** (i / 7))) for i in range(8)]
    pts = []
    for n in budgets:
        xi = grids.xi_for_budget(n, emake)
        delta = emake(xi)
        rec = recovery.build(wave_sum, delta, 4)
        err = analysis.energy_error_surrogate(wave_sum, rec, lt, tau=2.0,
                                              reference=emake(xi + 3.0))
        pts.append((delta.budget(), err))
    slope = analysis.fit_rate(strictly_increasing(pts)).slope
    ok = spread <= 10.0 and abs(slope - (-1.0)) <= 0.3
    _report(12, ok, f"cardinality spread {spread:.2f} (tol 10), "
                    f"surrogate rate {slope:.4f} vs -1.0 (tol 0.3)")
