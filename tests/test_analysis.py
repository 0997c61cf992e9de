import dataclasses
import hashlib
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import integrate

from sgqi import analysis, bspline, grids, recovery
from oracles import besov_quasinorm_B3


def box_set(kmax):
    levels = tuple(sorted(np.ndindex(*[m + 1 for m in kmax])))
    return grids.LevelSet(d=len(kmax), levels=levels, xi=float(max(kmax)),
                          family="box")


MIXED = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0, 2.0))
HYB = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                           kind="hybrid", alpha=1.0, beta=0.5)
ENERGY = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                              kind="hybrid", alpha=2.0, beta=0.0, gamma=1.0)


def test_frozen_sup_error_nearest_neighbour():
    # order 1 snaps to the nearest level-3 node, so the identity function
    # is off by exactly 2^-4 at cell midpoints
    rec = recovery.build(lambda x: x, box_set((3,)), 1)
    err = analysis.discrete_lq_error(lambda x: x, rec, math.inf,
                                     resolution=4097)
    assert err == 1.0 / 16.0


def test_lq_monotone_in_q():
    rec = recovery.build(lambda x: x, box_set((3,)), 1)
    errs = [analysis.discrete_lq_error(lambda x: x, rec, q, resolution=2049)
            for q in (1.0, 2.0, math.inf)]
    assert errs[0] <= errs[1] <= errs[2]


def test_self_error_and_constant_shift():
    f = lambda X: np.sin(X[:, 0]) * X[:, 1]
    rec = recovery.build(f, box_set((2, 2)), 2)
    recf = lambda X: recovery.evaluate_batch(rec, X)
    for q in (1.0, 2.0, math.inf):
        assert analysis.discrete_lq_error(recf, rec, q, resolution=65) == 0.0
        shifted = lambda X: recovery.evaluate_batch(rec, X) + 0.25
        got = analysis.discrete_lq_error(shifted, rec, q, resolution=65)
        assert abs(got - 0.25) < 1e-13


def test_sampling_estimators_agree_roughly():
    f = lambda X: np.sin(3.0 * X[:, 0] + X[:, 1])
    rec = recovery.build(f, box_set((2, 2)), 2)
    lat = analysis.discrete_lq_error(f, rec, 2.0, resolution=257)
    hal = analysis.discrete_lq_error(f, rec, 2.0, method="halton",
                                     points=20000, seed=3)
    mc = analysis.discrete_lq_error(f, rec, 2.0, method="mc",
                                    points=20000, seed=3)
    assert abs(hal - lat) < 0.1 * lat
    assert abs(mc - lat) < 0.15 * lat


def test_oversized_lattice_falls_back_to_sampling():
    f = lambda X: np.sin(3.0 * X[:, 0] + X[:, 1])
    rec = recovery.build(f, box_set((2, 2)), 2)
    lat = analysis.discrete_lq_error(f, rec, 2.0, resolution=257)
    # requested lattice would have 6000^2 > 2^24 nodes
    est = analysis.discrete_lq_error(f, rec, 2.0, resolution=6000,
                                     points=20000, seed=3)
    assert abs(est - lat) < 0.1 * lat


def test_estimator_validation():
    rec = recovery.build(lambda x: x, box_set((2,)), 2)
    with pytest.raises(ValueError, match="q must be positive"):
        analysis.discrete_lq_error(lambda x: x, rec, 0.0)
    with pytest.raises(ValueError, match="unknown error estimation"):
        analysis.discrete_lq_error(lambda x: x, rec, 2.0, method="grid")
    with pytest.raises(ValueError, match="resolution length"):
        analysis.discrete_lq_error(lambda x: x, rec, 2.0,
                                   resolution=(65, 65))
    with pytest.raises(ValueError, match="at least 2"):
        analysis.discrete_lq_error(lambda x: x, rec, 2.0, resolution=1)


@pytest.mark.parametrize("q", [2.0, math.inf])
@pytest.mark.parametrize("method", ["lattice", "halton", "mc"])
def test_rejects_non_finite_f(method, q):
    rec = recovery.build(lambda X: X[:, 0], box_set((2, 2)), 2)
    f = lambda X: np.where(X[:, 0] > 0.5, np.nan, X[:, 0])
    with pytest.raises(ValueError, match="not finite"):
        analysis.discrete_lq_error(f, rec, q, method=method, resolution=33,
                                   points=1000)


@pytest.mark.parametrize("method", ["halton", "mc"])
def test_rejects_points_below_one(method):
    rec = recovery.build(lambda X: X[:, 0], box_set((2, 2)), 2)
    with pytest.raises(ValueError, match="at least 1"):
        analysis.discrete_lq_error(lambda X: X[:, 0], rec, 2.0,
                                   method=method, points=0)


@pytest.mark.parametrize("method", ["halton", "mc"])
def test_rejects_non_integral_points(method):
    # points=2.5 used to be truncated to 2 and return an error estimate
    rec = recovery.build(lambda X: X[:, 0], box_set((2, 2)), 2)
    err = lambda points: analysis.discrete_lq_error(
        lambda X: X[:, 0] ** 2, rec, 2.0, method=method, points=points)
    for points in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="whole number"):
            err(points)
    assert err(64.0) == err(64)


@pytest.mark.parametrize("resolution", [
    33.9, 33.5, (33.5, 33.2), (33, 17.5), math.inf, math.nan, (33, math.inf),
    np.array(33.5)])
def test_rejects_non_integral_resolution(resolution):
    # 33.9 used to be truncated to a 33-point lattice, inf raised
    # OverflowError and a 0-d array TypeError
    rec = recovery.build(lambda X: X[:, 0], box_set((2, 2)), 2)
    err = lambda res: analysis.discrete_lq_error(
        lambda X: X[:, 0] ** 2, rec, 2.0, resolution=res)
    with pytest.raises(ValueError, match="whole numbers"):
        err(resolution)
    assert err(33.0) == err(33) == err(np.array(33))
    assert err((np.float64(33.0), 17.0)) == err((33, 17))


def test_halton_error_leaves_numpy_random_unloaded():
    # numpy.random imports secrets, hashlib and OpenSSL's _hashlib; a
    # Halton design for an integer or None seed needs none of them
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        from sgqi import analysis, grids, recovery
        f = lambda X: np.sin(X[:, 0]) * X[:, 1]
        levels = tuple(sorted(np.ndindex(3, 3)))
        delta = grids.LevelSet(d=2, levels=levels, xi=2.0, family="box")
        rec = recovery.build(f, delta, 4)
        for seed in (7, None):
            e = analysis.discrete_lq_error(f, rec, 2.0, method="halton",
                                           points=4096, seed=seed)
            assert 0 < e < 1, e
            print([m for m in sys.modules if m.split(".")[:2] ==
                   ["numpy", "random"] or m in ("secrets", "_hashlib")])
        """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert (res.returncode, res.stdout) == (0, "[]\n[]\n"), res.stderr


def test_halton_design_reused_per_integer_seed():
    rec = recovery.build(lambda X: np.sin(3.0 * X[:, 0]) * X[:, 1],
                         box_set((2, 2)), 4)

    def scribbler(X):
        y = np.sin(3.0 * X[:, 0]) * X[:, 1]
        X[:] = 0.5  # writes into its input
        return y

    def err(seed):
        return analysis.discrete_lq_error(scribbler, rec, 2.0,
                                          method="halton", points=64,
                                          seed=seed)

    first = err(11)
    assert err(np.int64(11)) == first  # the cached design is intact
    assert not analysis._halton_design(2, 64, 11).flags.writeable
    # a Generator seed draws fresh points on every call
    rng = np.random.default_rng(0)
    assert err(rng) != err(rng)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 1001])
def test_halton_design_matches_scipy(d):
    # differential check against scipy's engine for a Generator seed, which
    # both shuffle through its first spawned child; d = 1001 runs past the
    # 1000 primes scipy keeps in a table
    from scipy.stats import qmc

    for n in [3] if d > 6 else [1, 2, 3, 8192, 10 ** 5]:
        got = analysis._halton_design.__wrapped__(
            d, n, np.random.default_rng(n))
        want = qmc.Halton(d=d, scramble=True,
                          seed=np.random.default_rng(n)).random(n)
        assert same_bits(got, want), n
        assert got.flags.f_contiguous and not got.flags.writeable


def test_halton_design_generator_seed_matches_scipy():
    from scipy.stats import qmc

    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    draws = []
    for _ in range(2):  # each call spawns a new child of the parent
        got = analysis._halton_design.__wrapped__(3, 1000, ours)
        want = qmc.Halton(d=3, scramble=True, seed=theirs).random(1000)
        assert same_bits(got, want)
        draws.append(got)
    assert not np.array_equal(*draws)


def test_halton_design_integer_seed():
    # an integer seed shuffles through random.Random.  Whatever the
    # permutations, the first base^m points of column i put one point in
    # each of base^m equal cells, as the unscrambled Halton design does
    design = analysis._halton_design.__wrapped__
    for d in (1, 2, 3, 5):
        for seed in range(40):
            X = design(d, 20_000, seed)
            for col, base in zip(X.T, analysis._primes(d)):
                n = base
                while n <= 20_000:
                    cells = np.sort(np.floor(col[:n] * n))
                    assert np.array_equal(cells, np.arange(n)), (seed, n)
                    n *= base
    seven = design(3, 1000, 7)
    for same in (np.int64(7), np.uint64(7)):
        assert same_bits(design(3, 1000, same), seven)
    assert same_bits(design(3, 1000, True), design(3, 1000, 1))
    assert not np.array_equal(design(3, 1000, 8), seven)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="non-negative"):
            design(3, 1000, seed)
    # None seeds from OS entropy: a new design each time
    assert not np.array_equal(design(3, 1000, None), design(3, 1000, None))
    # the stream is pinned, so a change to it shows here
    assert hashlib.sha256(analysis._halton_design(3, 1000, 7).tobytes()) \
        .hexdigest() == ("8a338963df302e74bc196d1832e17d2a"
                         "7698d54c2aed557dfff94a052a0c118e")


@pytest.mark.parametrize("offset", [False, True])
def test_lattice_tiles_partition_the_lattice(monkeypatch, offset):
    f = lambda X: np.cos(2.0 * X[:, 0]) + X[:, 1] ** 2 * X[:, 2]
    rec = recovery.build(f, box_set((2, 1, 1)), 3)
    res = (29, 17, 9)
    whole = [analysis.discrete_lq_error(f, rec, q, resolution=res,
                                        offset=offset)
             for q in (1.0, 2.0, math.inf)]
    # 7-point tiles cut the last axis unevenly, the others point by point
    monkeypatch.setattr(bspline, "SLAB", 7)
    tiled = [analysis.discrete_lq_error(f, rec, q, resolution=res,
                                        offset=offset)
             for q in (1.0, 2.0, math.inf)]
    np.testing.assert_allclose(tiled[:2], whole[:2], rtol=1e-14)
    assert tiled[2] == whole[2]


@pytest.mark.parametrize("shape", [(2, 1 << 23), (2049, 1025), (3, 5, 7),
                                   (1 << 20,), (70000, 2, 2)])
def test_lattice_tiles_stay_bounded(shape):
    hits = np.zeros(shape, dtype=np.int8)
    for box in analysis._tiles(shape):
        assert hits[box].size <= bspline.SLAB
        hits[box] += 1
    assert (hits == 1).all()


def test_quasinorm_single_level_identity():
    f = lambda X: np.sin(X[:, 0] + 2.0 * X[:, 1])
    one = grids.LevelSet(d=2, levels=((0, 0),), xi=0.0, family="t")
    rec = recovery.build(f, one, 2)
    got = besov_quasinorm_B3(rec, MIXED)
    want = analysis._coeff_norm(rec.surplus[(0, 0)].coeffs, 2.0)
    assert math.isclose(got, want)
    # weight of a single level (1,1): 2^(a.k - |k|_1/p) = 2^2
    two = grids.LevelSet(d=2, levels=((0, 0), (0, 1), (1, 0), (1, 1)),
                         xi=0.0, family="t")
    rec2 = recovery.build(f, two, 2)
    spec_inf = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=math.inf, q=2.0,
                                    kind="mixed", a=(1.0, 2.0))
    got = besov_quasinorm_B3(rec2, spec_inf, truncation=None)
    terms = []
    for k, lvl in rec2.surplus.items():
        lg = np.dot((1.0, 2.0), k) - sum(k) / 2.0
        terms.append(2.0 ** lg * analysis._coeff_norm(lvl.coeffs, 2.0))
    assert math.isclose(got, max(terms))


def test_quasinorm_homogeneous_and_truncated():
    f = lambda X: np.sin(X[:, 0] + 2.0 * X[:, 1])
    g = lambda X: 3.0 * f(X)
    delta = grids.delta_mixed(3.0, MIXED)
    rf = recovery.build(f, delta, 2)
    rg = recovery.build(g, delta, 2)
    a = besov_quasinorm_B3(rf, MIXED)
    b = besov_quasinorm_B3(rg, MIXED)
    assert math.isclose(b, 3.0 * a, rel_tol=1e-12)
    only0 = besov_quasinorm_B3(rf, MIXED, truncation=0)
    want = analysis._coeff_norm(rf.surplus[(0, 0)].coeffs, 2.0)
    assert math.isclose(only0, want)


def test_surrogate_vanishes_on_reproduced_polynomial():
    f = lambda X: X[:, 0] ** 3 * X[:, 1]
    delta = grids.delta_energy(4.0, ENERGY, True)
    rec = recovery.build(f, delta, 4)
    ref = grids.delta_energy(7.0, ENERGY, True)
    val = analysis.energy_error_surrogate(f, rec, ENERGY, 2.0, reference=ref)
    assert val < 1e-8


def test_surrogate_monotone_in_gamma():
    f = lambda X: np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1])
    rec = recovery.build(f, grids.delta_energy(3.0, ENERGY, True), 4)
    ref = grids.delta_energy(6.0, ENERGY, True)
    vals = [analysis.energy_error_surrogate(
                f, rec, dataclasses.replace(ENERGY, gamma=g), 2.0,
                reference=ref)
            for g in (0.5, 1.0, 1.5)]
    assert vals[0] < vals[1] < vals[2]


def test_surrogate_reference_handling():
    f = lambda X: np.sin(X[:, 0] + X[:, 1])
    delta = grids.delta_energy(3.0, ENERGY, True)
    rec = recovery.build(f, delta, 4)
    with pytest.raises(ValueError, match="strictly contain"):
        analysis.energy_error_surrogate(f, rec, ENERGY, 2.0, reference=delta)
    spec_nog = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                                    kind="hybrid", alpha=1.0, beta=0.5)
    rec2 = recovery.build(f, grids.delta_hybrid(3.0, spec_nog), 4)
    with pytest.raises(ValueError, match="gamma"):
        analysis.energy_error_surrogate(
            f, rec2, spec_nog, 2.0,
            reference=grids.comparison_sets(5.0, 1.0, "fullgrid", 2))


def test_surrogate_rejects_nonpositive_tau():
    # tau = -1 used to return 0.0, nan nan, and 0 ZeroDivisionError
    f = lambda X: np.sin(X[:, 0] + X[:, 1])
    rec = recovery.build(f, grids.delta_energy(3.0, ENERGY, True), 4)
    ref = grids.delta_energy(5.0, ENERGY, True)
    surrogate = lambda tau: analysis.energy_error_surrogate(
        f, rec, ENERGY, tau, reference=ref)
    for tau in (-1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            surrogate(tau)
    assert 0.0 < surrogate(math.inf) <= surrogate(2.0)


def test_fit_rate_exact_and_noisy():
    ns = [100, 200, 400, 800, 1600, 3200]
    fit = analysis.fit_rate([(n, 8.0 / n) for n in ns])
    assert math.isclose(fit.slope, -1.0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 3.0, abs_tol=1e-12)
    assert fit.residual < 1e-12
    rng = np.random.default_rng(5)
    noisy = [(n, n ** -1.5 * (1.0 + 0.02 * rng.standard_normal()))
             for n in ns]
    fit = analysis.fit_rate(noisy)
    assert abs(fit.slope + 1.5) < 0.02
    assert fit.residual > 0.0


@pytest.mark.parametrize("seed", range(20))
def test_fit_rate_matches_lapack_least_squares(seed):
    # the closed form is numpy.linalg.lstsq's fit up to rounding, on
    # ladders of 4 to 12 rising budgets with errors over 18 decades
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 13))
    ns = np.cumsum(rng.integers(1, 5000, m)).tolist()
    pts = list(zip(ns, 10.0 ** rng.uniform(-15, 3, m)))
    fit = analysis.fit_rate(pts)
    A = np.array([[math.log2(n), 1.0] for n, _ in pts])
    y = np.log2([e for _, e in pts])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = math.sqrt(np.mean((y - A @ coef) ** 2))
    for got, want in zip((fit.slope, fit.intercept, fit.residual),
                         (*coef, resid)):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="at least 4"):
        analysis.fit_rate([(10, 1.0), (20, 0.5), (40, 0.25)])
    with pytest.raises(ValueError, match="strictly increasing"):
        analysis.fit_rate([(10, 1.0), (10, 0.5), (40, 0.25), (80, 0.1)])
    with pytest.raises(ValueError, match="nonpositive"):
        analysis.fit_rate([(10, 1.0), (20, 0.0), (40, 0.25), (80, 0.1)])


@pytest.mark.parametrize("budgets", [(0, 2, 3, 4), (-1, 2, 3, 4),
                                     (1.5, 2.5, 3, 4), (1, 2, 3, math.inf),
                                     (math.nan, 2, 3, 4)])
def test_fit_rate_rejects_non_whole_budgets(budgets, capfd):
    # a budget <= 0 has no logarithm, and (1.5, 2.5, 3, 4) must not be
    # fitted as (1, 2, 3, 4); nothing is printed on the way
    errors = (0.5, 0.3, 0.2, 0.1)
    with pytest.raises(ValueError, match="whole numbers of at least 1"):
        analysis.fit_rate(zip(budgets, errors))
    assert capfd.readouterr().err == ""
    fit = analysis.fit_rate(zip((1.0, 2.0, 3.0, 4.0), errors))
    assert fit == analysis.fit_rate(zip((1, 2, 3, 4), errors))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rate_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        analysis.fit_rate([(10, 1.0), (20, bad), (40, 0.25), (80, 0.1)])


def test_corpus_labels_and_integrals():
    funcs = analysis.corpus(2, 4, MIXED)
    assert [tf.label for tf in funcs] == ["poly", "sinprod", "kink"]
    poly, sinprod, kink = funcs
    assert math.isclose(poly.exact_integral, 1.0 / 16.0)
    assert math.isclose(sinprod.exact_integral, (2.0 / math.pi) ** 2)
    # mixed exponents a_i - 1/p = (0.5, 1.5)
    want = analysis.kink_integral_1d(0.5) * analysis.kink_integral_1d(1.5)
    assert math.isclose(kink.exact_integral, want)
    num, _ = integrate.dblquad(
        lambda y, x: abs(x - 0.5) ** 0.5 * abs(y - 0.5) ** 1.5,
        0.0, 1.0, 0.0, 1.0)
    assert math.isclose(kink.exact_integral, num, rel_tol=1e-9)


def test_corpus_kink_univariate_for_hybrid():
    kink = analysis.corpus(2, 4, HYB)[2]
    X = np.array([[0.3, 0.1], [0.3, 0.9]])
    vals = kink.handle(X)
    assert vals[0] == vals[1]  # constant in the second coordinate
    # exponent alpha + beta - 1/p = 1.0
    assert math.isclose(vals[0], 0.2)
    num, _ = integrate.quad(lambda t: abs(t - 0.5), 0.0, 1.0)
    assert math.isclose(kink.exact_integral, num, rel_tol=1e-12)


def test_kink_exponent_clipping():
    rough = grids.SmoothnessSpec(d=1, r=2, p=2.0, theta=1.0, q=2.0,
                                 kind="mixed", a=(3.0,))
    lams = analysis._kink_exponents(rough, 2)
    assert all(0.0 < l < 1.0 for l in lams)
    # for the box the cap r - 1 - 1e-9 is negative; the floor wins
    box = grids.SmoothnessSpec(d=2, r=1, p=2.0, theta=0.25, q=2.0,
                               kind="mixed", a=(0.5, 0.75))
    assert analysis._kink_exponents(box, 1) == [1e-6, 1e-6]


def test_kink_integral_value():
    assert math.isclose(analysis.kink_integral_1d(1.0), 0.25)
    num, _ = integrate.quad(lambda t: abs(t - 0.5) ** 0.5, 0.0, 1.0)
    assert math.isclose(analysis.kink_integral_1d(0.5), num, rel_tol=1e-12)
