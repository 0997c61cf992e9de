import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgqi import bspline, grids, quasi_interp as qi, recovery
from oracles import centered_expansion, dyadic_point_set, per_level_evaluate
from test_acceptance import K0
from test_grids import downward_closed_sets


def box_set(kmax):
    levels = tuple(sorted(np.ndindex(*[m + 1 for m in kmax])))
    return grids.LevelSet(d=len(kmax), levels=levels, xi=float(max(kmax)),
                          family="box")


def smooth2(X):
    return np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1]) + 0.5 * X[:, 0]


MIXED = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0, 2.0))


def test_quadratic_reproduced_exactly():
    delta = box_set((3,))
    rec = recovery.build(lambda x: x * x, delta, 4)
    assert abs(recovery.evaluate(rec, 0.25) - 0.0625) < 1e-12
    X = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(recovery.evaluate_batch(rec, X), X**2,
                               atol=1e-11)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_full_box_equals_direct_operator(r):
    # telescoping: a full box of surpluses is exactly Q_kmax
    kmax = (2, 3)
    rec = recovery.build(smooth2, box_set(kmax), r)
    rng = np.random.default_rng(13)
    X = rng.uniform(0.0, 1.0, size=(100, 2))
    direct = qi.apply_Q(smooth2, r, kmax, X)
    np.testing.assert_allclose(recovery.evaluate_batch(rec, X), direct,
                               atol=1e-12)


def test_linearity():
    delta = grids.delta_mixed(3.0, MIXED)
    f = lambda X: np.sin(X[:, 0] + X[:, 1])
    g = lambda X: X[:, 0] * X[:, 1]
    fg = lambda X: 2.0 * f(X) - 3.0 * g(X)
    rf = recovery.build(f, delta, 3)
    rg = recovery.build(g, delta, 3)
    rfg = recovery.build(fg, delta, 3)
    for k in delta.levels:
        np.testing.assert_allclose(
            rfg.surplus[k].coeffs,
            2.0 * rf.surplus[k].coeffs - 3.0 * rg.surplus[k].coeffs,
            atol=1e-12)


def test_surpluses_nest_across_level_sets():
    # coefficients depend only on the level, not on which set contains it
    small = grids.delta_mixed(3.0, MIXED)
    large = grids.delta_mixed(5.0, MIXED)
    rs = recovery.build(smooth2, small, 4)
    rl = recovery.build(smooth2, large, 4)
    assert set(small.levels) <= set(large.levels)
    for k in small.levels:
        np.testing.assert_array_equal(rs.surplus[k].coeffs,
                                      rl.surplus[k].coeffs)


def test_sample_accounting():
    delta = grids.delta_mixed(4.0, MIXED)
    calls = []

    def f(X):
        calls.append(np.array(X))
        return smooth2(X)

    rec = recovery.build(f, delta, 2)
    # f is called on grid samples only: no signature probe
    sampled = np.concatenate(calls)
    assert rec.sample_budget == delta.distinct_points() == len(sampled)
    assert len(np.unique(sampled, axis=0)) == len(sampled)
    assert rec.delta is delta


def test_row_function_handle_builds_or_raises_value_error():
    # indexing a row works on the (npts, 2) array too, with the wrong
    # shape: it must fall through to the row convention, not IndexError
    delta = grids.delta_mixed(3.0, MIXED)
    rec = recovery.build(lambda x: x[0] * x[1], delta, 4)
    want = recovery.build(lambda X: X[:, 0] * X[:, 1], delta, 4)
    for k in delta.levels:
        np.testing.assert_array_equal(rec.surplus[k].coeffs,
                                      want.surplus[k].coeffs)
    with pytest.raises(ValueError, match="calling conventions"):
        recovery.build(lambda x: x[5], delta, 4)


def test_input_validation():
    hole = grids.LevelSet(d=2, levels=((0, 0), (2, 0)), xi=0.0, family="t")
    with pytest.raises(ValueError, match="downward closed"):
        recovery.build(smooth2, hole, 2)
    empty = grids.LevelSet(d=2, levels=(), xi=-1.0, family="t")
    with pytest.raises(ValueError, match="no levels"):
        recovery.build(smooth2, empty, 2)
    rec = recovery.build(smooth2, box_set((1, 1)), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        recovery.evaluate_batch(rec, np.zeros((4, 3)))
    for shape in [(5, 2, 1), (2, 2, 2)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            recovery.evaluate_batch(rec, np.full(shape, 0.5))
    with pytest.raises(ValueError, match="outside domain"):
        recovery.evaluate_batch(rec, np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError, match="outside domain"):
        recovery.evaluate_batch(rec, np.array([[-0.1, 0.5]]))
    with pytest.raises(ValueError, match="outside domain"):
        recovery.evaluate_lattice(rec, [[0.5], [1.5]])
    for axes in ([[0.5]], [[[0.5]], [0.5]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            recovery.evaluate_lattice(rec, axes)
    assert recovery.evaluate_lattice(rec, [[], [0.5]]).shape == (0, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_points(bad):
    # NaN passes the domain bounds and floor(nan) lands outside every
    # support, which read as 0 for f = 1 instead of failing
    rec = recovery.build(lambda X: np.ones(len(X)), box_set((1, 1)), 2)
    with pytest.raises(ValueError, match="not finite"):
        recovery.evaluate(rec, [bad, 0.5])
    with pytest.raises(ValueError, match="not finite"):
        recovery.evaluate_batch(rec, np.array([[0.5, 0.5], [0.5, bad]]))
    with pytest.raises(ValueError, match="not finite"):
        recovery.evaluate_lattice(rec, [[0.0, bad], [0.5]])


def test_rejects_non_finite_samples():
    f = lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        recovery.build(f, grids.delta_mixed(4.0, MIXED), 4)


def test_evaluate_matches_batch(monkeypatch):
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 3)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 1.0, size=(20, 2))
    batch = recovery.evaluate_batch(rec, X)
    single = [recovery.evaluate(rec, x) for x in X]
    np.testing.assert_allclose(single, batch, atol=1e-15)
    # slabbed evaluation is just a partition of the work
    monkeypatch.setattr(bspline, "SLAB", 7)
    np.testing.assert_allclose(recovery.evaluate_batch(rec, X), batch,
                               atol=0)


def test_flat_points_in_1d():
    rec = recovery.build(lambda x: np.sin(x), box_set((4,)), 2)
    flat = recovery.evaluate_batch(rec, np.array([0.1, 0.6]))
    shaped = recovery.evaluate_batch(rec, np.array([[0.1], [0.6]]))
    np.testing.assert_array_equal(flat, shaped)


def test_skip_tolerance_only_drops_noise():
    rec = recovery.build(lambda X: X[:, 0], grids.delta_mixed(4.0, MIXED), 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(50, 2))
    full = per_level_evaluate(rec, X, skip_tol=0.0)
    pruned = per_level_evaluate(rec, X)
    np.testing.assert_allclose(pruned, full, atol=1e-12)


def _random_reconstruction(delta, r, rng):
    surplus = {}
    for k in delta.levels:
        bounds = [bspline.shift_bounds(r, ki) for ki in k]
        surplus[k] = qi.SurplusLevel(
            s_min=tuple(lo for lo, _ in bounds),
            coeffs=rng.uniform(-1.0, 1.0, [hi - lo + 1 for lo, hi in bounds]))
    return recovery.Reconstruction(r=r, d=delta.d, delta=delta,
                                   surplus=surplus, sample_budget=0)


def _probe_points(delta, rng):
    """Random points, the corners and knots of the finest half-integer
    mesh of the level set."""
    top = max(delta.max_level()) + 1
    knots = np.arange((1 << top) + 1) / (1 << top)
    return np.vstack([rng.random((20, delta.d)), np.zeros((1, delta.d)),
                      np.ones((1, delta.d)),
                      rng.choice(knots, size=(20, delta.d)),
                      rng.choice([0.0, 1.0], size=(8, delta.d))])


def _wave(rng, d):
    w = rng.uniform(-3.0, 3.0, d)
    b = rng.uniform(0.0, 2.0 * np.pi)
    return lambda X: np.cos(X @ w + b)


def _close(got, want, tol):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=tol * max(1.0, np.abs(want).max()))


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_grouped_evaluation_matches_per_level_kernel(delta, r, seed):
    rng = np.random.default_rng(seed)
    rec = _random_reconstruction(delta, r, rng)
    X = _probe_points(delta, rng)
    want = per_level_evaluate(rec, X, skip_tol=0.0)
    _close(recovery.evaluate_batch(rec, X), want, 1e-12)


@settings(max_examples=12, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_slabs_are_evaluated_independently(delta, r, seed):
    # one point past a slab: the batch is bitwise its two slabs
    rng = np.random.default_rng(seed)
    rec = _random_reconstruction(delta, r, rng)
    probes = _probe_points(delta, rng)
    X = np.vstack([probes, rng.random((bspline.SLAB + 1 - len(probes),
                                       delta.d))])
    parts = [recovery.evaluate_batch(rec, X[:bspline.SLAB]),
             recovery.evaluate_batch(rec, X[bspline.SLAB:])]
    assert recovery.evaluate_batch(rec, X).tobytes() == \
        np.concatenate(parts).tobytes()


def test_each_box_goes_on_integer_knots_once(monkeypatch):
    # two full slabs and one point: one conversion per box, three slabs
    rec = recovery.build(smooth2, grids.delta_mixed(4.0, MIXED), 3)
    boxes = [k for k, *_ in recovery._level_groups(rec)]
    X = np.random.default_rng(5).random((2 * bspline.SLAB + 1, 2))
    want = recovery.evaluate_batch(rec, X)
    calls = []
    for name in ("_integer_knots", "eval_knots"):
        def spy(r, k, *args, name=name, real=getattr(bspline, name)):
            calls.append((name, k))
            return real(r, k, *args)
        monkeypatch.setattr(bspline, name, spy)
    assert recovery.evaluate_batch(rec, X).tobytes() == want.tobytes()
    assert [k for name, k in calls if name == "_integer_knots"] == boxes
    assert [name for name, _ in calls] == \
        ["_integer_knots", "eval_knots", "eval_knots", "eval_knots"] \
        * len(boxes)


@settings(max_examples=40, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_evaluation_leaves_reconstruction_unchanged(delta, r, seed):
    # boxes are accumulated in place; the levels of a built chain share
    # one array, so a write through any of them would show here
    rng = np.random.default_rng(seed)
    rec = recovery.build(_wave(rng, delta.d), delta, r)
    before = {k: lvl.coeffs.tobytes() for k, lvl in rec.surplus.items()}
    X = _probe_points(delta, rng)
    axes = [np.linspace(0.0, 1.0, 5)] * delta.d

    def values():
        return (recovery.evaluate_batch(rec, X).tobytes(),
                recovery.evaluate_lattice(rec, axes).tobytes())

    first = values()
    assert {k: lvl.coeffs.tobytes() for k, lvl in rec.surplus.items()} \
        == before
    assert values() == first


MIXED_D2 = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                kind="mixed", a=(1.0, 1.5))
MIXED_D3 = grids.SmoothnessSpec(d=3, r=3, p=2.0, theta=2.0, q=2.0,
                                kind="mixed", a=(1.0, 1.5, 2.0))
MIXED_D5 = grids.SmoothnessSpec(d=5, r=4, p=2.0, theta=2.0, q=2.0,
                                kind="mixed",
                                a=(1.0, 1.25, 1.5, 1.75, 2.0))


@pytest.mark.parametrize("spec, n", [
    (MIXED_D2, 100_000),
    (MIXED_D3, 30_000),
    (MIXED_D5, 10_000)], ids=["d2", "d3", "d5"])
def test_box_plan_on_anisotropic_sets(spec, n):
    make = lambda xi: grids.delta_mixed(xi, spec)
    delta = make(grids.xi_for_budget(n, make))
    rng = np.random.default_rng(n)
    rec = recovery.build(_wave(rng, spec.d), delta, spec.r)
    surplus = rec.surplus
    tops = [(m,) + rest for rest, m in sorted(grids.chains(surplus).items())]
    plan = recovery._box_plan(spec.r, surplus)
    # runs of neighbouring chains, each box the max of its tops
    assert [t for _, members in plan for t in members] == tops
    for box, members in plan:
        assert box == tuple(max(t[i] for t in members)
                            for i in range(spec.d))
    groups = list(recovery._level_groups(rec))
    assert [k for k, *_ in groups] == [box for box, _ in plan]
    assert len(groups) < len(tops)
    assert sum(c.size for *_, c in groups) \
        <= sum(surplus[t].coeffs.size for t in tops)
    X = np.vstack([rng.random((200, spec.d)), np.zeros((1, spec.d)),
                   np.ones((1, spec.d))])
    want = per_level_evaluate(rec, X, skip_tol=0.0)
    _close(recovery.evaluate_batch(rec, X), want, 1e-12)


def _rational(c):
    # + and / round the same in every lane, so a point's sample does not
    # depend on where it sits in f's input
    def f(X):
        s = 1.0
        for i, ci in enumerate(c):
            s = s + ci * X[:, i]
        return 1.0 / s
    return f


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_chain_build_is_bitwise_per_level(delta, r, seed):
    f = _rational(np.random.default_rng(seed).uniform(0.5, 3.0, delta.d))
    rec = recovery.build(f, delta, r)
    assert list(rec.surplus) == list(delta.levels)
    for k in delta.levels:
        want = qi.q_level(f, r, k)
        assert rec.surplus[k].s_min == want.s_min
        assert rec.surplus[k].coeffs.tobytes() == want.coeffs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rec.surplus[k].coeffs[...] = 0.0
    sg = grids.sample_grid(delta)
    dims = [(1 << Ki) + 1 for Ki in sg.K]
    want = [np.ravel_multi_index([int(v * (1 << Ki)) for v, Ki in
                                  zip(p, sg.K)], dims)
            for p in dyadic_point_set(delta.levels)]
    assert sg.ids.tolist() == want


def test_chain_build_is_bitwise_per_level_d5():
    # three off-axes reach depth 2, so the walk drops parents midway
    make = lambda xi: grids.delta_mixed(xi, MIXED_D5)
    delta = make(grids.xi_for_budget(3000, make))
    assert sum(Ki >= 2 for Ki in delta.max_level()[1:]) >= 3
    f = _rational(np.random.default_rng(5).uniform(0.5, 3.0, 5))
    rec = recovery.build(f, delta, MIXED_D5.r)
    for k in delta.levels:
        want = qi.q_level(f, MIXED_D5.r, k)
        assert rec.surplus[k].s_min == want.s_min
        assert rec.surplus[k].coeffs.tobytes() == want.coeffs.tobytes()


@settings(max_examples=30, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_reconstruction_is_linear_in_f(delta, r, seed):
    rng = np.random.default_rng(seed)
    f, g = _wave(rng, delta.d), _wave(rng, delta.d)
    a, b = rng.uniform(-2.0, 2.0, 2)
    X = _probe_points(delta, rng)

    def R(h):
        return recovery.evaluate_batch(recovery.build(h, delta, r), X)

    _close(R(lambda P: a * f(P) + b * g(P)), a * R(f) + b * R(g), 1e-12)


@settings(max_examples=30, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_reconstruction_telescopes_to_direct_operators(delta, r, seed):
    # q_k is the tensor product of the differences Q_{k_i} - Q_{k_i - 1},
    # so the sum of q_k over the set is the sum of the direct operators
    # Q_k, each weighted by the sum of (-1)^|e| over e in {0,1}^d with
    # k + e in the set
    rng = np.random.default_rng(seed)
    f = _wave(rng, delta.d)
    X = _probe_points(delta, rng)
    levels = set(delta.levels)
    want = np.zeros(len(X))
    for k in delta.levels:
        c = sum((-1) ** sum(e)
                for e in itertools.product((0, 1), repeat=delta.d)
                if tuple(ki + ei for ki, ei in zip(k, e)) in levels)
        if c:
            want += c * qi.apply_Q(f, r, k, X)
    _close(recovery.evaluate_batch(recovery.build(f, delta, r), X), want,
           1e-12)


@settings(max_examples=30, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sets_holding_the_reproduction_box_reproduce_polynomials(delta, r,
                                                                 seed):
    # every level set holding {0..K0[r]}^d reproduces the tensor
    # polynomials of coordinate degree r - 1
    rng = np.random.default_rng(seed)
    box = {tuple(int(v) for v in k)
           for k in np.ndindex(*[K0[r] + 1] * delta.d)}
    delta = grids.LevelSet(d=delta.d, levels=tuple(sorted(
        set(delta.levels) | box)), xi=0.0, family="random")
    C = rng.uniform(-1.0, 1.0, [r] * delta.d)

    def p(X):
        return sum(C[e] * np.prod(X ** np.array(e), axis=1)
                   for e in np.ndindex(C.shape))

    X = _probe_points(delta, rng)
    _close(recovery.evaluate_batch(recovery.build(p, delta, r), X), p(X),
           1e-10)


def _lattice_axis(draw):
    """Trapezoid or midpoint axis, maybe cut to a sub-axis slice."""
    m = draw(st.integers(2, 9))
    h = 1.0 / (m - 1)
    axis = (np.arange(m - 1) + 0.5) * h if draw(st.booleans()) \
        else np.arange(m) * h
    lo = draw(st.integers(0, len(axis) - 1))
    hi = draw(st.integers(lo + 1, len(axis)))
    return axis[lo:hi]


@settings(max_examples=80, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.data())
def test_lattice_matches_flattened_batch(delta, r, seed, data):
    rec = _random_reconstruction(delta, r, np.random.default_rng(seed))
    axes = [_lattice_axis(data.draw) for _ in range(delta.d)]
    X = np.stack([g.reshape(-1) for g in
                  np.meshgrid(*axes, indexing="ij")], axis=1)
    want = np.zeros(len(X))
    for k, s_min, coeffs in recovery._level_groups(rec):
        want += centered_expansion(r, k, s_min, coeffs, X)
    flat = recovery.evaluate_batch(rec, X)
    # the closed-form basis values round differently from oracles.eval_centered
    _close(flat, want, 1e-12)
    got = recovery.evaluate_lattice(rec, axes)
    assert got.shape == tuple(len(ax) for ax in axes)
    assert np.array_equal(got.reshape(-1), flat)


def _scrambled_axis(draw, rng):
    """An unsorted lattice axis that repeats a coordinate: random points,
    or a few coarse ones that leave most knots of a fine box unreached."""
    if draw(st.booleans()):
        axis = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                      min_size=1, max_size=3)))
    else:
        axis = rng.random(draw(st.integers(1, 5)))
    return rng.permutation(np.concatenate([axis, axis[:1]]))


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.data())
def test_scrambled_lattice_matches_batch(delta, r, seed, data):
    rng = np.random.default_rng(seed)
    rec = _random_reconstruction(delta, r, rng)
    axes = [_scrambled_axis(data.draw, rng) for _ in range(delta.d)]
    X = np.stack([g.reshape(-1) for g in
                  np.meshgrid(*axes, indexing="ij")], axis=1)
    got = recovery.evaluate_lattice(rec, axes)
    assert got.reshape(-1).tobytes() == \
        recovery.evaluate_batch(rec, X).tobytes()


def test_boxes_are_built_once_per_reconstruction(monkeypatch):
    rec = recovery.build(smooth2, grids.delta_mixed(4.0, MIXED), 3)
    built = []

    def spy(rec, real=recovery._level_groups):
        built.append(rec)
        return real(rec)

    monkeypatch.setattr(recovery, "_level_groups", spy)
    X = np.random.default_rng(2).random((30, 2))
    first = recovery.evaluate_batch(rec, X)
    assert recovery.evaluate_batch(rec, X).tobytes() == first.tobytes()
    assert recovery.evaluate(rec, X[0]) == first[0]
    assert recovery.evaluate_lattice(rec, [X[:5, 0], X[:1, 1]]).shape \
        == (5, 1)
    assert len(built) == 1 and built[0] is rec


def test_levels_are_computed_when_read(monkeypatch, tmp_path):
    # build and load stop before any axis-0 product; the first evaluation
    # sums each chain by one sample table at its top level
    def boom(r, m):
        raise RuntimeError("axis-0 sample table")

    monkeypatch.setattr(recovery, "sample_matrix", boom)
    delta = grids.delta_mixed(4.0, MIXED)
    recovery.save(recovery.build(smooth2, delta, 3), tmp_path / "rec.json")
    rec = recovery.load(tmp_path / "rec.json")
    calls = []

    def spy(r, m, real=qi.sample_matrix):
        calls.append(m)
        return real(r, m)

    monkeypatch.setattr(recovery, "sample_matrix", spy)
    recovery.evaluate_batch(rec, np.random.default_rng(4).random((30, 2)))
    assert calls == [m for _, m in sorted(grids.chains(delta.levels).items())]


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_chain_sums_match_per_level_parts(delta, r, seed):
    # a built chain enters evaluation as its telescoped sum at the top
    # level; the same levels as coefficients enter one part per level
    rng = np.random.default_rng(seed)
    rec = recovery.build(_rational(rng.uniform(0.5, 3.0, delta.d)), delta, r)
    per_level = dataclasses.replace(rec, surplus=dict(rec.surplus),
                                    samples=None)
    X = _probe_points(delta, rng)
    got = recovery.evaluate_batch(rec, X)
    want = recovery.evaluate_batch(per_level, X)
    assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()


def test_roundtrip_serialization(tmp_path):
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 3)
    path = tmp_path / "rec.json"
    recovery.save(rec, path)
    assert path.read_text() == json.dumps(recovery.to_json_dict(rec))
    back = recovery.load(path)
    assert back.r == rec.r and back.d == rec.d
    assert back.sample_budget == rec.sample_budget
    assert sorted(back.surplus) == sorted(rec.surplus)
    for k in rec.surplus:
        np.testing.assert_array_equal(back.surplus[k].coeffs,
                                      rec.surplus[k].coeffs)
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, size=(10, 2))
    np.testing.assert_array_equal(recovery.evaluate_batch(back, X),
                                  recovery.evaluate_batch(rec, X))


@settings(max_examples=40, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_roundtrip_is_bitwise(tmp_path_factory, delta, r, seed):
    f = _rational(np.random.default_rng(seed).uniform(0.5, 3.0, delta.d))
    rec = recovery.build(f, delta, r)
    path = tmp_path_factory.mktemp("dump") / "rec.json"
    recovery.save(rec, path)
    back = recovery.load(path)
    assert back.delta.levels == delta.levels
    assert list(back.surplus) == list(rec.surplus)
    for k in rec.surplus:
        assert back.surplus[k].s_min == rec.surplus[k].s_min
        assert (back.surplus[k].coeffs.tobytes()
                == rec.surplus[k].coeffs.tobytes())
    assert back.sample_budget == rec.sample_budget
    assert back.samples.tobytes() == rec.samples.tobytes()


def test_build_from_samples_is_build():
    delta = grids.delta_mixed(4.0, MIXED)
    rec = recovery.build(smooth2, delta, 4)
    assert not rec.samples.flags.writeable
    values = smooth2(grids.sample_grid(delta).coords())
    same = recovery.build_from_samples(values, delta, 4)
    values[0] += 1.0  # the reconstruction holds a copy
    for k in delta.levels:
        assert same.surplus[k].coeffs.tobytes() == \
            rec.surplus[k].coeffs.tobytes()
    assert same.samples.tobytes() == rec.samples.tobytes()
    with pytest.raises(ValueError, match="samples for"):
        recovery.build_from_samples(values[:-1], delta, 4)


def test_save_needs_samples(tmp_path):
    delta = grids.delta_mixed(3.0, MIXED)
    rec = _random_reconstruction(delta, 4, np.random.default_rng(0))
    path = tmp_path / "rec.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match="without samples"):
        recovery.save(rec, path)
    assert path.read_text() == "kept"


def _nan_dump():
    # f = 1: R(0.1, 0.1) is 1, carried by the level-(0, 0) spline at shift
    # 0; built levels are read-only, so the NaN goes into writable copies
    rec = recovery.build(lambda X: np.ones(len(X)),
                         grids.delta_mixed(4.0, MIXED), 4)
    dump = json.loads(json.dumps(recovery.to_json_dict(rec)))
    copies = {k: qi.SurplusLevel(lvl.s_min, lvl.coeffs.copy())
              for k, lvl in rec.surplus.items()}
    copies[(0, 0)].coeffs[1, 1] = np.nan
    dump["samples"][3] = np.nan
    return dataclasses.replace(rec, surplus=copies, samples=None), dump


def test_nan_coefficient_is_not_skipped_and_dump_is_rejected():
    rec, dump = _nan_dump()
    assert np.isnan(recovery.evaluate(rec, [0.1, 0.1]))
    with pytest.raises(ValueError, match="non-finite"):
        recovery.from_json_dict(dump)


def _corrupt(dump, how):
    levels = dump["levels"]
    at = levels.index([1, 0])
    if how == "count":
        dump["samples"].append(0.0)
    elif how == "nan_sample":
        dump["samples"][0] = float("nan")
    elif how == "length":
        levels[at] = [1, 0, 0]
    elif how == "negative":
        levels[at] = [-1, 0]
    elif how == "bool_level":
        levels[at] = [True, 0]
    elif how == "duplicate":
        levels.append([1, 0])
    elif how == "hole":
        del levels[at]
    elif how == "empty":
        levels.clear()
    elif how == "d0":
        # one level of no axes would load as a constant
        dump.update(d=0, levels=[[]], samples=[1.0])
    elif how == "bool_d":
        # a valid d = 1 dump but for d: true, which isinstance takes for 1
        dump.update(d=True, levels=[[0]], samples=[1.0, 2.0])
    elif how == "bool_r":
        dump["r"] = True
    elif how == "r5":
        dump["r"] = 5
    elif how == "xi_string":
        dump["xi"] = "not a number"
    elif how == "xi_bool":
        dump["xi"] = True
    elif how == "xi_nan":
        dump["xi"] = float("nan")
    elif how == "family_list":
        dump["family"] = [1]
    elif how == "int_sample":
        # an int past the float range made numpy raise OverflowError
        dump["samples"][0] = 10 ** 400
    return dump


@pytest.mark.parametrize("how", ["count", "nan_sample", "length", "negative",
                                 "bool_level", "duplicate", "hole", "empty",
                                 "d0", "bool_d", "bool_r", "r5",
                                 "int_sample", "xi_string", "xi_bool",
                                 "xi_nan", "family_list"])
def test_load_rejects_malformed_levels(how):
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 4)
    good = recovery.to_json_dict(rec)
    recovery.from_json_dict(json.loads(json.dumps(good)))
    with pytest.raises(ValueError):
        recovery.from_json_dict(_corrupt(json.loads(json.dumps(good)), how))


def test_load_rejects_version_1(tmp_path):
    # version 1 stored every coefficient; no reader for it is kept
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 4)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
        "format": "sgqi-reconstruction", "version": 1, "r": 4, "d": 2,
        "xi": rec.delta.xi, "family": rec.delta.family,
        "sample_budget": rec.sample_budget,
        "declared_budget": rec.delta.budget(),
        "levels": [{"k": list(k), "s_min": list(lvl.s_min),
                    "shape": list(lvl.coeffs.shape),
                    "coeffs": lvl.coeffs.reshape(-1).tolist()}
                   for k, lvl in rec.surplus.items()]}))
    with pytest.raises(ValueError, match="unsupported dump version"):
        recovery.load(path)


def test_load_rejects_foreign_payload():
    with pytest.raises(ValueError, match="not a reconstruction"):
        recovery.from_json_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        recovery.from_json_dict({"format": "sgqi-reconstruction",
                                 "version": 99})
