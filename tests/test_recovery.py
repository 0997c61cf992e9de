import numpy as np
import pytest

from sgqi import grids, quasi_interp as qi, recovery


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
    # first call is the 2-point signature probe, the rest are grid samples
    sampled = np.concatenate(calls[1:])
    assert rec.sample_budget == delta.distinct_points() == len(sampled)
    assert len(np.unique(sampled, axis=0)) == len(sampled)
    assert rec.declared_budget == delta.budget()
    assert rec.max_level() == delta.max_level()


def test_input_validation():
    hole = grids.LevelSet(d=2, levels=((0, 0), (2, 0)), xi=0.0, family="t")
    with pytest.raises(ValueError, match="downward closed"):
        recovery.build(smooth2, hole, 2)
    rec = recovery.build(smooth2, box_set((1, 1)), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        recovery.evaluate_batch(rec, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="outside domain"):
        recovery.evaluate_batch(rec, np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError, match="outside domain"):
        recovery.evaluate_batch(rec, np.array([[-0.1, 0.5]]))


def test_rejects_non_finite_samples():
    f = lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        recovery.build(f, grids.delta_mixed(4.0, MIXED), 4)


def test_evaluate_matches_batch():
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 3)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 1.0, size=(20, 2))
    batch = recovery.evaluate_batch(rec, X)
    single = [recovery.evaluate(rec, x) for x in X]
    np.testing.assert_allclose(single, batch, atol=1e-15)
    # chunked evaluation is just a partition of the work
    np.testing.assert_allclose(recovery.evaluate_batch(rec, X, chunk=7),
                               batch, atol=0)


def test_flat_points_in_1d():
    rec = recovery.build(lambda x: np.sin(x), box_set((4,)), 2)
    flat = recovery.evaluate_batch(rec, np.array([0.1, 0.6]))
    shaped = recovery.evaluate_batch(rec, np.array([[0.1], [0.6]]))
    np.testing.assert_array_equal(flat, shaped)


def test_skip_tolerance_only_drops_noise():
    rec = recovery.build(lambda X: X[:, 0], grids.delta_mixed(4.0, MIXED), 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(50, 2))
    full = recovery.evaluate_batch(rec, X, skip_tol=0.0)
    pruned = recovery.evaluate_batch(rec, X)
    np.testing.assert_allclose(pruned, full, atol=1e-12)


def test_roundtrip_serialization(tmp_path):
    rec = recovery.build(smooth2, grids.delta_mixed(3.0, MIXED), 3)
    path = tmp_path / "rec.json"
    recovery.save(rec, path)
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


def test_load_rejects_foreign_payload():
    with pytest.raises(ValueError, match="not a reconstruction"):
        recovery.from_json_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        recovery.from_json_dict({"format": "sgqi-reconstruction",
                                 "version": 99})
