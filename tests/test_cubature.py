import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgqi import bspline, cubature, grids, quasi_interp, recovery
from test_grids import downward_closed_sets
from test_quasi_interp import scipy_csr


def box_set(kmax):
    levels = tuple(sorted(np.ndindex(*[m + 1 for m in kmax])))
    return grids.LevelSet(d=len(kmax), levels=levels, xi=float(max(kmax)),
                          family="box")


MIXED = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0, 2.0))


def test_frozen_trapezoid_weights():
    # order 2 on the level-0 grid is the endpoint trapezoid rule
    rule = cubature.assemble_weights(box_set((0,)), 2)
    np.testing.assert_allclose(rule.points()[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)
    # adding level 1 refines it to the composite rule at h = 1/2
    rule = cubature.assemble_weights(box_set((1,)), 2)
    np.testing.assert_allclose(rule.points()[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(rule.weights, [0.25, 0.5, 0.25],
                               atol=1e-15)


def test_frozen_order1_endpoint_weights():
    rule = cubature.assemble_weights(box_set((0,)), 1)
    np.testing.assert_allclose(rule.points()[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_weights_sum_to_one(r):
    for delta in (box_set((2, 2)), grids.delta_mixed(4.0, MIXED),
                  grids.comparison_sets(3.0, 1.0, "smolyak", 2)):
        rule = cubature.assemble_weights(delta, r)
        assert abs(rule.weights.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("r", [2, 3, 4])
def test_polynomial_exactness(r):
    # needs levels large enough for full boundary stencils
    k0 = {2: 0, 3: 1, 4: 2}[r]
    delta = box_set((k0 + 1, k0 + 1))
    rule = cubature.assemble_weights(delta, r)
    for e1 in range(r):
        for e2 in range(r):
            got = cubature.apply_rule(rule, lambda X: X[:, 0]**e1 * X[:, 1]**e2)
            want = 1.0 / ((e1 + 1) * (e2 + 1))
            assert abs(got - want) < 1e-12, (e1, e2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_duality_with_reconstruction(r):
    delta = grids.delta_mixed(4.0, MIXED)
    rule = cubature.assemble_weights(delta, r)
    rng = np.random.default_rng(21)
    for _ in range(5):
        c = rng.standard_normal(4)
        f = lambda X: (c[0] * np.sin(X[:, 0] + c[1]) * np.cos(c[2] * X[:, 1])
                       + c[3] * X[:, 0] * X[:, 1])
        via_rule = cubature.apply_rule(rule, f)
        via_rec = cubature.integrate_reconstruction(
            recovery.build(f, delta, r))
        assert abs(via_rule - via_rec) < 1e-12


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_axis_weights_are_scipys_transposed_product(r):
    # integral vector times surplus table, bit for bit scipy's product
    for k in range(7):
        W = scipy_csr(quasi_interp.surplus_matrix(r, k))
        want = W.T.dot(bspline.integral_vector(r, k))
        got = cubature._axis_weights(r, k)
        assert got.shape == want.shape and np.array_equal(got, want), (r, k)


def test_budget_and_counts():
    delta = grids.delta_mixed(3.0, MIXED)
    rule = cubature.assemble_weights(delta, 2)
    assert len(rule.weights) == delta.distinct_points()
    assert rule.points().shape == (delta.distinct_points(), 2)


def test_rejects_open_set():
    hole = grids.LevelSet(d=1, levels=((0,), (2,)), xi=0.0, family="t")
    with pytest.raises(ValueError, match="downward closed"):
        cubature.assemble_weights(hole, 2)
    empty = grids.LevelSet(d=1, levels=(), xi=-1.0, family="t")
    with pytest.raises(ValueError, match="no levels"):
        cubature.assemble_weights(empty, 2)


def test_rejects_order_out_of_range():
    # used to raise KeyError from the table lookup
    with pytest.raises(ValueError, match="order out of range"):
        cubature.assemble_weights(box_set((1, 1)), 5)


def test_integrate_reconstruction_value():
    # integral of the piecewise linear interpolant of x^2 on h = 1/4:
    # composite trapezoid value (1/8)(0 + 2/16 + 2/4 + 2*9/16 + 1) = 11/32
    rec = recovery.build(lambda x: x * x, box_set((2,)), 2)
    assert abs(cubature.integrate_reconstruction(rec) - 11.0 / 32.0) < 1e-14


def test_apply_rule_handle_styles():
    rule = cubature.assemble_weights(box_set((1, 1)), 2)
    f_arr = lambda X: X[:, 0] + X[:, 1]
    f_xy = lambda x, y: x + y
    assert math.isclose(cubature.apply_rule(rule, f_arr),
                        cubature.apply_rule(rule, f_xy))


def test_apply_rule_rejects_non_finite_f():
    rule = cubature.assemble_weights(box_set((2, 2)), 2)
    f = lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        cubature.apply_rule(rule, f)


def test_exact_decimal_strings():
    assert cubature._exact_decimal(0, 0) == "0"
    assert cubature._exact_decimal(1, 0) == "1"
    assert cubature._exact_decimal(1, 1) == "0.5"
    assert cubature._exact_decimal(3, 2) == "0.75"
    assert cubature._exact_decimal(5, 4) == "0.3125"
    assert cubature._exact_decimal(1, 10) == "0.0009765625"
    assert cubature._exact_decimal(-3, 2) == "-0.75"


def test_export_csv_golden():
    rule = cubature.assemble_weights(box_set((1,)), 2)
    buf = io.StringIO()
    cubature.export_csv(rule, buf)
    assert buf.getvalue() == ("x_1,weight\n"
                              "0,0.25\n"
                              "0.5,0.5\n"
                              "1,0.25\n")


def test_export_csv_2d_header_and_coords():
    rule = cubature.assemble_weights(box_set((0, 1)), 2)
    buf = io.StringIO()
    cubature.export_csv(rule, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x_1,x_2,weight"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
        "0,0", "0,0.5", "0,1", "1,0", "1,0.5", "1,1"]
    total = sum(float(ln.rsplit(",", 1)[1]) for ln in lines[1:])
    assert abs(total - 1.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets().filter(lambda delta: delta.d <= 3),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_rule_integrates_reconstruction_on_any_downward_closed_set(
        delta, r, seed):
    # random downward-closed sets are in general no sublevel set of any
    # family; both consumers of the surplus tables must still agree
    rng = np.random.default_rng(seed)
    w = rng.uniform(-4.0, 4.0, delta.d)
    c = rng.uniform(0.0, 2.0 * np.pi)
    f = lambda X: np.cos(X @ w + c) + X[:, 0] ** 3
    via_rule = cubature.apply_rule(cubature.assemble_weights(delta, r), f)
    via_rec = cubature.integrate_reconstruction(recovery.build(f, delta, r))
    largest = np.abs(f(grids.sample_grid(delta).coords())).max()
    assert abs(via_rule - via_rec) <= 1e-12 * largest
