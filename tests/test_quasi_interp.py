import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from sgqi import bspline, quasi_interp as qi
from oracles import (MASKS, BoundaryExtendedSampler as extend, a_coeff,
                     a_weights, apply_along_axis_moveaxis, faber_table,
                     pairs_even, pairs_odd, surplus_bounds, surplus_weights,
                     table_csr)


def scipy_csr(T):
    """scipy's CSR matrix over the arrays of a package table."""
    return sparse.csr_matrix((T.data, T.indices, T.indptr), shape=T.shape)


def row_table(W, i):
    """Row i of a CSR table as (node, weight) pairs."""
    sl = slice(W.indptr[i], W.indptr[i + 1])
    return list(zip(W.indices[sl].tolist(), W.data[sl].tolist()))


def nodes(k):
    return np.arange((1 << k) + 1) / (1 << k)


def test_mask_tables():
    assert MASKS[3] == {-1: Fraction(-1, 8), 0: Fraction(10, 8),
                        1: Fraction(-1, 8)}
    assert MASKS[4][0] == Fraction(8, 6)
    for r in bspline.ORDERS:
        assert sum(MASKS[r].values()) == 1
        # the package holds the same mask as numerators over one denominator
        den, lam = qi._MASKS[r]
        assert {j: Fraction(w, den) for j, w in lam.items()} == MASKS[r]
    assert [max(abs(j) for j in MASKS[r]) for r in bspline.ORDERS] == \
        [0, 0, 1, 1]


def test_extension_reproduces_low_degree():
    # with a full stencil the boundary extension is exact on P_{r-1}
    ext = extend(lambda x: x * x, 2, 4)
    assert math.isclose(ext(-0.25), 0.0625, abs_tol=1e-14)
    assert math.isclose(ext(1.25), 1.5625, abs_tol=1e-13)
    f = math.exp
    ext2 = extend(f, 1, 2)
    # linear extrapolation through (0, f(0)) and (1/2, f(1/2))
    assert math.isclose(ext2(-0.5), 2.0 * f(0.0) - f(0.5), abs_tol=1e-13)


def test_extension_needs_enough_nodes():
    with pytest.raises(ValueError, match="insufficient nodes"):
        extend(lambda x: x, 0, 3)


def test_frozen_sample_coefficient():
    # r=4, k=2, s=0 on f(x) = x^2:
    #   -1/6 fbar(1/4) + 8/6 fbar(0) - 1/6 fbar(-1/4) = -2/(6*16) = -1/48
    got = a_coeff(extend(lambda x: x * x, 2, 4), 0)
    assert math.isclose(got, -1.0 / 48.0, abs_tol=1e-15)
    A, lo = qi.sample_matrix(4, 2), bspline.shift_bounds(4, 2)[0]
    got = (A @ nodes(2) ** 2)[0 - lo]
    assert math.isclose(got, -1.0 / 48.0, abs_tol=1e-15)


def test_frozen_surplus_coefficients():
    # order 2 at level 1, odd shift: midpoint minus neighbour average
    W, lo = qi.surplus_matrix(2, 1), bspline.shift_bounds(2, 1)[0]
    got = (W @ nodes(1) ** 2)[1 - lo]
    assert math.isclose(got, -0.25, abs_tol=1e-15)
    # order 3 at level 1, odd shift, constant input: the refined part of
    # -Q_0 contributes comb weights (1 + 3)/4 = 1
    W, lo = qi.surplus_matrix(3, 1), bspline.shift_bounds(3, 1)[0]
    got = (W @ np.ones(3))[1 - lo]
    assert math.isclose(got, -1.0, abs_tol=1e-15)


def test_refinement_pairs():
    assert pairs_even(2, 1, 1) == [(1, 0), (0, 2)]
    assert pairs_odd(3, 1, 1) == [(1, 0), (0, 2)]
    # refine_matrix carries exactly these pairs from the sample shifts,
    # with weight 2^{1-r} C(r, j)
    for r in bspline.ORDERS:
        pairs = pairs_even if r % 2 == 0 else pairs_odd
        den = bspline.shift_denominator(r)
        for k in (1, 2, 3):
            R = scipy_csr(qi.refine_matrix(r, k - 1)).toarray()
            s_lo = bspline.shift_bounds(r, k - 1)[0]
            t_lo, t_hi = bspline.shift_bounds(r, k)
            for t in range(t_lo, t_hi + 1):
                want = {den * m - s_lo: math.comb(r, j) / (1 << (r - 1))
                        for m, j in pairs(r, k, t)}
                got = {c: R[t - t_lo, c] for c in np.flatnonzero(R[t - t_lo])
                       if (c + s_lo) % den == 0}
                assert got == want, (r, k, t)


def sample_row(r, k, s):
    # the sample functional of integer shift s is row den s of the table,
    # odd rows of odd orders stay empty
    den = bspline.shift_denominator(r)
    return a_weights(r, k, s // den) if s % den == 0 else ()


def oracle_tables(r, k):
    """(oracle name, package table, its first shift, the oracle's scipy CSR
    matrix) of the surplus and the sample table of order r at level k; the
    package's first shift is shift_bounds(r, k)[0]."""
    lo, hi = surplus_bounds(r, k)
    first = bspline.shift_bounds(r, k)[0]
    for M, table in ((qi.surplus_matrix(r, k), surplus_weights),
                     (qi.sample_matrix(r, k), sample_row)):
        yield table.__name__, M, first, table_csr(
            [table(r, k, s) for s in range(lo, hi + 1)], k)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_tables_match_exact_rational_oracle(r):
    # every entry is float() of the exact rational weight, bit for bit;
    # both tables sit on the shift rows
    for k in range(13):
        lo, hi = surplus_bounds(r, k)
        for name, M, first, want in oracle_tables(r, k):
            assert first == lo
            assert M.shape == want.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(M, part), getattr(want, part)), \
                    (r, k, name, part)


def product_tables(r, k, rng):
    """Every kind of table the package applies to tensors, of order r at
    level k: sample, surplus, refinement and collocation."""
    yield qi.sample_matrix(r, k)
    yield qi.surplus_matrix(r, k)
    yield qi.refine_matrix(r, k)
    yield qi.collocation_matrix(r, k, rng.random(5))[0]


def operands(n, rng):
    """A vector, matrices of 3, 1 and 0 columns, and a transposed view."""
    return (rng.standard_normal(n), rng.standard_normal((n, 3)),
            rng.standard_normal((n, 1)), np.zeros((n, 0)),
            rng.standard_normal((2, n)).T)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_table_products_match_scipy(r):
    # a table times a vector or a matrix runs scipy's compiled kernel on
    # the table's own arrays, bitwise scipy's product for every kind of
    # table and with the oracle's CSR matrix
    rng = np.random.default_rng(r)
    for k in range(13):
        for T in product_tables(r, k, rng):
            want = scipy_csr(T)
            for X in operands(T.shape[1], rng):
                got = T @ X
                assert type(got) is np.ndarray
                assert got.shape == (T.shape[0],) + X.shape[1:], (r, k)
                assert np.array_equal(got, want @ X), (r, k, X.shape)
        for name, M, _, want in oracle_tables(r, k):
            for X in operands(M.shape[1], rng):
                assert np.array_equal(M @ X, want @ X), (r, k, name)


def test_table_product_rejects_wrong_shapes():
    # the compiled kernel checks no bounds, so the table checks the operand
    W = qi.surplus_matrix(4, 3)
    n = W.shape[1]
    for X in (np.ones(n - 1), np.ones(n + 1), np.ones((n + 1, 2)),
              np.ones((n, 2, 2)), np.float64(1.0), np.ones((1, n))):
        with pytest.raises(ValueError, match="cannot apply"):
            W @ X


def test_surplus_tables_match_faber_order2():
    for k in range(5):
        W, (lo, hi) = qi.surplus_matrix(2, k), bspline.shift_bounds(2, k)
        for s in range(lo, hi + 1):
            assert surplus_weights(2, k, s) == faber_table(k, s)
            assert row_table(W, s - lo) == \
                [(nd, float(w)) for nd, w in faber_table(k, s)]


def test_even_shift_tables_cancel_for_even_orders():
    # the coarse level already carries those values
    for k in (1, 2, 3):
        W, lo = qi.surplus_matrix(2, k), bspline.shift_bounds(2, k)[0]
        for s in range(0, (1 << k) + 1, 2):
            assert surplus_weights(2, k, s) == ()
            assert row_table(W, s - lo) == []


def test_surplus_annihilates_constants_even_orders():
    # integer shifts are locally independent, so the zero function forces
    # zero coefficients
    for r in (2, 4):
        for k in (1, 2, 3):
            lo, hi = bspline.shift_bounds(r, k)
            for s in range(lo, hi + 1):
                total = sum(w for _, w in surplus_weights(r, k, s))
                assert total == 0, (r, k, s)


def test_surplus_annihilates_constants_odd_orders():
    # the half-integer system is redundant (its alternating combination
    # vanishes identically), so constants show up as canceling +-1 pairs;
    # the surplus is zero as a function, not coefficientwise
    rng = np.random.default_rng(9)
    X = rng.uniform(0.0, 1.0, size=(60, 1))
    for r in (1, 3):
        for k in (1, 2, 3):
            lev = qi.q_level(lambda x: 1.0, r, (k,))
            tot = sum(w for _, w in surplus_weights(r, k, 1))
            assert tot != 0  # the redundancy is real
            vals = bspline.eval_expansion(r, (k,), lev.s_min, lev.coeffs, X)
            np.testing.assert_allclose(vals, 0.0, atol=1e-13)


@pytest.mark.parametrize("r,kmin", [(2, 1), (4, 3)])
def test_surplus_annihilates_reproduced_polynomials(r, kmin):
    # once both levels carry full extension stencils, q_k kills P_{r-1};
    # checked in exact rational arithmetic, all shifts including boundary
    for k in (kmin, kmin + 1):
        lo, hi = bspline.shift_bounds(r, k)
        for s in range(lo, hi + 1):
            for deg in range(r):
                val = sum(w * Fraction(nd, 1 << k) ** deg
                          for nd, w in surplus_weights(r, k, s))
                assert val == 0, (r, k, s, deg)


@pytest.mark.parametrize("r,kmin", [(1, 1), (3, 2)])
def test_surplus_vanishes_on_polynomials_odd_orders(r, kmin):
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 1.0, size=(60, 1))
    f = lambda x: x ** (r - 1)
    for k in (kmin, kmin + 1):
        lev = qi.q_level(f, r, (k,))
        vals = bspline.eval_expansion(r, (k,), lev.s_min, lev.coeffs, X)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)


def test_a_weights_agree_with_sampler_path():
    f = lambda x: math.sin(2.0 * x) + 0.3 * x
    for r, k, s in [(2, 2, 0), (3, 2, -1), (4, 3, 9), (4, 2, 5)]:
        direct = a_coeff(extend(f, k, r), s)
        h = 0.5**k
        table = sum(float(w) * f(nd * h) for nd, w in a_weights(r, k, s))
        # integer shift s is row den s - lo of the sample table
        A, lo = qi.sample_matrix(r, k), bspline.shift_bounds(r, k)[0]
        row = bspline.shift_denominator(r) * s - lo
        package = (A @ np.array([f(x) for x in nodes(k)]))[row]
        for got in (table, package):
            assert math.isclose(direct, got, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_telescoping_univariate(r):
    f = lambda x: np.sin(3.0 * x) + x * x
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1.0, size=(50, 1))
    direct = qi.apply_Q(f, r, (3,), X)
    total = np.zeros(50)
    for k in range(4):
        lev = qi.q_level(f, r, (k,))
        total += bspline.eval_expansion(r, (k,), lev.s_min, lev.coeffs, X)
    np.testing.assert_allclose(total, direct, atol=1e-12)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_telescoping_box_2d(r):
    f = lambda X: np.cos(X[:, 0] + 2.0 * X[:, 1]) + X[:, 0]
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(40, 2))
    direct = qi.apply_Q(f, r, (1, 2), X)
    total = np.zeros(40)
    for k1 in range(2):
        for k2 in range(3):
            lev = qi.q_level(f, r, (k1, k2))
            total += bspline.eval_expansion(r, (k1, k2), lev.s_min,
                                            lev.coeffs, X)
    np.testing.assert_allclose(total, direct, atol=1e-12)


def test_level_zero_reproduces_constants():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(30, 1))
    for r in bspline.ORDERS:
        lev = qi.q_level(lambda x: 1.0, r, (0,))
        vals = bspline.eval_expansion(r, (0,), lev.s_min, lev.coeffs, X)
        np.testing.assert_allclose(vals, 1.0, atol=1e-13)


def test_apply_Q_reproduces_quadratic():
    X = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
    got = qi.apply_Q(lambda x: x * x, 3, (2,), X)
    np.testing.assert_allclose(got, X[:, 0] ** 2, atol=1e-12)
    for bad in (1.5, -0.25, np.nan):
        with pytest.raises(ValueError, match="outside domain"):
            qi.apply_Q(lambda x: x * x, 3, (2,), [[bad]])


def test_matrix_shapes():
    # one row per shift of shift_bounds, one column per node
    W = qi.surplus_matrix(4, 2)
    b_lo, b_hi = bspline.shift_bounds(4, 2)
    assert W.shape == (b_hi - b_lo + 1, 5)
    A = qi.sample_matrix(3, 1)
    c_lo, c_hi = bspline.shift_bounds(3, 1)
    assert A.shape == (c_hi - c_lo + 1, 3)
    A = scipy_csr(A)
    # integer shifts of the odd order land on the even rows
    assert A[1::2].nnz == 0 and A[0::2].getnnz(axis=1).all()


def test_vectorize_handle_signatures():
    X = np.array([[0.2, 0.7], [0.5, 0.1]])
    want = X[:, 0] + 2.0 * X[:, 1]
    for f in (lambda A: A[:, 0] + 2.0 * A[:, 1],
              lambda x, y: x + 2.0 * y):
        fv = qi.vectorize_handle(f, 2)
        np.testing.assert_allclose(fv(X), want)
    g = qi.vectorize_handle(lambda x: 3.0 * x, 1)
    np.testing.assert_allclose(g(np.array([[0.5]])), [1.5])


def test_vectorize_handle_checks_row_count():
    X = np.random.default_rng(0).random((5, 2))
    with pytest.raises(ValueError, match="shape"):
        qi.vectorize_handle(lambda A: A[:2, 0], 2)(X)
    # a row function mistaken for a vectorized one on two rows is caught
    # on the next call instead of returning values for the wrong rows
    fv = qi.vectorize_handle(lambda x: x[0] * x[1], 2)
    fv(X[:2])
    with pytest.raises(ValueError, match="shape"):
        fv(X)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_refinement_reproduces_level(r):
    # refining level k three times along one axis gives the same function
    # on [0,1]^2, the right edge x = 1 (where the order-1 box is open)
    # included
    rng = np.random.default_rng(r)
    k = (1, 2)
    bounds = [bspline.shift_bounds(r, ki) for ki in k]
    coeffs = rng.uniform(-1.0, 1.0, [hi - lo + 1 for lo, hi in bounds])
    s_min = tuple(lo for lo, _ in bounds)
    knots = np.arange(65) / 64.0
    X = np.vstack([rng.random((40, 2)), rng.choice(knots, size=(40, 2)),
                   [[1.0, 1.0], [1.0, 0.3], [0.3, 1.0], [0.0, 1.0],
                    [1.0, 0.0], [0.0, 0.0]]])
    want = bspline.eval_expansion(r, k, s_min, coeffs, X)
    for axis in range(2):
        T, kk = coeffs, list(k)
        for _ in range(3):
            T = qi._apply_along_axis(qi.refine_matrix(r, kk[axis]), T, axis)
            kk[axis] += 1
        s_ref = tuple(bspline.shift_bounds(r, ki)[0] for ki in kk)
        assert T.shape == tuple(bspline.shift_bounds(r, ki)[1] - lo + 1
                                for ki, lo in zip(kk, s_ref))
        got = bspline.eval_expansion(r, tuple(kk), s_ref, T, X)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))


def same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 3), min_size=1,
                                   max_size=4), st.integers(0, 2**32 - 1))
def test_apply_along_axis_matches_moveaxis(r, levels, seed):
    # every axis of C-ordered, transposed and strided inputs
    rng = np.random.default_rng(seed)
    shape = [(1 << k) + 1 for k in levels]
    C = rng.standard_normal(shape)
    big = rng.standard_normal([2 * n for n in shape])
    views = [C, C.transpose(), C[..., ::-1],
             big[tuple(slice(None, None, 2) for _ in shape)]]
    for T in views:
        for axis in range(T.ndim):
            k = (T.shape[axis] - 1).bit_length() - 1  # 2^k + 1 entries
            for W in (qi.surplus_matrix(r, k), qi.sample_matrix(r, k)):
                assert same_bits(qi._apply_along_axis(W, T, axis),
                                 apply_along_axis_moveaxis(W, T, axis))


def test_coarse_axis_window_spans_unreached_knots():
    # 1 and 0 on 2^3 + 4 padded coefficients reach 8..11 and 0..3: the
    # window holds them and the unreached 4..7, each row in knot order
    table, window = qi.collocation_matrix(4, 3, np.array([1.0, 0.0]))
    assert window == slice(0, 12) and table.shape == (2, 12)
    assert table.indices.tolist() == [8, 9, 10, 11, 0, 1, 2, 3]
