from fractions import Fraction

import pytest

from supertriples.errors import DimensionMismatch
from supertriples.forms import canonical_form
from supertriples.iso import NoSolution, solve_r
from supertriples.matrices import (dual_blockdiag, f_matmul, f_solve, inv,
                                   rref, s_identity, s_matmul, transpose)
from supertriples.scalars import Domain, ParamContext

F = Fraction


def ctx_p():
    return ParamContext([("p", Domain.free())])


def ctx_rho():
    base = ParamContext([("kappa", Domain.free()), ("lam", Domain.free())])
    k, l = base.param("kappa"), base.param("lam")
    return ParamContext(list(zip(base.params, (Domain.free(),) * 2)),
                        radicals=[("rho", (k * k + l).re[0])])


def test_inv_singular_fraction_raises():
    with pytest.raises(DimensionMismatch):
        inv([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(DimensionMismatch):
        inv([[F(0), F(0)], [F(0), F(1)]])


def test_inv_singular_scalar_raises():
    ctx = ctx_p()
    p, one = ctx.param("p"), ctx.one()
    # second row is p times the first, identically in p
    with pytest.raises(DimensionMismatch):
        inv([[one, p], [p, p * p]])


def test_inv_fraction_round_trip():
    A = [[F(0), F(2), F(1)], [F(1), F(0), F(0)], [F(3), F(1, 2), F(-1)]]
    I = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert f_matmul(inv(A), A) == I
    assert f_matmul(A, inv(A)) == I


def _assert_identity(M, ctx):
    d = len(M)
    I = s_identity(ctx, d)
    assert all((M[i][j] - I[i][j]).is_zero() for i in range(d) for j in range(d))


def test_inv_parametric_round_trip():
    ctx = ctx_p()
    p, one, zero = ctx.param("p"), ctx.one(), ctx.zero()
    # det = 1 + p^2, nonzero for every rational p
    A = [[p, one, zero], [-one, p, zero], [zero, p * p, one]]
    _assert_identity(s_matmul(inv(A), A), ctx)
    _assert_identity(s_matmul(A, inv(A)), ctx)


def test_inv_radical_round_trip():
    ctx = ctx_rho()
    rho, k, one = ctx.param("rho"), ctx.param("kappa"), ctx.one()
    # det = rho^2 - k^2 = lam, generically nonzero
    A = [[rho, k], [k, rho]]
    _assert_identity(s_matmul(inv(A), A), ctx)
    B = [[rho + one, k], [one, rho]]
    _assert_identity(s_matmul(B, inv(B)), ctx)


def test_scalar_reciprocal_is_one_inverse():
    ctx = ctx_rho()
    x = ctx.param("rho") + ctx.param("kappa")
    assert (1 / x - x.inv()).is_zero()
    assert (3 / x - 3 * x.inv()).is_zero()


def test_rref_column_order_and_leftover_rows():
    rows = [[F(1), F(1), F(2)], [F(2), F(2), F(4)]]
    out, pivots = rref(rows, [1, 0])
    assert pivots == [1]
    assert out[0] == [F(1), F(1), F(2)]
    assert out[1] == [F(0), F(0), F(0)]
    out, pivots = rref(rows)
    assert pivots == [0]
    assert all(x == 0 for x in out[len(pivots)])


def test_f_solve_inconsistent_and_nullspace():
    assert f_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    sol, null = f_solve([[F(1), F(1)]], [F(2)])
    assert sol == [F(2), F(0)]
    assert null == [[F(-1), F(1)]]


def test_dual_blockdiag_preserves_canonical_form():
    A = [[F(2), F(0)], [F(1), F(1, 2)]]
    C = dual_blockdiag(A)
    B = canonical_form(2, 0).matrix
    assert f_matmul(f_matmul(C, B), transpose(C)) == B
    with pytest.raises(DimensionMismatch):
        dual_blockdiag([[F(1), F(1)], [F(1), F(1)]])


def test_solve_r_witness_from_leftover_row():
    ctx = ctx_p()
    zero, one = ctx.zero(), ctx.one()
    # H = 0 forces G = 0; the witness is the first nonzero G entry, monic
    H = [[zero, zero], [zero, zero]]
    res = solve_r(H, [[zero, ctx.const(3)], [ctx.const(3), zero]])
    assert isinstance(res, NoSolution)
    assert res.witness.is_one()
    res = solve_r([[one, zero], [zero, one]],
                  [[ctx.const(2), zero], [zero, ctx.const(4)]])
    assert res.check()
