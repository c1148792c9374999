from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supertriples.errors import DimensionMismatch, DivisionByZero
from supertriples.iso import NoSolution, solve_r, solve_shear
from supertriples.matrices import (dual_blockdiag, f_matmul, f_solve,
                                   identity, inv, transpose)
from supertriples.scalars import Domain, ParamContext, Scalar
from test_forms import _block_form

F = Fraction


def rref(rows, cols=None):
    """The reference elimination: Gauss-Jordan over the columns in `cols`
    (all columns, left to right, by default), taken in that order, on any
    field entries (Fractions or Scalars), zero tests by truthiness.

    Returns (all reduced rows, pivot columns); row i < len(pivots) carries the
    pivot of column pivots[i], and the rows after them vanish on every scanned
    column.
    """
    rows = [list(r) for r in rows]
    if cols is None:
        cols = range(len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in cols:
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = 1 / rows[r][c]
        rows[r] = [x * scale for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def s_matmul(a, b):
    """The reference product of Scalar matrices: each entry's sum starts at
    its first nonzero term, and an entry that no product reaches is the
    context's zero."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = a[i][t]
                y = b[t][j]
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else a[0][0].ctx.zero())
        out.append(row)
    return out


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
    I = identity(d, ctx.one(), ctx.zero())
    assert all((M[i][j] - I[i][j]).is_zero() for i in range(d) for j in range(d))


def test_inv_parametric_round_trip():
    ctx = ctx_p()
    p, one, zero = ctx.param("p"), ctx.one(), ctx.zero()
    # det = 1 + p^2, nonzero for every rational p
    A = [[p, one, zero], [-one, p, zero], [zero, p * p, one]]
    _assert_identity(f_matmul(inv(A), A), ctx)
    _assert_identity(f_matmul(A, inv(A)), ctx)


def test_inv_radical_round_trip():
    ctx = ctx_rho()
    rho, k, one = ctx.param("rho"), ctx.param("kappa"), ctx.one()
    # det = rho^2 - k^2 = lam, generically nonzero
    A = [[rho, k], [k, rho]]
    _assert_identity(f_matmul(inv(A), A), ctx)
    B = [[rho + one, k], [one, rho]]
    _assert_identity(f_matmul(B, inv(B)), ctx)


MATMUL_CONTEXTS = {"numeric": ParamContext, "parametric": ctx_p,
                   "radical": ctx_rho}


@given(st.sampled_from(sorted(MATMUL_CONTEXTS)), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_f_matmul_equals_the_scalar_reference(name, n, k, m, rng):
    """On Scalar matrices, half of whose entries are zero, in a context with
    no parameter, with one, and with parameters and a radical, f_matmul is
    the reference product; every entry, one that no product reaches
    included, is a Scalar of the context."""
    ctx = MATMUL_CONTEXTS[name]()
    gens = [ctx.one()] + [ctx.param(x) for x in ctx.params]
    if ctx.radical_name is not None:
        gens.append(ctx.radical())

    def entry():
        if rng.random() < 0.5:
            return ctx.zero()
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return c * rng.choice(gens) + rng.choice([ctx.zero()] + gens)

    A = [[entry() for _ in range(k)] for _ in range(n)]
    B = [[entry() for _ in range(m)] for _ in range(k)]
    out = f_matmul(A, B)
    assert out == s_matmul(A, B)
    assert all(type(x) is Scalar and x.ctx == ctx for row in out for x in row)


def test_f_matmul_unreached_entries_are_the_entries_zero():
    """An entry that no product reaches is the int 0 for int and Fraction
    matrices, as before Scalar entries were taken, and the context's zero
    Scalar for Scalar ones."""
    out = f_matmul([[F(1, 2), 0], [0, 3]], [[4, 0], [0, F(1, 3)]])
    assert out == [[2, 0], [0, 1]]
    assert type(out[0][1]) is int and type(out[1][0]) is int
    ctx = ctx_rho()
    rho, zero = ctx.radical(), ctx.zero()
    out = f_matmul([[rho, zero], [zero, rho]], [[rho, zero], [zero, rho]])
    assert all(type(x) is Scalar for row in out for x in row)
    assert out[0][1] == zero and out[1][0] == zero
    assert out[0][0] == out[1][1] == ctx.param("kappa") ** 2 + ctx.param("lam")


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
    B = _block_form(2, 0)
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
    assert res.witness == 1
    res = solve_r([[one, zero], [zero, one]],
                  [[ctx.const(2), zero], [zero, ctx.const(4)]])
    assert res == [[one, zero], [zero, ctx.const(2)]]


# ---------------------------------------------------------------------------
# the echelon solves against the reference Gauss-Jordan elimination


def _reference_f_solve(a, b):
    """(particular, null) of a x = b by ``rref`` over every column, the
    right-hand side's last, or None when it takes a pivot."""
    m = len(a[0])
    rows, pivots = rref([[F(x) for x in row] + [F(y)] for row, y in zip(a, b)])
    if m in pivots:
        return None
    sol = [F(0)] * m
    for row, c in zip(rows, pivots):
        sol[c] = row[m]
    null = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [F(0)] * m
        vec[fc] = F(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[fc]
        null.append(vec)
    return sol, null


def _reference_inv(a, zero, one):
    d = len(a)
    rows, pivots = rref([list(a[i]) + [one if i == j else zero for j in range(d)]
                         for i in range(d)], range(d))
    return None if len(pivots) < d else [row[d:] for row in rows]


def _shear_rows(H_list, G_list, zero):
    """The dense rows of the shear system R H_i + (R H_i)^T = G_i over the
    unknowns R^{jk}, j <= k, in row-major order, the right-hand side last."""
    n = len(H_list[0])
    pos = {jk: i for i, jk in enumerate((j, k) for j in range(n)
                                        for k in range(j, n))}
    rows = []
    for H, G in zip(H_list, G_list):
        for j in range(n):
            for k in range(j, n):
                row = [zero] * (len(pos) + 1)
                for l in range(n):
                    row[pos[min(j, l), max(j, l)]] += H[l][k]
                    row[pos[min(k, l), max(k, l)]] += H[l][j]
                row[-1] = G[j][k]
                rows.append(row)
    return rows, pos


def _reference_shear(H_list, G_list, zero):
    """The symmetric R of ``rref`` over the reversed unknowns with the free
    ones 0, or None when a leftover row keeps its right-hand side; and the
    pivot columns."""
    rows, pos = _shear_rows(H_list, G_list, zero)
    out, pivots = rref(rows, reversed(range(len(pos))))
    if any(row[-1] for row in out[len(pivots):]):
        return None, pivots
    values = [zero] * len(pos)
    for row, c in zip(out, pivots):
        values[c] = row[-1]
    n = len(H_list[0])
    R = [[zero] * n for _ in range(n)]
    for (j, k), i in pos.items():
        R[j][k] = R[k][j] = values[i]
    return R, pivots


def _no_float(*values):
    stack = list(values)
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        else:
            assert not isinstance(x, float), x


RATIONALS = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))


def _matrices(rows, cols, entries=RATIONALS):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _systems(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = draw(_matrices(n, m))
    b = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    # a repeated row makes rank deficiency, and an inconsistent system, common
    if draw(st.booleans()):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(-2, 2))
        a.append([k * x for x in a[i]])
        b.append(draw(st.sampled_from([k * b[i], k * b[i] + 1])))
    as_ints = draw(st.booleans())
    if as_ints:
        a = [[int(x) for x in row] for row in a]
        b = [int(x) for x in b]
    return a, b


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_f_solve_equals_the_reference(system):
    a, b = system
    got = f_solve(a, b)
    _no_float(got)
    assert got == _reference_f_solve(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: _matrices(d, d)))
def test_inv_equals_the_reference(a):
    ref = _reference_inv([[F(x) for x in row] for row in a], F(0), F(1))
    if ref is None:
        with pytest.raises(DimensionMismatch):
            inv(a)
        return
    got = inv(a)
    _no_float(got)
    assert got == ref


@st.composite
def _shear_systems(draw, entries):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    H_list = [draw(_matrices(n, n, entries)) for _ in range(k)]
    G_list = []
    for _ in range(k):
        g = draw(_matrices(n, n, RATIONALS))
        G_list.append([[g[min(i, j)][max(i, j)] for j in range(n)]
                       for i in range(n)])
    return H_list, G_list


@settings(max_examples=300, deadline=None)
@given(_shear_systems(st.one_of(st.just(0), RATIONALS)))
def test_shear_solve_equals_the_reference(system):
    ctx = ParamContext()
    H_list, G_list = ([[[ctx.const(x) for x in row] for row in M] for M in Ms]
                      for Ms in system)
    ref, _ = _reference_shear(H_list, G_list, ctx.zero())
    got = solve_shear(H_list, G_list)
    if ref is None:
        assert isinstance(got, NoSolution) and got.witness == 1
    else:
        assert got == ref


LINEAR_IN_P = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
POINTS = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3))


def _in_p(ctx, entries):
    p = ctx.param("p")
    return [[a + b * p for a, b in row] for row in entries]


def _at(ctx, t, M):
    """M at p = t as Fractions; None when an entry's denominator vanishes."""
    _, mapper = ctx.bind({"p": t})
    try:
        return [[mapper(x).as_fraction() for x in row] for row in M]
    except DivisionByZero:
        return None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: _matrices(d, d, LINEAR_IN_P)))
def test_parametric_inv_equals_the_reference(entries):
    """inv of a matrix linear in p equals the reference on the Scalars, and
    at each rational point where both are defined, the reference inverse of
    the matrix at that point."""
    ctx = ParamContext([("p", Domain.free())])
    A = _in_p(ctx, entries)
    ref = _reference_inv(A, ctx.zero(), ctx.one())
    if ref is None:
        with pytest.raises(DimensionMismatch):
            inv(A)
        return
    got = inv(A)
    assert got == ref
    for t in POINTS:
        at_t = _at(ctx, t, got)
        point = _reference_inv(_at(ctx, t, A), F(0), F(1))
        if at_t is not None and point is not None:
            assert at_t == point


@settings(max_examples=50, deadline=None)
@given(_shear_systems(LINEAR_IN_P))
def test_parametric_shear_solve_equals_the_reference(system):
    """The shear solve of an H linear in p equals the reference on the
    Scalars, and at each rational point where the solution is defined and
    the reference keeps its generic pivots, the reference's solution there."""
    ctx = ParamContext([("p", Domain.free())])
    H_list = [_in_p(ctx, H) for H in system[0]]
    G_list = [[[ctx.const(x) for x in row] for row in G] for G in system[1]]
    ref, pivots = _reference_shear(H_list, G_list, ctx.zero())
    got = solve_shear(H_list, G_list)
    if ref is None:
        assert isinstance(got, NoSolution)
        return
    assert got == ref
    for t in POINTS:
        at_t = _at(ctx, t, got)
        H_t = [_at(ctx, t, H) for H in H_list]
        G_t = [_at(ctx, t, G) for G in G_list]
        point, point_pivots = _reference_shear(H_t, G_t, F(0))
        if at_t is not None and point_pivots == pivots:
            assert at_t == point
