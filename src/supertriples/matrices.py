"""Small exact linear algebra over Fractions and over Scalars.

Matrices are lists of rows.  ``rref``, ``inv``, ``transpose`` and
``dual_blockdiag`` serve both entry types: zero tests go by truthiness and
each pivot costs one reciprocal ``1 / pivot`` (a single ``Scalar.inv`` for
Scalars).  ``rref`` is the one elimination loop; ``inv``, ``f_solve`` and
the shear solver run through it.  ``inv`` serves ``SuperAlgebra.transport``
and ``transport_dual``, ``dual_blockdiag`` and the automorphism check; no
certificate is inverted here (``IsoCertificate.invert`` reads its inverse
off the canonical form).  The tensor contractions, and the fraction-free
ranks of the commutant spans and of the orbit members, are in ``algebra``.
``f_solve`` and the ``s_`` routines take one entry type.  ``f_matmul`` is
entry-generic for int and Fraction entries (an entry no product reaches
stays the int 0); it composes the integer candidate matrices of the search.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .scalars import Scalar


def _zero_one(x):
    """The zero and the one of the entry type of x."""
    if isinstance(x, Scalar):
        return x.ctx.zero(), x.ctx.one()
    return Fraction(0), Fraction(1)


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(rows, cols=None):
    """Gauss-Jordan elimination over the columns in `cols` (all columns, left
    to right, by default), taken in that order.

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


def inv(a):
    """Inverse by rref of [A | I]; DimensionMismatch when A is singular."""
    d = len(a)
    zero, one = _zero_one(a[0][0])
    rows, pivots = rref([list(a[i]) + [one if i == j else zero for j in range(d)]
                         for i in range(d)], range(d))
    if len(pivots) < d:
        raise DimensionMismatch("singular matrix")
    return [row[d:] for row in rows]


def dual_blockdiag(a):
    """blockdiag(A, (A^{-1})^T): A on one half of a double, extended so that
    the canonical pairing is preserved.  DimensionMismatch when A is singular."""
    h = len(a)
    zero, _ = _zero_one(a[0][0])
    ait = transpose(inv(a))
    return ([list(a[i]) + [zero] * h for i in range(h)]
            + [[zero] * h + ait[i] for i in range(h)])


# ---------------------------------------------------------------------------
# int and Fraction matrices


def f_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimensionMismatch("matmul %dx%d by %dx%d" % (n, len(a[0]), k, m))
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] += c * bt[j]
    return out


def f_solve(a, b):
    """Solve a x = b exactly; returns (particular solution, nullspace basis)
    or None when inconsistent.  a: list of rows, b: list of Fractions."""
    n = len(a)
    m = len(a[0]) if a else 0
    rows, pivots = rref([list(a[i]) + [b[i]] for i in range(n)])
    rows = rows[:len(pivots)]
    if m in pivots:
        return None
    sol = [Fraction(0)] * m
    for row, c in zip(rows, pivots):
        sol[c] = row[m]
    null = []
    for fc in range(m):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[fc]
        null.append(vec)
    return sol, null


# ---------------------------------------------------------------------------
# Scalar matrices


def s_identity(ctx, d):
    one, zero = ctx.one(), ctx.zero()
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def s_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimensionMismatch("matmul %dx%d by %dx%d" % (n, len(a[0]), k, m))
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
