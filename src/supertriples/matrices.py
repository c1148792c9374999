"""Small exact linear algebra over int, Fraction and Scalar entries.

Matrices are lists of rows.  ``echelon_add`` is the one elimination loop:
a fraction-free echelon of sparse rows ({col: entry}) that reduces
v <- y v - x row and divides only an int survivor by its gcd (cf. Bareiss).
It keeps the commutant spans and gives every rank.  ``f_solve``, ``inv``
(behind ``dual_blockdiag``, ``SuperAlgebra.transport`` and
``transport_dual``) and ``iso.solve_shear`` solve through ``echelon``, the
unknowns first in scan order and the right-hand sides last, and one
``back_substitute`` with the free unknowns 0: the reduced row-echelon
solution, which the scan order alone fixes.  Zero tests go by truthiness.
No certificate is inverted here (``IsoCertificate.invert`` reads its
inverse off the canonical form).

``f_matmul`` is the one matrix product and ``identity`` the one identity,
for int, Fraction and Scalar entries alike: the search composes its integer
candidates with them, and ``IsoCertificate.compose`` its Scalar
certificates.  The product keeps the name ``f_matmul`` of the Fraction
product it grew from, because the benchmark counts its calls by that name.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch


def transpose(a):
    return [list(col) for col in zip(*a)]


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def echelon_add(basis, v):
    """Add the sparse vector v ({col: entry} without zero entries; empty is
    zero) to the echelon basis {pivot: row}, each row keyed by its lowest
    column, and return the pivot of what survives (None for nothing).  v is
    reduced fraction-free, v <- y v - x row, against the pivots in
    increasing order: a row's other columns lie above its pivot, so a
    column once cleared stays clear.  A survivor of ints is divided by its
    gcd, so integer rows stay primitive."""
    for p in sorted(basis):
        x = v.get(p)
        if x:
            row = basis[p]
            y = row[p]
            out = {c: y * w for c, w in v.items()}
            for c, w in row.items():
                out[c] = out.get(c, 0) - x * w
            v = {c: w for c, w in out.items() if w}
    if not v:
        return None
    if all(type(w) is int for w in v.values()):
        g = math.gcd(*v.values())
        v = {c: w // g for c, w in v.items()}
    p = min(v)
    basis[p] = v
    return p


def echelon(rows, n):
    """(basis, bad): the echelon basis of the sparse rows of a system
    [A | B] whose columns below n are the unknowns, in scan order, and the
    others its right-hand sides; bad is the first row that reduces to
    right-hand sides alone, where the elimination stops, or None when
    A X = B is solvable."""
    basis = {}
    for row in rows:
        p = echelon_add(basis, row)
        if p is not None and p >= n:
            return basis, basis[p]
    return basis, None


def back_substitute(basis, cols):
    """For each column col of cols, the solution x ({pivot: nonzero value})
    of the basis rows with col as right-hand side and every column not in x
    0, solved from the highest pivot down."""
    xs = [{} for _ in cols]
    for p in sorted(basis, reverse=True):
        row = basis[p]
        y = Fraction(row[p]) if type(row[p]) is int else row[p]
        for x, col in zip(xs, cols):
            s = row.get(col, 0)
            for c, w in row.items():
                if c in x:
                    s = s - w * x[c]
            if s:
                x[p] = s / y
    return xs


def inv(a):
    """The inverse from [A | I]; DimensionMismatch when A is singular."""
    d = len(a)
    basis, bad = echelon([{**sparse(row), d + i: 1} for i, row in enumerate(a)], d)
    if bad is not None:
        raise DimensionMismatch("singular matrix")
    zero = a[0][0] * 0
    cols = back_substitute(basis, range(d, 2 * d))
    return [[x.get(i, zero) for x in cols] for i in range(d)]


def dual_blockdiag(a):
    """blockdiag(A, (A^{-1})^T): A on one half of a double, extended so that
    the canonical pairing is preserved.  DimensionMismatch when A is singular."""
    h = len(a)
    zero = a[0][0] * 0
    ait = transpose(inv(a))
    return ([list(a[i]) + [zero] * h for i in range(h)]
            + [[zero] * h + ait[i] for i in range(h)])


def identity(d, one, zero):
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def f_matmul(a, b):
    """The product of two matrices of int, Fraction or Scalar entries.  Each
    sum starts at its first nonzero term, so a Scalar product makes one
    multiplication per pair of nonzero factors and one addition per further
    term; an entry no product reaches is the zero of the entries: the
    context's zero Scalar, else the int 0."""
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimensionMismatch("matmul %dx%d by %dx%d" % (n, len(a[0]), k, m))
    out = [[None] * m for _ in range(n)]
    for ai, oi in zip(a, out):
        for c, bt in zip(ai, b):
            if not c:
                continue
            for j, y in enumerate(bt):
                if y:
                    x = c * y
                    oi[j] = x if oi[j] is None else oi[j] + x
    ctx = getattr(a[0][0], "ctx", None)
    zero = 0 if ctx is None else ctx.zero()
    return [[zero if x is None else x for x in row] for row in out]


def f_solve(a, b):
    """Solve a x = b exactly; returns (particular solution, nullspace basis)
    or None when inconsistent.  a: list of rows, b: a list, of ints or
    Fractions; the solution's entries are Fractions.  Each null vector is 1
    in its own free column, where the others and the particular solution
    are 0."""
    m = len(a[0]) if a else 0
    basis, bad = echelon([sparse(list(row) + [x]) for row, x in zip(a, b)], m)
    if bad is not None:
        return None
    free = [c for c in range(m) if c not in basis]
    sol, *solved = back_substitute(basis, [m] + free)
    null = [[Fraction(c == fc) - x.get(c, 0) for c in range(m)]
            for fc, x in zip(free, solved)]
    return [Fraction(sol.get(c, 0)) for c in range(m)], null
