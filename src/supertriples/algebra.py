"""Z2-graded vector spaces and Lie superalgebras as structure-constant
tensors, with axiom checks, automorphism families and commutant series.

A superalgebra of superdimension (m, n) lives on the homogeneous basis
b_1..b_m, f_1..f_n.  Doubles reuse the same class with the dual homogeneous
layout (b, f, b~, f~); only the parity tuple matters to the checks.

A tensor is stored once, inside SuperAlgebra, as its sorted nonzero entries
(i, j, k, F_{IJ}^K); the package's other modules read it through nonzero(),
entries() and bracket(i, j), never through a dense array.

Every contraction of a structure tensor with a matrix (basis change, the
automorphism and certificate conditions, the commutant series, and
ad-invariance in ``forms``) runs through the two sparse kernels ``_pull``
and ``_push``, for int, Fraction, Scalar and ``scalars.Cleared`` entries
alike.  ``_integer_tensor`` and ``_integer_matrix`` clear the denominators
of Fraction inputs once, so that the orbit reduction, the certificate
search and the commutant series contract integers only;
``scalars.clear_denominators`` does the same for Scalar inputs, so that
parametric certificates are verified on polynomial pairs with no gcd.
The commutant spans are kept by ``_echelon_add``, a fraction-free echelon
of sparse integer rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConstraintViolation, DimensionMismatch
from .matrices import inv, transpose
from .scalars import vanishes_on_branches

__all__ = [
    "Grading", "SuperAlgebra", "AutomorphismFamily", "AutoBranch",
    "CommutantFingerprint", "check_antisymmetry", "check_jacobi",
    "commutant_series", "is_automorphism",
]


class Grading:
    """Even/odd generator counts; basis order fixed bosons then fermions."""

    __slots__ = ("m", "n")

    def __init__(self, m, n):
        if m < 0 or n < 0 or m + n < 1:
            raise ConstraintViolation("bad superdimension (%s, %s)" % (m, n))
        self.m = m
        self.n = n

    @property
    def dim(self):
        return self.m + self.n

    def parities(self):
        return (0,) * self.m + (1,) * self.n

    def names(self, dual=False):
        b, f = ("bt", "ft") if dual else ("b", "f")
        return tuple("%s%d" % (b, i + 1) for i in range(self.m)) \
            + tuple("%s%d" % (f, i + 1) for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Grading) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return "Grading(%d, %d)" % (self.m, self.n)


class SuperAlgebra:
    """Structure-constant tensor F_{IJ}^K over a parameter context.

    The tensor is stored once, as its nonzero entries (i, j, k, F_{IJ}^K)
    sorted by (i, j, k): ``nonzero()`` returns that list, ``bracket(i, j)``
    reads a row index built from it, and ``F`` is a read-only dense view
    (nested tuples) for callers that want the d x d x d array.

    dual_role marks tensors whose indices are conceptually raised
    (F~^{IJ}_K of a dual subalgebra); the axioms take the identical form,
    so the flag is metadata for provenance and printing only.
    """

    __slots__ = ("grading", "parity", "names", "ctx", "name", "dual_role",
                 "_nz", "_rows", "_dense")

    def __init__(self, grading, ctx, entries, parity=None, names=None,
                 name=None, dual_role=False):
        """entries: {(i, j, k): Scalar}; zero entries are dropped."""
        self.grading = grading
        self.ctx = ctx
        self.parity = tuple(parity) if parity is not None else grading.parities()
        self.names = tuple(names) if names is not None else grading.names(dual_role)
        self.name = name
        self.dual_role = dual_role
        d = len(self.parity)
        if any(not 0 <= x < d for key in entries for x in key):
            raise DimensionMismatch("tensor index outside the basis")
        self._nz = [(i, j, k, c) for (i, j, k), c in sorted(entries.items())
                    if not c.is_zero()]
        self._rows = None
        self._dense = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_brackets(cls, grading, ctx, brackets, name=None, dual_role=False,
                      parity=None, names=None):
        """brackets: {(i, j): {k: Scalar}}; missing transposes are filled by
        graded antisymmetry."""
        par = tuple(parity) if parity is not None else grading.parities()
        entries = {}
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if (par[i] + par[j]) % 2 != par[k] and not c.is_zero():
                    raise ConstraintViolation(
                        "bracket [%d,%d] -> %d violates the grading" % (i, j, k))
                entries[(i, j, k)] = c
        for (i, j), comps in brackets.items():
            if i == j or (j, i) in brackets:
                continue
            # [y,x] = -(-1)^{|x||y|}[x,y]
            odd = (par[i] * par[j]) % 2
            for k, c in comps.items():
                entries[(j, i, k)] = c if odd else -c
        return cls(grading, ctx, entries, parity=par, names=names, name=name,
                   dual_role=dual_role)

    # -- views ------------------------------------------------------------

    @property
    def dim(self):
        return len(self.parity)

    def superdim(self):
        n_odd = sum(self.parity)
        return (len(self.parity) - n_odd, n_odd)

    def nonzero(self):
        """The stored entries (i, j, k, F_{IJ}^K), sorted by (i, j, k)."""
        return self._nz

    def entries(self):
        """{(i, j, k): F_{IJ}^K} over the nonzero entries; a fresh dict."""
        return {(i, j, k): c for (i, j, k, c) in self._nz}

    def numeric_nonzero(self):
        """nonzero() with Fraction entries (numeric contexts)."""
        return [(i, j, k, c.as_fraction()) for (i, j, k, c) in self._nz]

    @property
    def F(self):
        """Dense read-only view: F[i][j][k] as nested tuples."""
        if self._dense is None:
            d = self.dim
            zero = self.ctx.zero()
            rows = self._row_index()
            self._dense = tuple(
                tuple(tuple(rows.get((i, j), {}).get(k, zero) for k in range(d))
                      for j in range(d)) for i in range(d))
        return self._dense

    def _row_index(self):
        """{(i, j): {k: F_{IJ}^K}}, each row in increasing k."""
        if self._rows is None:
            rows = {}
            for (i, j, k, c) in self._nz:
                rows.setdefault((i, j), {})[k] = c
            self._rows = rows
        return self._rows

    def bracket(self, i, j):
        return dict(self._row_index().get((i, j), {}))

    def brackets_dict(self):
        return {key: dict(row) for key, row in self._row_index().items()}

    def grading_violations(self):
        bad = []
        for (i, j, k, c) in self._nz:
            if (self.parity[i] + self.parity[j]) % 2 != self.parity[k]:
                bad.append((i, j, k))
        return bad

    # -- axiom residuals ---------------------------------------------------

    def antisym_residuals(self):
        """((i, j, k), F_{IJ}^K + (-1)^{|I||J|} F_{JI}^K) for i <= j, in key
        order: the entries with i <= j minus -(-1)^{|I||J|} F_{JI}^K."""
        par = self.parity
        lhs, rhs = {}, {}
        for (i, j, k, c) in self._nz:
            if i <= j:
                lhs[(i, j, k)] = c
            if j <= i:
                rhs[(j, i, k)] = c if (par[i] * par[j]) % 2 else -c
        return _difference(lhs, rhs)

    def jacobi_residuals(self):
        """Graded Jacobi residuals, keyed ((x, y, z), k), for x <= y <= z."""
        d = self.dim
        par = self.parity
        rows = self._row_index()
        zero = self.ctx.zero()
        out = []
        for x in range(d):
            for y in range(x, d):
                for z in range(y, d):
                    acc = {}
                    for (u, v, w), (p, q) in (((x, y, z), (par[x], par[z])),
                                              ((y, z, x), (par[y], par[x])),
                                              ((z, x, y), (par[z], par[y]))):
                        negate = (p * q) % 2
                        for l, c1 in rows.get((v, w), {}).items():
                            for k, c2 in rows.get((u, l), {}).items():
                                term = c1 * c2
                                acc[k] = acc.get(k, zero) + (-term if negate else term)
                    for k, val in acc.items():
                        if not val.is_zero():
                            out.append(((x, y, z), k, val))
        return out

    # -- transformations -----------------------------------------------------

    def substitute(self, bindings):
        return self.map_scalars(*self.ctx.bind(bindings))

    def map_scalars(self, new_ctx, fn):
        """Every entry sent through fn (which maps zero to zero) into new_ctx."""
        return SuperAlgebra(self.grading, new_ctx,
                            {(i, j, k): fn(c) for (i, j, k, c) in self._nz},
                            parity=self.parity, names=self.names,
                            name=self.name, dual_role=self.dual_role)

    def transport(self, A):
        """Structure constants in the new basis X'_I = A_I^J X_J."""
        return self._transport(A, inv(A))

    def transport_dual(self, A):
        """Dual-side transport: transport in the basis D = (A^{-1})^T, whose
        inverse is A^T, so F~'^{IJ}_S = D_I^P D_J^Q F~^{PQ}_R A_S^R."""
        return self._transport(transpose(inv(A)), transpose(A))

    def _transport(self, M, M_inv):
        """F'_{IJ}^S = M_I^P M_J^Q F_{PQ}^R (M^{-1})_R^S: the pullback along M,
        pushed forward along M^{-1}."""
        pulled = _pull(self._nz, _columns(M))
        pushed = _push([key + (c,) for key, c in pulled.items() if c], M_inv)
        return SuperAlgebra(self.grading, self.ctx, pushed, parity=self.parity,
                            names=self.names, name=self.name,
                            dual_role=self.dual_role)

    def tensor_equal(self, other):
        """Same dimension, same nonzero keys and vanishing differences; no
        parity.  Route nodes match certificate rows on demand by this and the
        total dimension, so (4,2) can match (2,4): ROADMAP item 11 step 2,
        pinned by the `report thm2 --bind p=1/2` digests in queries.json."""
        return (self.dim == other.dim and len(self._nz) == len(other._nz)
                and all(a[:3] == b[:3] and (a[3] - b[3]).is_zero()
                        for a, b in zip(self._nz, other._nz)))

    def tensor_key(self):
        """Canonical hashable key (numeric contexts): the dense entries as
        Fractions, flattened in (i, j, k) order, so keys compare in dense
        lexicographic order."""
        d = self.dim
        key = [Fraction(0)] * (d * d * d)
        for (i, j, k, c) in self._nz:
            key[(i * d + j) * d + k] = c.as_fraction()
        return tuple(key)

    def describe_brackets(self):
        from .parsing import render_combo
        items = []
        seen = set()
        for (i, j), row in self._row_index().items():
            if (j, i) in seen:
                continue
            seen.add((i, j))
            items.append("[%s,%s] = %s" % (self.names[i], self.names[j],
                                           render_combo(self.names, row)))
        return "; ".join(items) if items else "(abelian)"

    def __repr__(self):
        m, n = self.superdim()
        return "SuperAlgebra(%s, (%d,%d), %s)" % (self.name or "?", m, n,
                                                  self.describe_brackets())


# ---------------------------------------------------------------------------
# axiom checks


def _branch_failures(residuals):
    """Keep residuals that fail to vanish on some finite-domain branch."""
    return [item for item in residuals if not vanishes_on_branches(item[-1])]


def check_antisymmetry(algebra):
    """All (I, J, K) with F_{IJ}^K + (-1)^{|I||J|} F_{JI}^K != 0 on some
    sign branch; empty list means pass."""
    return _branch_failures(algebra.antisym_residuals())


def check_jacobi(algebra):
    """Nonvanishing graded Jacobi residuals (sign branches split)."""
    return _branch_failures(algebra.jacobi_residuals())


def is_automorphism(A, algebra):
    """A invertible and A_I^P A_J^Q F_PQ^R == F_IJ^K A_K^R identically
    (branch-aware)."""
    try:
        inv(A)
    except DimensionMismatch:
        return False
    return not automorphism_residuals(A, algebra)


def automorphism_residuals(A, algebra):
    nz = algebra.nonzero()
    return _branch_failures(_bracket_residuals(A, nz, nz))


# ---------------------------------------------------------------------------
# contraction kernels: each takes a nonzero list (p, q, r, T) and a matrix
# with int, Fraction, Scalar or Cleared entries (``_pull`` takes the
# matrix's column index) and returns {(a, b, r): value}; zero tests go by
# truthiness and the first term of a key is stored, not added to a zero


def _columns(M):
    """Column index of M for ``_pull``: {p: [(a, M_a^p), ...]} over the
    nonzero entries, rows in increasing order.  Build it once per matrix."""
    cols = {}
    for a, row in enumerate(M):
        for p, x in enumerate(row):
            if x:
                cols.setdefault(p, []).append((a, x))
    return cols


def _pull(nz, cols):
    """(a, b, r) -> M_a^p M_b^q T_pq^r, over the rows a, b of the matrix M
    whose column index ``_columns(M)`` is cols."""
    out = {}
    for (p, q, r, t) in nz:
        col_q = cols.get(q)
        if not col_q:
            continue
        for a, x in cols.get(p, ()):
            base = x * t
            for b, y in col_q:
                key = (a, b, r)
                term = base * y
                out[key] = out[key] + term if key in out else term
    return out


def _push(nz, M):
    """(a, b, s) -> T_ab^r M_r^s."""
    out = {}
    for (a, b, r, t) in nz:
        for s, x in enumerate(M[r]):
            if x:
                key = (a, b, s)
                term = t * x
                out[key] = out[key] + term if key in out else term
    return out


def _integer_tensor(nz):
    """(integer nonzero list, den): the Fraction entries of nz times den,
    the lcm of their denominators."""
    den = math.lcm(*(c.denominator for (_, _, _, c) in nz))
    return [(i, j, k, c.numerator * (den // c.denominator))
            for (i, j, k, c) in nz], den


def _integer_matrix(M):
    """(integer matrix, a): the Fraction matrix M times a, the lcm of the
    denominators of its entries."""
    a = math.lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (a // x.denominator) for x in row] for row in M], a


def _difference(lhs, rhs):
    """(key, lhs - rhs) for each nonvanishing entry, in key order."""
    out = []
    for key in sorted(lhs.keys() | rhs.keys()):
        if key not in rhs:
            res = lhs[key]
        elif key not in lhs:
            res = -rhs[key]
        else:
            res = lhs[key] - rhs[key]
        if res:
            out.append((key, res))
    return out


def _bracket_residuals(C, source_nz, target_nz):
    """((a, b, r), value) for each nonvanishing entry of
    C_a^p C_b^q F_pq^r - F'_ab^k C_k^r, with F the source tensor and F' the
    target tensor (given by their nonzero lists); sign branches are not
    split here."""
    return _difference(_pull(source_nz, _columns(C)), _push(target_nz, C))


class AutoBranch:
    """One connected family: a matrix over (algebra + family) parameters and
    the scalar constraints that must stay nonzero."""

    __slots__ = ("ctx", "matrix", "constraints", "family_params")

    def __init__(self, ctx, matrix, constraints, family_params):
        self.ctx = ctx
        self.matrix = matrix
        self.constraints = constraints
        self.family_params = tuple(family_params)

    def substitute(self, bindings):
        """This branch with some parameters bound to numbers."""
        ctx, mapper = self.ctx.bind(bindings)
        return AutoBranch(ctx, [[mapper(x) for x in row] for row in self.matrix],
                          [mapper(c) for c in self.constraints],
                          self.family_params)

    def unbound_params(self):
        """The parameters other than the family's own that the matrix or the
        constraints depend on: the algebra's, when they are left unbound."""
        scalars = [x for row in self.matrix for x in row] + list(self.constraints)
        used = set().union(*(x.used_params() for x in scalars))
        return used.difference(self.family_params)

    def instantiate(self, bindings):
        """(ctx, matrix) at the bindings; ConstraintViolation when a
        constraint vanishes there."""
        bound = self.substitute(bindings)
        for c, val in zip(self.constraints, bound.constraints):
            if val.is_zero():
                raise ConstraintViolation("automorphism constraint %s vanishes" % c)
        return bound.ctx, bound.matrix

    def sample(self, rng):
        """Random valid instantiation; returns (ctx, matrix)."""
        for _ in range(200):
            bindings = {name: self.ctx.domains[name].sample(rng)
                        for name in self.family_params}
            try:
                return self.instantiate(bindings)
            except ConstraintViolation:
                continue
        raise ConstraintViolation("could not sample automorphism family")


class AutomorphismFamily:
    """All printed branches of one algebra's automorphism group."""

    __slots__ = ("algebra_name", "grading", "branches")

    def __init__(self, algebra_name, grading, branches):
        self.algebra_name = algebra_name
        self.grading = grading
        self.branches = list(branches)

    def __iter__(self):
        return iter(self.branches)


class CommutantFingerprint:
    """Superdimensions of C1=[D,D], C2=[C1,C1], C3=[C2,C2]."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = tuple((int(m), int(n)) for (m, n) in dims)
        for (a, b), (c, d) in zip(self.dims, self.dims[1:]):
            if c + d > a + b:
                raise ConstraintViolation("commutant dimensions increased")

    def totals(self):
        return tuple(m + n for (m, n) in self.dims)

    def __eq__(self, other):
        return isinstance(other, CommutantFingerprint) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __str__(self):
        return " ".join("(%d,%d)" % mn for mn in self.dims)

    def __repr__(self):
        return "CommutantFingerprint(%s)" % (self.dims,)


def commutant_series(algebra, bindings=None):
    """Exact superdimensions of the iterated commutants at numeric bindings.

    The brackets are taken on the integer tensor ``_integer_tensor`` makes:
    scaling every structure constant by one common denominator scales every
    bracket vector by it, so no span changes.  Each level keeps one basis of
    its span, as primitive integer rows; any basis gives the same next level,
    since the bracket is bilinear.  Every pair (a, b) is bracketed, the
    diagonal included, so an odd row with [x, x] != 0 counts."""
    A = algebra.substitute(bindings) if bindings else algebra
    if A.ctx.params:
        raise ConstraintViolation(
            "commutant series needs numeric bindings for %s" % (A.ctx.params,))
    nz, _ = _integer_tensor(A.numeric_nonzero())
    # C1 brackets the identity rows, each later level its predecessor's basis
    rows = [{i: 1} for i in range(A.dim)]
    par = A.parity
    dims = []
    for _ in range(3):
        cols = {}
        for a, row in enumerate(rows):
            for p, x in row.items():
                cols.setdefault(p, []).append((a, x))
        vectors = {}
        for (a, b, r), x in _pull(nz, cols).items():
            if x:
                vectors.setdefault((a, b), {})[r] = x
        even, odd = {}, {}
        for (a, b), v in vectors.items():
            _echelon_add(odd if (par[a] + par[b]) % 2 else even, v)
        dims.append((len(even), len(odd)))
        rows = list(even.values()) + list(odd.values())
        par = (0,) * len(even) + (1,) * len(odd)
    return CommutantFingerprint(dims)


def _echelon_add(basis, v):
    """Add the sparse integer vector v ({col: int} without zero entries;
    empty is zero) to the echelon basis {pivot: row} of primitive integer
    rows, each keyed by its lowest column.  v is reduced fraction-free,
    v <- y v - x row, against the pivots in increasing order: a row's other
    columns lie above its pivot, so a column once cleared stays clear.  What
    survives is divided by its gcd and kept under its lowest column, which
    no pivot shares."""
    for p in sorted(basis):
        x = v.get(p)
        if x:
            row = basis[p]
            y = row[p]
            out = {c: y * w for c, w in v.items()}
            for c, w in row.items():
                out[c] = out.get(c, 0) - x * w
            v = {c: w for c, w in out.items() if w}
    if v:
        g = math.gcd(*v.values())
        basis[min(v)] = {c: w // g for c, w in v.items()}
