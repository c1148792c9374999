"""Z2-graded vector spaces and Lie superalgebras as structure-constant
tensors, with axiom checks, automorphism families and commutant series.

A superalgebra of superdimension (m, n) lives on the homogeneous basis
b_1..b_m, f_1..f_n.  Doubles reuse the same class with the dual homogeneous
layout (b, f, b~, f~); only the parity tuple matters to the checks.

A tensor is stored once, inside SuperAlgebra, as its sorted nonzero entries
(i, j, k, F_{IJ}^K); the package's other modules read it through nonzero(),
entries() and bracket(i, j), never through a dense array; a row [X_i, X_j]
is the run of one (i, j) in that list.  ``_graded_transposes`` alone fills
in the transposes that graded antisymmetry gives.

The graded Jacobi identity runs through one kernel, ``_jacobi``, and every
contraction of a tensor with a matrix (basis change, the automorphism and
certificate conditions, the orbit join and the commutant series) through
``_pull`` and ``_push``, for int, Fraction, Scalar and ``scalars.Cleared``
entries alike; ad-invariance in ``forms`` needs no contraction, since the
canonical form is a signed permutation.  The condition that a matrix
carries one tensor onto another, which is an automorphism's, a
certificate's condition (ii) and the orbit join's, is stated once, by
``_transport_residuals``.  ``SuperAlgebra.integer_tensor`` clears Fraction
denominators once, so numeric work runs on integers.  The commutant spans
and an automorphism's rank come from ``matrices.echelon_add``, the one
elimination loop.  Every check runs its kernel on inputs cleared once by
``scalars.clear_denominators``, and ``scalars.failing_on_branches`` alone
decides it (``_failures``).  A tensor is cleared once per algebra: an
algebra does not change, so ``cleared_tensor`` and ``integer_tensor`` keep
their first result, as tuples, for every later check, certificate and
fingerprint.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ConstraintViolation, DimensionMismatch
from .matrices import echelon, echelon_add, inv, sparse, transpose
from .scalars import clear_denominators, failing_on_branches

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
    sorted by (i, j, k): ``nonzero()`` returns that list, whose runs of one
    (i, j) are the rows that ``bracket``, ``brackets_dict``, ``F`` and
    ``describe_brackets`` read, and ``integer_tensor()`` and
    ``cleared_tensor()`` clear it of denominators, each once, keeping the
    result.

    dual_role marks tensors whose indices are conceptually raised
    (F~^{IJ}_K of a dual subalgebra); the axioms take the identical form,
    so the flag is metadata for provenance and printing only.
    """

    __slots__ = ("grading", "parity", "names", "ctx", "name", "dual_role",
                 "_nz", "_integer", "_cleared", "_fingerprint")

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
        self._integer = self._cleared = self._fingerprint = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_brackets(cls, grading, ctx, brackets, name=None, dual_role=False,
                      parity=None, names=None):
        """brackets: {(i, j): {k: Scalar}}; missing transposes are filled by
        graded antisymmetry (``_graded_transposes``)."""
        par = tuple(parity) if parity is not None else grading.parities()
        entries = {}
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if (par[i] + par[j]) % 2 != par[k] and not c.is_zero():
                    raise ConstraintViolation(
                        "bracket [%d,%d] -> %d violates the grading" % (i, j, k))
                entries[(i, j, k)] = c
        _graded_transposes(entries, brackets.keys(), par)
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

    def integer_tensor(self):
        """(N, den): the nonzero entries as integers N = den F, a tuple in
        order, with den the lcm of their denominators; ConstraintViolation on
        an entry that is not rational.  Converted on the first call and kept,
        as the algebra does not change and N is a tuple of int tuples."""
        if self._integer is None:
            nz = [(i, j, k, c.as_fraction()) for (i, j, k, c) in self._nz]
            den = math.lcm(*(c.denominator for (_, _, _, c) in nz))
            self._integer = (tuple((i, j, k, c.numerator * (den // c.denominator))
                                   for (i, j, k, c) in nz), den)
        return self._integer

    def cleared_tensor(self):
        """(N, den): the nonzero entries as N = den F, a tuple in order, by
        ``scalars.clear_denominators``.  Cleared on the first call and kept
        for every later check; the kernels only read the entries.  With no
        parameter and no radical this is ``integer_tensor()`` itself, the
        integers that clear_denominators would compute again."""
        if self._cleared is None:
            if not self.ctx.params and self.ctx.radicand is None:
                self._cleared = self.integer_tensor()
            else:
                values, den = clear_denominators(
                    self.ctx, [c for (_, _, _, c) in self._nz])
                self._cleared = (tuple((i, j, k, v) for (i, j, k, _), v
                                       in zip(self._nz, values)), den)
        return self._cleared

    def fingerprint(self):
        """``commutant_series(self)``, computed on the first call and kept,
        as ``integer_tensor`` is: the search's fingerprint filter and the
        classification's instances read one fingerprint per algebra."""
        if self._fingerprint is None:
            self._fingerprint = commutant_series(self)
        return self._fingerprint

    @property
    def F(self):
        """Dense view F[i][j][k] as nested tuples, built on each read.  The
        package reads ``bracket(i, j)``; bench/record_reference.py reads
        this."""
        d = self.dim
        zero = self.ctx.zero()
        rows = self.brackets_dict()
        return tuple(tuple(tuple(rows.get((i, j), {}).get(k, zero)
                                 for k in range(d)) for j in range(d))
                     for i in range(d))

    def bracket(self, i, j):
        """{k: F_{IJ}^K} over the nonzero entries of the row (i, j)."""
        return {k: c for (a, b, k, c) in self._nz if (a, b) == (i, j)}

    def brackets_dict(self):
        """{(i, j): {k: F_{IJ}^K}} over the nonzero rows, in (i, j) order,
        each row in increasing k: the runs of ``nonzero()``."""
        return {key: {k: c for (_, _, k, c) in row}
                for key, row in itertools.groupby(self._nz, lambda e: e[:2])}

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
        """Same dimension, equal contexts, equal nonzero entries by canonical
        form; no parity.  Route nodes match certificate rows on demand by this
        and the total dimension, so (4,2) can match (2,4): ROADMAP item 11,
        pinned by the `report thm2 --bind p=1/2` digests in queries.json."""
        return (self.dim == other.dim and len(self._nz) == len(other._nz)
                and self.ctx == other.ctx
                and all(a[:3] == b[:3] and a[3].re == b[3].re and a[3].rad == b[3].rad
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
        for (i, j), row in self.brackets_dict().items():
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


def _graded_transposes(entries, given, par):
    """Fill into entries {(i, j, k): value} the transpose of each entry of a
    listed pair (i, j) by graded antisymmetry, [y, x] = -(-1)^{|x||y|}[x, y];
    values of any type with negation.  given is the set of bracket pairs the
    caller lists, zero ones included: a pair listed both ways, or i == j,
    keeps what was listed, so the antisymmetry check sees it."""
    for (i, j, k), c in list(entries.items()):
        if i != j and (i, j) in given and (j, i) not in given:
            entries[(j, i, k)] = c if par[i] & par[j] else -c


# ---------------------------------------------------------------------------
# axiom checks


def _failures(ctx, kernel, cleared, scalar, dens):
    """The items of kernel(*scalar) that fail on some sign branch of ctx, in
    order, decided by ``scalars.failing_on_branches`` on kernel(*cleared):
    the inputs cleared over dens, so each item is a nonzero multiple of its
    Scalar twin.  kernel(*scalar) runs only to word a failure."""
    items = kernel(*cleared)
    bad = {items[i][:-1] for i in
           failing_on_branches(ctx, [item[-1] for item in items], dens)}
    return [item for item in kernel(*scalar) if item[:-1] in bad] if bad else []


def check_antisymmetry(algebra):
    """All ((I, J, K), F_{IJ}^K + (-1)^{|I||J|} F_{JI}^K) that are nonzero on
    some sign branch; empty list means pass."""
    N, den = algebra.cleared_tensor()
    par = algebra.parity
    return _failures(algebra.ctx, _antisymmetry, (N, par),
                     (algebra.nonzero(), par), (den,))


def check_jacobi(algebra):
    """Nonvanishing graded Jacobi residuals (sign branches split); N = den F
    scales each by den^2."""
    N, den = algebra.cleared_tensor()
    par = algebra.parity
    return _failures(algebra.ctx, _jacobi, (N, par), (algebra.nonzero(), par),
                     (den,))


def is_automorphism(A, algebra):
    """A of full echelon rank and A_I^P A_J^Q F_PQ^R == F_IJ^K A_K^R
    identically (branch-aware)."""
    basis, _ = echelon([sparse(row) for row in A], len(A))
    return len(basis) == len(A) and not automorphism_residuals(A, algebra)


def automorphism_residuals(A, algebra):
    """((a, b, r), residual) for each entry of A_a^p A_b^q F_pq^r -
    F_ab^k A_k^r failing on some sign branch; for A = M / c and F = N / s
    the residuals of pull(N, M) = c push(N, M) are s c^2 times these."""
    M, c = _cleared_matrix(algebra.ctx, A)
    N, s = algebra.cleared_tensor()
    nz = algebra.nonzero()
    return _failures(algebra.ctx, _transport_residuals, (M, N, N, None, c),
                     (A, nz, nz), (c, s))


# ---------------------------------------------------------------------------
# kernels: each takes a nonzero list (p, q, r, T) with int, Fraction, Scalar
# or Cleared entries; the contractions also take a matrix (``_pull`` its
# column index) and return {(a, b, r): value}; zero tests go by truthiness
# and the first term of a key is stored, not added to a zero


def _antisymmetry(nz, par):
    """((i, j, k), T_ij^k + (-1)^{|i||j|} T_ji^k) for each nonvanishing one,
    i <= j, in key order: the entries with i <= j minus
    -(-1)^{|i||j|} T_ji^k."""
    lhs, rhs = {}, {}
    for (i, j, k, t) in nz:
        if i <= j:
            lhs[(i, j, k)] = t
        if j <= i:
            rhs[(j, i, k)] = t if (par[i] * par[j]) % 2 else -t
    return _difference(lhs, rhs)


def _jacobi(nz, par):
    """((x, y, z), k, residual) for each nonvanishing graded Jacobi residual,
    x <= y <= z, of the tensor nz with parities par."""
    rows = {}
    for (i, j, k, t) in nz:
        rows.setdefault((i, j), {})[k] = t
    d = len(par)
    out = []
    for x in range(d):
        for y in range(x, d):
            for z in range(y, d):
                acc = {}
                for (u, v, w), negate in (((x, y, z), par[x] & par[z]),
                                          ((y, z, x), par[y] & par[x]),
                                          ((z, x, y), par[z] & par[y])):
                    for l, c1 in rows.get((v, w), {}).items():
                        for k, c2 in rows.get((u, l), {}).items():
                            term = -(c1 * c2) if negate else c1 * c2
                            acc[k] = acc[k] + term if k in acc else term
                for k, val in acc.items():
                    if val:
                        out.append(((x, y, z), k, val))
    return out


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


def _cleared_matrix(ctx, A):
    """(M, c): the Scalar matrix A = M / c, by ``scalars.clear_denominators``."""
    d = len(A)
    flat, c = clear_denominators(ctx, [x for row in A for x in row])
    return [flat[a:a + d] for a in range(0, d * d, d)], c


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


def _transport_residuals(M, source, target, t=None, sc=None):
    """((a, b, r), value) for each nonvanishing entry of
    t M_a^p M_b^q F_pq^r - sc F'_ab^k M_k^r (t or sc 1 when not given), in
    key order, with F and F' the source and target nonzero lists: none
    when M carries F onto F'.  Sign branches are not split here."""
    lhs, rhs = _pull(source, _columns(M)), _push(target, M)
    if t is not None:
        lhs = {key: x * t for key, x in lhs.items()}
    if sc is not None:
        rhs = {key: x * sc for key, x in rhs.items()}
    return _difference(lhs, rhs)


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

    The brackets are taken on the algebra's ``integer_tensor``:
    scaling every structure constant by one common denominator scales every
    bracket vector by it, so no span changes.  Each level keeps one basis of
    its span, as primitive integer rows; any basis gives the same next level,
    since the bracket is bilinear.  Every pair (a, b) is bracketed, the
    diagonal included, so an odd row with [x, x] != 0 counts."""
    A = algebra.substitute(bindings) if bindings else algebra
    if A.ctx.params:
        raise ConstraintViolation(
            "commutant series needs numeric bindings for %s" % (A.ctx.params,))
    nz, _ = A.integer_tensor()
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
            echelon_add(odd if (par[a] + par[b]) % 2 else even, v)
        dims.append((len(even), len(odd)))
        rows = list(even.values()) + list(odd.values())
        par = (0,) * len(even) + (1,) * len(odd)
    return CommutantFingerprint(dims)

