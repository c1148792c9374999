"""Z2-graded vector spaces and Lie superalgebras as structure-constant
tensors, with axiom checks, automorphism families and commutant series.

A superalgebra of superdimension (m, n) lives on the homogeneous basis
b_1..b_m, f_1..f_n.  Doubles reuse the same class with the dual homogeneous
layout (b, f, b~, f~); only the parity tuple matters to the checks.

Every contraction of a structure tensor with a matrix (basis change, the
automorphism and certificate conditions, the commutant series, and
ad-invariance in ``forms``) runs through the two sparse kernels ``_pull``
and ``_push``, for Fraction and Scalar entries alike.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstraintViolation, DimensionMismatch
from .matrices import inv, rref, transpose

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
    """Dense structure-constant tensor F_{IJ}^K over a parameter context.

    dual_role marks tensors whose indices are conceptually raised
    (F~^{IJ}_K of a dual subalgebra); the axioms take the identical form,
    so the flag is metadata for provenance and printing only.
    """

    __slots__ = ("grading", "parity", "names", "ctx", "F", "name", "dual_role",
                 "_nz")

    def __init__(self, grading, ctx, F, parity=None, names=None, name=None,
                 dual_role=False):
        self.grading = grading
        self.ctx = ctx
        self.F = F
        self.parity = tuple(parity) if parity is not None else grading.parities()
        self.names = tuple(names) if names is not None else grading.names(dual_role)
        self.name = name
        self.dual_role = dual_role
        d = len(self.parity)
        if len(F) != d or any(len(Fi) != d for Fi in F):
            raise DimensionMismatch("tensor shape does not match basis")
        self._nz = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_brackets(cls, grading, ctx, brackets, name=None, dual_role=False,
                      parity=None, names=None, complete=True):
        """brackets: {(i, j): {k: Scalar}}; missing transposes are filled by
        graded antisymmetry when complete=True."""
        par = tuple(parity) if parity is not None else grading.parities()
        d = len(par)
        zero = ctx.zero()
        F = [[[zero for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if (par[i] + par[j]) % 2 != par[k] and not c.is_zero():
                    raise ConstraintViolation(
                        "bracket [%d,%d] -> %d violates the grading" % (i, j, k))
                F[i][j][k] = F[i][j][k] + c
        if complete:
            for (i, j) in list(brackets.keys()):
                if i == j or (j, i) in brackets:
                    continue
                # [y,x] = -(-1)^{|x||y|}[x,y]
                sign = 1 if (par[i] * par[j]) % 2 else -1
                for k, c in brackets[(i, j)].items():
                    F[j][i][k] = c if sign == 1 else -c
        return cls(grading, ctx, F, parity=par, names=names, name=name,
                   dual_role=dual_role)

    def copy_with(self, F=None, ctx=None, name=None):
        return SuperAlgebra(self.grading, ctx or self.ctx, F or self.F,
                            parity=self.parity, names=self.names,
                            name=name or self.name, dual_role=self.dual_role)

    # -- views ------------------------------------------------------------

    @property
    def dim(self):
        return len(self.parity)

    def superdim(self):
        n_odd = sum(self.parity)
        return (len(self.parity) - n_odd, n_odd)

    def nonzero(self):
        if self._nz is None:
            nz = []
            for i in range(self.dim):
                for j in range(self.dim):
                    row = self.F[i][j]
                    for k in range(self.dim):
                        if not row[k].is_zero():
                            nz.append((i, j, k, row[k]))
            self._nz = nz
        return self._nz

    def numeric_nonzero(self):
        """nonzero() with Fraction entries (numeric contexts)."""
        return [(i, j, k, c.as_fraction()) for (i, j, k, c) in self.nonzero()]

    def bracket(self, i, j):
        return {k: self.F[i][j][k] for k in range(self.dim)
                if not self.F[i][j][k].is_zero()}

    def grading_violations(self):
        bad = []
        for (i, j, k, c) in self.nonzero():
            if (self.parity[i] + self.parity[j]) % 2 != self.parity[k]:
                bad.append((i, j, k))
        return bad

    # -- axiom residuals ---------------------------------------------------

    def antisym_residuals(self):
        """(i, j, k) -> F_{IJ}^K + (-1)^{|I||J|} F_{JI}^K for i <= j."""
        out = []
        d = self.dim
        for i in range(d):
            for j in range(i, d):
                # residual = F[i][j][k] + (-1)^{|i||j|} F[j][i][k]
                sign = -1 if (self.parity[i] * self.parity[j]) % 2 else 1
                for k in range(d):
                    a = self.F[i][j][k]
                    b = self.F[j][i][k]
                    res = a - b if sign == -1 else a + b
                    if not res.is_zero():
                        out.append(((i, j, k), res))
        return out

    def jacobi_residuals(self):
        """Graded Jacobi residuals, keyed ((x, y, z), k), for x <= y <= z."""
        d = self.dim
        par = self.parity
        out = []
        for x in range(d):
            for y in range(x, d):
                for z in range(y, d):
                    acc = {}
                    for (u, v, w), (p, q) in (((x, y, z), (par[x], par[z])),
                                              ((y, z, x), (par[y], par[x])),
                                              ((z, x, y), (par[z], par[y]))):
                        sign = -1 if (p * q) % 2 else 1
                        inner = self.F[v][w]
                        for l in range(d):
                            c1 = inner[l]
                            if c1.is_zero():
                                continue
                            outer = self.F[u][l]
                            for k in range(d):
                                c2 = outer[k]
                                if c2.is_zero():
                                    continue
                                term = c1 * c2
                                if sign < 0:
                                    term = -term
                                acc[k] = acc.get(k, self.ctx.zero()) + term
                    for k, val in acc.items():
                        if not val.is_zero():
                            out.append(((x, y, z), k, val))
        return out

    # -- transformations -----------------------------------------------------

    def substitute(self, bindings, check_domains=True):
        new_ctx, mapper = self.ctx.bind(bindings, check_domains=check_domains)
        F = [[[mapper(c) for c in row] for row in plane] for plane in self.F]
        return SuperAlgebra(self.grading, new_ctx, F, parity=self.parity,
                            names=self.names, name=self.name,
                            dual_role=self.dual_role)

    def map_scalars(self, new_ctx, fn):
        F = [[[fn(c) for c in row] for row in plane] for plane in self.F]
        return SuperAlgebra(self.grading, new_ctx, F, parity=self.parity,
                            names=self.names, name=self.name,
                            dual_role=self.dual_role)

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
        d = self.dim
        zero = self.ctx.zero()
        out = [[[zero] * d for _ in range(d)] for _ in range(d)]
        pulled = _pull(self.nonzero(), M)
        pushed = _push([key + (c,) for key, c in pulled.items() if c], M_inv)
        for (i, j, s), c in pushed.items():
            out[i][j][s] = c
        return self.copy_with(F=out)

    def tensor_equal(self, other):
        if self.dim != other.dim:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if not (self.F[i][j][k] - other.F[i][j][k]).is_zero():
                        return False
        return True

    def tensor_key(self):
        """Canonical hashable key (numeric contexts)."""
        return tuple(tuple(tuple(c.as_fraction() for c in row) for row in plane)
                     for plane in self.F)

    def brackets_dict(self):
        out = {}
        for (i, j, k, c) in self.nonzero():
            out.setdefault((i, j), {})[k] = c
        return out

    def describe_brackets(self):
        from .parsing import render_combo
        items = []
        seen = set()
        for (i, j, k, c) in self.nonzero():
            if (i, j) in seen or (j, i) in seen:
                continue
            seen.add((i, j))
            items.append("[%s,%s] = %s" % (self.names[i], self.names[j],
                                           render_combo(self.names, self.bracket(i, j))))
        return "; ".join(items) if items else "(abelian)"

    def __repr__(self):
        m, n = self.superdim()
        return "SuperAlgebra(%s, (%d,%d), %s)" % (self.name or "?", m, n,
                                                  self.describe_brackets())


# ---------------------------------------------------------------------------
# axiom checks


def _branch_failures(ctx, residuals):
    """Keep residuals that fail to vanish on some finite-domain branch."""
    branches = ctx.sign_branches()
    trivial = len(branches) == 1 and not branches[0]
    out = []
    for item in residuals:
        s = item[-1]
        if trivial:
            if not s.is_zero():
                out.append(item)
            continue
        for b in branches:
            if not s.substitute(b).is_zero():
                out.append(item)
                break
    return out


def check_antisymmetry(algebra):
    """All (I, J, K) with F_{IJ}^K + (-1)^{|I||J|} F_{JI}^K != 0 on some
    sign branch; empty list means pass."""
    return _branch_failures(algebra.ctx, algebra.antisym_residuals())


def check_jacobi(algebra):
    """Nonvanishing graded Jacobi residuals (sign branches split)."""
    return _branch_failures(algebra.ctx, algebra.jacobi_residuals())


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
    return _branch_failures(algebra.ctx, _bracket_residuals(A, nz, nz))


# ---------------------------------------------------------------------------
# contraction kernels: each takes a nonzero list (p, q, r, T) with Fraction
# or Scalar entries and returns {(a, b, r): value}; zero tests go by
# truthiness and the first term of a key is stored, not added to a zero


def _pull(nz, M):
    """(a, b, r) -> M_a^p M_b^q T_pq^r, over the rows a, b of M."""
    cols = {}
    for a, row in enumerate(M):
        for p, x in enumerate(row):
            if x:
                cols.setdefault(p, []).append((a, x))
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
    return _difference(_pull(source_nz, C), _push(target_nz, C))


class AutoBranch:
    """One connected family: a matrix over (algebra + family) parameters and
    the scalar constraints that must stay nonzero."""

    __slots__ = ("ctx", "matrix", "constraints", "family_params")

    def __init__(self, ctx, matrix, constraints, family_params):
        self.ctx = ctx
        self.matrix = matrix
        self.constraints = constraints
        self.family_params = tuple(family_params)

    def instantiate(self, bindings):
        new_ctx, mapper = self.ctx.bind(bindings)
        for c in self.constraints:
            val = mapper(c)
            if val.is_zero():
                raise ConstraintViolation("automorphism constraint %s vanishes" % c)
        return new_ctx, [[mapper(x) for x in row] for row in self.matrix]

    def sample(self, rng, algebra_bindings=None):
        """Random valid instantiation; returns (ctx, matrix)."""
        for _ in range(200):
            bindings = dict(algebra_bindings or {})
            for name in self.family_params:
                bindings[name] = self.ctx.domains[name].sample(rng)
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


def commutant_series(algebra, bindings=None, depth=3):
    """Exact superdimensions of the iterated commutants at numeric bindings."""
    A = algebra.substitute(bindings) if bindings else algebra
    if A.ctx.params:
        raise ConstraintViolation(
            "commutant series needs numeric bindings for %s" % (A.ctx.params,))
    d = A.dim
    nz = A.numeric_nonzero()
    # C1 brackets the identity rows, each later level its predecessor's basis
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    par = A.parity
    dims = []
    for _ in range(depth):
        vectors = {}
        for (a, b, r), x in _pull(nz, rows).items():
            if x:
                vectors.setdefault((a, b), [Fraction(0)] * d)[r] = x
        even = _span_basis([v for (a, b), v in vectors.items()
                            if (par[a] + par[b]) % 2 == 0])
        odd = _span_basis([v for (a, b), v in vectors.items()
                           if (par[a] + par[b]) % 2])
        dims.append((len(even), len(odd)))
        rows = even + odd
        par = (0,) * len(even) + (1,) * len(odd)
    return CommutantFingerprint(dims)


def _span_basis(vectors):
    rows, pivots = rref(vectors)
    return rows[:len(pivots)]
