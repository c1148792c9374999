"""Isomorphism certificates between Drinfel'd superdoubles.

A certificate C from D to D' lists, row by row, the target basis expressed in
the source basis.  It is accepted when, identically in the parameters (sign
branches split),

    (i)   C_a^p C_b^q B_pq  = B_ab
    (ii)  C_a^p C_b^q F_pq^r = F'_ab^c C_c^r

with F the source tensor, F' the target tensor and B the canonical form.
B is a signed permutation, ``forms._pairing``, so (i) makes
C^-1 = B C^T B^T a signed transpose of C: ``IsoCertificate.invert`` reads it
off that pairing without an elimination, and (i) contracts C with the
pairing's nonzero list (``_form_tensor``).

(i) is computed by ``_form_residuals`` and (ii) by
``algebra._transport_residuals`` alone, on any entries.
``verify_certificate`` computes both (``_conditions``) on C, F and F'
cleared of denominators once and leaves the verdict to
``scalars.failing_on_branches``; Scalar residuals, computed only after a
failure, make the report.

A certificate runs between two doubles of one superdimension: equal
parity tuples, or ``IsoCertificate`` refuses it, since an even matrix
between them would pair even with odd basis vectors.  Certificates multiply
only in ``IsoCertificate.compose``, through ``matrices.f_matmul``: of the
two contexts at most one has a radical, the product lives in that one (else
in the first factor's), and the other certificate is mapped into it by name
(``_in_context``).  ``_in_context`` is the one move of a certificate, an
algebra or a triple into another context, at bindings or by name.

Certificates are built from T-duality (``t_dual_certificate``), from
automorphisms (``from_automorphism``) and from exact shears I + E
(``shear_matrix``, the one constructor, behind both the planner's
``shear_certificate`` and the catalog's ``shear`` certificates, whose
R-system ``solve_shear`` solves by ``matrices.echelon``), or found
by ``search_iso``: a bounded search between numerically bound doubles
over five finite candidate stages, ``basic``, ``duality``, ``shear``,
``shear_up`` and ``composed``.  The candidates depend only on the doubles'
superdimension; a ``_CandidateTable`` holds them with their integer
projections, and one ``report`` or ``classify_doubles`` call keeps one
table per superdimension in its report memo (``memo.report_memo``), so its
searches walk that table instead of generating the stages again.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .algebra import (SuperAlgebra, _cleared_matrix, _columns, _difference,
                      _failures, _pull, _transport_residuals,
                      automorphism_residuals, commutant_series)
from .errors import (ConstraintViolation, DimensionMismatch, NotAutomorphism)
from . import forms
from .matrices import (back_substitute, dual_blockdiag, echelon, f_matmul,
                       identity, sparse, transpose)
from .memo import memoized
from .triples import ManinTriple, build_double, t_dual

__all__ = ["IsoCertificate", "NoSolution", "Exhausted",
           "verify_certificate", "from_automorphism", "solve_r",
           "solve_shear", "shear_matrix", "search_iso", "t_dual_certificate"]

# the budget of every search that is given none
DEFAULT_SEARCH_BUDGET = 1500
# the search grid 0, 1, -1, 1/2, -1/2, 2, -2, scaled by GRID_DEN to integers
GRID_DEN = 2
SEARCH_GRID = (0, 2, -2, 1, -1, 4, -4)


class IsoCertificate:
    """Even invertible matrix carrying a double isomorphism."""

    __slots__ = ("ctx", "matrix", "source", "target", "note")

    def __init__(self, ctx, matrix, source, target, note=None):
        self.ctx = ctx
        self.matrix = matrix
        self.source = source
        self.target = target
        self.note = note
        d = source.dim
        if target.dim != d or len(matrix) != d or any(len(r) != d for r in matrix):
            raise DimensionMismatch("certificate shape mismatch")
        par = source.parity
        if target.parity != par:
            raise ConstraintViolation(
                "certificate endpoints of superdimensions %d,%d and %d,%d"
                % (source.superdim() + target.superdim()))
        for a in range(d):
            for b in range(d):
                if (par[a] + par[b]) % 2 and not matrix[a][b].is_zero():
                    raise ConstraintViolation(
                        "certificate entry (%d,%d) mixes gradings" % (a, b))

    @property
    def dim(self):
        return self.source.dim

    def verify(self):
        ok, _ = verify_certificate(self)
        return ok

    def compose(self, first):
        """self o first: first maps D->D', self maps D'->D''.  It lives in
        the one context with a radical, else in first's, and the other
        certificate is mapped into that context by parameter name."""
        if first.target.dim != self.source.dim:
            raise DimensionMismatch("composition dimension mismatch")
        ctx = self.ctx if self.ctx.radical_name is not None else first.ctx
        second, first = (_in_context(c, ctx) for c in (self, first))
        return IsoCertificate(ctx, f_matmul(second.matrix, first.matrix),
                              first.source, second.target,
                              note=_join_notes(second.note, first.note))

    def invert(self):
        """The certificate target -> source with the signed transpose
        B C^T B^T of C, no division: (C^-1)_ij = s(i) s(j) C_{p(j) p(i)},
        where B_{i p(i)} = s(i) is the canonical form (``forms._pairing``).

        Condition (i) reads C B C^T = B, and B^-1 = B^T for the signed
        permutation B, so the result is C^-1 at every point of the
        certificate's domain.  With a sign parameter left unbound it may
        differ from the rational function C^-1 by multiples of eps^2 - 1,
        which vanish on eps = +-1.  For a certificate that breaks (i) the
        result is not C^-1, and that is safe: the route planner verifies
        every composite it merges on both conditions, so a wrong inverse
        can only make a composite fail to verify, never a false merge."""
        C = self.matrix
        pairing = forms._pairing(*_half(self.source))
        return IsoCertificate(
            self.ctx, [[C[q][p] if s == t else -C[q][p] for (q, t) in pairing]
                       for (p, s) in pairing],
            self.target, self.source,
            note=None if self.note is None else "inv(%s)" % self.note)

    def substitute(self, bindings):
        return self.map_scalars(*self.ctx.bind(bindings))

    def matrix_at(self, bindings):
        """(context, matrix) of ``substitute(bindings)``, with neither
        double built: the matrix alone through the one ``ParamContext.bind``."""
        ctx, fn = self.ctx.bind(bindings)
        return ctx, [[fn(x) for x in row] for row in self.matrix]

    def map_scalars(self, new_ctx, fn):
        """The matrix and both doubles with every scalar sent through fn
        into new_ctx."""
        return IsoCertificate(new_ctx,
                              [[fn(x) for x in row] for row in self.matrix],
                              self.source.map_scalars(new_ctx, fn),
                              self.target.map_scalars(new_ctx, fn),
                              note=self.note)

    def __repr__(self):
        return "IsoCertificate(%s -> %s%s)" % (
            self.source.name, self.target.name,
            "" if not self.note else ", " + self.note)


def _in_context(obj, ctx, bindings=None):
    """obj, a certificate, an algebra or a triple, mapped into ctx with its
    parameters at bindings (rationals or Scalars of ctx) and the rest by
    name (``ParamContext.bind_scalars``); obj itself when no binding is
    given and it lives in ctx."""
    if not bindings and obj.ctx == ctx:
        return obj
    return obj.map_scalars(ctx, obj.ctx.bind_scalars(ctx, bindings or {}))


def _join_notes(a, b):
    if a and b:
        return "%s.%s" % (a, b)
    return a or b


def verify_certificate(cert):
    """(ok, failing residuals) of both conditions, sign branches split: on
    C, F and F' cleared once to M / c, N / s and N' / t (``_conditions``)."""
    ctx = cert.ctx
    form = _form_tensor(*_half(cert.source))
    M, c = _cleared_matrix(ctx, cert.matrix)
    (N, s), (N2, t) = cert.source.cleared_tensor(), cert.target.cleared_tensor()
    # c = 1 as a Scalar, so that every residual of the int form is a Scalar
    scalar = (cert.matrix, form, cert.source.nonzero(), cert.target.nonzero(),
              ctx.one())
    failing = _failures(ctx, _conditions, (M, form, N, N2, c, s, t), scalar,
                        (c, s, t))
    return not failing, failing


def _conditions(M, form, source, target, c=1, s=1, t=1):
    """("form", (a, b), value) and ("bracket", (a, b, r), value) for each
    nonvanishing residual of (i) and then (ii) for C = M / c, F = N / s and
    F' = N' / t, with form B's nonzero list (``_form_tensor``) and source N
    and target N'.  Cleared of denominators, (i) and (ii) read

        (i)   pull(B, M) = c^2 B
        (ii)  t pull(N, M) = s c push(N', M)"""
    return ([("form", key[:2], res) for key, res in _form_residuals(M, form, c * c)]
            + [("bracket", key, res) for key, res in
               _transport_residuals(M, source, target, t, s * c)])


@functools.lru_cache(maxsize=None)
def _form_tensor(m, n):
    """The canonical form B as a tensor with one trivial upper index: the
    nonzero list (p, q, 0, B_pq), with int entries, read off
    ``forms._pairing`` once per shape."""
    return tuple((p, q, 0, s) for p, (q, s) in enumerate(forms._pairing(m, n)))


def _form_residuals(M, form, c2):
    """Condition (i) for C = M / c: ((a, b, 0), value) for each nonvanishing
    entry of M_a^p M_b^q B_pq - c2 B_ab, in key order, with c2 = c^2 and B's
    nonzero list form."""
    return _difference(_pull(form, _columns(M)),
                       {(p, q, r): c2 * x for (p, q, r, x) in form})


@functools.lru_cache(maxsize=None)
def _weights(d):
    """The weight vectors (u, v, z) of the projection of (ii) for dimension
    d: the first 3d primes, in three consecutive runs of d.  u and v must
    differ, since the even-even brackets are antisymmetric and cancel under
    u = v."""
    primes = []
    k = 2
    while len(primes) < 3 * d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return tuple(primes[:d]), tuple(primes[d:2 * d]), tuple(primes[2 * d:])


def _projections(M):
    """P = uM + vM + Mz: the weight vectors (u, v, z) of
    ``_weights(len(M))`` moved through the integer matrix M, concatenated
    into one tuple of 3d integers."""
    d = len(M)
    u, v, z = _weights(d)
    uM, vM, Mz = [0] * d, [0] * d, [0] * d
    for a, row in enumerate(M):
        ua, va = u[a], v[a]
        for p, x in enumerate(row):
            if x:
                uM[p] += ua * x
                vM[p] += va * x
                Mz[a] += x * z[p]
    return tuple(uM + vM + Mz)


def _projected_sides(source, target, d):
    """(terms, W): the tensor halves of the projected test of (ii) in
    dimension d, with source (N, s) and target (N', t), indexed into
    ``_projections``' P.  terms lists (p, d + q, k), k = t sum over r of
    N_pq^r z_r; W lists (2d + r, w), w = s sum over a, b of
    N'_ab^r u_a v_b; zeros are dropped.

    Cleared of denominators, (ii) for C = M / c reads
    t pull(N, M) = s c push(N', M) (``_conditions``).  Evaluating a tensor
    T_ab^r on the fixed weights (u, v, z) of ``_weights`` is a linear map to
    the integers, so where (ii) holds its two sides evaluate equally.  The
    evaluations are read off P and the sides, without building either side
    of (ii):

        t  sum over N  of x (uM)_p (vM)_q z_r      (x = N_pq^r)
        sc sum over N' of x u_a v_b (Mz)_r         (x = N'_ab^r)

    (``_evaluations``).  Unequal evaluations prove that (ii) fails; equal
    ones prove nothing."""
    (N, s), (N2, t) = source, target
    u, v, z = _weights(d)
    terms, W = {}, {}
    for (p, q, r, x) in N:
        terms[p, d + q] = terms.get((p, d + q), 0) + t * x * z[r]
    for (a, b, r, x) in N2:
        W[2 * d + r] = W.get(2 * d + r, 0) + s * x * u[a] * v[b]
    return ([(p, q, k) for (p, q), k in terms.items() if k],
            [(r, w) for r, w in W.items() if w])


def _evaluations(P, c, sides):
    """The evaluations of t pull(N, M) and s c push(N', M), for C = M / c
    with ``_projections`` P and ``_projected_sides`` sides."""
    terms, W = sides
    return (sum(k * P[p] * P[q] for (p, q, k) in terms),
            c * sum(w * P[r] for (r, w) in W))


def _half(double):
    m, n = double.superdim()
    return m // 2, n // 2


def t_dual_certificate(triple):
    """The T-duality certificate C = B from the double of t to the double of
    its dual (S~|S)."""
    src = build_double(triple)
    tgt = build_double(t_dual(triple))
    ctx = triple.ctx
    matrix = [[ctx.const(x) for x in row]
              for row in _t_dual_matrix(*triple.superdim())]
    return IsoCertificate(ctx, matrix, src, tgt, note="T")


def _t_dual_matrix(m, n):
    """The T-duality matrix C = B as ints, filled from ``forms._pairing``;
    superdimension (2m, 2n)."""
    pairing = forms._pairing(m, n)
    C = [[0] * len(pairing) for _ in pairing]
    for row, (p, s) in zip(C, pairing):
        row[p] = s
    return C


def from_automorphism(A_inst, triple):
    """blockdiag(A, (A^{-1})^T) from the triple's double to the double of the
    triple with transported dual tensor.  A is inverted once, in
    ``dual_blockdiag``: the dual is transported in the basis (A^{-1})^T,
    read off the lower-right block, whose inverse is A^T (as
    ``SuperAlgebra.transport_dual``)."""
    bad = automorphism_residuals(A_inst, triple.S)
    if bad:
        raise NotAutomorphism("matrix does not preserve the structure tensor: %s"
                              % bad[:3])
    C = dual_blockdiag(A_inst)
    h = len(A_inst)
    dual = triple.S_dual._transport([row[h:] for row in C[h:]],
                                    transpose(A_inst))
    target = ManinTriple(triple.S, dual,
                         ident=None if triple.id is None else triple.id + "'",
                         label=triple.label)
    return IsoCertificate(triple.ctx, C, build_double(triple),
                          build_double(target), note="auto")


# ---------------------------------------------------------------------------
# shears: f~ -> f~ + R f


class NoSolution:
    """Witness: a linear combination of G entries that must vanish."""

    __slots__ = ("witness",)

    def __init__(self, witness):
        self.witness = witness

    def __repr__(self):
        return "NoSolution(witness %s != 0)" % self.witness


def _monic(s):
    """Scale a nonzero scalar so its numerator's leading coefficient is 1."""
    num = s.re[0]
    if not num:
        return s
    return s / s.ctx.const(num[max(num)])


def solve_r(H, G):
    """Exact symmetric solution of R^{jl} H_l^k + R^{kl} H_l^j = G^{jk}.

    The unknowns are scanned in reversed order and free components pinned
    to zero.  That fixes the solution, the reduced row-echelon one of that
    column order, and so the matrix of every ``shear`` certificate in the
    catalog, which ``shear_matrix`` derives from it.  With no solution the
    witness is the first equation that reduces to its G side alone, made
    monic.  Returns R or NoSolution, as ``solve_shear([H], [G])``.
    """
    return solve_shear([H], [G])


def solve_shear(H_list, G_list):
    """Joint version over several boson directions: find symmetric R with
    R H_i + (R H_i)^T = G_i for every i.  Returns R or NoSolution."""
    n = len(H_list[0])
    zero = H_list[0][0][0].ctx.zero()
    unknowns = [(j, k) for j in range(n) for k in range(j, n)]
    u = len(unknowns)
    # the unknowns' columns in reversed order, then the right-hand side's
    col = {jk: u - 1 - idx for idx, jk in enumerate(unknowns)}

    rows = []
    for H, G in zip(H_list, G_list):
        for j in range(n):
            for k in range(j, n):
                coeff = [zero] * (u + 1)
                # sum_l R^{jl} H_l^k + R^{kl} H_l^j, then the right-hand side
                for l in range(n):
                    coeff[col[min(j, l), max(j, l)]] += H[l][k]
                    coeff[col[min(k, l), max(k, l)]] += H[l][j]
                coeff[u] = G[j][k]
                rows.append(sparse(coeff))

    basis, bad = echelon(rows, u)
    if bad is not None:
        return NoSolution(_monic(bad[u]))
    values = back_substitute(basis, [u])[0]
    return [[values.get(col[min(j, k), max(j, k)], zero) for k in range(n)]
            for j in range(n)]


def odd_action_matrices(S):
    """H_i per boson: (H_i)_j^k = F_{b_i, f_j}^{f_k}; requires [f,f] = 0."""
    m, n = S.superdim()
    zero = S.ctx.zero()
    out = [[[zero] * n for _ in range(n)] for _ in range(m)]
    for (i, j, k, c) in S.nonzero():
        if i >= m and j >= m:
            raise ConstraintViolation("seed has odd-odd brackets; shear transport does not close")
        if i < m <= j and k >= m:
            out[i][j - m][k - m] = c
    return out


# the G block of a one-boson N-type dual (``dual_g``) by the names of its
# entries, per odd dimension: a symmetric matrix, whose upper triangle, row
# by row, lists each name once
G_NAMES = {1: (("alpha",),), 2: (("alpha", "beta"), ("beta", "gamma"))}


def dual_g_blocks(S_dual):
    """G_i per boson from an N-type dual: [f~^j, f~^k] = G_i^{jk} b~^i.
    None when the dual has brackets outside that shape."""
    m, n = S_dual.superdim()
    zero = S_dual.ctx.zero()
    out = [[[zero] * n for _ in range(n)] for _ in range(m)]
    for (i, j, k, c) in S_dual.nonzero():
        if i < m or j < m or k >= m:
            return None
        out[k][i - m][j - m] = c
    return out


def dual_g(triple):
    """{name: Fraction} of the G block of the triple's dual, named by
    G_NAMES, when that dual is N-type over one boson (``dual_g_blocks``),
    else None; the block's entries must be numeric (``Scalar.as_fraction``)."""
    G = dual_g_blocks(triple.S_dual)
    if G is None or len(G) != 1 or len(G[0]) not in G_NAMES:
        return None
    return {name: x.as_fraction() for names, row in zip(G_NAMES[len(G[0])], G[0])
            for name, x in zip(names, row)}


def shear_certificate(triple, double):
    """(S|A) -> (S|N_G) by ``shear_matrix``, mapping the double of the
    semiabelian (S|A) onto `double`, the double of `triple`.  None when the
    dual is abelian or ``shear_matrix`` finds no shear.  The image is not
    computed: a caller that merges on the certificate verifies it."""
    Sd = triple.S_dual
    if not Sd.nonzero():
        return None
    abelian = SuperAlgebra(Sd.grading, triple.ctx, {}, names=Sd.names,
                           dual_role=True)
    base = ManinTriple(triple.S, abelian, ident=(triple.id or "") + ":base")
    try:
        matrix = shear_matrix(base, triple)
    except ConstraintViolation:
        return None
    return IsoCertificate(triple.ctx, matrix, build_double(base), double,
                          note="shear")


def shear_matrix(source, target):
    """C = I + E, the shear f~ -> f~ + R f from the double of `source` to
    that of `target`, two triples over one seed S: E maps the f~ rows onto
    the f columns by the R of ``solve_shear``, with H_i the seed's odd
    action and G_i the blocks of the target's N-type dual.  Raises
    ConstraintViolation when the source's dual is not abelian, the seeds
    differ, the target's dual is not N-type, the seed has odd-odd brackets
    or the R-system has no solution."""
    S = source.S
    if source.S_dual.nonzero():
        raise ConstraintViolation("shear source dual is not abelian")
    if target.S is not S and (S.grading != target.S.grading
                              or not S.tensor_equal(target.S)):
        raise ConstraintViolation("shear source and target have different seeds")
    G_list = dual_g_blocks(target.S_dual)
    if G_list is None:
        raise ConstraintViolation("shear target dual is not N-type")
    R = solve_shear(odd_action_matrices(S), G_list)
    if isinstance(R, NoSolution):
        raise ConstraintViolation("shear R-system has no solution: %s != 0"
                                  % R.witness)
    m, n = S.superdim()
    h = m + n
    C = identity(2 * h, source.ctx.one(), source.ctx.zero())
    for a in range(n):
        for b in range(n):
            C[h + m + a][m + b] = R[a][b]
    return C


# ---------------------------------------------------------------------------
# bounded search


class Exhausted:
    """Evidence (not proof) of nonisomorphism at a recorded budget."""

    __slots__ = ("budget", "tried", "reason")

    def __init__(self, budget, tried, reason):
        self.budget = budget
        self.tried = tried
        self.reason = reason

    def __repr__(self):
        return "Exhausted(budget=%d, tried=%d, %s)" % (self.budget, self.tried,
                                                       self.reason)


# Every generator yields candidates (M, c), standing for C = M / c, with M an
# integer matrix and c a positive integer.


def _shear_matrices(m, n, h, d, grid, lower=True):
    """Unit shears with off-diagonal values from grid, integers over
    GRID_DEN."""
    bos_slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    ferm_slots = [(a, b) for a in range(n) for b in range(a, n)]
    nslots = len(bos_slots) + len(ferm_slots)
    if nslots == 0:
        return
    for combo in itertools.product(grid, repeat=nslots):
        if all(x == 0 for x in combo):
            continue
        C = identity(d, GRID_DEN, 0)
        vals = list(combo)
        for (i, j), v in zip(bos_slots, vals[:len(bos_slots)]):
            if lower:
                C[h + i][j] = v
                C[h + j][i] = -v
            else:
                C[i][h + j] = v
                C[j][h + i] = -v
        for (a, b), v in zip(ferm_slots, vals[len(bos_slots):]):
            if lower:
                C[h + m + a][m + b] = v
                C[h + m + b][m + a] = v
            else:
                C[m + a][h + m + b] = v
                C[m + b][h + m + a] = v
        yield C, GRID_DEN


def _partial_dualities(m, n, h, d):
    """Swap X_i <-> X~^i on a subset of pair indices, with form-preserving
    signs, and scale the untouched pairs by 1 or -1."""
    pair_count = m + n
    swap_choices = []
    for idx in range(pair_count):
        fermion = idx >= m
        options = [("keep", s) for s in (1, -1)]
        if fermion:
            options += [("swap", (1, -1)), ("swap", (-1, 1))]
        else:
            options += [("swap", (1, 1)), ("swap", (-1, -1))]
        swap_choices.append(options)
    for assignment in itertools.product(*swap_choices):
        if all(kind == "keep" and s == 1 for kind, s in assignment):
            continue
        C = [[0] * d for _ in range(d)]
        for idx, (kind, s) in enumerate(assignment):
            if kind == "keep":
                # s = 1/s for s = 1, -1
                C[idx][idx] = s
                C[h + idx][h + idx] = s
            else:
                s1, s2 = s
                C[idx][h + idx] = s1
                C[h + idx][idx] = s2
        yield C, 1


def _composed(m, n, h, d):
    """Each partial duality times each coarse lower shear (the identity
    first), in both orders."""
    # dualities are integer matrices (c = 1)
    duals = [D for D, _ in _partial_dualities(m, n, h, d)]
    shears = [(identity(d, 1, 0), 1)] + list(
        _shear_matrices(m, n, h, d, (2, -2, 1, -1, 0), lower=True))
    for Dm in duals:
        for S, c in shears:
            yield f_matmul(Dm, S), c
            yield f_matmul(S, Dm), c


def _stages(m, n):
    """(stage name, candidate generator) pairs of the search pipeline on the
    doubles of superdimension (2m, 2n), in search order; every stage is
    finite."""
    h = m + n
    d = 2 * h
    yield "basic", iter([(identity(d, 1, 0), 1), (_t_dual_matrix(m, n), 1)])
    yield "duality", _partial_dualities(m, n, h, d)
    yield "shear", _shear_matrices(m, n, h, d, SEARCH_GRID, lower=True)
    yield "shear_up", _shear_matrices(m, n, h, d, SEARCH_GRID, lower=False)
    yield "composed", _composed(m, n, h, d)


class _CandidateTable:
    """The candidates of ``_stages(m, n)`` as flat rows (stage name, M, c,
    P): M is the integer matrix as one tuple, row after row, and P its
    ``_projections``.  Rows are made lazily, the first time a search
    reaches them, and kept for the next search on the same shape."""

    __slots__ = ("rows", "_stream")

    def __init__(self, m, n):
        self.rows = []
        self._stream = ((name, M, c) for name, gen in _stages(m, n)
                        for M, c in gen)

    def prefix(self, k):
        """The first k rows, or all of them when there are fewer."""
        rows = self.rows
        for name, M, c in itertools.islice(self._stream, max(0, k - len(rows))):
            rows.append((name, tuple(itertools.chain.from_iterable(M)), c,
                         _projections(M)))
        return rows[:k]


def search_iso(src, tgt, budget=DEFAULT_SEARCH_BUDGET):
    """Bounded certificate search between two numerically bound doubles.

    Returns a verified IsoCertificate or an Exhausted record; Exhausted is
    evidence, not proof, of nonisomorphism.  After the fingerprint filter
    the candidates come from five finite stages, in this order: ``basic``
    (the identity and the T-duality B), ``duality`` (partial dualities),
    ``shear`` and ``shear_up`` (lower and upper unit shears over
    SEARCH_GRID), then ``composed`` (each partial duality times each coarse
    lower shear, in both orders).  The record's reason is "candidates
    exhausted" when all of them fail within the budget.

    The candidates depend only on the shape of the doubles, so they are
    read from the shape's ``_CandidateTable``, which one ``report`` or
    ``classify_doubles`` call builds once for all its searches.  The search
    asks it for budget + 1 rows: a row beyond the budget is what tells
    "budget exhausted" from "candidates exhausted".

    The candidate loop runs on integers.  Each candidate is a pair (M, c)
    standing for C = M / c, with M an integer matrix and c a positive
    integer; both tensors are scaled once to integers over their
    denominators (``SuperAlgebra.integer_tensor``), and their projected
    sides (``_projected_sides``) are computed once per search.  Against the
    row's projections of M, one comparison of the projected sides of (ii)
    rejects a failing candidate without building either side.  A candidate
    whose projections agree is rebuilt as the matrix M / c, wrapped and put
    through ``verify_certificate``, which tests (i) and (ii) in full on the
    same integers (``_conditions``).
    """
    if budget < 0:
        raise ConstraintViolation("budget must be at least 0, got %d" % budget)
    if src.dim != tgt.dim:
        raise DimensionMismatch("doubles of different dimension")
    if src.ctx.params or tgt.ctx.params:
        raise ConstraintViolation("search needs numeric parameter bindings")
    m, n = _half(src)

    fp_src = commutant_series(src)
    fp_tgt = commutant_series(tgt)
    if fp_src != fp_tgt:
        return Exhausted(budget, 0, "fingerprint mismatch %s vs %s" % (fp_src, fp_tgt))

    d = src.dim
    sides = _projected_sides(src.integer_tensor(), tgt.integer_tensor(), d)
    ctx = src.ctx

    # the report's table inside a ``report_memo()`` block, else a new one
    table = memoized((_CandidateTable, m, n), lambda: _CandidateTable(m, n))
    rows = table.prefix(budget + 1)
    for tried, (name, flat, c, P) in enumerate(rows):
        if tried == budget:
            return Exhausted(budget, tried, "budget exhausted")
        pulled, pushed = _evaluations(P, c, sides)
        if pulled != pushed:
            continue
        matrix = [[ctx.const(Fraction(x, c)) for x in flat[a:a + d]]
                  for a in range(0, d * d, d)]
        try:
            cert = IsoCertificate(ctx, matrix, src, tgt, note="search")
        except ConstraintViolation:
            continue
        ok, _ = verify_certificate(cert)
        if ok:
            cert.note = "search:" + name
            return cert
    return Exhausted(budget, len(rows), "candidates exhausted")
