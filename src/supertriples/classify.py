"""End-to-end classification pipeline: enumerate dual algebras for a seed,
reduce by automorphism orbits, fingerprint, group into superdoubles with
certificate evidence, and reproduce the catalog tables and theorems.

Grouping evidence is asymmetric by design: every merge carries a verified
certificate; every separation carries a fingerprint mismatch or an Exhausted
search record (evidence, not proof).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .algebra import (SuperAlgebra, _graded_transposes, _jacobi,
                      _transport_residuals, check_jacobi, commutant_series)
from .catalog import automorphisms, catalog_triple, get_catalog
from .errors import (BudgetExceeded, ConstraintViolation, DimensionMismatch,
                     DivisionByZero, InconsistentRadical, UnknownId)
from .iso import (Exhausted, IsoCertificate, _evaluations, _in_context,
                  _projected_sides, _projections, dual_g,
                  from_automorphism, search_iso, shear_certificate,
                  verify_certificate)
from .matrices import echelon_add, f_solve, identity
from .memo import memoized, report_memo
from .polys import _p_const, _p_int_forms, _p_int_value, _p_var, exact_sqrt
from .scalars import (Cleared, ParamContext, _term_image,
                      clear_denominators, finite_branches, not_a_parameter)
from .triples import (ManinTriple, _signature_admits, build_double,
                      double_entries, t_dual)

__all__ = ["DualAnsatz", "enumerate_duals", "reduce_orbits", "classify_doubles",
           "ClassificationReport", "report", "REPORTS"]

ENUM_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
             Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
# the most grid points enumerate_duals will try
ENUM_BUDGET = 300000
ORBIT_SAMPLES = 200
# the draws ``_BranchDraw.samples`` makes for one sample before giving it up
SAMPLE_TRIES = 200
ORBIT_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(1, 3),
              Fraction(4), Fraction(1, 4), Fraction(0))


class _UnionFind:
    """Disjoint sets over 0..n-1; each root is the smallest index of its set."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


# ---------------------------------------------------------------------------
# dual enumeration


class DualAnsatz:
    """Unknown dual structure constants with grading consistency and graded
    antisymmetry pre-imposed; one free slot per independent (I, J, K)."""

    def __init__(self, grading):
        self.grading = grading
        par = grading.parities()
        d = grading.dim
        slots = []
        for i in range(d):
            for j in range(i, d):
                if i == j and par[i] == 0:
                    continue  # [x,x] = 0 on even generators
                for k in range(d):
                    if (par[i] + par[j]) % 2 == par[k]:
                        slots.append((i, j, k))
        self.slots = tuple(slots)

    @property
    def unknown_count(self):
        return len(self.slots)

    def entries(self, values):
        """{(i, j, k): value}: slot s set to values[s] and its transpose
        filled by graded antisymmetry (``algebra._graded_transposes``);
        values of any type with negation."""
        out = dict(zip(self.slots, values))
        _graded_transposes(out, {(i, j) for (i, j, _) in self.slots},
                           self.grading.parities())
        return out

    def dual_algebra(self, ctx, values):
        """Dual tensor with slot s set to values[s] (Scalars of ctx)."""
        return SuperAlgebra(self.grading, ctx, self.entries(values),
                            dual_role=True)


def enumerate_duals(seed):
    """All dual tensors compatible with the (numerically bound) seed, in
    ``tensor_key`` order.

    Two tiers (``_dual_system``): the Jacobi residuals of the double that
    are linear in the unknowns are solved exactly; the others, polynomials,
    are tested on the rational grid over the free directions of the
    solution space.  That test runs on integers (``_grid_solutions``): each
    polynomial is cleared once to integer coefficients and each grid point
    scaled to integers over one denominator, and only a point where every
    polynomial vanishes is made of Fractions and becomes a dual.  Both tiers
    are exact, so every returned dual is compatible with no re-check.  No
    two are equal: ``f_solve`` gives each null vector a 1 in its own free
    column, where the others and the particular solution are 0, so distinct
    grid tuples give distinct slot vectors, and each slot is one independent
    tensor entry, so distinct slot vectors give distinct tensors.  Sorting
    the slot vectors sorts the tensors: the slots run in (i, j, k) order,
    and every other entry is a transpose of a slot before it, so two
    tensors first differ at a slot.  Raises BudgetExceeded when that grid
    has more than ENUM_BUDGET points (A12's 7^7 does).
    """
    if seed.ctx.params:
        raise ConstraintViolation("enumerate_duals needs a numeric seed")
    ansatz = DualAnsatz(seed.grading)
    system = _dual_system(seed, ansatz)
    if system is None:
        return []
    particular, null, higher = system
    free = len(null)
    if free and len(ENUM_GRID) ** free > ENUM_BUDGET:
        raise BudgetExceeded("grid %d^%d exceeds budget %d"
                             % (len(ENUM_GRID), free, ENUM_BUDGET))
    return [ansatz.dual_algebra(seed.ctx, [seed.ctx.const(x) for x in point])
            for point in sorted(_grid_solutions(particular, null, higher))]


def _dual_system(seed, ansatz):
    """(particular, null, higher) for the compatible duals of a numeric
    seed: the unknowns solving the linear Jacobi residuals of the double are
    particular + a combination of the null vectors (Fractions), and higher
    lists the other residuals, dict polynomials in the unknowns; None when
    the linear residuals have no solution.

    The residuals come from the ``algebra._jacobi`` kernel run once on the
    double (``triples.double_entries``) with polynomial entries, each a
    ``scalars.Cleared`` with no radical part: a seed entry is a constant,
    ansatz slot s the variable u_s, with its transpose by ``entries``."""
    nu = ansatz.unknown_count
    seed_nz = [(i, j, k, Cleared(_p_const(c.as_fraction(), nu), {}, None))
               for (i, j, k, c) in seed.nonzero()]
    dual = ansatz.entries([Cleared(_p_var(s, nu), {}, None) for s in range(nu)])
    parity = seed.parity + ansatz.grading.parities()
    double = double_entries(seed_nz, [key + (c,) for key, c in dual.items()],
                            seed.dim, parity)
    # the linear residuals as rows of an exact solve over Q
    rows, rhs, higher = [], [], []
    for (_, _, r) in _jacobi([key + (c,) for key, c in sorted(double.items())],
                             parity):
        f = r.re
        if max(map(sum, f)) > 1:
            higher.append(f)
            continue
        row = [Fraction(0)] * nu
        for mono, coeff in f.items():
            if sum(mono):
                row[mono.index(1)] = coeff
        rows.append(row)
        rhs.append(-f.get((0,) * nu, Fraction(0)))
    if not rows:
        return [Fraction(0)] * nu, identity(nu, Fraction(1), Fraction(0)), higher
    solved = f_solve(rows, rhs)
    return None if solved is None else solved + (higher,)


def _grid_solutions(particular, null, higher):
    """The points particular + sum s_i null_i, s in ``ENUM_GRID``^len(null)
    in ``itertools.product`` order, at which every polynomial of higher
    vanishes, as lists of Fractions.

    Filtered on integers: with e the lcm of the grid's denominators times
    that of the vectors' entries, each point is P/e for an integer vector P,
    and f(P/e) = 0 exactly when the integer form of f (``_p_int_forms``:
    sum k_m P^m e^(deg - |m|)) is 0.  Only a surviving point is made of
    Fractions."""
    grid_den = math.lcm(*(s.denominator for s in ENUM_GRID))
    vec_den = math.lcm(*(x.denominator for vec in [particular] + null
                         for x in vec))
    e = grid_den * vec_den
    # integer points carry e last; steps[i][g] is e times the grid's g-th
    # value times null vector i
    base = [x.numerator * (e // x.denominator) for x in particular] + [e]
    steps = [[[s.numerator * (grid_den // s.denominator)
               * y.numerator * (vec_den // y.denominator) for y in vec] + [0]
              for s in ENUM_GRID] for vec in null]
    forms = [form for f in higher
             for form in _p_int_forms([f], len(particular))]
    # the sums over the first and the last null vectors, each in product
    # order, so each point costs one vector sum
    half = len(null) // 2
    heads, tails = [base], [[0] * len(base)]
    for vec_steps in steps[:half]:
        heads = [[x + y for x, y in zip(p, s)] for p in heads for s in vec_steps]
    for vec_steps in steps[half:]:
        tails = [[x + y for x, y in zip(p, s)] for p in tails for s in vec_steps]
    for head in heads:
        for tail in tails:
            point = [x + y for x, y in zip(head, tail)]
            if not any(_p_int_value(f, point) for f in forms):
                yield [Fraction(x, e) for x in point[:-1]]


def reduce_orbits(solutions, family):
    """Partition duals of one seed under the dual action (A^{-1})^T of the
    seed's automorphism family.

    Members are drawn from a fixed rational grid, so that moved tensors can
    land exactly on other solutions, then as random rational samples: up to
    ORBIT_SAMPLES grid points per family, split evenly over its branches
    (discrete ones included), and half as many samples.  Sound for merging,
    incomplete for separation: orbits may stay split, never wrongly merged.
    Representatives are the smallest tensors (``tensor_key``).

    No member is inverted and no tensor moved: the solutions are scaled once
    to integer tensors N_i over one denominator, and each member, drawn one
    at a time, is evaluated on integers as M = c A^T (``_members``: each
    branch's entries and constraints are cleared over one denominator and
    compiled to integer forms once per call, so a draw binds no context and
    makes no Scalar).  Pulling
    back along A^T undoes the pullback along (A^T)^{-1}, so for an
    invertible A solution i moves onto solution j exactly when
    pull(N_j, M) = c push(N_i, M), condition (ii) of ``iso._conditions``
    with s = t = 1 (``_transport_residuals``); a singular A is refused.
    Equal tensors project equally (``iso._evaluations``), so a pair is
    tested in full only when the projection of pull(N_j, M) lands in the
    bucket of c push(N_i, M), and only when i and j are in different sets:
    a union inside one set changes nothing, so the partition is the
    all-pairs one.
    The family must have a branch and must not use the seed's parameters:
    bind them with ``automorphisms(name, bindings)``.
    """
    _check_family(family)
    if not solutions:
        return []
    d = solutions[0].dim
    scaled = [sol.integer_tensor() for sol in solutions]
    den = math.lcm(*(t for _, t in scaled))
    tensors = [[(i, j, k, n * (den // t)) for (i, j, k, n) in nz]
               for nz, t in scaled]
    sides = [_projected_sides((N, 1), (N, 1), d) for N in tensors]
    sets = _UnionFind(len(solutions))
    for M, c in _members(family):
        P = _projections(M)
        values = [_evaluations(P, c, s) for s in sides]
        buckets = {}
        for i, (_, pushed) in enumerate(values):
            buckets.setdefault(pushed, []).append(i)
        for j, (pulled, _) in enumerate(values):
            for i in buckets.get(pulled, ()):
                if (sets.find(i) != sets.find(j) and not _transport_residuals(
                        M, tensors[j], tensors[i], 1, c)):
                    sets.union(i, j)

    orbits = {}
    for i, sol in enumerate(solutions):
        orbits.setdefault(sets.find(i), []).append(sol)
    return sorted(((min(members, key=SuperAlgebra.tensor_key), members)
                   for members in orbits.values()),
                  key=lambda pair: pair[0].tensor_key())


def _check_family(family):
    """Refuse a family ``reduce_orbits`` cannot apply: one with no branch
    (every dual would stay its own orbit) or one using unbound parameters."""
    if not family.branches:
        raise ConstraintViolation("%s has no automorphism family to reduce its "
                                  "duals by" % family.algebra_name)
    unbound = sorted(set().union(*(b.unbound_params() for b in family)))
    if unbound:
        raise ConstraintViolation(
            "automorphism family of %s depends on unbound parameter(s) %s; "
            "bind them with automorphisms(name, bindings)"
            % (family.algebra_name, ", ".join(unbound)))


def _members(family):
    """The members A of ``reduce_orbits`` in order, one at a time, as (M, c)
    with M = c A^T an integer matrix; a singular one is a DimensionMismatch.

    Each branch is cleared over one common denominator and compiled once
    per call (``_BranchDraw``), and every member is evaluated on integers:
    first the ``ORBIT_GRID`` points the branch accepts, then random
    samples.  Nothing compiled outlives the call."""
    rng = random.Random(0)
    per_branch = ORBIT_SAMPLES // max(1, len(family.branches))
    for branch in family:
        draw = _BranchDraw(branch)
        for M, c in itertools.chain(itertools.islice(draw.grid(), per_branch),
                                    draw.samples(rng, per_branch // 2)):
            basis = {}
            for row in M:
                echelon_add(basis, {p: x for p, x in enumerate(row) if x})
            if len(basis) < len(M):
                raise DimensionMismatch("singular member of the automorphism "
                                        "family of %s" % family.algebra_name)
            yield M, c


class _BranchDraw:
    """An ``AutoBranch`` compiled for drawing members on integers.

    The branch's nonzero matrix entries and its constraints are cleared
    over one common denominator D (``clear_denominators``): each is
    (a + b r)/D, with a, b and D polynomials over the branch's parameters
    and r its radical.  D, every a and b, and the radicand when the family
    parameters alone settle it are compiled together
    (``polys._p_int_forms``).  A member at rational values of the family
    parameters is evaluated at the integers they make over one common
    denominator, with no context bound and no Scalar made: at a settled
    root rn/rd each entry is (a rd + b rn)/(D rd), so the integer matrix
    M = c A^T is those numerators over c = |D rd|, reduced by one gcd.
    That is what ``instantiate`` followed by ``as_fraction`` gives, cleared
    by the lcm of its denominators.  Refused, so None, are exactly the values ``instantiate``
    refuses: one outside its parameter's domain, a negative radicand, a
    vanishing constraint.  A vanishing D is a DivisionByZero and an entry
    left irrational by an unsettled radical a ConstraintViolation, as for
    the Scalars."""

    def __init__(self, branch):
        ctx = branch.ctx
        self.nv = ctx.nvars
        names = branch.family_params
        self.domains = [ctx.domains[n] for n in names]
        self.slots = [ctx.params.index(n) for n in names]
        self.dim = len(branch.matrix)
        # (index in M = c A^T read row by row, entry) per nonzero entry
        entries = [(j * self.dim + i, x) for i, row in enumerate(branch.matrix)
                   for j, x in enumerate(row) if x]
        self.positions = [pos for pos, _ in entries]
        nums, den = clear_denominators(
            ctx, [x for _, x in entries] + list(branch.constraints))
        if not isinstance(den, Cleared):  # no parameter and no radical: ints
            den, *nums = [Cleared(_p_const(n, 0), {}, None) for n in [den, *nums]]
        polys = [den.re] + [p for x in nums for p in (x.re, x.rad)]
        q = ctx.radicand
        # a radicand of the family parameters alone settles at a member
        self.settles = q is not None and all(
            ctx.params[i] in names for m in q for i, a in enumerate(m) if a)
        if self.settles:
            polys += [q, _p_const(1, self.nv)]
        self.forms = _p_int_forms(polys, self.nv)

    def grid(self):
        """The members at the ``ORBIT_GRID`` points the branch accepts, in
        ``itertools.product`` order over the family parameters."""
        den = math.lcm(*(v.denominator for v in ORBIT_GRID))
        axes = [[v.numerator * (den // v.denominator)
                 for v in ORBIT_GRID if dom.allows(v)] for dom in self.domains]
        for ints in itertools.product(*axes):
            member = self._member(ints, den)
            if member is not None:
                yield member

    def samples(self, rng, count):
        """Up to count members at random values of the family parameters,
        each from at most SAMPLE_TRIES draws of ``Domain.sample``; a sample
        whose domain cannot be sampled is skipped."""
        for _ in range(count):
            for _ in range(SAMPLE_TRIES):
                try:
                    values = [dom.sample(rng) for dom in self.domains]
                except ConstraintViolation:
                    break
                member = self.at(values)
                if member is not None:
                    yield member
                    break

    def at(self, values):
        """The member (M, c) at rational values of the family parameters,
        in order, or None when the branch refuses them."""
        values = [Fraction(v) for v in values]
        if not all(dom.allows(v) for dom, v in zip(self.domains, values)):
            return None
        den = math.lcm(*(v.denominator for v in values))
        return self._member([v.numerator * (den // v.denominator)
                             for v in values], den)

    def _member(self, ints, den):
        """The member at the family parameters ints/den, or None."""
        point = [0] * self.nv + [den]
        for slot, n in zip(self.slots, ints):
            point[slot] = n
        values = [_p_int_value(form, point) for form in self.forms]
        root = None
        if self.settles:
            # the radicand over the forms' common factor, which is positive
            q, scale = values.pop(-2), values.pop()
            if q < 0:
                return None
            root = exact_sqrt(Fraction(q, scale))
        D = values[0]
        # every denominator is tested before any constraint, as bind maps
        # every scalar before instantiate tests one
        if not D:
            raise DivisionByZero("zero denominator")
        rn, rd = (0, 1) if root is None else (root.numerator, root.denominator)
        # (numerator over D rd, nonzero irrational part) per value
        parts = [(a * rd + b * rn, root is None and b)
                 for a, b in zip(values[1::2], values[2::2])]
        k = len(self.positions)
        if not all(num or irrational for num, irrational in parts[k:]):
            return None
        if any(irrational for _, irrational in parts[:k]):
            raise ConstraintViolation("a member of the automorphism family "
                                      "is not rational")
        c = D * rd
        flat = [0] * (self.dim * self.dim)
        for pos, (num, _) in zip(self.positions, parts):
            flat[pos] = num
        g = math.gcd(c, *flat) if c > 0 else -math.gcd(c, *flat)
        d = self.dim
        return [[x // g for x in flat[r * d:(r + 1) * d]] for r in range(d)], c // g


# ---------------------------------------------------------------------------
# instances and the certificate route planner


def _instance_ident(row_id, bindings):
    if not bindings:
        return row_id
    inner = ",".join("%s=%s" % (k, v)
                     for k, v in sorted(bindings.items()))
    return "%s[%s]" % (row_id, inner)


class Instance:
    __slots__ = ("ident", "row_id", "bindings", "triple", "double",
                 "fingerprint", "seed_name", "_nodes")

    def __init__(self, row_id, bindings, entry):
        self.row_id = row_id
        self.bindings = bindings    # {name: Fraction}
        self.ident = _instance_ident(row_id, self.bindings)
        self.triple = entry.build(self.bindings)
        if self.triple.ctx.params:
            raise ConstraintViolation("instance %s is not fully bound" % self.ident)
        self.double = build_double(self.triple)
        self.fingerprint = commutant_series(self.double)
        self.seed_name = entry.seed_name
        self._nodes = None


def make_instances(specs):
    """specs: iterable of (row_id, bindings) with continuous parameters bound;
    finite-domain parameters are expanded into all branches.  Each instance
    is listed once, at its first occurrence, and built once per report memo:
    a later call gets the same ``Instance``, route nodes included."""
    cat = get_catalog()
    out = {}
    for row_id, bindings in specs:
        if row_id not in cat.triples:
            raise UnknownId("unknown triple %s" % row_id)
        entry = cat.triples[row_id]
        ctx = entry.ctx
        for extra in finite_branches(ctx, [n for n in ctx.params
                                           if ctx.domains[n].is_finite
                                           and n not in bindings]):
            full = {k: Fraction(v) for k, v in bindings.items()}
            full.update(extra)
            ident = _instance_ident(row_id, full)
            if ident not in out:
                out[ident] = memoized((Instance, ident), lambda: Instance(
                    row_id, full, entry))
    return list(out.values())


class _Node:
    """A double the route planner reaches from an instance, with the
    catalog rows that certificate endpoints have asked about so far, and
    every certificate orientation whose first endpoint it matches."""
    __slots__ = ("double", "chain", "pool", "signature", "rows", "_starts")

    def __init__(self, double, chain, bindings, rows):
        self.double = double
        self.chain = chain  # certificate instance.double -> self.double, or None
        # the G block's names are read off the dual, the rest off the instance
        self.pool = dict(bindings, **(dual_g(double.triple) or {}))
        self.signature = double.triple.signature()
        self.rows = rows    # {row id: bindings, or None where no match}
        self._starts = None

    def starts(self):
        """(cert entry, inverted, assignment, second endpoint) for every
        catalog certificate orientation whose first endpoint this node
        matches, in catalog order, the assignment unifying that endpoint;
        computed in full on first use."""
        if self._starts is None:
            cat = get_catalog()
            self._starts = []
            for entry in cat.certs.values():
                ends = ((entry.source_id, entry.source_values),
                        (entry.target_id, entry.target_values))
                for inverted, ((a_id, a_vals), second) in ((False, ends),
                                                           (True, ends[::-1])):
                    assignment = {}
                    if _unify_side(a_vals, cat.triples[a_id].ctx,
                                   self.match(a_id), assignment):
                        self._starts.append((entry, inverted, assignment,
                                             second))
        return self._starts

    def match(self, row_id):
        """Bindings at which catalog row row_id, built from the pool, has
        this node's tensor, else None; computed once per row.  Rows are
        kept by total dimension, and tensor_equal compares no parity.  A
        row the signatures rule out (``_signature_admits``) is never built,
        and a row undefined at the pool's bindings matches nothing."""
        if row_id in self.rows:
            return self.rows[row_id]
        self.rows[row_id] = None
        entry = get_catalog().triples[row_id]
        triple = self.double.triple
        if (entry.grading.dim != triple.grading.dim
                or any(p not in self.pool for p in entry.ctx.params)
                or not _signature_admits(entry.signature, self.signature)):
            return None
        candidate = {p: self.pool[p] for p in entry.ctx.params}
        try:
            built = entry.build(candidate)
        except (ConstraintViolation, InconsistentRadical, DivisionByZero):
            return None
        if built.tensor_equal(triple):
            self.rows[row_id] = candidate
        return self.rows[row_id]


def _expand(inst):
    if inst._nodes is not None:
        return inst._nodes
    nodes = [_Node(inst.double, None, inst.bindings,
                   {inst.row_id: inst.bindings})]
    # shear-normalize to the semiabelian (S|A) base point when possible
    base_cert = shear_certificate(inst.triple, inst.double)
    if base_cert is not None:
        nodes.append(_Node(base_cert.source, base_cert.invert(),
                           inst.bindings, {}))
    inst._nodes = nodes
    return nodes


def _unify_side(values, entry_ctx, inst_bindings, assignment):
    """Extend `assignment` (cert parameter -> Fraction) so that a cert
    endpoint with bindings `values` (Scalars of the cert context) meets the
    instance bindings of a row with context entry_ctx, else False (also
    when they are None: the row does not match).  A constant must equal the
    instance value, +-x assigns the cert parameter x, any other Scalar never
    unifies; an unbound name is the cert parameter of the same name."""
    if inst_bindings is None:
        return False
    for pname in entry_ctx.params:
        if pname not in inst_bindings:
            return False
        value = inst_bindings[pname]
        name = pname
        if pname in values:
            term = _term_image(values[pname])
            if not isinstance(term, tuple):
                return False
            c, j = term
            if j is None:
                if c != value:
                    return False
                continue
            name = values[pname].ctx.params[j]
            if c is not None:
                value = -value
        if assignment.setdefault(name, value) != value:
            return False
    return True


def _certs_between(nx, ny):
    """Certificates nx.double -> ny.double, one catalog entry (or its
    inverse) each, in the order of ``nx.starts()``: only the second
    endpoint is unified here, against ny's match of its row; built, not
    verified.

    Unified, each endpoint row at the certificate's bindings is the row
    its node matched, with the node's tensor.  So only the matrix is bound
    (``CertEntry.matrix_at``), and the nodes' own doubles are its
    endpoints, mapped into the matrix's context where that differs."""
    cat = get_catalog()
    for entry, inverted, first, (b_id, b_vals) in nx.starts():
        assignment = dict(first)
        if not _unify_side(b_vals, cat.triples[b_id].ctx, ny.match(b_id),
                           assignment):
            continue
        # finite-domain cert parameters the endpoints leave free
        # (e.g. a sign choice) are enumerated
        missing = [p for p in entry.ctx.params if p not in assignment]
        if any(not entry.ctx.domains[p].is_finite for p in missing):
            continue
        ends = (ny.double, nx.double) if inverted else (nx.double, ny.double)
        for fill in finite_branches(entry.ctx, missing):
            full = dict(assignment)
            full.update(fill)
            try:
                ctx, matrix = entry.matrix_at(full)
                cert = IsoCertificate(ctx, matrix,
                                      *(_in_context(d, ctx) for d in ends),
                                      note=entry.id)
            except (ConstraintViolation, InconsistentRadical,
                    DivisionByZero):
                continue
            yield cert.invert() if inverted else cert


def find_certificate(inst_a, inst_b):
    """Route planner: identity, shear normalization, one catalog certificate
    and their compositions.  Only each route's composite, the certificate
    that is merged and printed, is verified; the first that passes is
    returned, None when none does, and at once for two doubles of different
    superdimension, which no certificate joins."""
    if inst_a.double.parity != inst_b.double.parity:
        return None
    for nx in _expand(inst_a):
        for ny in _expand(inst_b):
            if nx.double.triple.tensor_equal(ny.double.triple):
                ctx = nx.double.ctx
                middles = [IsoCertificate(ctx, identity(nx.double.dim, ctx.one(),
                                                        ctx.zero()),
                                          nx.double, ny.double, note="id")]
            else:
                middles = _certs_between(nx, ny)
            for cert in middles:
                if nx.chain is not None:
                    cert = cert.compose(nx.chain)
                if ny.chain is not None:
                    cert = ny.chain.invert().compose(cert)
                ok, _ = verify_certificate(cert)
                if ok:
                    return cert
    return None


# ---------------------------------------------------------------------------
# grouping


class ClassificationReport:
    def __init__(self, instances, groups, edges, separations):
        self.instances = instances
        self.groups = groups          # list of lists of instance indices
        self.edges = edges            # (i, j, certificate)
        self.separations = separations  # (i, j, kind, detail)

    def partition_idents(self):
        return sorted(tuple(sorted(self.instances[i].ident for i in g))
                      for g in self.groups)

    def lines(self, fmt="text"):
        out = []
        for g, members in enumerate(self.groups):
            names = [self.instances[i].ident for i in members]
            fp = self.instances[members[0]].fingerprint
            if fmt == "machine":
                out.append("class index=%d fingerprint=%s members=%s"
                           % (g, _fp_str(fp), "|".join(sorted(names))))
            else:
                out.append("class %d  fingerprint %s  members: %s"
                           % (g, fp, ", ".join(sorted(names))))
        return out + self.evidence_lines(fmt)

    def evidence_lines(self, fmt="text"):
        """One line per merge edge, then one per separation."""
        out = []
        for (i, j, cert) in self.edges:
            if fmt == "machine":
                out.append("edge from=%s to=%s via=%s"
                           % (self.instances[i].ident, self.instances[j].ident,
                              cert.note or "cert"))
            else:
                out.append("  edge %s -> %s  via %s"
                           % (self.instances[i].ident, self.instances[j].ident,
                              cert.note or "cert"))
        for (i, j, kind, detail) in self.separations:
            if fmt == "machine":
                out.append("separation a=%s b=%s kind=%s detail=%s"
                           % (self.instances[i].ident, self.instances[j].ident,
                              kind, detail.replace(" ", "_")))
            else:
                out.append("  separation %s | %s  (%s: %s)"
                           % (self.instances[i].ident, self.instances[j].ident,
                              kind, detail))
        return out


def _fp_str(fp):
    return ";".join("%d,%d" % mn for mn in fp.dims)


@report_memo()
def classify_doubles(instance_specs):
    """Group instances into double-isomorphism classes with evidence.

    instance_specs: list of (row_id, bindings).  All instances must pass
    compatibility.  Instances are bucketed by the superdimension and the
    fingerprint of their doubles.  Within a bucket the route planner
    provides merge certificates; leftover class pairs get a ``search_iso``
    at its default budget, whose Exhausted record becomes the separation
    evidence.  Class representatives of two buckets are separated by their
    superdimensions when these differ, else by their fingerprints.
    """
    instances = make_instances(instance_specs)
    for inst in instances:
        if check_jacobi(inst.double):  # the compatibility of inst.triple
            raise ConstraintViolation("instance %s fails compatibility" % inst.ident)

    n = len(instances)
    sets = _UnionFind(n)
    find, union = sets.find, sets.union

    buckets = {}
    for i, inst in enumerate(instances):
        buckets.setdefault((inst.double.superdim(), inst.fingerprint.dims),
                           []).append(i)

    edges = []
    for key in sorted(buckets):
        members = buckets[key]
        for a_pos in range(len(members)):
            for b_pos in range(a_pos + 1, len(members)):
                i, j = members[a_pos], members[b_pos]
                if find(i) == find(j):
                    continue
                cert = find_certificate(instances[i], instances[j])
                if cert is not None:
                    union(i, j)
                    edges.append((i, j, cert))

    separations = []
    for key in sorted(buckets):
        members = buckets[key]
        reps = sorted({find(i) for i in members})
        for a_pos in range(len(reps)):
            for b_pos in range(a_pos + 1, len(reps)):
                i, j = reps[a_pos], reps[b_pos]
                res = search_iso(instances[i].double, instances[j].double)
                if isinstance(res, Exhausted):
                    separations.append((i, j, "exhausted",
                                        "budget=%d tried=%d" % (res.budget, res.tried)))
                else:
                    union(i, j)
                    edges.append((i, j, res))
    # separations between the class representatives of two buckets
    keys = sorted(buckets)
    for a_pos in range(len(keys)):
        for b_pos in range(a_pos + 1, len(keys)):
            i = min(find(x) for x in buckets[keys[a_pos]])
            j = min(find(x) for x in buckets[keys[b_pos]])
            if keys[a_pos][0] != keys[b_pos][0]:
                separations.append((i, j, "superdimension", "%d,%d_vs_%d,%d"
                                    % (keys[a_pos][0] + keys[b_pos][0])))
            else:
                separations.append((i, j, "fingerprint", "%s_vs_%s"
                                    % (_fp_str(instances[i].fingerprint),
                                       _fp_str(instances[j].fingerprint))))

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    group_list = sorted(groups.values(), key=lambda g: instances[g[0]].ident)
    return ClassificationReport(instances, group_list, edges, separations)


# ---------------------------------------------------------------------------
# reproduction targets: catalog tables and theorem groupings


TABLE5_GENERIC_P = (Fraction(2), Fraction(3), Fraction(5, 2))
TABLE5_GENERIC_KAPPA = (Fraction(1), Fraction(2), Fraction(-3))
THM3_SAMPLES = ((Fraction(1), Fraction(0), Fraction(-1)),
                (Fraction(2), Fraction(1), Fraction(1)),
                (Fraction(1), Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(0), Fraction(2)))


class Report:
    def __init__(self, target, passed, lines):
        self.target = target
        self.passed = passed
        self._lines = lines

    def render(self, fmt="text"):
        head = ("report target=%s status=%s" % (self.target,
                                                "pass" if self.passed else "fail")
                if fmt == "machine"
                else "== %s: %s ==" % (self.target, "PASS" if self.passed else "FAIL"))
        return "\n".join([head] + self._lines)


def _row_num(row_id):
    return int(row_id.split("_")[1])


# Table 5 by Theorem 2 class (``_thm2_expected`` up to its "="): totals of
# dim C1, C2, C3, and the superdimension of C1 when the refinement matters
TABLE5_EXPECTED = {
    "I": ((0, 0, 0), None),
    "II": ((2, 0, 0), None),
    "III": ((3, 1, 0), (1, 2)),
    "IV_0": ((3, 1, 0), (3, 0)),
    "V": ((4, 1, 0), None),
    "VI_p": ((5, 1, 0), None),
    "VII": ((5, 3, 0), None),
    "IV_kappa": ((3, 3, 3), None),
    "VIII_kappa": ((5, 5, 5), None),
}


def _thm2_expected(inst):
    r, bindings = _row_num(inst.row_id), inst.bindings
    if r == 1:
        return "I"
    if r == 2:
        return "II"
    if r in (3, 4, 5):
        return "III"
    if r in (6, 7, 8):
        p = bindings["p"]
        if p == 0:
            return "IV_0" if r in (6, 8) else "V"
        return "VI_p=%s" % abs(p)
    if r == 9:
        return "VII"
    if r == 10:
        return "IV_kappa=%s" % bindings["kappa"]
    if r in (11, 12, 13):
        return "VII"
    if r == 14:
        return "VIII_kappa=%s" % bindings["kappa"]
    raise UnknownId("no expected class for row %s" % inst.row_id)


def _thm3_expected(inst):
    """Theorem 3's class of a (2,4) instance, row or family member, from its
    seed algebra, the seed's p and G = (G11, G12, G22) of the dual."""
    g = dual_g(inst.triple)
    a, b, c = g.values() if g else (0, 0, 0)
    seed = inst.seed_name
    if seed == "A12":
        det = a * c - b * b
        return ("I" if (a, b, c) == (0, 0, 0) else
                "IX" if det > 0 else "X" if det == 0 else "III")
    if seed in ("C2_p", "C5_p"):
        seed_p = get_catalog().triples[inst.row_id].seed_bindings["p"]
        p = seed_p.substitute(inst.bindings).as_fraction()
        if seed == "C5_p":
            return "V_p=%s" % p
        if p != 0:
            return "II_p=%s" % abs(p)
        return "VI" if c != 0 else "II_0"
    if seed == "C2_1":
        return "II_1"
    if seed == "C2_m1":
        return "IV" if b != 0 else "II_1"
    if seed == "C3":
        return "VII" if c != 0 else "III"
    if seed == "C4":
        return "IV"
    if seed == "C5_0":
        return "VIII" if a + c != 0 else "V_0"
    raise UnknownId("no expected class for %s" % inst.ident)


def _symbolic_row_suite(target, table):
    from .forms import canonical_form, check_ad_invariance
    cat = get_catalog()
    lines = []
    passed = True
    for rid in cat.table_rows(table):
        entry = cat.triples[rid]
        t = entry.build()
        D = build_double(t)
        compat = not check_jacobi(D)  # the compatibility of t
        adinv = not check_ad_invariance(D, canonical_form(*t.superdim()))
        passed = passed and compat and adinv
        lines.append("row id=%s compatibility=%s ad_invariance=%s label=%s"
                     % (rid, "pass" if compat else "fail",
                        "pass" if adinv else "fail",
                        (entry.label or "").replace(" ", "_")))
    return Report(target, passed, lines)


def _values_of(bindings, name, default):
    if not bindings or name not in bindings:
        return default
    v = bindings[name]
    return tuple(v) if isinstance(v, (tuple, list)) else (Fraction(v),)


def _value_of(bindings, name, default):
    """The one value bound to name, else default; more than one is refused."""
    values = _values_of(bindings, name, (default,))
    if len(values) > 1:
        raise ConstraintViolation("%s is bound more than once" % name)
    return values[0]


def _report_table5(bindings=None):
    cat = get_catalog()
    p_values = _values_of(bindings, "p", TABLE5_GENERIC_P)
    k_values = _values_of(bindings, "kappa", TABLE5_GENERIC_KAPPA)
    lines = []
    passed = True
    for rid in cat.table_rows("42"):
        entry = cat.triples[rid]
        params = set(entry.ctx.params)
        # dict.fromkeys drops repeated values, keeping the first of each
        if "p" in params:
            binding_sets = [{"p": p} for p in
                            dict.fromkeys(p_values + (Fraction(0),))]
        elif "kappa" in params:
            binding_sets = [{"kappa": k} for k in dict.fromkeys(k_values)]
        else:
            binding_sets = [{}]
        for bnd in binding_sets:
            for inst in make_instances([(rid, bnd)]):
                want_tot, want_sd = TABLE5_EXPECTED[
                    _thm2_expected(inst).split("=")[0]]
                got_tot = inst.fingerprint.totals()
                ok = got_tot == want_tot
                if want_sd is not None:
                    ok = ok and inst.fingerprint.dims[0] == want_sd
                passed = passed and ok
                lines.append(
                    "fingerprint id=%s dims=%s expected=%s%s match=%s"
                    % (inst.ident, _fp_str(inst.fingerprint),
                       ",".join(str(x) for x in want_tot),
                       "" if want_sd is None else " c1_superdim=%d,%d" % want_sd,
                       "yes" if ok else "no"))
    return Report("table5", passed, lines)


def _grouping_report(target, specs, expected_fn):
    result = classify_doubles(specs)
    want = {}
    for i, inst in enumerate(result.instances):
        want.setdefault(expected_fn(inst), set()).add(i)
    want_partition = sorted(tuple(sorted(result.instances[i].ident for i in s))
                            for s in want.values())
    got_partition = result.partition_idents()
    passed = want_partition == got_partition

    label_of_group = {}
    for label, idxs in want.items():
        for g, members in enumerate(result.groups):
            if set(members) == idxs:
                label_of_group[g] = label
    lines = []
    for g, members in enumerate(result.groups):
        label = label_of_group.get(g, "UNEXPECTED")
        names = sorted(result.instances[i].ident for i in members)
        lines.append("class label=%s members=%s" % (label, "|".join(names)))
    lines += result.evidence_lines("machine")
    if not passed:
        lines.append("expected_partition %s" % (want_partition,))
    return Report(target, passed, lines)


def _report_thm1():
    specs = [("MT22_1", {}), ("MT22_2", {}), ("MT22_3", {}),
             ("MT22_4", {"eps": 1}), ("MT22_5", {})]
    return _grouping_report("thm1", specs, _thm2_expected)


def _report_thm2(bindings):
    p0 = _value_of(bindings, "p", Fraction(2))
    k0 = _value_of(bindings, "kappa", Fraction(1))
    if p0 == 0 or k0 == 0:
        raise ConstraintViolation("thm2 needs generic p and kappa bindings")
    specs = [("MT42_1", {}), ("MT42_2", {}), ("MT42_3", {}), ("MT42_4", {}),
             ("MT42_5", {}),
             ("MT42_6", {"p": p0}), ("MT42_6", {"p": -p0}), ("MT42_6", {"p": 0}),
             ("MT42_7", {"p": p0}), ("MT42_7", {"p": 0}),
             ("MT42_8", {"p": p0}), ("MT42_8", {"p": 0}),
             ("MT42_9", {}), ("MT42_10", {"kappa": k0}), ("MT42_11", {}),
             ("MT42_12", {}), ("MT42_13", {}), ("MT42_14", {"kappa": k0})]
    return _grouping_report("thm2", specs, _thm2_expected)


def _report_thm3(bindings):
    p0 = _value_of(bindings, "p", Fraction(1, 2))
    k0 = _value_of(bindings, "kappa", Fraction(1))
    if not 0 < p0 < 1:
        raise ConstraintViolation("thm3 binding p must satisfy 0 < p < 1")
    specs = []
    for rid in get_catalog().table_rows("24"):
        entry = get_catalog().triples[rid]
        params = set(entry.ctx.params)
        base = {}
        if "p" in params:
            base["p"] = p0
        if "kappa" in params:
            base["kappa"] = k0
        specs.append((rid, base))
        if entry.seed_name == "C2_p":
            extra = dict(base)
            extra["p"] = Fraction(0)
            specs.append((rid, extra))
    specs.append(("MT24_4", {"p": -p0}))
    rep = _grouping_report("thm3", specs, _thm3_expected)
    lines = list(rep._lines)
    passed = rep.passed

    # parameter spot checks: dual-family members at sampled (alpha,beta,gamma)
    families = [("FAM24_C21_G", {}), ("FAM24_C4_G", {}),
                ("FAM24_C2p_G", {"p": p0}), ("FAM24_C5p_G", {"p": p0}),
                ("FAM24_C20_G", {}), ("FAM24_C3_G", {}), ("FAM24_C50_G", {}),
                ("FAM24_A_G", {})]
    base_of_label = {
        "II_1": ("MT24_9", {}), "IV": ("MT24_23", {}),
        "II_p=%s" % abs(p0): ("MT24_4", {"p": p0}),
        "V_p=%s" % p0: ("MT24_27", {"p": p0}),
        "VI": ("MT24_6", {"p": 0, "delta": 0, "eps": 1}),
        "II_0": ("MT24_4", {"p": 0}),
        "VII": ("MT24_22", {}), "III": ("MT24_18", {}),
        "V_0": ("MT24_30", {}), "VIII": ("MT24_31", {"kappa": 0}),
        "IX": ("MT24_3", {"eps": 1}), "X": ("MT24_2", {}), "I": ("MT24_1", {}),
    }
    for fam_id, fam_fixed in families:
        for (a, b, c) in THM3_SAMPLES:
            fam_bnd = dict(fam_fixed)
            fam_bnd.update({"alpha": a, "beta": b, "gamma": c})
            inst = make_instances([(fam_id, fam_bnd)])[0]
            label = _thm3_expected(inst)
            base_inst = make_instances([base_of_label[label]])[0]
            if inst.fingerprint != base_inst.fingerprint:
                passed = False
                lines.append("member family=%s sample=%s,%s,%s expected=%s "
                             "evidence=FINGERPRINT_MISMATCH" % (fam_id, a, b, c, label))
                continue
            if fam_id == "FAM24_A_G" and label in ("IX", "X", "I"):
                evidence = "fingerprint"
                ok = True
            else:
                cert = find_certificate(inst, base_inst)
                ok = cert is not None
                evidence = "cert:%s" % cert.note if ok else "NO_ROUTE"
            passed = passed and ok
            lines.append("member family=%s sample=%s,%s,%s expected=%s evidence=%s"
                         % (fam_id, a, b, c, label, evidence))
    return Report("thm3", passed, lines)


# each report target, in the order the CLI lists them: the binding names it
# reads and its builder, called with the bindings
REPORTS = {
    "table2": ((), lambda bindings: _symbolic_row_suite("table2", "22")),
    "table4": ((), lambda bindings: _symbolic_row_suite("table4", "42")),
    "table5": (("p", "kappa"), _report_table5),
    "table7": ((), lambda bindings: _symbolic_row_suite("table7", "24")),
    "thm1": ((), lambda bindings: _report_thm1()),
    "thm2": (("p", "kappa"), _report_thm2),
    "thm3": (("p", "kappa"), _report_thm3),
}


@report_memo()
def report(target, bindings=None):
    """Machine-checkable reproduction of one table or theorem.  bindings
    may name only the parameters ``REPORTS`` lists for the target."""
    if target not in REPORTS:
        raise UnknownId("unknown report target %r" % target)
    reads, build = REPORTS[target]
    for name in bindings or ():
        if name not in reads:
            raise not_a_parameter(name, reads)
    return build(bindings)


# ---------------------------------------------------------------------------
# matching enumerated (1,1) duals against the (2,2) catalog


def _target_22(seed_name, s, t):
    """The (2,2) row or T-dual that the dual [bt,ft] = s ft, [ft,ft] = t bt
    of a (1,1) seed matches, by the signs of s and t: (label, target triple,
    values of the seed family's parameters other than d, d^2), or None.

    The seed automorphism the values and d = sqrt(d^2) pick out carries the
    dual onto the target's; d^2 > 0 always."""
    if seed_name == "A11" and not (s and t):
        if t:  # (A|N~) = T-dual of row 2: a rescales t to 1
            return ("Tdual(MT22_2)", t_dual(catalog_triple("MT22_2")),
                    {"a": 1 / t}, 1)
        if s:  # (A|S~) = T-dual of row 3: a rescales s to 1
            return ("Tdual(MT22_3)", t_dual(catalog_triple("MT22_3")),
                    {"a": s}, 1)
        return "MT22_1", catalog_triple("MT22_1"), {"a": 1}, 1
    if seed_name == "S11" and not s:
        if not t:
            return "MT22_3", catalog_triple("MT22_3"), {}, 1
        if t > 0:
            return ("MT22_4[eps=1]", catalog_triple("MT22_4", {"eps": 1}),
                    {}, t)
        return "MT22_5", catalog_triple("MT22_5"), {}, -t
    if seed_name == "N11" and not t:
        if not s:
            return "MT22_2", catalog_triple("MT22_2"), {}, 1
        if s > 0:
            return ("Tdual(MT22_4[eps=1])",
                    t_dual(catalog_triple("MT22_4", {"eps": 1})), {}, s)
        # T-dual of row 5 normalized to the N11 seed by b -> -b, which is
        # not an automorphism of N11
        target = t_dual(catalog_triple("MT22_5"))
        norm = [[target.ctx.const(-1), target.ctx.zero()],
                [target.ctx.zero(), target.ctx.one()]]
        target = ManinTriple(target.S.transport(norm),
                             target.S_dual.transport_dual(norm),
                             ident="Tdual(MT22_5)~")
        return "Tdual(MT22_5)", target, {}, -s
    return None


def match_22(seed_name, dual):
    """Match an enumerated (1,1) dual of a Table-1 seed against a catalog
    (2,2) row or its T-dual; returns (label, verified certificate) or None.

    The certificate comes from a member of the seed's catalog automorphism
    family, over Q(d) with d^2 from ``_target_22``: the context
    sq = sqrt(d^2) bound by ``ParamContext.bind``, which is Q itself when
    d^2 is a rational square.
    """
    ctx = dual.ctx
    zero = ctx.zero()
    s = dual.bracket(0, 1).get(1, zero).as_fraction()  # [bt,ft] -> ft
    t = dual.bracket(1, 1).get(0, zero).as_fraction()  # [ft,ft] -> bt
    found = _target_22(seed_name, s, t)
    if found is None:
        return None
    label, target, values, d_squared = found
    seed = get_catalog().algebras[seed_name].algebra
    triple = ManinTriple(
        SuperAlgebra(seed.grading, ctx, seed.entries(), names=seed.names,
                     name=seed_name),
        dual)
    sq_ctx = ParamContext([], radicals=[("sq", _p_const(d_squared, 0))])
    lift_ctx, lift = sq_ctx.bind({})
    branch = automorphisms(seed_name).branches[0]
    member = branch.ctx.bind_scalars(lift_ctx,
                                     dict(values, d=lift(sq_ctx.radical())))
    cert = from_automorphism(
        [[member(x) for x in row] for row in branch.matrix],
        _in_context(triple, lift_ctx))
    lifted = _in_context(target, lift_ctx)
    if not cert.target.triple.tensor_equal(lifted):
        return None
    ok, _ = verify_certificate(cert)
    return (label, cert) if ok else None
