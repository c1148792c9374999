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

from .algebra import (SuperAlgebra, _columns, _integer_matrix,
                      _integer_tensor, _pull, _push, commutant_series)
from .catalog import automorphisms, catalog_triple, get_catalog
from .errors import (BudgetExceeded, ConstraintViolation, DivisionByZero,
                     InconsistentRadical, UnknownId)
from .iso import (Exhausted, IsoCertificate, dual_g_blocks, from_automorphism,
                  search_iso, shear_certificate, verify_certificate)
from .matrices import f_solve, inv, s_identity, transpose
from .memo import report_memo
from .scalars import (Domain, ParamContext, _term_image, finite_branches,
                      not_a_parameter)
from .triples import ManinTriple, build_double, check_compatibility, t_dual

__all__ = ["DualAnsatz", "enumerate_duals", "reduce_orbits", "classify_doubles",
           "ClassificationReport", "report", "REPORTS"]

ENUM_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
             Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
# the most grid points enumerate_duals will try
ENUM_BUDGET = 300000
ORBIT_SAMPLES = 200
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

    def context(self):
        return ParamContext([("u%d" % i, Domain.free())
                             for i in range(len(self.slots))])

    def dual_algebra(self, ctx, values):
        """Dual tensor with slot s set to values[s] (Scalars of ctx)."""
        brackets = {}
        for (i, j, k), v in zip(self.slots, values):
            if v.is_zero():
                continue
            brackets.setdefault((i, j), {})[k] = v
        return SuperAlgebra.from_brackets(self.grading, ctx, brackets,
                                          dual_role=True)


def enumerate_duals(seed):
    """All dual tensors compatible with the (numerically bound) seed.

    Two tiers: the Jacobi residuals of the double that are linear in the
    unknowns are solved exactly; the remaining polynomial conditions are
    filtered over the rational grid on the free directions of the solution
    space.  Every returned dual re-passes the full compatibility check.
    Raises BudgetExceeded when that grid has more than ENUM_BUDGET points
    (A12's 7^7 does).
    """
    if seed.ctx.params:
        raise ConstraintViolation("enumerate_duals needs a numeric seed")
    ansatz = DualAnsatz(seed.grading)
    uctx = ansatz.context()
    u = [uctx.param("u%d" % i) for i in range(ansatz.unknown_count)]
    seed_l = seed.map_scalars(uctx, seed.ctx.bind_scalars(uctx, {}))
    dual = ansatz.dual_algebra(uctx, u)
    residuals = [r for (_, _, r) in
                 build_double(ManinTriple(seed_l, dual)).jacobi_residuals()]

    def degree(s):
        num = s.re[0]
        return max((sum(mn) for mn in num), default=0)

    linear = [r for r in residuals if degree(r) <= 1]
    higher = [r for r in residuals if degree(r) > 1]

    # exact linear solve over Q
    nu = ansatz.unknown_count
    rows, rhs = [], []
    for r in linear:
        row = [Fraction(0)] * nu
        const = Fraction(0)
        num, den = r.re
        scale = Fraction(1) / den[max(den)] if den else Fraction(1)
        for mono, coeff in num.items():
            t = sum(mono)
            if t == 0:
                const += coeff * scale
            else:
                var = mono.index(1)
                row[var] += coeff * scale
        rows.append(row)
        rhs.append(-const)
    if rows:
        solved = f_solve(rows, rhs)
        if solved is None:
            return []
        particular, null = solved
    else:
        particular, null = [Fraction(0)] * nu, \
            [[Fraction(int(i == j)) for j in range(nu)] for i in range(nu)]

    free = len(null)
    if free and len(ENUM_GRID) ** free > ENUM_BUDGET:
        raise BudgetExceeded("grid %d^%d exceeds budget %d"
                             % (len(ENUM_GRID), free, ENUM_BUDGET))

    out = []
    seen = set()
    for combo in itertools.product(ENUM_GRID, repeat=free):
        point = list(particular)
        for s, vec in zip(combo, null):
            if s:
                point = [x + s * y for x, y in zip(point, vec)]
        if higher:
            _, at = uctx.bind({"u%d" % i: point[i] for i in range(nu)})
            if any(at(r) for r in higher):
                continue
        values = [seed.ctx.const(x) for x in point]
        cand = ansatz.dual_algebra(seed.ctx, values)
        key = cand.tensor_key()
        if key in seen:
            continue
        seen.add(key)
        if check_compatibility(ManinTriple(seed, cand)):
            continue  # soundness re-check; linear tier cannot misfire, grid can
        out.append(cand)
    out.sort(key=lambda a: a.tensor_key())
    return out


def reduce_orbits(solutions, family):
    """Partition duals of one seed under the dual action (A^{-1})^T of the
    seed's automorphism family.

    Instantiations are drawn from a fixed rational grid (so transported
    tensors can land exactly on other solutions) topped up with random
    rational samples: up to ORBIT_SAMPLES grid points per family, split
    evenly over its branches (discrete ones included), and half as many
    random samples.
    Sound for merging, incomplete for separation: orbits may stay split,
    never wrongly merged.  Representatives are the lexicographically
    smallest tensors (``tensor_key``).

    The transport runs on integers: each solution is scaled once to integer
    entries over a denominator, and each sampled A is inverted once over
    Fractions, with (A^{-1})^T and A^T scaled to integer matrices.  A moved
    tensor is matched to a solution by ``_lowest_terms``, which is exact:
    a rational tensor has exactly one lowest-terms form, whose denominator
    is the least common denominator of its entries.

    The family must not depend on the seed's parameters: bind them with
    ``automorphisms(name, bindings)``, as the seed was bound.
    """
    unbound = sorted(set().union(*(b.unbound_params() for b in family)))
    if unbound:
        raise ConstraintViolation(
            "automorphism family of %s depends on unbound parameter(s) %s; "
            "bind them with automorphisms(name, bindings)"
            % (family.algebra_name, ", ".join(unbound)))
    if not solutions:
        return []
    tensors = [_integer_tensor(sol.numeric_nonzero()) for sol in solutions]
    index = {_lowest_terms(*t): i for i, t in enumerate(tensors)}
    sets = _UnionFind(len(solutions))

    rng = random.Random(0)
    per_branch = ORBIT_SAMPLES // max(1, len(family.branches))
    actions = []
    for branch in family:
        names = branch.family_params
        grid_combos = itertools.product(ORBIT_GRID, repeat=len(names))
        taken = 0
        for combo in grid_combos:
            if taken >= per_branch:
                break
            bindings = dict(zip(names, combo))
            try:
                _, mat = branch.instantiate(bindings)
            except ConstraintViolation:
                continue
            actions.append(_dual_action(mat))
            taken += 1
        for _ in range(per_branch // 2):
            try:
                _, mat = branch.sample(rng)
            except ConstraintViolation:
                continue
            actions.append(_dual_action(mat))

    for action in actions:
        for i, tensor in enumerate(tensors):
            j = index.get(_moved_key(tensor, action))
            if j is not None:
                sets.union(i, j)

    orbits = {}
    for i in range(len(solutions)):
        orbits.setdefault(sets.find(i), []).append(i)
    out = []
    for members in orbits.values():
        rep = min(members, key=lambda i: solutions[i].tensor_key())
        out.append((solutions[rep], [solutions[i] for i in members]))
    out.sort(key=lambda pair: pair[0].tensor_key())
    return out


def _lowest_terms(nz, den):
    """Hashable key of the rational tensor nz / den (nz a sorted nonzero
    list of integer entries, den > 0): nz and den divided by their common
    gcd.  Unique: the key's denominator is the least common denominator of
    the tensor's entries, so every scaling of one tensor gives one key (the
    zero tensor's is ((), 1))."""
    g = math.gcd(den, *(n for (_, _, _, n) in nz))
    return tuple((i, j, k, n // g) for (i, j, k, n) in nz), den // g


def _dual_action(mat):
    """(D, B, s) for an invertible matrix A of numeric Scalars: the integer
    matrices D = a (A^{-1})^T, held as its ``_columns`` index, and
    B = b A^T, each scaled by the lcm of its denominators, and s = a^2 b,
    the factor that pulling along D and pushing along B put on a tensor.
    A is inverted once, over Fractions."""
    A = [[x.as_fraction() for x in row] for row in mat]
    D, a = _integer_matrix(transpose(inv(A)))
    B, b = _integer_matrix(transpose(A))
    return _columns(D), B, a * a * b


def _moved_key(tensor, action):
    """``_lowest_terms`` key of the integer tensor (nz, den) moved by the
    dual action (D, B, s) of ``_dual_action``: the entries
    D_I^P D_J^Q N^{PQ}_R B_R^S over the denominator den * s."""
    nz, den = tensor
    D_cols, B, scale = action
    pulled = _pull(nz, D_cols)
    pushed = _push([key + (n,) for key, n in pulled.items() if n], B)
    return _lowest_terms(sorted(key + (n,) for key, n in pushed.items() if n),
                         den * scale)


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
    is listed once, at its first occurrence."""
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
                out[ident] = Instance(row_id, full, entry)
    return list(out.values())


def _dual_g(triple):
    """(G11, G12, G22, ...) of an N-type dual over one boson, or None."""
    G = dual_g_blocks(triple.S_dual)
    if G is None or len(G) != 1:
        return None
    n = len(G[0])
    return tuple(G[0][a][b].as_fraction() for a in range(n) for b in range(a, n))


class _Node:
    """A double the route planner reaches from an instance, with the
    catalog rows that certificate endpoints have asked about so far, and
    every certificate orientation whose first endpoint it matches."""
    __slots__ = ("double", "chain", "pool", "rows", "_starts")

    def __init__(self, double, chain, bindings, rows):
        self.double = double
        self.chain = chain  # certificate instance.double -> self.double, or None
        # alpha/beta/gamma are read off the dual, the rest off the instance
        self.pool = dict(bindings, **dict(zip(("alpha", "beta", "gamma"),
                                              _dual_g(double.triple) or ())))
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
        kept by total dimension, and tensor_equal compares no parity."""
        if row_id in self.rows:
            return self.rows[row_id]
        self.rows[row_id] = None
        entry = get_catalog().triples[row_id]
        triple = self.double.triple
        if (entry.grading.dim != triple.grading.dim
                or any(p not in self.pool for p in entry.ctx.params)):
            return None
        candidate = {p: self.pool[p] for p in entry.ctx.params}
        try:
            built = entry.build(candidate)
        except (ConstraintViolation, InconsistentRadical):
            return None
        if built.tensor_equal(triple):
            self.rows[row_id] = candidate
        return self.rows[row_id]


def _identity_cert(src_double, tgt_double):
    ctx = src_double.ctx
    return IsoCertificate(ctx, s_identity(ctx, src_double.dim), src_double,
                          tgt_double, note="id")


def _compose(second, first):
    """second o first with context alignment (at most one radical around):
    the certificate outside the other's context is mapped into it by name."""
    ctx = second.ctx if second.ctx.radical_name is not None else first.ctx
    second, first = (c if c.ctx == ctx
                     else c.map_scalars(ctx, c.ctx.bind_scalars(ctx, {}))
                     for c in (second, first))
    return second.compose(first)


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
    verified."""
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
        for fill in finite_branches(entry.ctx, missing):
            full = dict(assignment)
            full.update(fill)
            try:
                cert = entry.build(full)
            except (ConstraintViolation, InconsistentRadical,
                    DivisionByZero):
                continue
            yield cert.invert() if inverted else cert


def find_certificate(inst_a, inst_b):
    """Route planner: identity, shear normalization, one catalog certificate
    and their compositions.  Only each route's composite, the certificate
    that is merged and printed, is verified; the first that passes is
    returned, None when none does."""
    for nx in _expand(inst_a):
        for ny in _expand(inst_b):
            if nx.double.triple.tensor_equal(ny.double.triple):
                middles = [_identity_cert(nx.double, ny.double)]
            else:
                middles = _certs_between(nx, ny)
            for cert in middles:
                if nx.chain is not None:
                    cert = _compose(cert, nx.chain)
                if ny.chain is not None:
                    cert = _compose(ny.chain.invert(), cert)
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
    compatibility.  Within a fingerprint bucket the route planner provides
    merge certificates; leftover class pairs get a ``search_iso`` at its
    default budget, whose Exhausted record becomes the separation evidence.
    """
    instances = make_instances(instance_specs)
    for inst in instances:
        if check_compatibility(inst.triple):
            raise ConstraintViolation("instance %s fails compatibility" % inst.ident)

    n = len(instances)
    sets = _UnionFind(n)
    find, union = sets.find, sets.union

    buckets = {}
    for i, inst in enumerate(instances):
        buckets.setdefault(inst.fingerprint.dims, []).append(i)

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
    # cross-bucket separations between class representatives
    keys = sorted(buckets)
    for a_pos in range(len(keys)):
        for b_pos in range(a_pos + 1, len(keys)):
            i = min(find(x) for x in buckets[keys[a_pos]])
            j = min(find(x) for x in buckets[keys[b_pos]])
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
    a, b, c = (_dual_g(inst.triple) or (0, 0, 0))[:3]
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
        compat = not check_compatibility(t)
        m, n = t.superdim()
        adinv = not check_ad_invariance(build_double(t), canonical_form(m, n))
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
    base_insts = {}   # one instance per label, so its route memo is reused
    for fam_id, fam_fixed in families:
        for (a, b, c) in THM3_SAMPLES:
            fam_bnd = dict(fam_fixed)
            fam_bnd.update({"alpha": a, "beta": b, "gamma": c})
            inst = make_instances([(fam_id, fam_bnd)])[0]
            label = _thm3_expected(inst)
            if label not in base_insts:
                base_insts[label] = make_instances([base_of_label[label]])[0]
            base_inst = base_insts[label]
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
    sq_ctx = ParamContext([], radicals=[("sq", d_squared)])
    lift_ctx, lift = sq_ctx.bind({})
    branch = automorphisms(seed_name).branches[0]
    member = branch.ctx.bind_scalars(lift_ctx,
                                     dict(values, d=lift(sq_ctx.radical())))
    cert = from_automorphism(
        [[member(x) for x in row] for row in branch.matrix],
        triple.map_scalars(lift_ctx, ctx.bind_scalars(lift_ctx, {})))
    lifted = target.map_scalars(lift_ctx, target.ctx.bind_scalars(lift_ctx, {}))
    if not cert.target.triple.tensor_equal(lifted):
        return None
    ok, _ = verify_certificate(cert)
    return (label, cert) if ok else None
