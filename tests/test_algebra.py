import functools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from supertriples import classify, polys, scalars
from supertriples.algebra import (CommutantFingerprint, Grading, SuperAlgebra,
                                  _columns, _jacobi, _pull,
                                  automorphism_residuals, check_antisymmetry,
                                  check_jacobi, commutant_series,
                                  is_automorphism)
from supertriples.catalog import (appendix_certificate, automorphisms, catalog,
                                  catalog_triple, get_catalog)
from supertriples.errors import ConstraintViolation, DivisionByZero, UnknownName
from supertriples.forms import canonical_form, check_ad_invariance
from supertriples.iso import _in_context
from supertriples.matrices import echelon_add
from supertriples.parsing import render_combo
from supertriples.scalars import Domain, ParamContext
from supertriples.triples import build_double, t_dual
from test_matrices import rref
from test_scalars import (perturbations, random_scalar, scalar_branch_failures,
                          scalar_verdict)


EMPTY = ParamContext()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_tensor_equal_compares_contexts_once_then_canonical_forms(seed):
    """tensor_equal holds for the same tensor over equal but distinct
    context objects, fails when one entry differs, and is False, not a
    ConstraintViolation, across unequal contexts."""
    rng = random.Random(seed)

    def context(domain):
        return ParamContext([("p", domain), ("q", Domain.free())])

    ctx, twin = context(Domain.free()), context(Domain.free())
    other = context(Domain.free(excluded=[0]))
    g = Grading(2, 2)
    entries = {}
    while not entries:
        for key in rng.sample([(i, j, k) for i in range(4) for j in range(4)
                               for k in range(4)], 6):
            c = random_scalar(ctx, rng)
            if c:
                entries[key] = c
    a = SuperAlgebra(g, ctx, entries)
    same = SuperAlgebra(g, twin, {k: ctx.bind_scalars(twin, {})(c)
                                  for k, c in entries.items()})
    shifted = same.entries()
    key = next(iter(shifted))
    shifted[key] = shifted[key] + 1
    moved = SuperAlgebra(g, twin, shifted)
    foreign = SuperAlgebra(g, other, {k: ctx.bind_scalars(other, {})(c)
                                      for k, c in entries.items()})
    assert twin is not ctx and twin == ctx and other != ctx
    assert a.tensor_equal(same) and same.tensor_equal(a)
    assert not a.tensor_equal(moved) and not moved.tensor_equal(a)
    assert not a.tensor_equal(foreign) and not foreign.tensor_equal(a)


def test_antisymmetry_examples():
    g = Grading(1, 1)
    abelian = SuperAlgebra.from_brackets(g, EMPTY, {})
    assert check_antisymmetry(abelian) == []
    n11 = SuperAlgebra.from_brackets(g, EMPTY, {(1, 1): {0: EMPTY.one()}})
    assert check_antisymmetry(n11) == []
    # [b1, b1] = b1 violates antisymmetry on an even pair
    bad = SuperAlgebra(Grading(1, 0), EMPTY, {(0, 0, 0): EMPTY.one()})
    assert check_antisymmetry(bad)


def test_jacobi_f_mutant_residual():
    """[b1,f1] = f1 instead of f1/2 leaves residual -b2 on (b1, f1, f1)."""
    g = Grading(2, 1)
    one = EMPTY.one()
    mutant = SuperAlgebra.from_brackets(
        g, EMPTY, {(0, 1): {1: one}, (0, 2): {2: one}, (2, 2): {1: one}})
    res = _jacobi(mutant.nonzero(), mutant.parity)
    assert len(res) == 1
    (triple_idx, k, val), = res
    assert triple_idx == (0, 2, 2) and k == 1 and val == -1
    assert check_jacobi(catalog("F")) == []


NUMERIC_SEEDS = ("N11", "S11", "N21", "S21", "F", "N12_0", "C2_1", "C3", "C4",
                 "C5_0")


@st.composite
def graded_tensors(draw):
    """A numeric tensor that respects the grading: random sparse entries,
    or a catalog algebra scaled by a rational (still a Lie superalgebra),
    either one with up to two entries overwritten."""
    if draw(st.booleans()):
        A = catalog(draw(st.sampled_from(NUMERIC_SEEDS)))
        scale = draw(st.fractions(max_denominator=6).filter(bool))
        grading, par = A.grading, A.parity
        entries = {(i, j, k): c.as_fraction() * scale
                   for (i, j, k, c) in A.nonzero()}
    else:
        grading = Grading(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        par, entries = grading.parities(), {}
    d = grading.dim
    keys = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)
            if (par[i] + par[j]) % 2 == par[k]]
    size = st.integers(0, 2 if entries else 5)
    for _ in range(draw(size)):
        entries[draw(st.sampled_from(keys))] = draw(
            st.fractions(max_denominator=4, min_value=-3, max_value=3))
    return SuperAlgebra(grading, EMPTY, {key: EMPTY.const(x)
                                         for key, x in entries.items()})


@given(graded_tensors())
@settings(max_examples=120, deadline=None)
def test_integer_jacobi_check_agrees_with_scalar_residuals(A):
    """check_jacobi, deciding on the integer tensor, returns [] exactly when
    the Scalar residuals all vanish, and a failing algebra keeps its Scalar
    residual list, in order."""
    assert check_jacobi(A) == scalar_branch_failures(_jacobi(A.nonzero(),
                                                             A.parity))


def test_abelian_always_lie():
    for m, n in ((1, 1), (2, 1), (1, 2)):
        a = SuperAlgebra.from_brackets(Grading(m, n), EMPTY, {})
        assert check_antisymmetry(a) == [] and check_jacobi(a) == []


def test_catalog_axiom_suite():
    cat = get_catalog()
    for name in sorted(cat.algebras):
        A = catalog(name)
        assert check_antisymmetry(A) == [], name
        assert check_jacobi(A) == [], name


def _fresh_tensors(A):
    """(cleared, integer) tensors of A computed anew, with each Cleared
    entry and den as its (re, rad, q) parts; integer is the ConstraintViolation
    type when A has an entry that is not rational."""
    values, den = scalars.clear_denominators(A.ctx, [c for (*_, c) in A.nonzero()])
    cleared = ([(i, j, k, _parts(v)) for (i, j, k, _), v in zip(A.nonzero(), values)],
               _parts(den))
    try:
        fracs = [(i, j, k, c.as_fraction()) for (i, j, k, c) in A.nonzero()]
    except ConstraintViolation:
        return cleared, ConstraintViolation
    den = math.lcm(*(c.denominator for (*_, c) in fracs))
    return cleared, ([(i, j, k, c.numerator * den // c.denominator)
                      for (i, j, k, c) in fracs], den)


def _parts(v):
    return (v.re, v.rad, v.q) if isinstance(v, scalars.Cleared) else v


def _kept_tensors(A):
    """A's kept cleared_tensor() and integer_tensor(), in _fresh_tensors'
    form, after trying to change each in place."""
    kept = []
    for read in (A.cleared_tensor, A.integer_tensor):
        try:
            N, den = read()
        except ConstraintViolation:
            kept.append(ConstraintViolation)
            continue
        assert type(N) is tuple and all(type(e) is tuple for e in N)
        changes = [lambda: N.append(None)]
        if N:
            changes += [lambda: N.__setitem__(0, None),
                        lambda: N[0].__setitem__(3, 0)]
        for change in changes:
            with pytest.raises((TypeError, AttributeError)):
                change()
        N2, den2 = read()
        assert N2 is N and den2 is den
        kept.append(([(i, j, k, _parts(v)) for (i, j, k, v) in N], _parts(den)))
    return tuple(kept)


def _thm3_doubles(monkeypatch):
    """The doubles that report thm3 fingerprints, in the order it builds
    them."""
    doubles = []
    real = classify.make_instances

    def recorded(specs):
        out = real(specs)
        doubles.extend(inst.double for inst in out)
        return out

    monkeypatch.setattr(classify, "make_instances", recorded)
    assert classify.report("thm3").passed
    return doubles


def test_each_algebra_keeps_its_cleared_tensors(monkeypatch):
    """cleared_tensor() and integer_tensor() are computed once per algebra
    and kept as tuples: on every catalog algebra and every double that
    report thm3 fingerprints, what they return equals a fresh computation,
    before and after a caller tries to change it in place."""
    doubles = _thm3_doubles(monkeypatch)
    algebras = [catalog(name) for name in sorted(get_catalog().algebras)]
    assert len(doubles) > 100 and len(algebras) == 19
    numeric = 0
    for A in algebras + doubles:
        fresh = _fresh_tensors(A)
        assert _kept_tensors(A) == fresh == _kept_tensors(A), A.name
        numeric += fresh[1] is not ConstraintViolation
    assert numeric > len(doubles)


def _row_index_views(A):
    """(rows, F, describe): the row index {(i, j): {k: F_ij^k}} built from
    nonzero() as SuperAlgebra once kept it, and the dense view and the
    description read off that index."""
    rows = {}
    for (i, j, k, c) in A.nonzero():
        rows.setdefault((i, j), {})[k] = c
    d, zero = A.dim, A.ctx.zero()
    F = tuple(tuple(tuple(rows.get((i, j), {}).get(k, zero) for k in range(d))
                    for j in range(d)) for i in range(d))
    items, seen = [], set()
    for (i, j), row in rows.items():
        if (j, i) in seen:
            continue
        seen.add((i, j))
        items.append("[%s,%s] = %s" % (A.names[i], A.names[j],
                                       render_combo(A.names, row)))
    return rows, F, "; ".join(items) if items else "(abelian)"


def test_rows_are_read_off_the_sorted_entries(monkeypatch):
    """bracket, brackets_dict, F and describe_brackets, read off the sorted
    nonzero entries, equal a row index built from them, in order, on every
    catalog algebra and every double report thm3 fingerprints; each call
    returns fresh dicts."""
    algebras = [catalog(name) for name in sorted(get_catalog().algebras)]
    doubles = _thm3_doubles(monkeypatch)
    assert len(doubles) > 100
    for A in algebras + doubles:
        rows, F, describe = _row_index_views(A)
        got = A.brackets_dict()
        assert [(key, list(row.items())) for key, row in got.items()] == \
            [(key, list(row.items())) for key, row in rows.items()], A.name
        for i in range(A.dim):
            for j in range(A.dim):
                row = A.bracket(i, j)
                assert list(row.items()) == list(rows.get((i, j), {}).items())
                row[0] = None
        got.clear()
        assert A.brackets_dict() == rows and A.F == F
        assert A.describe_brackets() == describe, A.name


def _rescaled(A):
    """A with every structure constant divided by x^2 + 1, x its first
    parameter; A itself when it has none.  A rescaling keeps the graded
    antisymmetry, Jacobi and ad-invariance of A, and gives every entry a
    polynomial denominator."""
    if not A.ctx.params:
        return A
    x = A.ctx.param(A.ctx.params[0])
    return SuperAlgebra(A.grading, A.ctx,
                        {key: c / (x * x + 1) for key, c in A.entries().items()},
                        parity=A.parity, names=A.names, name=A.name)


def test_symbolic_checks_accept_without_a_polynomial_gcd(monkeypatch):
    """The accept path of check_antisymmetry, check_jacobi and
    check_ad_invariance makes no polynomial gcd: every catalog algebra and
    the double of every catalog triple, as shipped and rescaled so that
    its entries have denominators, built first, pass with _p_gcd raising,
    both in polys and where scalars imports it."""
    cat = get_catalog()
    algebras = [catalog(name) for name in sorted(cat.algebras)]
    doubles = []
    for rid in sorted(cat.triples):
        t = catalog_triple(rid)
        doubles.append((build_double(t), canonical_form(*t.superdim())))
    algebras += [_rescaled(A) for A in algebras]
    doubles += [(_rescaled(D), B) for D, B in doubles]

    def no_gcd(f, g):
        raise AssertionError("polynomial gcd while checking")

    monkeypatch.setattr(polys, "_p_gcd", no_gcd)
    monkeypatch.setattr(scalars, "_p_gcd", no_gcd)
    for A in algebras:
        assert check_antisymmetry(A) == [] and check_jacobi(A) == [], A.name
    for D, B in doubles:
        assert check_antisymmetry(D) == [] and check_jacobi(D) == [], D.name
        assert check_ad_invariance(D, B) == [], D.name


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("nope")
    with pytest.raises(ConstraintViolation):
        catalog("C2_p", {"p": 1})  # domain is the open interval (-1, 1)
    with pytest.raises(ConstraintViolation):
        catalog("C5_p", {"p": -1})


def test_catalog_known_rows():
    s11 = catalog("S11")
    assert s11.describe_brackets() == "[b1,f1] = f1"
    c5 = catalog("C5_p", {"p": 2})
    assert c5.bracket(0, 1) == {1: c5.ctx.const(2), 2: c5.ctx.const(-1)}
    n = catalog("N12_abg", {"alpha": 1, "beta": 0, "gamma": -1})
    assert n.bracket(1, 1) == {0: n.ctx.one()}
    assert n.bracket(2, 2) == {0: n.ctx.const(-1)}


def test_automorphism_families_symbolic():
    cat = get_catalog()
    for name, entry in sorted(cat.algebras.items()):
        if not entry.decl.autos:
            continue
        fam = entry.automorphisms()
        for branch in fam:
            lifted = _in_context(entry.algebra, branch.ctx, {})
            assert is_automorphism(branch.matrix, lifted), name


@functools.lru_cache(maxsize=None)
def _branches():
    """(algebra name, branch index) of every printed automorphism branch."""
    return [(name, index)
            for name, entry in sorted(get_catalog().algebras.items())
            if entry.decl.autos
            for index in range(len(entry.automorphisms().branches))]


def _scalar_transport_residuals(A, algebra):
    """((a, b, r), A_a^p A_b^q F_pq^r - F_ab^k A_k^r) for each nonzero one,
    in key order, summed in Scalar arithmetic term by term."""
    zero, d = algebra.ctx.zero(), algebra.dim
    out = {}
    for (p, q, r, c) in algebra.nonzero():
        for a in range(d):
            for b in range(d):
                if A[a][p] and A[b][q]:
                    out[a, b, r] = out.get((a, b, r), zero) + A[a][p] * A[b][q] * c
    for (a, b, k, c) in algebra.nonzero():
        for r in range(d):
            if A[k][r]:
                out[a, b, r] = out.get((a, b, r), zero) - c * A[k][r]
    return [(key, out[key]) for key in sorted(out) if out[key]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_automorphism_decider_agrees_with_scalar_residuals(data):
    """On a printed automorphism branch, symbolic or instantiated at sampled
    parameters, with one even entry moved by a perturbation,
    automorphism_residuals fails at exactly the residuals, and refuses with
    exactly the exception, of the Scalar reference."""
    name, index = data.draw(st.sampled_from(_branches()))
    entry = get_catalog().algebras[name]
    branch = entry.automorphisms().branches[index]
    if data.draw(st.booleans()):
        ctx, matrix = branch.ctx, branch.matrix
        algebra = _in_context(entry.algebra, ctx, {})
    else:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        try:
            bindings = {n: branch.ctx.domains[n].sample(rng)
                        for n in branch.ctx.params}
            ctx, matrix = branch.instantiate(bindings)
        except ConstraintViolation:
            assume(False)
        algebra = _in_context(entry.algebra, ctx, {n: bindings[n]
                                                     for n in entry.ctx.params})
    par = algebra.parity
    a, b = data.draw(st.sampled_from([(a, b) for a in range(algebra.dim)
                                      for b in range(algebra.dim)
                                      if par[a] == par[b]]))
    matrix = [list(row) for row in matrix]
    matrix[a][b] = matrix[a][b] + data.draw(perturbations(ctx))
    expected = scalar_verdict(lambda: scalar_branch_failures(
        _scalar_transport_residuals(matrix, algebra)))
    assert scalar_verdict(
        lambda: automorphism_residuals(matrix, algebra)) == expected


def test_automorphism_sampled_instantiations():
    rng = random.Random(11)
    cat = get_catalog()
    for name in ("S21", "A21", "N12_eps", "C5_0", "F", "C3"):
        entry = cat.algebras[name]
        fam = entry.automorphisms()
        count = 0
        for branch in fam:
            for _ in range(20):
                bindings = {}
                for pname in branch.ctx.params:
                    bindings[pname] = branch.ctx.domains[pname].sample(rng)
                try:
                    ctx, mat = branch.instantiate(bindings)
                except ConstraintViolation:
                    continue
                alg = _in_context(entry.algebra, ctx, {n_: bindings[n_]
                                                         for n_ in entry.ctx.params})
                assert is_automorphism(mat, alg), name
                count += 1
        assert count >= 20, name


def test_automorphism_table_shapes():
    s21 = automorphisms("S21").branches[0]
    names = s21.ctx.params
    assert set(names) == {"b", "c", "d"}
    a21 = automorphisms("A21").branches[0]
    assert set(a21.ctx.params) == {"a", "b", "c", "d", "k"}
    f_branch = automorphisms("F").branches[0]
    ctx, mat = f_branch.instantiate({"b": 0, "d": 1})
    assert all((mat[i][j] - (1 if i == j else 0)).is_zero()
               for i in range(3) for j in range(3))
    assert len(automorphisms("C2_m1").branches) == 2
    assert len(automorphisms("N12_eps").branches) == 2
    assert len(automorphisms("C5_0").branches) == 2


def test_nonautomorphism_detected():
    entry = get_catalog().algebras["S21"]
    ctx = entry.ctx
    one, zero = ctx.one(), ctx.zero()
    singular = [[one, zero, zero], [zero, zero, zero], [zero, zero, one]]
    assert not is_automorphism(singular, entry.algebra)
    assert not is_automorphism([[zero] * 3 for _ in range(3)], entry.algebra)
    swapped = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    assert not is_automorphism(swapped, entry.algebra)


def test_commutant_series_examples():
    t = catalog_triple("MT42_1")
    assert commutant_series(build_double(t)).totals() == (0, 0, 0)
    t = catalog_triple("MT42_3")
    fp = commutant_series(build_double(t))
    assert fp.totals() == (3, 1, 0)
    assert fp.dims[0] == (1, 2)
    t = catalog_triple("MT42_14", {"kappa": 1})
    assert commutant_series(build_double(t)).totals() == (5, 5, 5)


def test_commutant_requires_numeric():
    t = catalog_triple("MT42_6")
    with pytest.raises(ConstraintViolation):
        commutant_series(build_double(t))
    assert commutant_series(build_double(t), {"p": 2}).totals() == (5, 1, 0)


def test_commutant_invariant_under_basis_change():
    rng = random.Random(5)
    t = catalog_triple("MT42_7", {"p": 2, "eps": 1})
    D = build_double(t)
    fp = commutant_series(D)
    fam = get_catalog().algebras["C1_p"].automorphisms()
    for _ in range(5):
        # the family matrix does not involve p, so its entries are numeric;
        # b is free and c, d nonzero, so no sampled binding is refused
        branch = fam.branches[0]
        ctx, A = branch.instantiate({n: branch.ctx.domains[n].sample(rng)
                                     for n in branch.family_params})
        lifted = [[D.ctx.const(x.as_fraction()) for x in row] for row in A]
        h = 3
        one, zero = D.ctx.one(), D.ctx.zero()
        from supertriples.matrices import inv as s_inv, transpose as s_transpose
        Ainv_t = s_transpose(s_inv(lifted))
        C = [[zero] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                C[i][j] = lifted[i][j]
                C[h + i][h + j] = Ainv_t[i][j]
        moved = D.transport(C)
        assert commutant_series(moved) == fp


def test_readme_library_sketch(capsys):
    """The README's "Library sketch" runs as written, and its commutant
    series prints what the comment beside it says."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        readme = fh.read()
    sketch = readme.split("## Library sketch", 1)[1]
    block = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    call = 'print(commutant_series(D, {"eps": 1}))'
    line, = [ln for ln in block.splitlines() if ln.startswith(call)]
    assert line.split("#", 1)[1].strip() == "(3,2) (2,1) (0,0)"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(3,2) (2,1) (0,0)"


def test_fingerprint_monotone_invariant():
    from supertriples.algebra import CommutantFingerprint
    with pytest.raises(ConstraintViolation):
        CommutantFingerprint([(1, 0), (2, 0), (0, 0)])


# ---------------------------------------------------------------------------
# the integer echelon of the commutant spans, and the Fraction loop it replaced


@st.composite
def _integer_vectors(draw):
    """Small integer vectors of one length: fresh ones (negative and zero
    entries included), zero vectors, repeats and integer combinations of
    earlier vectors."""
    d = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            v = [0] * d
        elif kind == "repeat" and vectors:
            v = list(draw(st.sampled_from(vectors)))
        elif kind == "combination" and vectors:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                                   max_size=len(vectors)))
            v = [sum(c * w[i] for c, w in zip(coeffs, vectors))
                 for i in range(d)]
        else:
            v = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        vectors.append(v)
    return vectors


def _reduced(basis, v):
    """The nonzero entries left of v after Fraction elimination by each row
    of basis at its lowest column, those columns taken in increasing order."""
    v = {c: Fraction(x) for c, x in enumerate(v) if x}
    for row in sorted(basis.values(), key=min):
        p = min(row)
        f = v.get(p, 0) / row[p]
        if f:
            for c, w in row.items():
                v[c] = v.get(c, 0) - f * w
    return {c: x for c, x in v.items() if x}


@settings(max_examples=300, deadline=None)
@given(_integer_vectors())
def test_echelon_basis_spans_the_vectors(vectors):
    """The echelon basis has the rank of the vectors over Q, every vector
    reduces to zero against it, and its rows are primitive with distinct
    pivots (lowest columns), each row kept under its pivot, the pivot
    echelon_add returns."""
    basis = {}
    for v in vectors:
        before = dict(basis)
        p = echelon_add(basis, {c: x for c, x in enumerate(v) if x})
        assert (p is None) == (basis == before)
        assert p is None or (p not in before and set(basis) == {*before, p})
    _, pivots = rref([[Fraction(x) for x in v] for v in vectors])
    assert len(basis) == len(pivots)
    for v in vectors:
        assert _reduced(basis, v) == {}
    lowest = [min(row) for row in basis.values()]
    assert len(set(lowest)) == len(lowest)
    for p, row in basis.items():
        assert p == min(row)
        assert all(row.values()) and math.gcd(*row.values()) == 1


def _reference_commutant_series(A):
    """``commutant_series`` of a numeric algebra as Fraction Gauss-Jordan
    elimination of each level's dense bracket vectors: the loop the integer
    echelon replaced."""
    d = A.dim
    nz = [(i, j, k, c.as_fraction()) for (i, j, k, c) in A.nonzero()]
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    par = A.parity
    dims = []
    for _ in range(3):
        vectors = {}
        for (a, b, r), x in _pull(nz, _columns(rows)).items():
            if x:
                vectors.setdefault((a, b), [Fraction(0)] * d)[r] = x
        bases = []
        for parity in (0, 1):
            span, pivots = rref([v for (a, b), v in vectors.items()
                                 if (par[a] + par[b]) % 2 == parity])
            bases.append(span[:len(pivots)])
        even, odd = bases
        dims.append((len(even), len(odd)))
        rows = even + odd
        par = (0,) * len(even) + (1,) * len(odd)
    return CommutantFingerprint(dims)


def _report_instances(monkeypatch):
    """(row id, bindings) of every instance table5, thm1, thm2 and thm3
    fingerprint, at their default bindings."""
    seen = {}
    real = classify.make_instances

    def recorded(specs):
        out = real(specs)
        for inst in out:
            seen[inst.ident] = (inst.row_id, inst.bindings)
        return out

    monkeypatch.setattr(classify, "make_instances", recorded)
    for target in ("table5", "thm1", "thm2", "thm3"):
        assert classify.report(target).passed
    return sorted(seen.values(), key=repr)


def test_commutant_series_equals_reference_on_report_instances(monkeypatch):
    """Every catalog triple's double and its T-dual's, at the bindings the
    fingerprinting reports use."""
    instances = _report_instances(monkeypatch)
    cat = get_catalog()
    assert {rid for rid, _ in instances}.issuperset(
        cat.table_rows("22") + cat.table_rows("42") + cat.table_rows("24"))
    for rid, bindings in instances:
        t = catalog_triple(rid, bindings)
        for D in (build_double(t), build_double(t_dual(t))):
            assert commutant_series(D) == _reference_commutant_series(D), rid


def test_commutant_series_equals_reference_across_certificates():
    """Both ends of every appendix certificate, at random bindings where it
    verifies."""
    rng = random.Random(22)
    cat = get_catalog()
    checked = 0
    for cid in sorted(cat.certs):
        ctx = cat.certs[cid].ctx
        for _ in range(2):
            bindings = {p: ctx.domains[p].sample(rng) for p in ctx.params}
            try:
                cert = appendix_certificate(cid, bindings)
            except (ConstraintViolation, DivisionByZero):
                continue
            assert cert.verify(), (cid, bindings)
            fp = _reference_commutant_series(cert.source)
            assert commutant_series(cert.source) == fp, cid
            assert commutant_series(cert.target) == fp, cid
            checked += 1
    assert checked >= 2 * len(cat.certs) - 4


def test_commutant_series_counts_the_odd_diagonal():
    """[b1, b2] = b2, [b1, f] = f/2, [f, f] = b2: C2 = [C1, C1] is spanned by
    [f, f] alone, so the diagonal pair (f, f) must be bracketed."""
    one, half = EMPTY.one(), EMPTY.const(Fraction(1, 2))
    A = SuperAlgebra.from_brackets(
        Grading(2, 1), EMPTY, {(0, 1): {1: one}, (0, 2): {2: half},
                               (2, 2): {1: one}})
    assert check_antisymmetry(A) == [] and check_jacobi(A) == []
    fp = commutant_series(A)
    assert fp.dims == ((1, 1), (1, 0), (0, 0))
    assert fp == _reference_commutant_series(A)
