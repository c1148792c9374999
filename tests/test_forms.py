import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supertriples.catalog import catalog_triple, get_catalog
from supertriples.errors import ConstraintViolation, DimensionMismatch
from supertriples.algebra import Grading, SuperAlgebra
from supertriples.forms import (_pairing, canonical_form, check_ad_invariance,
                                check_graded_symmetry, check_isotropic)
from supertriples.triples import ManinTriple, build_double
from test_scalars import perturbations, scalar_branch_failures, scalar_verdict


def test_canonical_form_11():
    B = canonical_form(1, 1)
    assert B.dim == 4
    assert B[0, 2] == 1 and B[2, 0] == 1       # <b, b~> symmetric
    assert B[1, 3] == 1 and B[3, 1] == -1      # <f, f~> antisymmetric
    assert check_graded_symmetry(B) == []


def test_canonical_form_21():
    B = canonical_form(2, 1)
    assert B.dim == 6
    assert B[0, 3] == 1 and B[1, 4] == 1
    assert B[2, 5] == 1 and B[5, 2] == -1
    assert check_graded_symmetry(B) == []


def test_canonical_form_purely_even():
    B = canonical_form(1, 0)
    assert B.matrix == [[0, 1], [1, 0]]


def test_bad_superdimension():
    """canonical_form refuses what Grading refuses, with its message."""
    for m, n in ((0, 0), (-1, 2), (2, -1)):
        for make in (canonical_form, Grading):
            with pytest.raises(ConstraintViolation,
                               match=r"bad superdimension \(%d, %d\)" % (m, n)):
                make(m, n)


def _block_form(m, n):
    """The dense B = [[0, 0, 1_m, 0], [0, 0, 0, 1_n], [1_m, 0, 0, 0],
    [0, -1_n, 0, 0]], block by block."""
    h = m + n
    mat = [[0] * (2 * h) for _ in range(2 * h)]
    for i in range(m):
        mat[i][h + i] = mat[h + i][i] = 1
    for a in range(n):
        mat[m + a][h + m + a] = 1
        mat[h + m + a][m + a] = -1
    return mat


@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(4)
                                  if (m, n) != (0, 0)])
def test_canonical_form_is_its_pairing(m, n):
    """Each row i of canonical_form(m, n) has its one nonzero entry, a
    Fraction s(i), in column p(i) of ``_pairing``; the matrix is the block
    form and the parities are Grading's, twice."""
    B, pairing = canonical_form(m, n), _pairing(m, n)
    assert len(pairing) == B.dim == 2 * (m + n)
    for row, (p, s) in zip(B.matrix, pairing):
        assert [(q, x) for q, x in enumerate(row) if x] == [(p, s)]
        assert type(row[p]) is Fraction
    assert B.matrix == _block_form(m, n)
    assert B.parity == Grading(m, n).parities() * 2
    assert check_graded_symmetry(B) == []


def test_b_squared_identity():
    """B^2 = +1 on even and -1 on odd diagonal."""
    for m, n in ((1, 1), (2, 1), (1, 2)):
        B = canonical_form(m, n)
        d = B.dim
        sq = [[sum(B.matrix[i][k] * B.matrix[k][j] for k in range(d))
               for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                want = 0 if i != j else (1 if B.parity[i] == 0 else -1)
                assert sq[i][j] == want


def test_ad_invariance_abelian():
    t = catalog_triple("MT22_1")
    assert check_ad_invariance(build_double(t), canonical_form(1, 1)) == []


def test_ad_invariance_s11_a11():
    t = catalog_triple("MT22_3")
    assert check_ad_invariance(build_double(t), canonical_form(1, 1)) == []


def test_ad_invariance_detects_corruption():
    """Doubling the [f1, f~1] bracket of the (S11|A11) double breaks it."""
    t = catalog_triple("MT22_3")
    D = build_double(t)
    F = D.entries()
    two = D.ctx.const(2)
    F[(1, 3, 2)] = two   # [f1, ft1] = 2*bt1
    F[(3, 1, 2)] = two   # symmetric odd-odd partner
    corrupt = SuperAlgebra(D.grading, D.ctx, F, parity=D.parity, names=D.names)
    assert check_ad_invariance(corrupt, canonical_form(1, 1))


def test_ad_invariance_dimension_mismatch():
    t = catalog_triple("MT22_1")
    with pytest.raises(DimensionMismatch):
        check_ad_invariance(build_double(t), canonical_form(2, 1))


def test_isotropy():
    B = canonical_form(1, 1)
    assert check_isotropic(B, [0, 1])      # span {b, f}
    assert check_isotropic(B, [2, 3])      # span {b~, f~}
    assert not check_isotropic(B, [0, 2])  # <b, b~> = 1
    assert not check_isotropic(B, [0])     # not maximal


def test_compatibility_implies_ad_invariance_cross_module():
    for rid in ("MT22_4", "MT42_8", "MT42_13", "MT24_8", "MT24_26"):
        t = catalog_triple(rid)
        m, n = t.superdim()
        assert check_ad_invariance(build_double(t), canonical_form(m, n)) == [], rid


@functools.lru_cache(maxsize=None)
def _symbolic_doubles():
    """(double, canonical form) of every catalog triple over parameters."""
    out = []
    for rid in sorted(get_catalog().triples):
        t = catalog_triple(rid)
        if t.ctx.params:
            out.append((build_double(t), canonical_form(*t.superdim())))
    return out


def _scalar_ad_residuals(A, B):
    """((x, y, z), <[x,y],z> + (-1)^{|x||y|} <y,[x,z]>) for each nonzero
    one, in key order, summed in Scalar arithmetic term by term."""
    par, zero = A.parity, A.ctx.zero()
    out = {}
    for (x, y, k, c) in A.nonzero():
        for z in range(A.dim):
            if B[k, z]:
                out[x, y, z] = out.get((x, y, z), zero) + c * B[k, z]
    for (x, z, k, c) in A.nonzero():
        for y in range(A.dim):
            if B[y, k]:
                sign = -1 if par[x] * par[y] else 1
                out[x, y, z] = out.get((x, y, z), zero) + sign * c * B[y, k]
    return [(key, out[key]) for key in sorted(out) if out[key]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ad_invariance_decider_agrees_with_scalar_residuals(data):
    """On a symbolic catalog double with one or two entries moved by a
    perturbation, check_ad_invariance fails at exactly the residuals, and
    refuses with exactly the exception, of the Scalar reference."""
    D, B = data.draw(st.sampled_from(_symbolic_doubles()))
    ctx, par, d = D.ctx, D.parity, D.dim
    keys = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)
            if (par[i] + par[j]) % 2 == par[k]]
    entries = D.entries()
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(keys))
        entries[key] = entries.get(key, ctx.zero()) + data.draw(perturbations(ctx))
    P = SuperAlgebra(D.grading, ctx, entries, parity=par, names=D.names)
    expected = scalar_verdict(
        lambda: scalar_branch_failures(_scalar_ad_residuals(P, B)))
    assert scalar_verdict(lambda: check_ad_invariance(P, B)) == expected
