from fractions import Fraction

import pytest

from supertriples.catalog import catalog_triple
from supertriples.errors import ConstraintViolation, DimensionMismatch
from supertriples.algebra import SuperAlgebra
from supertriples.forms import (canonical_form, check_ad_invariance,
                                check_graded_symmetry, check_isotropic)
from supertriples.triples import ManinTriple, build_double


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
    with pytest.raises(ConstraintViolation):
        canonical_form(0, 0)


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
