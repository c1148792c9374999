import random
from fractions import Fraction

import pytest

from supertriples.algebra import (Grading, SuperAlgebra, check_antisymmetry,
                                  check_jacobi, commutant_series,
                                  is_automorphism)
from supertriples.catalog import automorphisms, catalog, catalog_triple, get_catalog
from supertriples.errors import ConstraintViolation, UnknownName
from supertriples.scalars import Domain, ParamContext
from supertriples.triples import build_double


EMPTY = ParamContext()


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
    res = mutant.jacobi_residuals()
    assert len(res) == 1
    (triple_idx, k, val), = res
    assert triple_idx == (0, 2, 2) and k == 1 and val == -1
    assert check_jacobi(catalog("F")) == []


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
        assert A.grading_violations() == [], name


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
            lifted = entry.lift_algebra(branch.ctx, {})
            assert is_automorphism(branch.matrix, lifted), name


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
                alg = entry.lift_algebra(ctx, {n_: bindings[n_]
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
        # the family matrix does not involve p, so its entries are numeric
        ctx, A = fam.branches[0].sample(rng)
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


def test_fingerprint_monotone_invariant():
    from supertriples.algebra import CommutantFingerprint
    with pytest.raises(ConstraintViolation):
        CommutantFingerprint([(1, 0), (2, 0), (0, 0)])
