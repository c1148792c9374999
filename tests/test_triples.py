from fractions import Fraction

import pytest

from supertriples.algebra import Grading, SuperAlgebra
from supertriples.catalog import catalog_triple, get_catalog, table_rows
from supertriples.errors import ConstraintViolation, DimensionMismatch, UnknownId
from supertriples.scalars import ParamContext
from supertriples.triples import (ManinTriple, build_double,
                                  check_compatibility, t_dual)

EMPTY = ParamContext()


def _brackets(double):
    out = {}
    for (i, j, k, c) in double.nonzero():
        if i <= j:
            out.setdefault((double.names[i], double.names[j]), {})[double.names[k]] = c
    return out


def test_build_double_n11_a11():
    D = build_double(catalog_triple("MT22_2"))
    br = _brackets(D)
    assert set(br) == {("f1", "f1"), ("f1", "bt1")}
    assert br[("f1", "f1")] == {"b1": D.ctx.one()}
    assert br[("f1", "bt1")] == {"ft1": D.ctx.one()}


def test_build_double_s11_a11():
    D = build_double(catalog_triple("MT22_3"))
    br = _brackets(D)
    assert br[("b1", "f1")] == {"f1": D.ctx.one()}
    assert br[("b1", "ft1")] == {"ft1": D.ctx.const(-1)}
    assert br[("f1", "ft1")] == {"bt1": D.ctx.one()}


def test_build_double_abelian_zero():
    D = build_double(catalog_triple("MT22_1"))
    assert D.nonzero() == []


def test_double_superdim_and_restriction():
    cat = get_catalog()
    for table in ("22", "42", "24"):
        for rid in table_rows(table):
            t = catalog_triple(rid)
            D = build_double(t)
            m, n = t.superdim()
            assert D.superdim() == (2 * m, 2 * n)
            h = m + n
            for i in range(h):
                for j in range(h):
                    for k in range(h):
                        assert (D.F[i][j][k] - t.S.F[i][j][k]).is_zero()
                        assert (D.F[h + i][h + j][h + k]
                                - t.S_dual.F[i][j][k]).is_zero()
                        assert D.F[i][j][h + k].is_zero()
                        assert D.F[h + i][h + j][k].is_zero()


def test_compatibility_sign_branches():
    assert check_compatibility(catalog_triple("MT22_4")) == []


def test_compatibility_symbolic_p():
    assert check_compatibility(catalog_triple("MT42_8")) == []


def test_compatibility_rejects_nn():
    g = Grading(1, 1)
    one = EMPTY.one()
    N = SuperAlgebra.from_brackets(g, EMPTY, {(1, 1): {0: one}})
    Nd = SuperAlgebra.from_brackets(g, EMPTY, {(1, 1): {0: one}}, dual_role=True)
    assert check_compatibility(ManinTriple(N, Nd))


def test_triple_requires_matching_superdims():
    a = SuperAlgebra.from_brackets(Grading(1, 1), EMPTY, {})
    b = SuperAlgebra.from_brackets(Grading(2, 1), EMPTY, {}, dual_role=True)
    with pytest.raises(DimensionMismatch):
        ManinTriple(a, b)


def test_t_dual_examples():
    t = catalog_triple("MT22_3")
    td = t_dual(t)
    assert td.S.nonzero() == []
    assert td.S_dual.bracket(0, 1) == {1: td.ctx.one()}
    tdd = t_dual(td)
    assert tdd.S.tensor_equal(t.S) and tdd.S_dual.tensor_equal(t.S_dual)
    ta = catalog_triple("MT22_1")
    tda = t_dual(ta)
    assert tda.S.tensor_equal(ta.S) and tda.S_dual.tensor_equal(ta.S_dual)


def test_t_dual_compatibility_preserved():
    for rid in ("MT22_4", "MT42_13", "MT24_19"):
        assert check_compatibility(t_dual(catalog_triple(rid))) == []


def test_catalog_triple_errors():
    with pytest.raises(UnknownId):
        catalog_triple("MT42_99")
    with pytest.raises(ConstraintViolation):
        catalog_triple("MT42_10", {"kappa": 0})
    with pytest.raises(ConstraintViolation):
        catalog_triple("MT24_4", {"p": 1})
    with pytest.raises(ConstraintViolation):
        catalog_triple("MT24_8", {"p": Fraction(1, 2), "kappa": -1})


def test_catalog_row_examples():
    t = catalog_triple("MT42_13", {"eps": 1})
    assert t.S_dual.bracket(0, 1) == {0: t.ctx.one()}            # [bt1,bt2]=bt1
    assert t.S_dual.bracket(1, 2) == {2: t.ctx.const(Fraction(-1, 2))}
    assert t.S_dual.bracket(2, 2) == {0: t.ctx.one()}
    t = catalog_triple("MT24_1")
    assert t.S.nonzero() == [] and t.S_dual.nonzero() == []
    t = catalog_triple("MT22_4", {"eps": 1})
    assert t.S_dual.bracket(1, 1) == {0: t.ctx.one()}


def test_t_duality_preserves_compatibility_both_ways():
    """Random (1,1) pairs: the pair and its dual agree on compatibility."""
    import random
    from supertriples.classify import DualAnsatz
    rng = random.Random(9)
    ansatz = DualAnsatz(Grading(1, 1))
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    for _ in range(40):
        vals_s = [EMPTY.const(rng.choice(grid)) for _ in range(2)]
        vals_d = [EMPTY.const(rng.choice(grid)) for _ in range(2)]
        S = ansatz.dual_algebra(EMPTY, vals_s)
        S = SuperAlgebra(S.grading, EMPTY, S.entries())  # primal role
        Sd = ansatz.dual_algebra(EMPTY, vals_d)
        if check_compatibility(ManinTriple(S, Sd)) is None:
            continue
        t = ManinTriple(S, Sd)
        ok = check_compatibility(t) == []
        ok_dual = check_compatibility(t_dual(t)) == []
        assert ok == ok_dual
