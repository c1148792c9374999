import itertools
from fractions import Fraction

import pytest

from supertriples.algebra import Grading, SuperAlgebra, check_jacobi
from supertriples.catalog import catalog
from supertriples.classify import DualAnsatz, enumerate_duals, match_22
from supertriples.errors import BudgetExceeded, ConstraintViolation
from supertriples.iso import verify_certificate
from supertriples.triples import ManinTriple, check_compatibility


def test_ansatz_slot_count():
    assert DualAnsatz(Grading(1, 1)).unknown_count == 2
    assert DualAnsatz(Grading(2, 1)).unknown_count == 6
    assert DualAnsatz(Grading(1, 2)).unknown_count == 7


def test_enumerate_requires_numeric_seed():
    with pytest.raises(ConstraintViolation):
        enumerate_duals(catalog("C1_p"))


def test_enumerate_soundness():
    for name in ("A11", "N11", "S11"):
        seed = catalog(name)
        for dual in enumerate_duals(seed):
            assert check_compatibility(ManinTriple(seed, dual)) == []
            assert check_jacobi(dual) == []


def test_abelian_seed_gets_every_self_consistent_dual():
    """For an abelian seed the mixed conditions degenerate: exactly the grid
    tensors passing their own Jacobi identity survive."""
    seed = catalog("A11")
    got = {d.tensor_key() for d in enumerate_duals(seed)}
    ansatz = DualAnsatz(seed.grading)
    grid = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2))
    want = set()
    for t1, t2 in itertools.product(grid, repeat=2):
        dual = ansatz.dual_algebra(seed.ctx, [seed.ctx.const(t1),
                                              seed.ctx.const(t2)])
        if check_jacobi(dual) == []:
            want.add(dual.tensor_key())
    assert got == want
    assert len(got) == 13  # the grid lines t1 = 0 and t2 = 0


def test_s11_duals_include_deformed_n_types():
    seed = catalog("S11")
    duals = enumerate_duals(seed)
    coeffs = {d.F[1][1][0].as_fraction() for d in duals}
    assert Fraction(1) in coeffs and Fraction(-1) in coeffs
    # [bt, ft] brackets are killed by the mixed conditions
    assert all(d.F[0][1][1].is_zero() for d in duals)


def test_budget_exceeded():
    """A12 leaves seven free directions: 7^7 grid points exceed ENUM_BUDGET."""
    seed = catalog("A12")
    with pytest.raises(BudgetExceeded):
        enumerate_duals(seed)


def test_12_seed_duals_have_n_shape():
    """Nonabelian (1,2) seeds only admit N(alpha,beta,gamma)-shaped duals."""
    for name, bind in (("C2_1", None), ("C3", None), ("C4", None),
                       ("C2_p", {"p": Fraction(1, 2)})):
        seed = catalog(name, bind)
        duals = enumerate_duals(seed)
        assert duals
        m = 1
        for d in duals:
            for (i, j, k, c) in d.nonzero():
                assert i >= m and j >= m and k < m, (name, i, j, k)



F = Fraction


@pytest.mark.parametrize("seed_name, s, t, label, radical", [
    ("A11", F(0), F(0), "MT22_1", False),
    ("A11", F(2), F(0), "Tdual(MT22_3)", False),
    ("A11", F(-1, 2), F(0), "Tdual(MT22_3)", False),
    ("A11", F(0), F(3), "Tdual(MT22_2)", False),
    ("A11", F(0), F(-1), "Tdual(MT22_2)", False),
    ("A11", F(1), F(1), None, False),
    ("A11", F(-2), F(1, 2), None, False),
    ("S11", F(0), F(0), "MT22_3", False),
    ("S11", F(0), F(1, 4), "MT22_4[eps=1]", False),
    ("S11", F(0), F(2), "MT22_4[eps=1]", True),
    ("S11", F(0), F(-1), "MT22_5", False),
    ("S11", F(0), F(-3), "MT22_5", True),
    ("S11", F(1), F(0), None, False),
    ("S11", F(-1), F(2), None, False),
    ("N11", F(0), F(0), "MT22_2", False),
    ("N11", F(4), F(0), "Tdual(MT22_4[eps=1])", False),
    ("N11", F(3), F(0), "Tdual(MT22_4[eps=1])", True),
    ("N11", F(-1, 9), F(0), "Tdual(MT22_5)", False),
    ("N11", F(-2), F(0), "Tdual(MT22_5)", True),
    ("N11", F(0), F(1), None, False),
    ("N11", F(2), F(-1), None, False),
])
def test_match_22_sign_table(seed_name, s, t, label, radical):
    """Every branch of the (1,1) match on the dual [bt,ft] = s ft,
    [ft,ft] = t bt: the label, or None, and a certificate that verifies,
    over Q(sqrt(|s| or |t|)) when that is not a rational square."""
    seed = catalog(seed_name)
    ansatz = DualAnsatz(seed.grading)
    assert ansatz.slots == ((0, 1, 1), (1, 1, 0))
    dual = ansatz.dual_algebra(seed.ctx, [seed.ctx.const(s), seed.ctx.const(t)])
    matched = match_22(seed_name, dual)
    if label is None:
        assert matched is None
        return
    got, cert = matched
    assert got == label
    assert (cert.ctx.radical_name is not None) == radical
    assert verify_certificate(cert) == (True, [])
