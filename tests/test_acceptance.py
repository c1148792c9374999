"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9d relates ad-invariance of a built double to compatibility.  The
mixed brackets of build_double are the coadjoint actions, so every residual
of check_ad_invariance cancels term by term through the graded antisymmetry
of F and F~: the canonical pairing is ad-invariant on the double of any
graded-antisymmetric pair, compatible or not ((N11|N11) is incompatible).
Compatibility is the graded Jacobi identity of that double, so a pair is a
Manin supertriple exactly when its double is a Lie superalgebra on which the
pairing is ad-invariant; that is what 9d asserts.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from supertriples.algebra import SuperAlgebra, check_antisymmetry, check_jacobi, commutant_series
from supertriples.catalog import (appendix_certificate, automorphisms, catalog,
                                  catalog_triple, get_catalog, list_certificates,
                                  table_rows)
from supertriples.classify import (enumerate_duals, match_22, reduce_orbits,
                                   report)
from supertriples.forms import canonical_form, check_ad_invariance
from supertriples.iso import t_dual_certificate, verify_certificate
from supertriples.triples import ManinTriple, build_double, check_compatibility

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TABLE_ALGEBRAS = (
    "A11", "N11", "S11",                                   # Table of (1,1)
    "A21", "N21", "S21", "C1_p", "F",                      # Table of (2,1)
    "A12", "N12_0", "N12_eps", "C2_m1", "C2_p", "C2_1",    # Table of (1,2)
    "C3", "C4", "C5_p", "C5_0",
)


def _line(criterion, ok, extra=""):
    print("criterion %-3s %s%s" % (criterion, "PASS" if ok else "FAIL",
                                   "  " + extra if extra else ""))


def _golden_check(name, rendered):
    path = os.path.join(GOLDEN_DIR, name + ".txt")
    if os.environ.get("REGEN_GOLDEN"):
        with open(path, "w") as fh:
            fh.write(rendered + "\n")
        return True
    with open(path) as fh:
        return fh.read() == rendered + "\n"


def test_criterion_1_axiom_suite():
    t0 = time.monotonic()
    assert len(TABLE_ALGEBRAS) == 3 + 5 + 10
    for name in TABLE_ALGEBRAS:
        A = catalog(name)
        assert check_antisymmetry(A) == [], name
        assert check_jacobi(A) == [], name
    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    _line("1", ok, "18 algebras, %.2fs" % elapsed)
    assert ok, "axiom suite exceeded 1 s (%.2fs)" % elapsed


def test_criterion_2_triple_suite():
    t0 = time.monotonic()
    count = 0
    for table in ("22", "42", "24"):
        for rid in table_rows(table):
            t = catalog_triple(rid)
            assert check_compatibility(t) == [], rid
            m, n = t.superdim()
            assert check_ad_invariance(build_double(t), canonical_form(m, n)) == [], rid
            count += 1
    assert count == 5 + 14 + 31
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _line("2", ok, "%d triples, %.2fs" % (count, elapsed))
    assert ok, "triple suite exceeded 10 s (%.2fs)" % elapsed


def test_criterion_3_certificate_suite():
    t0 = time.monotonic()
    cids = list_certificates()
    assert len(cids) == 10 + 15 + 1  # Appendix A + Appendix B + the (2,2) shear
    for cid in cids:
        cert = appendix_certificate(cid)
        ok, rep = verify_certificate(cert)
        assert ok, (cid, rep[:2])
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    _line("3", ok, "%d certificates, %.2fs" % (len(cids), elapsed))
    assert ok, "certificate suite exceeded 30 s (%.2fs)" % elapsed


def test_criterion_4_invariant_suite():
    rep = report("table5")
    golden = _golden_check("report_table5", rep.render("machine"))
    _line("4", rep.passed and golden)
    assert rep.passed
    assert golden, "table5 machine output deviates from the golden file"


def test_criterion_5_theorem_1():
    t0 = time.monotonic()
    rep = report("thm1")
    elapsed = time.monotonic() - t0
    golden = _golden_check("report_thm1", rep.render("machine"))
    ok = rep.passed and elapsed < 60.0 and golden
    _line("5", ok, "%.2fs" % elapsed)
    assert rep.passed and golden
    assert elapsed < 60.0


def test_criterion_6_theorems_2_and_3():
    rep2 = report("thm2")
    assert rep2.passed
    assert _golden_check("report_thm2", rep2.render("machine"))
    rep3 = report("thm3")
    assert rep3.passed
    assert _golden_check("report_thm3", rep3.render("machine"))
    text3 = rep3.render("machine")
    assert "kind=exhausted" in text3       # searched separations are recorded
    assert "budget=" in text3
    # second binding set: the grouping stays predicate-stable
    rep3b = report("thm3", {"p": Fraction(1, 3), "kappa": Fraction(0)})
    assert rep3b.passed
    _line("6", True, "thm2, thm3 at two binding sets")


def test_criterion_7_r_solver():
    # exact reproduction of the appendix blocks is asserted in
    # tests/test_solve_r.py; this records the criterion-level result
    # pytest puts tests/ on sys.path (prepend import mode, no __init__.py),
    # so the sibling module imports the same way under `pytest` and
    # `python -m pytest`
    import test_solve_r as m
    for fn in (m.test_block_II_p, m.test_block_II_1, m.test_block_II_0,
               m.test_block_III, m.test_block_IV, m.test_block_V_p,
               m.test_block_V_0, m.test_exceptional_witnesses):
        fn()
    _line("7", True, "7 blocks + 4 witnesses")


def test_criterion_8_enumeration():
    t0 = time.monotonic()
    expected = {
        "A11": {"MT22_1": 1, "Tdual(MT22_2)": 1, "Tdual(MT22_3)": 1},
        "N11": {"MT22_2": 1, "Tdual(MT22_4[eps=1])": 2, "Tdual(MT22_5)": 2},
        "S11": {"MT22_3": 1, "MT22_4[eps=1]": 2, "MT22_5": 2},
    }
    for seed_name, want in expected.items():
        seed = catalog(seed_name)
        orbits = reduce_orbits(enumerate_duals(seed), automorphisms(seed_name))
        got = {}
        for rep_, _members in orbits:
            matched = match_22(seed_name, rep_)
            assert matched is not None, ("orbit-distinct extra for %s: %s"
                                         % (seed_name, rep_.describe_brackets()))
            label, cert = matched
            assert cert.verify(), (seed_name, label)
            got[label] = got.get(label, 0) + 1
        assert got == want, (seed_name, got)
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    _line("8", ok, "%.2fs" % elapsed)
    assert ok


def test_criterion_9a_composition_inverse_closure():
    pairs = [("DD42_III_1", {"eps": 1}, "DD42_III_2", {}),
             ("DD42_VI_2", {"p": 2, "eps": -1}, "DD42_VI_3", {"p": 2}),
             ("DD24_IIp_1", {"p": Fraction(1, 2), "alpha": 1, "beta": 2,
                             "gamma": 3}, "DD24_IIp_2", {"p": Fraction(1, 2)})]
    for cid1, b1, cid2, b2 in pairs:
        c1 = appendix_certificate(cid1, b1)
        c2 = appendix_certificate(cid2, b2)
        assert c1.invert().verify() and c2.invert().verify()
        chain = c2.compose(c1.invert())   # target(c1) -> source -> target(c2)
        assert chain.verify(), (cid1, cid2)
    _line("9a", True)


def test_criterion_9b_fingerprint_invariance():
    samples = [("TFN11", {"eps": 1}), ("DD42_VII_2", {"eps": -1}),
               ("DD42_VI_1", {"p": 3}),
               ("DD24_IV_2", {"alpha": 2, "kappa": 1, "gamma": -3}),
               ("DD24_VII", {"alpha": 1, "beta": 1, "gamma": 2})]
    for cid, bind in samples:
        cert = appendix_certificate(cid, bind)
        assert cert.verify(), cid
        assert commutant_series(cert.source) == commutant_series(cert.target), cid
    _line("9b", True)


def test_criterion_9c_t_duality_certificates():
    for table in ("22", "42", "24"):
        for rid in table_rows(table):
            cert = t_dual_certificate(catalog_triple(rid))
            ok, _ = verify_certificate(cert)
            assert ok, rid
    _line("9c", True, "50 rows")


def _random_perturbed_pair(rng):
    """A catalog triple with a randomly perturbed (antisymmetric,
    grading-consistent) dual tensor."""
    rid = rng.choice(["MT22_1", "MT22_2", "MT22_3", "MT42_2", "MT42_3",
                      "MT24_9", "MT24_18", "MT24_23"])
    t = catalog_triple(rid)
    g = t.S_dual.grading
    par = t.S_dual.parity
    d = g.dim
    ctx = t.ctx
    brackets = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(d)
        j = rng.randrange(i, d)
        if i == j and par[i] == 0:
            continue
        ks = [k for k in range(d) if (par[i] + par[j]) % 2 == par[k]]
        if not ks:
            continue
        k = rng.choice(ks)
        coeff = ctx.const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        brackets.setdefault((i, j), {})[k] = coeff
    dual = SuperAlgebra.from_brackets(g, ctx, brackets, dual_role=True,
                                      names=t.S_dual.names)
    return ManinTriple(t.S, dual)


def test_criterion_9d_forward_direction():
    """Compatibility => ad-invariance, on 50 random perturbed tensors."""
    rng = random.Random(20)
    checked = 0
    for _ in range(50):
        t = _random_perturbed_pair(rng)
        if check_compatibility(t) == []:
            m, n = t.superdim()
            assert check_ad_invariance(build_double(t), canonical_form(m, n)) == []
            checked += 1
    assert checked >= 5
    _line("9d-forward", True, "%d compatible samples" % checked)


def _n11_n11():
    """(N11|N11): [f1, f1] = b1 on both halves."""
    t = catalog_triple("MT22_2")    # (N11|A11)
    dual = SuperAlgebra.from_brackets(t.S_dual.grading, t.ctx,
                                      {(1, 1): {0: t.ctx.one()}},
                                      dual_role=True, names=t.S_dual.names)
    return ManinTriple(t.S, dual)


def test_criterion_9d_biconditional_as_stated():
    """Criterion 9, final bullet: how build_double ad-invariance and
    compatibility relate, on 50 random perturbed tensors.

    The stated biconditional is false: ad-invariance of a built double
    follows from graded antisymmetry alone (see the module docstring), so
    the converse fails.  Asserted instead:
      (a) the canonical pairing is ad-invariant on every sample's double;
      (b) compatible <=> the double satisfies graded Jacobi and (a) holds;
      (c) (N11|N11), and a sample whose halves are both Lie superalgebras,
          are incompatible yet ad-invariant, refuting the converse;
      (d) the samples hold at least 5 compatible and 5 incompatible pairs.
    """
    rng = random.Random(20)
    not_ad, mismatched = [], []
    compatible = two_lie_refuting = 0
    for idx in range(50):
        t = _random_perturbed_pair(rng)
        D = build_double(t)
        m, n = t.superdim()
        compat_ok = check_compatibility(t) == []
        ad_ok = check_ad_invariance(D, canonical_form(m, n)) == []
        sample = (idx, t.S.name, t.S_dual.describe_brackets())
        if not ad_ok:
            not_ad.append(sample)
        if compat_ok != (check_jacobi(D) == [] and ad_ok):
            mismatched.append(sample)
        compatible += compat_ok
        if (ad_ok and not compat_ok and check_jacobi(t.S) == []
                and check_jacobi(t.S_dual) == []):
            two_lie_refuting += 1
    incompatible = 50 - compatible

    nn = _n11_n11()
    nn_refutes = (check_compatibility(nn) != []
                  and check_ad_invariance(build_double(nn),
                                          canonical_form(1, 1)) == [])

    ok = (not not_ad and not mismatched and nn_refutes and two_lie_refuting
          and compatible >= 5 and incompatible >= 5)
    _line("9d", ok,
          "%d/50 ad-invariant, %d compatible, %d incompatible "
          "(%d with two Lie halves)"
          % (50 - len(not_ad), compatible, incompatible, two_lie_refuting))
    assert not not_ad, ("canonical pairing not ad-invariant on %d built "
                        "doubles: %s" % (len(not_ad), not_ad[:3]))
    assert not mismatched, ("compatibility differs from 'Jacobi double with "
                            "ad-invariant pairing' on %d samples: %s"
                            % (len(mismatched), mismatched[:3]))
    assert nn_refutes, "(N11|N11) should be incompatible yet ad-invariant"
    assert two_lie_refuting >= 1, (
        "no sample with two Lie halves is incompatible yet ad-invariant")
    assert compatible >= 5 and incompatible >= 5, (compatible, incompatible)
