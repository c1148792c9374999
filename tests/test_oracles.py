"""Independent brute-force oracles for the graded identities.

Each oracle reimplements the definition directly over coefficient vectors,
sharing no code path with the library's residual machinery, and the two are
compared on catalog data and on known-bad mutants.
"""

import itertools
import random
from fractions import Fraction

from supertriples.algebra import Grading, SuperAlgebra, _jacobi
from supertriples.catalog import appendix_certificate, catalog, catalog_triple, get_catalog
from supertriples.forms import canonical_form, check_ad_invariance
from supertriples.iso import verify_certificate
from supertriples.scalars import ParamContext
from supertriples.triples import ManinTriple, build_double
from test_forms import _block_form

EMPTY = ParamContext()


def _bracket_fn(algebra):
    """[u, v] on plain Fraction coefficient vectors."""
    d = algebra.dim
    zero = algebra.ctx.zero()

    def br(u, v):
        out = [Fraction(0)] * d
        for a in range(d):
            if not u[a]:
                continue
            for b in range(d):
                if not v[b]:
                    continue
                for k in range(d):
                    c = algebra.bracket(a, b).get(k, zero)
                    if not c.is_zero():
                        out[k] += u[a] * v[b] * c.as_fraction()
        return out

    return br


def _basis(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def jacobi_oracle(algebra):
    """All nonzero graded Jacobi sums, straight from the definition."""
    d = algebra.dim
    par = algebra.parity
    br = _bracket_fn(algebra)
    e = _basis(d)
    bad = []
    for x, y, z in itertools.product(range(d), repeat=3):
        total = [Fraction(0)] * d
        for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
            sign = (-1) ** (par[u] * par[w])
            term = br(e[u], br(e[v], e[w]))
            total = [t + sign * c for t, c in zip(total, term)]
        if any(total):
            bad.append((x, y, z))
    return bad


def ad_invariance_oracle(algebra, B):
    """The failing (x, y, z) of ad-invariance under the dense form matrix
    B, expanded on basis vectors."""
    br = _bracket_fn(algebra)
    e = _basis(algebra.dim)
    par = algebra.parity

    def pair(u, v):
        return sum(u[a] * B[a][b] * v[b]
                   for a in range(algebra.dim) for b in range(algebra.dim))

    bad = []
    for x, y, z in itertools.product(range(algebra.dim), repeat=3):
        val = pair(br(e[x], e[y]), e[z]) \
            + (-1) ** (par[x] * par[y]) * pair(e[y], br(e[x], e[z]))
        if val:
            bad.append((x, y, z))
    return bad


def test_jacobi_oracle_agrees_on_catalog():
    for name in ("N11", "S21", "F", "C4", "C5_0", "N12_0"):
        A = catalog(name)
        assert jacobi_oracle(A) == []
    for rid in ("MT22_2", "MT42_5", "MT24_22"):
        D = build_double(catalog_triple(rid))
        assert jacobi_oracle(D) == []


def test_jacobi_oracle_flags_mutant():
    one = EMPTY.one()
    mutant = SuperAlgebra.from_brackets(
        Grading(2, 1), EMPTY,
        {(0, 1): {1: one}, (0, 2): {2: one}, (2, 2): {1: one}})
    oracle_bad = jacobi_oracle(mutant)
    assert oracle_bad
    lib_bad = {t for (t, _, _) in _jacobi(mutant.nonzero(), mutant.parity)}
    # the oracle reports unsorted triples; compare as unordered sets
    assert {tuple(sorted(t)) for t in oracle_bad} == lib_bad


def test_ad_invariance_oracle_64_triples():
    """The (2,2) semiabelian double, all 4^3 triples expanded directly."""
    t = catalog_triple("MT22_3")
    D = build_double(t)
    B = canonical_form(1, 1)
    assert ad_invariance_oracle(D, _block_form(1, 1)) == []
    assert check_ad_invariance(D, B) == []
    # corrupt one mixed bracket: both detectors must fire on the same triples
    F = D.entries()
    F[(1, 3, 2)] = D.ctx.const(2)
    F[(3, 1, 2)] = D.ctx.const(2)
    corrupt = SuperAlgebra(D.grading, D.ctx, F, parity=D.parity, names=D.names)
    lib = {t3 for (t3, _) in check_ad_invariance(corrupt, B)}
    assert set(ad_invariance_oracle(corrupt, _block_form(1, 1))) == lib != set()


def test_double_brackets_match_semiabelian_formula():
    """For (C|A12) the double must satisfy [b1,f_j]=H_j^k f_k,
    [f_j,f~^k]=H_j^k b~1 and [b1,f~^k]=-H_j^k f~^j."""
    for name, bind in (("C2_p", {"p": Fraction(1, 3)}), ("C3", None),
                       ("C4", None), ("C5_p", {"p": 2}), ("C5_0", None)):
        seed = catalog(name, bind)
        zero = seed.ctx.zero()
        H = [[seed.bracket(0, 1 + j).get(1 + k, zero).as_fraction()
              for k in range(2)] for j in range(2)]
        dual = SuperAlgebra.from_brackets(seed.grading, seed.ctx, {},
                                          dual_role=True)
        D = build_double(ManinTriple(seed, dual))
        for j in range(2):
            for k in range(2):
                # [f_j, f~^k], [b1, f~^k] and [b1, f_j]
                assert D.bracket(1 + j, 4 + k).get(3, zero).as_fraction() == H[j][k]
                assert D.bracket(0, 4 + k).get(4 + j, zero).as_fraction() == -H[j][k]
                assert D.bracket(0, 1 + j).get(1 + k, zero).as_fraction() == H[j][k]


def test_radical_certificates_at_sampled_bindings():
    """Radical-bearing certificates also verify at >= 10 rational points
    where the radicand is a perfect square."""
    rng = random.Random(4)
    count = 0
    for _ in range(40):
        rho = Fraction(rng.randint(1, 6))
        kappa = Fraction(rng.randint(-5, 5))
        gamma = Fraction(rng.choice([x for x in range(-5, 6) if x]))
        lam = (kappa * kappa - rho * rho) / gamma
        cert = appendix_certificate(
            "DD24_III_2", {"lambda": lam, "kappa": kappa, "gamma": gamma})
        if cert.ctx.radical_name is not None:
            continue
        ok, _ = verify_certificate(cert)
        assert ok, (lam, kappa, gamma)
        count += 1
        if count >= 10:
            break
    assert count >= 10

    count = 0
    for s in (1, 2, 3, Fraction(1, 2), Fraction(3, 2)):
        for (alpha, beta) in ((0, 1), (2, -1)):
            cert = appendix_certificate(
                "DD24_VI_1", {"alpha": alpha, "beta": beta, "gamma": s * s})
            ok, _ = verify_certificate(cert)
            assert ok
            cert = appendix_certificate(
                "DD24_VI_2", {"alpha": alpha, "beta": beta, "gamma": -s * s})
            ok, _ = verify_certificate(cert)
            assert ok
            count += 2
    assert count >= 10

    count = 0
    for s in (1, 2, Fraction(5, 2)):
        for gamma in (Fraction(1, 2), -1, 3):
            alpha = s * s - gamma
            cert = appendix_certificate(
                "DD24_VIII", {"alpha": alpha, "beta": 1, "gamma": gamma,
                              "eps": 1})
            ok, _ = verify_certificate(cert)
            assert ok
            alpha = -s * s - gamma
            cert = appendix_certificate(
                "DD24_VIII", {"alpha": alpha, "beta": 1, "gamma": gamma,
                              "eps": -1})
            ok, _ = verify_certificate(cert)
            assert ok
            count += 2
    assert count >= 10
