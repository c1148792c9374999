"""The shear solver against independently typed blocks.

Ten catalog certificates are ``shear`` bodies: the catalog derives their
matrices I + E from ``solve_shear`` (``iso.shear_matrix``), so they cannot
serve as expected values for it.  The R blocks below are typed in as
literals, copied from the matrices these certificates shipped with before
they were derived, and ``PRE_SHEAR_CERTS`` keeps those ten declarations
verbatim: each derived certificate must equal its old matrix entry by
entry, and a solver that moves R must break them.
"""

import pytest

from supertriples import iso
from supertriples.catalog import (Catalog, _catalog_decls, appendix_certificate,
                                  catalog, catalog_triple, get_catalog)
from supertriples.errors import ConstraintViolation
from supertriples.iso import (NoSolution, odd_action_matrices,
                              shear_certificate, shear_matrix, solve_r,
                              solve_shear, verify_certificate)
from supertriples.matrices import s_matmul
from supertriples.parsing import (CertDecl, eval_ast, parse_catalog,
                                  parse_scalar)
from supertriples.scalars import Domain, ParamContext
from supertriples.triples import build_double

# the ten shear certificates as the catalog declared them with a matrix
PRE_SHEAR_CERTS = r"""
cert TFN11
  params { eps : sign }
  from MT22_3() to MT22_4(eps = eps)
  matrix [[1, 0, 0, 0],
          [0, 1, 0, 0],
          [0, 0, 1, 0],
          [0, eps/2, 0, 1]]

cert DD24_IIp_1
  params { p : (-1, 1) \ {0}; alpha : free; beta : free; gamma : free }
  from MT24_4(p = p) to FAM24_C2p_G(p = p, alpha = alpha, beta = beta, gamma = gamma)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, alpha/2, beta/(p + 1), 0, 1, 0],
          [0, beta/(p + 1), gamma/(2*p), 0, 0, 1]]

cert DD24_II1_1
  params { alpha : free; beta : free; gamma : free }
  from MT24_9() to FAM24_C21_G(alpha = alpha, beta = beta, gamma = gamma)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, alpha/2, beta/2, 0, 1, 0],
          [0, beta/2, gamma/2, 0, 0, 1]]

cert DD24_II0
  params { alpha : free; beta : free }
  from MT24_4(p = 0) to FAM24_C20_G(alpha = alpha, beta = beta, gamma = 0)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, alpha/2, beta, 0, 1, 0],
          [0, beta, 0, 0, 0, 1]]

cert DD24_III_1
  params { alpha : free; beta : free }
  from MT24_18() to FAM24_C3_G(alpha = alpha, beta = beta, gamma = 0)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 0, alpha/2, 0, 1, 0],
          [0, alpha/2, beta, 0, 0, 1]]

cert DD24_IV_1
  params { alpha : free; beta : free; gamma : free }
  from MT24_23() to FAM24_C4_G(alpha = alpha, beta = beta, gamma = gamma)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, alpha/2 - beta/2 + gamma/4, beta/2 - gamma/4, 0, 1, 0],
          [0, beta/2 - gamma/4, gamma/2, 0, 0, 1]]

cert DD24_Vp
  params { p : (0, inf); alpha : free; beta : free; gamma : free }
  from MT24_27(p = p) to FAM24_C5p_G(p = p, alpha = alpha, beta = beta, gamma = gamma)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, (2*alpha*p^2 - 2*beta*p + alpha + gamma)/(4*(p^3 + p)), (alpha + 2*p*beta - gamma)/(4*p^2 + 4), 0, 1, 0],
          [0, (alpha + 2*p*beta - gamma)/(4*p^2 + 4), (2*gamma*p^2 + 2*beta*p + alpha + gamma)/(4*(p^3 + p)), 0, 0, 1]]

cert DD24_V0
  params { alpha : free; beta : free }
  from MT24_30() to FAM24_C50_G(alpha = alpha, beta = beta, gamma = -alpha)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 0, alpha/2, 0, 1, 0],
          [0, alpha/2, beta, 0, 0, 1]]

cert DD42_III_1
  params { eps : sign }
  from MT42_3() to MT42_4(eps = eps)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 1, 0],
          [0, 0, eps/2, 0, 0, 1]]

cert DD42_VI_2
  params { p : free \ {0}; eps : sign }
  from MT42_6(p = p) to MT42_7(p = p, eps = eps)
  matrix [[1, 0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 1, 0],
          [0, 0, eps/(2*p), 0, 0, 1]]
"""
PRE_SHEAR_DECLS = parse_catalog(PRE_SHEAR_CERTS)
SHEAR_IDS = [decl.id for decl in PRE_SHEAR_DECLS]


def _symbolic_setup(seed_name, seed_params=(), seed_bind=None):
    params = [(n, Domain.free()) for n in seed_params]
    params += [(n, Domain.free()) for n in ("alpha", "beta", "gamma")]
    ctx = ParamContext(params)
    seed = get_catalog().algebras[seed_name].lift_algebra(ctx, seed_bind or {})
    H = odd_action_matrices(seed)[0]
    a, b, g = (ctx.param(n) for n in ("alpha", "beta", "gamma"))
    return ctx, seed, H, [[a, b], [b, g]]


def _literal(ctx, rows):
    """A typed block: each entry parsed as a Scalar of ctx."""
    return [[parse_scalar(ctx, x) for x in row] for row in rows]


def _solves(R, H, G):
    """Whether R H + (R H)^T = G, entry by entry."""
    RH = s_matmul(R, H)
    return all(RH[j][k] + RH[k][j] == G[j][k]
               for j in range(len(R)) for k in range(len(R)))


def _eq_matrix(A, B):
    return (len(A) == len(B)
            and all((x - y).is_zero() for ra, rb in zip(A, B)
                    for x, y in zip(ra, rb)))


def test_block_II_p():
    ctx, _, H, G = _symbolic_setup("C2_p", ("p",))
    r = solve_r(H, G)
    assert not isinstance(r, NoSolution) and _solves(r, H, G)
    assert _eq_matrix(r, _literal(ctx, [["alpha/2", "beta/(p + 1)"],
                                          ["beta/(p + 1)", "gamma/(2*p)"]]))


def test_block_II_1():
    ctx, _, H, G = _symbolic_setup("C2_1")
    r = solve_r(H, G)
    assert _eq_matrix(r, _literal(ctx, [["alpha/2", "beta/2"],
                                          ["beta/2", "gamma/2"]]))
    # H = identity: the equation degenerates to 2R = G
    two_r = [[x * 2 for x in row] for row in r]
    assert _eq_matrix(two_r, G)


def test_block_II_0():
    ctx, _, H, G = _symbolic_setup("C2_p", seed_bind={"p": 0})
    G0 = [[G[0][0], G[0][1]], [G[1][0], ctx.zero()]]
    r = solve_r(H, G0)
    assert _eq_matrix(r, _literal(ctx, [["alpha/2", "beta"], ["beta", "0"]]))


def test_block_III():
    ctx, _, H, G = _symbolic_setup("C3")
    G0 = [[G[0][0], G[0][1]], [G[1][0], ctx.zero()]]
    r = solve_r(H, G0)
    assert _eq_matrix(r, _literal(ctx, [["0", "alpha/2"],
                                          ["alpha/2", "beta"]]))


def test_block_IV():
    ctx, _, H, G = _symbolic_setup("C4")
    r = solve_r(H, G)
    assert _eq_matrix(r, _literal(
        ctx, [["alpha/2 - beta/2 + gamma/4", "beta/2 - gamma/4"],
              ["beta/2 - gamma/4", "gamma/2"]]))


def test_block_V_p():
    ctx, _, H, G = _symbolic_setup("C5_p", ("p",))
    r = solve_r(H, G)
    off = "(alpha + 2*p*beta - gamma)/(4*p^2 + 4)"
    assert _eq_matrix(r, _literal(
        ctx, [["(2*alpha*p^2 - 2*beta*p + alpha + gamma)/(4*(p^3 + p))", off],
              [off, "(2*gamma*p^2 + 2*beta*p + alpha + gamma)/(4*(p^3 + p))"]]))


def test_block_V_0():
    ctx, _, H, G = _symbolic_setup("C5_0")
    G0 = [[G[0][0], G[0][1]], [G[1][0], -G[0][0]]]
    r = solve_r(H, G0)
    assert _eq_matrix(r, _literal(ctx, [["0", "alpha/2"],
                                          ["alpha/2", "beta"]]))


@pytest.mark.parametrize("seed_name, seed_params, expected", [
    ("S11", (), "eps/2"),
    ("S21", (), "eps/2"),
    ("C1_p", ("p",), "eps/(2*p)"),
], ids=["TFN11", "DD42_III_1", "DD42_VI_2"])
def test_block_one_odd_generator(seed_name, seed_params, expected):
    """The 1 x 1 blocks onto the N^eps duals [ft1, ft1] = eps*bt1: the
    first boson's G is eps, any other boson's is 0."""
    ctx = ParamContext([(n, Domain.free()) for n in seed_params]
                       + [("eps", Domain.sign())])
    seed = get_catalog().algebras[seed_name].lift_algebra(ctx, {})
    Hs = odd_action_matrices(seed)
    Gs = [[[ctx.param("eps") if i == 0 else ctx.zero()]]
          for i in range(len(Hs))]
    assert _eq_matrix(solve_shear(Hs, Gs), _literal(ctx, [[expected]]))


@pytest.mark.parametrize("decl", PRE_SHEAR_DECLS, ids=SHEAR_IDS)
def test_derived_shear_matches_pre_shear_matrix(decl):
    """Each derived certificate equals, entry by entry, the matrix its
    declaration shipped with, and verifies."""
    cert = appendix_certificate(decl.id)
    assert _eq_matrix(cert.matrix, [[eval_ast(ast, cert.ctx) for ast in row]
                                    for row in decl.matrix])
    assert cert.verify()


def test_shipped_shears_are_exactly_the_ten():
    """No shear certificate keeps a matrix block, and no other certificate
    is a shear."""
    shears = sorted(decl.id for _, decl in _catalog_decls()
                    if isinstance(decl, CertDecl) and decl.matrix is None)
    assert shears == sorted(SHEAR_IDS)


def _verdicts_with_r_moved(monkeypatch, a):
    """{id: verifies} of the ten shears in a fresh catalog whose solve_shear
    adds 1 to R[a][a] (get_catalog() is cached, so it is not used)."""
    real = iso.solve_shear

    def moved(H_list, G_list):
        R = real(H_list, G_list)
        if a < len(R):
            R[a][a] = R[a][a] + 1
        return R

    with monkeypatch.context() as mp:
        mp.setattr(iso, "solve_shear", moved)
        certs = Catalog(_catalog_decls()).certs
    out = {}
    for cid in SHEAR_IDS:
        cert = certs[cid].certificate
        assert cert.ctx.params, cid
        out[cid], _ = verify_certificate(cert)
    return out


def test_moving_r_breaks_the_derived_shears(monkeypatch):
    """With R[0][0] moved by 1, every derived shear fails verification
    symbolically but DD24_III_1: C3's odd action has a zero first row, so
    R[0][0] is a free component of its R-system (pinned to 0), and the moved
    shear is another isomorphism.  Moving R[1][1] breaks it."""
    assert _verdicts_with_r_moved(monkeypatch, 0) == {
        cid: cid == "DD24_III_1" for cid in SHEAR_IDS}
    ctx, _, H, _ = _symbolic_setup("C3")
    one, zero = ctx.one(), ctx.zero()
    assert _solves([[one, zero], [zero, zero]], H, [[zero] * 2] * 2)
    assert not _verdicts_with_r_moved(monkeypatch, 1)["DD24_III_1"]


def test_exceptional_witnesses():
    ctx, _, H20, G = _symbolic_setup("C2_p", seed_bind={"p": 0})
    res = solve_r(H20, G)
    assert isinstance(res, NoSolution) and res.witness == ctx.param("gamma")

    ctx, _, H3, G = _symbolic_setup("C3")
    res = solve_r(H3, G)
    assert isinstance(res, NoSolution) and res.witness == ctx.param("gamma")

    ctx, _, Hm1, G = _symbolic_setup("C2_m1")
    res = solve_r(Hm1, G)
    assert isinstance(res, NoSolution) and res.witness == ctx.param("beta")

    ctx, _, H50, G = _symbolic_setup("C5_0")
    res = solve_r(H50, G)
    assert isinstance(res, NoSolution)
    assert res.witness == ctx.param("alpha") + ctx.param("gamma")


def test_numeric_exceptional_example():
    """H = diag(1,0) with gamma = 1 has no solution."""
    ctx = ParamContext([(n, Domain.free()) for n in ("alpha", "beta")])
    one, zero = ctx.one(), ctx.zero()
    H = [[one, zero], [zero, zero]]
    G = [[ctx.param("alpha"), ctx.param("beta")],
         [ctx.param("beta"), ctx.one()]]
    res = solve_r(H, G)
    assert isinstance(res, NoSolution)
    assert res.witness == 1


def test_shear_matrix_zero_is_identity():
    """Onto an abelian dual G = 0, so R = 0 and the shear is the identity;
    shear_certificate declines it."""
    t = catalog_triple("MT24_23")
    C = shear_matrix(t, t)
    assert _eq_matrix(C, [[t.ctx.const(int(i == j)) for j in range(6)]
                          for i in range(6)])
    assert shear_certificate(t, build_double(t)) is None


def test_solve_then_certify_satisfies_cpodm():
    """Generic-H seeds: shear_certificate onto the N-type dual with generic
    G = (alpha, beta; beta, gamma) verifies symbolically."""
    seeds = (("C2_p", ("p",), "FAM24_C2p_G"), ("C4", (), "FAM24_C4_G"),
             ("C5_p", ("p",), "FAM24_C5p_G"), ("C2_1", (), "FAM24_C21_G"))
    for name, ps, rid in seeds:
        ctx, _, _, _ = _symbolic_setup(name, ps)
        t = get_catalog().triples[rid].lift_triple(ctx, {})
        cert = shear_certificate(t, build_double(t))
        ok, rep = verify_certificate(cert)
        assert ok, (name, rep[:2])


def test_odd_action_requires_no_odd_odd_brackets():
    with pytest.raises(ConstraintViolation):
        odd_action_matrices(catalog("F"))
