import functools
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from supertriples.algebra import (SuperAlgebra, _cleared_matrix, _failures,
                                  commutant_series)
from supertriples.catalog import (appendix_certificate, automorphisms, catalog,
                                  catalog_triple, get_catalog, list_certificates)
from supertriples.errors import (ConstraintViolation, DimensionMismatch,
                                 DivisionByZero,
                                 NotAutomorphism, SuperTriplesError)
from supertriples import iso, matrices, polys, scalars
from supertriples.classify import enumerate_duals, match_22, reduce_orbits, report
from supertriples.iso import (Exhausted, IsoCertificate, _form_tensor, _half,
                              _in_context, _stages, _weights,
                              from_automorphism,
                              search_iso, t_dual_certificate,
                              verify_certificate)
from supertriples.matrices import f_matmul, identity, inv
from supertriples.memo import _MEMO, report_memo
from supertriples.scalars import Scalar
from supertriples.triples import ManinTriple, build_double, t_dual
from test_classify import integer_matrix
from test_forms import _block_form
from test_scalars import scalar_branch_failures


def test_identity_certificate():
    D = build_double(catalog_triple("MT42_3"))
    ctx = D.ctx
    cert = IsoCertificate(ctx, identity(6, ctx.one(), ctx.zero()), D, D)
    ok, rep = verify_certificate(cert)
    assert ok and rep == []


def test_certificate_refuses_endpoints_of_different_superdimension():
    """The doubles of MT42_1 and MT24_1 are both abelian and 6-dimensional,
    with equal (empty) tensors, but of superdimensions (4,2) and (2,4): the
    identity between them is refused, as it would pair even basis vectors
    with odd ones."""
    src = build_double(catalog_triple("MT42_1"))
    tgt = build_double(catalog_triple("MT24_1"))
    assert src.tensor_equal(tgt)
    ctx = src.ctx
    with pytest.raises(ConstraintViolation, match="superdimensions 4,2 and 2,4"):
        IsoCertificate(ctx, identity(6, ctx.one(), ctx.zero()), src, tgt)


def _map_by_name(obj, ctx, bindings):
    """The reference move into ctx: every scalar through the one map
    ``ParamContext.bind_scalars``."""
    return obj.map_scalars(ctx, obj.ctx.bind_scalars(ctx, bindings))


def _algebra_key(A):
    return (A.ctx, A.parity, A.names, A.name, A.dual_role, A.nonzero())


def _triple_key(t):
    return (t.id, t.label, _algebra_key(t.S), _algebra_key(t.S_dual))


def test_in_context_equals_the_map_by_name():
    """``_in_context`` on every catalog algebra and row, into its own
    context and into each context the catalog moves it into, at the
    bindings the catalog gives: a seed into the rows that name it, a row
    into the certificates that name it as an endpoint.  Its result equals
    the map by name, and into its own context with no binding it is the
    object itself."""
    cat = get_catalog()
    moves = [(e.algebra, e.algebra.ctx, {}, _algebra_key)
             for e in cat.algebras.values()]
    moves += [(e.triple, e.ctx, {}, _triple_key) for e in cat.triples.values()]
    for obj, _, _, _ in moves:
        assert _in_context(obj, obj.ctx) is obj
    moves += [(cat.algebras[row.seed_name].algebra, row.ctx, row.seed_bindings,
               _algebra_key)
              for row in cat.triples.values() if row.seed_name is not None]
    moves += [(cat.triples[rid].triple, cert.ctx, values, _triple_key)
              for cert in cat.certs.values()
              for rid, values in ((cert.source_id, cert.source_values),
                                  (cert.target_id, cert.target_values))]
    mapped = 0
    for obj, ctx, bindings, key in moves:
        moved = _in_context(obj, ctx, bindings)
        assert key(moved) == key(_map_by_name(obj, ctx, bindings))
        mapped += moved is not obj
    assert mapped > 0


def test_tfn11_both_branches():
    cert = appendix_certificate("TFN11")
    ok, _ = verify_certificate(cert)
    assert ok
    for eps in (1, -1):
        ok, _ = verify_certificate(appendix_certificate("TFN11", {"eps": eps}))
        assert ok


def test_appendix_a_s21_to_s21():
    ok, _ = verify_certificate(appendix_certificate("DD42_III_2"))
    assert ok


def test_appendix_b_radical_certificate():
    cert = appendix_certificate("DD24_III_2")
    assert cert.ctx.radical_name == "rho"
    ok, _ = verify_certificate(cert)
    assert ok
    # numeric instantiation with a perfect-square radicand binds the radical
    num = appendix_certificate("DD24_III_2",
                               {"lambda": 1, "kappa": 0, "gamma": -1})
    assert num.ctx.radical_name is None
    assert num.verify()


def test_appendix_b_sign_split_radical():
    cert = appendix_certificate("DD24_VIII")
    assert cert.ctx.radical_name == "s"
    ok, _ = verify_certificate(cert)
    assert ok


def _built_or_error(build):
    try:
        return build()
    except SuperTriplesError as exc:
        return type(exc)


@pytest.mark.parametrize("cid", [c for c in list_certificates()
                                 if appendix_certificate(c).ctx.radical_name])
def test_radical_certificates_build_as_they_substitute(cid):
    """A catalog certificate at bindings is its substitution: a radicand
    made a rational square binds the radical to its root, a negative one
    is a ConstraintViolation, in both ways alike."""
    cert = appendix_certificate(cid)
    rng = random.Random(cid)
    grid = [Fraction(x) for x in (0, 1, -1, 2, -2, 4, Fraction(1, 4),
                                  Fraction(-1, 2), 3)]
    outcomes = set()
    for _ in range(60):
        bindings = {p: rng.choice([x for x in grid if dom.allows(x)])
                    for p, dom in cert.ctx.domains.items()}
        built = _built_or_error(lambda: appendix_certificate(cid, bindings))
        substituted = _built_or_error(lambda: cert.substitute(bindings))
        if isinstance(built, type):
            assert substituted is built, (bindings, built)
            outcomes.add(built.__name__)
            continue
        assert not isinstance(substituted, type), (bindings, substituted)
        assert substituted.ctx == built.ctx, bindings
        assert substituted.matrix == built.matrix, bindings
        outcomes.add(built.ctx.radical_name or "bound")
    assert "bound" in outcomes, outcomes


def test_negative_radicand_is_refused_by_substitute():
    """rho^2 = kappa^2 - lambda*gamma = -1 leaves the reals."""
    cert = appendix_certificate("DD24_III_2")
    with pytest.raises(ConstraintViolation) as err:
        cert.substitute({"lambda": 1, "kappa": 0, "gamma": 1})
    assert str(err.value) == "radicand of rho is negative at these bindings"


def test_all_appendix_certificates_symbolic():
    for cid in list_certificates():
        ok, rep = verify_certificate(appendix_certificate(cid))
        assert ok, (cid, rep[:2])


def test_composition_and_inverse_closure():
    c1 = appendix_certificate("DD42_III_1", {"eps": 1})
    c2 = appendix_certificate("DD42_III_2")
    assert c1.invert().verify()
    assert c2.invert().verify()
    # 4 -> 3 -> 5
    chain = c2.compose(c1.invert())
    assert chain.verify()
    assert chain.source.triple.id == "MT42_4"
    assert chain.target.triple.id == "MT42_5"


def test_composition_dimension_mismatch():
    c1 = appendix_certificate("TFN11", {"eps": 1})
    c2 = appendix_certificate("DD42_III_1", {"eps": 1})
    with pytest.raises(DimensionMismatch):
        c2.compose(c1)


# the certificates of criteria 9a and 9b, at their bindings
CRITERION_9_SAMPLES = [
    ("DD42_III_1", {"eps": 1}), ("DD42_III_2", {}),
    ("DD42_VI_2", {"p": 2, "eps": -1}), ("DD42_VI_3", {"p": 2}),
    ("DD24_IIp_1", {"p": Fraction(1, 2), "alpha": 1, "beta": 2, "gamma": 3}),
    ("DD24_IIp_2", {"p": Fraction(1, 2)}), ("TFN11", {"eps": 1}),
    ("DD42_VII_2", {"eps": -1}), ("DD42_VI_1", {"p": 3}),
    ("DD24_IV_2", {"alpha": 2, "kappa": 1, "gamma": -3}),
    ("DD24_VII", {"alpha": 1, "beta": 1, "gamma": 2})]


def _same_entries(a, b):
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_invert_is_the_inverse_matrix(data):
    """The signed transpose B C^T B^T of a shipped certificate, at the
    criterion 9 bindings or at values from its parameters' domains (signs
    at +-1), is inv(C), entry by entry, and verifies."""
    if data.draw(st.booleans()):
        cid, bindings = data.draw(st.sampled_from(CRITERION_9_SAMPLES))
        cert = appendix_certificate(cid, bindings)
    else:
        cid = data.draw(st.sampled_from(list_certificates()))
        cert = _numeric_certificate(
            cid, random.Random(data.draw(st.integers(0, 2 ** 32))))
    back = cert.invert()
    assert _same_entries(back.matrix, inv(cert.matrix)), cid
    assert back.verify(), cid


@pytest.mark.parametrize("cid, differing", [
    ("DD42_VII_2", 6), ("DD42_VII_3", 9), ("DD24_VIII", 5)])
def test_invert_with_the_sign_unbound(cid, differing):
    """With eps unbound the signed transpose and the rational function
    inv(C) differ in some entries, yet the signed transpose verifies, and
    at eps = +-1, the whole domain, the two are equal."""
    cert = appendix_certificate(cid)
    back = cert.invert()
    assert back.verify()
    ref = inv(cert.matrix)
    assert sum(not (x - y).is_zero() for ra, rb in zip(back.matrix, ref)
               for x, y in zip(ra, rb)) == differing
    for eps in (1, -1):
        bound = cert.substitute({"eps": eps})
        assert _same_entries(back.substitute({"eps": eps}).matrix,
                             inv(bound.matrix))
        assert _same_entries(bound.invert().matrix, inv(bound.matrix))


# rows whose seed has no odd-odd bracket, so that any symmetric R shears
# their semiabelian base point onto an N-type dual
SHEAR_ROWS = ("MT22_3", "MT42_3", "MT42_9", "MT24_9", "MT24_13", "MT24_30")


@given(st.sampled_from(SHEAR_ROWS), st.data())
@settings(max_examples=30, deadline=None)
def test_shear_transport_inverts_by_i_minus_e(rid, data):
    """The shear C = I + E onto the N-type dual G_i = R H_i + (R H_i)^T of
    a random symmetric rational R verifies, and its signed transpose is
    inv(C), which is I - E."""
    t = catalog_triple(rid)
    m, n = t.superdim()
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    R = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            R[a][b] = R[b][a] = t.ctx.const(data.draw(entry))
    dual = {}
    for i, H in enumerate(iso.odd_action_matrices(t.S)):
        RH = f_matmul(R, H)
        for j in range(n):
            for k in range(n):
                g = RH[j][k] + RH[k][j]
                if not g.is_zero():
                    dual[m + j, m + k, i] = g
    assume(dual)
    target = ManinTriple(t.S, SuperAlgebra(t.S_dual.grading, t.ctx, dual,
                                           names=t.S_dual.names,
                                           dual_role=True))
    cert = iso.shear_certificate(target, build_double(target))
    assert cert.verify()
    C = cert.matrix
    assert _same_entries(cert.invert().matrix, inv(C))
    h = m + n
    assert _same_entries(inv(C), [[-x if (a >= h + m and m <= b < h) else x
                                   for b, x in enumerate(row)]
                                  for a, row in enumerate(C)])


def test_certificate_evenness_enforced():
    D = build_double(catalog_triple("MT22_1"))
    ctx = D.ctx
    C = identity(4, ctx.one(), ctx.zero())
    C = [list(r) for r in C]
    C[0][1] = ctx.one()  # b row picks up an f column
    with pytest.raises(ConstraintViolation):
        IsoCertificate(ctx, C, D, D)


def test_t_duality_certificate_all_rows():
    cat = get_catalog()
    for table in ("22", "42", "24"):
        for rid in cat.table_rows(table):
            cert = t_dual_certificate(catalog_triple(rid))
            ok, _ = verify_certificate(cert)
            assert ok, rid


def test_from_automorphism_identity():
    t = catalog_triple("MT42_3")
    cert = from_automorphism(identity(3, t.ctx.one(), t.ctx.zero()), t)
    assert cert.verify()
    assert cert.target.triple.S_dual.tensor_equal(t.S_dual)


def test_from_automorphism_s21_example():
    t = catalog_triple("MT42_3")
    fam = automorphisms("S21").branches[0]
    _, A = fam.instantiate({"b": 0, "c": 2, "d": 1})
    lifted = [[t.ctx.const(x.as_fraction()) for x in row] for row in A]
    cert = from_automorphism(lifted, t)
    assert cert.verify()


def _count_inversions(monkeypatch):
    """Wrap ``matrices.inv`` at every binding of it in the package, as the
    benchmark's spans wrap functions; the list it returns gets one entry
    per call."""
    calls = []
    original = matrices.inv

    def counted(a):
        calls.append(len(a))
        return original(a)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "supertriples"
                and getattr(module, "inv", None) is original):
            monkeypatch.setattr(module, "inv", counted)
    return calls


def test_from_automorphism_inverts_once(monkeypatch):
    """One inversion per automorphism certificate: the dual is transported
    along the (A^{-1})^T block that ``dual_blockdiag`` computed, not through
    ``transport_dual``, which would invert A again.  The target's dual is
    still the one ``transport_dual`` gives, numeric and symbolic."""
    t = catalog_triple("MT42_3")
    _, A = automorphisms("S21").branches[0].instantiate({"b": 0, "c": 2, "d": 1})
    lifted = [[t.ctx.const(x.as_fraction()) for x in row] for row in A]
    branch = get_catalog().algebras["C3"].automorphisms().branches[0]
    symbolic = _in_context(get_catalog().triples["MT24_18"].triple, branch.ctx, {})
    for matrix, triple in ((lifted, t), (branch.matrix, symbolic)):
        expected = triple.S_dual.transport_dual(matrix)
        calls = _count_inversions(monkeypatch)
        cert = from_automorphism(matrix, triple)
        assert calls == [len(matrix)]
        monkeypatch.undo()
        assert cert.target.triple.S_dual.tensor_equal(expected)
        assert cert.verify()


def test_match_22_inverts_once_per_orbit_representative(monkeypatch):
    """``match_22`` on the S11 orbit representatives builds one automorphism
    certificate each, so it makes one inversion each."""
    seed = catalog("S11")
    reps = [rep for rep, _ in reduce_orbits(enumerate_duals(seed),
                                            automorphisms("S11"))]
    assert len(reps) == 5
    calls = _count_inversions(monkeypatch)
    matched = [match_22("S11", rep) for rep in reps]
    assert all(matched)
    assert len(calls) == len(reps)


def test_from_automorphism_rejects_non_automorphism():
    t = catalog_triple("MT42_3")
    ctx = t.ctx
    one, zero = ctx.one(), ctx.zero()
    swapped = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    with pytest.raises(NotAutomorphism):
        from_automorphism(swapped, t)


def test_from_automorphism_form_condition_symbolic():
    """blockdiag(A, (A^{-1})^T) satisfies condition (i) identically."""
    for name, rid in (("S21", "MT42_3"), ("C3", "MT24_18")):
        entry = get_catalog().algebras[name]
        branch = entry.automorphisms().branches[0]
        triple = _in_context(get_catalog().triples[rid].triple, branch.ctx, {})
        cert = from_automorphism(branch.matrix, triple)
        _, residuals = verify_certificate(cert)
        assert not [r for r in residuals if r[0] == "form"]


def test_fingerprint_preserved_by_verified_certificates():
    rng = random.Random(2)
    samples = [("TFN11", {"eps": -1}), ("DD42_VI_2", {"p": 3, "eps": 1}),
               ("DD24_IIp_1", {"p": Fraction(1, 2), "alpha": 2, "beta": 1,
                               "gamma": -1}),
               ("DD24_IV_2", {"alpha": 1, "kappa": 2, "gamma": 5})]
    for cid, bind in samples:
        cert = appendix_certificate(cid, bind)
        assert cert.verify()
        assert commutant_series(cert.source) == commutant_series(cert.target), cid


# The exact hits of the search: candidate order, stage names and the
# generators' values are pinned, so any change to them shows here.
SHEAR_22 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(1, 2), 0, 1]]
DUALITY_42 = [[-1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
              [0, 0, 0, -1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]


def _fractions(cert):
    return [[x.as_fraction() for x in row] for row in cert.matrix]


def test_search_rediscovers_shear():
    src = build_double(catalog_triple("MT22_3"))
    tgt = build_double(catalog_triple("MT22_4", {"eps": 1}))
    res = search_iso(src, tgt, budget=3000)
    assert isinstance(res, IsoCertificate)
    assert res.verify()
    # the found matrix is of the shear form: identity plus an ft-row entry
    assert res.note == "search:shear"
    assert _fractions(res) == SHEAR_22


def test_search_finds_partial_duality_dd42v():
    src = build_double(catalog_triple("MT42_7", {"p": 0, "eps": 1}))
    tgt = build_double(catalog_triple("MT42_7", {"p": 0, "eps": -1}))
    res = search_iso(src, tgt, budget=4000)
    assert isinstance(res, IsoCertificate)
    assert res.verify()
    assert res.note == "search:duality"
    assert _fractions(res) == DUALITY_42


def test_search_fingerprint_filter_dd42_iii_vs_iv0():
    src = build_double(catalog_triple("MT42_3"))
    tgt = build_double(catalog_triple("MT42_6", {"p": 0}))
    res = search_iso(src, tgt, budget=50)
    assert isinstance(res, Exhausted)
    assert "fingerprint" in res.reason
    assert res.budget == 50


def test_search_requires_numeric():
    src = build_double(catalog_triple("MT42_6"))
    with pytest.raises(ConstraintViolation):
        search_iso(src, src, budget=10)


def test_search_rejects_a_negative_budget():
    src = build_double(catalog_triple("MT42_3"))
    with pytest.raises(ConstraintViolation, match="budget must be at least 0"):
        search_iso(src, src, budget=-1)


def test_exhausted_carries_budget():
    src = build_double(catalog_triple("MT24_4", {"p": Fraction(1, 2)}))
    tgt = build_double(catalog_triple("MT24_9"))
    res = search_iso(src, tgt, budget=60)
    assert isinstance(res, Exhausted)
    assert res.budget == 60 and res.tried == 60
    assert res.reason == "budget exhausted"


def test_search_exhausts_every_candidate():
    """The pipeline is finite: with a budget above the 16 499 candidates of
    a (2,4) double, the search ends by running out of them."""
    src = build_double(catalog_triple("MT24_3", {"eps": 1}))
    tgt = build_double(catalog_triple("MT24_3", {"eps": -1}))
    res = search_iso(src, tgt, budget=10 ** 6)
    assert isinstance(res, Exhausted)
    assert (res.budget, res.tried, res.reason) == (
        10 ** 6, 16499, "candidates exhausted")


@pytest.mark.parametrize("row, bindings, sizes", [
    ("MT22_3", None, (2, 15, 6, 6, 150)),
    ("MT42_7", {"p": 0, "eps": 1}, (2, 63, 48, 48, 3150)),
    ("MT24_3", {"eps": 1}, (2, 63, 342, 342, 15750)),
])
def test_stage_sizes(row, bindings, sizes):
    double = build_double(catalog_triple(row, bindings))
    stages = [(name, sum(1 for _ in gen))
              for name, gen in _stages(*_half(double))]
    assert stages == list(zip(
        ("basic", "duality", "shear", "shear_up", "composed"), sizes))


# ---------------------------------------------------------------------------
# the integer candidate test against the Fraction route

# (source, target): hits in the shear, duality and basic stages (the
# identity on MT24_18's own double), and one of thm3's exhausted pairs
SEARCH_PAIRS = [
    (("MT22_3", None), ("MT22_4", {"eps": 1})),
    (("MT42_7", {"p": 0, "eps": 1}), ("MT42_7", {"p": 0, "eps": -1})),
    (("MT24_18", None), ("MT24_18", None)),
    (("MT24_4", {"p": Fraction(1, 2)}), ("MT24_9", None)),
]
PER_STAGE = 60


def _integer_inputs(src, tgt):
    """form, source and target as ``search_iso`` scales them."""
    m, n = src.superdim()
    return (_form_tensor(m // 2, n // 2), src.integer_tensor(),
            tgt.integer_tensor())


def _holds(M, c, form, source, target):
    """Whether (i) and (ii) hold for C = M / c, with M an integer matrix and
    c a nonzero integer, on the integer-scaled tensors source (N, s) and
    target (N', t): ``iso._conditions``, the kernel that both
    ``verify_certificate`` and a search survivor's verdict run."""
    (N, s), (N2, t) = source, target
    return not iso._conditions(M, form, N, N2, c, s, t)


def _dense(algebra):
    """F[p][q][r] as Fractions."""
    d = algebra.dim
    F = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (p, q, r, x) in algebra.nonzero():
        F[p][q][r] = x.as_fraction()
    return F


def _fraction_route(C, src, tgt):
    """Conditions (i) and (ii) for the Fraction matrix C from src to tgt, as
    dense loops over every index: C_a^p C_b^q B_pq = B_ab, and
    C_a^p C_b^q F_pq^r = F'_ab^k C_k^r, contracted one index at a time."""
    d = len(C)
    m, n = src.superdim()
    B = _block_form(m // 2, n // 2)
    F, F2 = _dense(src), _dense(tgt)
    idx = range(d)
    for a in idx:
        CB = [sum(C[a][p] * B[p][q] for p in idx) for q in idx]
        for b in idx:
            if sum(CB[q] * C[b][q] for q in idx) != B[a][b]:
                return False
    for a in idx:
        # CF[q][r] = C_a^p F_pq^r
        CF = [[sum(C[a][p] * F[p][q][r] for p in idx if C[a][p]) for r in idx]
              for q in idx]
        for b in idx:
            for r in idx:
                if (sum(C[b][q] * CF[q][r] for q in idx)
                        != sum(F2[a][b][k] * C[k][r] for k in idx)):
                    return False
    return True


@functools.lru_cache(maxsize=None)
def _candidate_samples():
    """(src, tgt, stage, M, c): the first PER_STAGE candidates of every
    stage of the pipeline, for each pair of SEARCH_PAIRS."""
    out = []
    for (s, sb), (t, tb) in SEARCH_PAIRS:
        src = build_double(catalog_triple(s, sb))
        tgt = build_double(catalog_triple(t, tb))
        for stage, gen in _stages(*_half(src)):
            for M, c in itertools.islice(gen, PER_STAGE):
                out.append((src, tgt, stage, M, c))
    return out


def test_candidate_samples_cover_every_stage_and_both_outcomes():
    samples = _candidate_samples()
    assert {stage for _, _, stage, _, _ in samples} == {
        "basic", "duality", "shear", "shear_up", "composed"}
    passing = {stage for src, tgt, stage, M, c in samples
               if _holds(M, c, *_integer_inputs(src, tgt))}
    assert {"basic", "duality", "shear"} <= passing
    for _, _, _, M, c in samples:
        assert c > 0 and all(type(x) is int for row in M for x in row)


@given(st.data(), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_integer_holds_matches_fraction_route(data, k):
    """For any candidate (M, c) and any positive rescaling (k M, k c), the
    integer test agrees with conditions (i) and (ii) on the Fraction matrix
    M / c, and so do the Scalar residuals and verify_certificate on the
    certificate M / c."""
    samples = _candidate_samples()
    src, tgt, _, M, c = samples[data.draw(st.integers(0, len(samples) - 1))]
    C = [[Fraction(x, c) for x in row] for row in M]
    scaled = [[k * x for x in row] for row in M]
    expected = _fraction_route(C, src, tgt)
    assert _holds(scaled, k * c, *_integer_inputs(src, tgt)) == expected
    ctx = src.ctx
    cert = IsoCertificate(ctx, [[ctx.const(x) for x in row] for row in C],
                          src, tgt)
    assert (not _scalar_failures(cert)) == expected
    assert verify_certificate(cert) == (expected, _scalar_failures(cert))


# a pool of small rationals to bind certificate parameters from; it holds
# enough squares that every radicand becomes a square for some binding
BIND_POOL = [Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3, 4, -4)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(9, 4)]


def _numeric_certificate(cid, rng):
    """The shipped certificate cid bound at parameters drawn from BIND_POOL
    within their catalog domains, with no parameter and no radical left."""
    ctx = appendix_certificate(cid).ctx
    for _ in range(300):
        bindings = {name: rng.choice([v for v in BIND_POOL
                                      if ctx.domains[name].allows(v)])
                    for name in ctx.params}
        try:
            cert = appendix_certificate(cid, bindings)
        except (ConstraintViolation, ZeroDivisionError):
            continue
        if not cert.ctx.params and cert.ctx.radical_name is None:
            return cert
    raise AssertionError("no numeric binding found for %s" % cid)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=10, deadline=None)
def test_shipped_certificates_pass_the_integer_test(seed):
    """Every shipped certificate, bound at numbers, passes ``_holds``; with
    C[0][0] raised by one it fails.  The perturbation always breaks (i):
    it moves <C X_0, C X_j> by C_j^h (twice that for j = 0), with h the
    index of b~^1, and the column h of an invertible C is not zero."""
    rng = random.Random(seed)
    for cid in list_certificates():
        cert = _numeric_certificate(cid, rng)
        src, tgt = cert.source, cert.target
        C = _fractions(cert)
        M, c = integer_matrix(C)
        inputs = _integer_inputs(src, tgt)
        assert _holds(M, c, *inputs), cid
        M[0][0] += c
        C[0][0] += 1
        assert not _holds(M, c, *inputs), cid
        assert not _fraction_route(C, src, tgt), cid


def _identity_matrix(d, k=1):
    return [[k if a == b else 0 for b in range(d)] for a in range(d)]


def test_holds_runs_the_full_test_when_the_projection_agrees():
    """A target that differs from the source only by two entries that cancel
    under the weights: the projected sides of (ii) agree, so the rejection
    comes from the full test."""
    u, v, z = _weights(4)
    N = [(0, 1, 1, 1), (1, 0, 1, -1)]
    extra = [(0, 1, 2, u[2] * v[3] * z[0]), (2, 3, 0, -u[0] * v[1] * z[2])]
    N2 = sorted(N + extra)
    assert sum(x * u[a] * v[b] * z[r] for (a, b, r, x) in extra) == 0
    form = _form_tensor(1, 1)
    M = _identity_matrix(4)
    assert _holds(M, 1, form, (N, 1), (N, 1))
    assert not _holds(M, 1, form, (N, 1), (N2, 1))


def test_holds_checks_the_form_condition():
    """With no brackets (ii) holds for every matrix; (i) alone decides."""
    form = _form_tensor(1, 1)
    empty = ([], 1)
    assert not _holds(_identity_matrix(4, 2), 1, form, empty, empty)
    assert _holds(_identity_matrix(4), 1, form, empty, empty)
    assert _holds(_identity_matrix(4, 2), 2, form, empty, empty)


# ---------------------------------------------------------------------------
# the candidate table against the candidate stream


def _stream_search(src, tgt, budget):
    """``search_iso`` as a walk of the ``_stages`` stream that runs
    ``_holds`` on every candidate: the loop the candidate table replaced."""
    fp_src, fp_tgt = commutant_series(src), commutant_series(tgt)
    if fp_src != fp_tgt:
        return Exhausted(budget, 0, "fingerprint mismatch %s vs %s"
                         % (fp_src, fp_tgt))
    inputs = _integer_inputs(src, tgt)
    ctx = src.ctx
    tried = 0
    for name, gen in _stages(*_half(src)):
        for M, c in gen:
            if tried >= budget:
                return Exhausted(budget, tried, "budget exhausted")
            tried += 1
            if _holds(M, c, *inputs):
                matrix = [[ctx.const(Fraction(x, c)) for x in row] for row in M]
                try:
                    cert = IsoCertificate(ctx, matrix, src, tgt, note="search")
                except ConstraintViolation:
                    continue
                ok, _ = verify_certificate(cert)
                if ok:
                    cert.note = "search:" + name
                    return cert
    return Exhausted(budget, tried, "candidates exhausted")


def _outcome(res):
    if isinstance(res, Exhausted):
        return Exhausted, res.budget, res.tried, res.reason
    return IsoCertificate, res.note, _fractions(res)


def _budgets(double):
    """0, 1, the last candidate of each stage and the first of the next,
    and the default budget."""
    out, end = {0, 1, 1500}, 0
    for _, gen in _stages(*_half(double)):
        end += sum(1 for _ in gen)
        out.update((end, end + 1))
    return sorted(out)


@pytest.mark.parametrize("pair", SEARCH_PAIRS)
def test_table_search_equals_the_stream_search(pair):
    """At every budget the table search returns what the stream search
    returns: the same type, tried, reason, note and Fraction matrix, both
    with a throwaway table per call and with one table shared by all calls
    in a report memo."""
    (s, sb), (t, tb) = pair
    src = build_double(catalog_triple(s, sb))
    tgt = build_double(catalog_triple(t, tb))
    expected = {b: _outcome(_stream_search(src, tgt, b)) for b in _budgets(src)}
    assert {b: _outcome(search_iso(src, tgt, b)) for b in expected} == expected
    with report_memo():
        shared = {b: _outcome(search_iso(src, tgt, b)) for b in expected}
    assert shared == expected


def _a11_double(k):
    """The double of the abelian (1,1) seed A11 with the dual
    [b~, f~] = k f~."""
    seed = catalog("A11")
    dual = SuperAlgebra.from_brackets(seed.grading, seed.ctx,
                                      {(0, 1): {1: seed.ctx.const(k)}},
                                      dual_role=True)
    return build_double(ManinTriple(seed, dual))


def test_budget_boundary_on_a_short_stream():
    """Two doubles of the (1,1) shape with one fingerprint between which
    none of the shape's 179 candidates is a certificate: a budget of 179
    runs out of candidates, a budget of 178 runs out of budget, in either
    order and whether or not a report memo shares the table."""
    src, tgt = _a11_double(1), _a11_double(2)
    assert commutant_series(src) == commutant_series(tgt)
    expected = {179: (Exhausted, 179, 179, "candidates exhausted"),
                178: (Exhausted, 178, 178, "budget exhausted")}
    for order in ((179, 178), (178, 179)):
        assert {b: _outcome(search_iso(src, tgt, b)) for b in order} == expected
        with report_memo():
            assert {b: _outcome(search_iso(src, tgt, b))
                    for b in order} == expected


def test_candidate_table_lives_for_one_report(monkeypatch):
    """thm3's 17 searches share one (2,4) table per report: its 752
    ``composed`` rows are the report's only integer ``f_matmul`` products,
    in the second report of the process as in the first, and the memo is
    unset after each.  The report's other 11 products are certificate
    compositions (``IsoCertificate.compose``) of Scalar matrices.  A search
    outside a report builds a table of its own and leaves nothing behind."""
    calls = {int: 0, Scalar: 0}
    plain = iso.f_matmul

    def counting(A, B):
        calls[type(A[0][0])] += 1
        return plain(A, B)

    monkeypatch.setattr(iso, "f_matmul", counting)
    for _ in range(2):
        calls.update({int: 0, Scalar: 0})
        report("thm3")
        assert calls == {int: 752, Scalar: 11}
        assert _MEMO.get() is None
    src = build_double(catalog_triple("MT24_4", {"p": Fraction(1, 2)}))
    tgt = build_double(catalog_triple("MT24_9"))
    for _ in range(2):
        calls.update({int: 0, Scalar: 0})
        assert _outcome(search_iso(src, tgt)) == (
            Exhausted, 1500, 1500, "budget exhausted")
        assert calls == {int: 752, Scalar: 0}
        assert _MEMO.get() is None


# ---------------------------------------------------------------------------
# fraction-free verification of parametric certificates


@functools.lru_cache(maxsize=None)
def _shipped_certificate(cid):
    return appendix_certificate(cid)


def _scalar_failures(cert):
    """The Scalar reference for verify_certificate: the residuals of (i) and
    (ii) computed on C, F and F' themselves, kept where they fail on some
    sign branch (``scalar_branch_failures``)."""
    return scalar_branch_failures(iso._conditions(*_scalar_inputs(cert)))


def _scalar_inputs(cert):
    """C, B, F and F' for ``iso._conditions`` with every entry a Scalar: the
    form's entries made Scalars by ``ctx.const``."""
    ctx = cert.ctx
    form = [(p, q, r, ctx.const(x))
            for (p, q, r, x) in _form_tensor(*_half(cert.source))]
    return cert.matrix, form, cert.source.nonzero(), cert.target.nonzero()


def _both_verdicts(cert):
    """(verify_certificate's verdict, the Scalar reference's verdict); a
    route that refuses the certificate gives the exception's type."""
    verdicts = []
    for verdict in (lambda: verify_certificate(cert)[0],
                    lambda: not _scalar_failures(cert)):
        try:
            verdicts.append(verdict())
        except (ConstraintViolation, DivisionByZero) as exc:
            verdicts.append(type(exc))
    return tuple(verdicts)


@given(st.sampled_from(list_certificates()),
       st.sampled_from(["shipped", "perturbed", "bound"]), st.data())
@settings(max_examples=100, deadline=None)
def test_fraction_free_test_agrees_with_scalar_residuals(cid, how, data):
    """On every shipped certificate, on one with an entry moved by a random
    rational and on random rational bindings of its non-finite parameters,
    the fraction-free test accepts exactly when the Scalar residuals do, and
    refuses a binding with the Scalar residuals' exception."""
    cert = _shipped_certificate(cid)
    if how == "perturbed":
        par = cert.source.parity
        a, b = data.draw(st.sampled_from(
            [(a, b) for a in range(cert.dim) for b in range(cert.dim)
             if par[a] == par[b]]))
        delta = data.draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
        matrix = [list(row) for row in cert.matrix]
        matrix[a][b] = matrix[a][b] + delta
        cert = IsoCertificate(cert.ctx, matrix, cert.source, cert.target)
    elif how == "bound":
        ctx = cert.ctx
        bindings = {}
        for name in ctx.params:
            if not ctx.domains[name].is_finite and data.draw(st.booleans()):
                bindings[name] = data.draw(st.fractions(-6, 6, max_denominator=6))
        assume(all(ctx.domains[n].allows(v) for n, v in bindings.items()))
        try:
            cert = cert.substitute(bindings)
        except (ConstraintViolation, DivisionByZero):
            assume(False)
    fraction_free, scalar = _both_verdicts(cert)
    assert fraction_free == scalar


def test_shipped_certificates_verify_without_a_polynomial_gcd(monkeypatch):
    """The accept path of a parametric or radical certificate makes no
    polynomial gcd: all shipped certificates verify with _p_gcd raising,
    both in polys and where scalars imports it."""
    certs = [appendix_certificate(cid) for cid in list_certificates()]

    def no_gcd(f, g):
        raise AssertionError("polynomial gcd while verifying")

    monkeypatch.setattr(polys, "_p_gcd", no_gcd)
    monkeypatch.setattr(scalars, "_p_gcd", no_gcd)
    for cert in certs:
        assert verify_certificate(cert) == (True, []), cert


def test_shipped_rows_and_certificates_clear_to_integer_coefficients():
    """clear_denominators scales every numerator, and the den, by one lcm of
    their coefficient denominators, so every coefficient that the checks of
    the shipped rows and certificates multiply is an int, the radicands'
    included: no Fraction product is left in a parametric check."""
    cleared = []
    for entry in get_catalog().triples.values():
        t = entry.triple
        for A in (t.S, t.S_dual, build_double(t)):
            nz, den = A.cleared_tensor()
            cleared += [v for (*_, v) in nz] + [den]
    for cid in list_certificates():
        cert = appendix_certificate(cid)
        M, c = _cleared_matrix(cert.ctx, cert.matrix)
        cleared += [x for row in M for x in row] + [c]
        for A in (cert.source, cert.target):
            nz, den = A.cleared_tensor()
            cleared += [v for (*_, v) in nz] + [den]
    parts = [part for v in cleared if isinstance(v, scalars.Cleared)
             for part in (v.re, v.rad, v.q or {})]
    assert sum(map(bool, parts)) > 1000
    coefficients = [v for v in cleared if not isinstance(v, scalars.Cleared)]
    coefficients += [x for part in parts for x in part.values()]
    assert {type(x) for x in coefficients} == {int}


def _scalar_form_failures(cert):
    """verify_certificate's failing residuals by the route it used before
    its Scalar run took the int form with c = 1 as a Scalar: the same
    cleared verdict, with ``_scalar_inputs`` for the Scalar run."""
    ctx = cert.ctx
    M, c = _cleared_matrix(ctx, cert.matrix)
    (N, s), (N2, t) = cert.source.cleared_tensor(), cert.target.cleared_tensor()
    cleared = (M, _form_tensor(*_half(cert.source)), N, N2, c, s, t)
    return _failures(ctx, iso._conditions, cleared, _scalar_inputs(cert),
                     (c, s, t))


@pytest.mark.parametrize("cid", ["DD42_V", "DD24_II0", "DD24_VI_1"])
def test_failing_residuals_equal_the_scalar_form_route(cid):
    """A corrupted certificate, numeric (DD42_V), parametric (DD24_II0) and
    radical (DD24_VI_1), fails with the same residuals, keys and Scalar
    values, as the Scalar-form route: C[0][0] + 1 breaks (i), and C[0][0]
    times 2 breaks (ii) on these rows as well."""
    cert = appendix_certificate(cid)
    ctx = cert.ctx
    assert bool(ctx.params) == (cid != "DD42_V")
    assert (ctx.radical_name is not None) == (cid == "DD24_VI_1")
    kinds = set()
    for corrupt in (lambda x: x + 1, lambda x: x * 2):
        matrix = [list(row) for row in cert.matrix]
        matrix[0][0] = corrupt(matrix[0][0])
        bad = IsoCertificate(ctx, matrix, cert.source, cert.target)
        ok, failing = verify_certificate(bad)
        assert not ok and failing == _scalar_form_failures(bad)
        assert all(isinstance(value, Scalar) and value.ctx == ctx
                   for (_, _, value) in failing)
        kinds.update(kind for (kind, _, _) in failing)
    assert kinds == {"form", "bracket"}


# the grid of the parametric certificate sweep, and its points per
# certificate and seed
SWEEP_GRID = [Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3)]
SWEEP_POINTS = 12
SWEEP_SEED = 32
# undefined at points of their declared domains (ROADMAP item 29)
UNDEFINED_ON_DOMAIN = ("DD24_VIII", "DD24_III_2")


@pytest.mark.parametrize("cid", [
    pytest.param(cid, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 29: a zero denominator or a "
        "negative radicand at points of the declared domain"))
    if cid in UNDEFINED_ON_DOMAIN else cid
    for cid in list_certificates() if appendix_certificate(cid).ctx.params])
def test_parametric_certificates_verify_on_their_declared_domains(cid):
    """Seeded points of SWEEP_GRID that the certificate's declared domains
    allow: each must bind and verify.  DD24_VIII and DD24_III_2 fail at some
    (Finding 2 of ROADMAP.md) until item 29 lands, which flips their strict
    xfail."""
    ctx = appendix_certificate(cid).ctx
    rng = random.Random("%s:%d" % (cid, SWEEP_SEED))
    allowed = {name: [v for v in SWEEP_GRID if ctx.domains[name].allows(v)]
               for name in ctx.params}
    failed = []
    for _ in range(SWEEP_POINTS):
        point = {name: rng.choice(values) for name, values in allowed.items()}
        try:
            ok = verify_certificate(appendix_certificate(cid, point))[0]
        except SuperTriplesError as exc:
            ok = exc
        if ok is not True:
            failed.append((point, ok))
    assert not failed, failed


def test_a_branch_with_a_negative_radicand_is_refused_by_the_decider():
    """At alpha = gamma = 1 DD24_VIII's radicand eps*(alpha + gamma) is -2 on
    the eps = -1 branch.  Its cleared residuals vanish there with s kept
    formal, but the decider settles the branch by bind's radical rule and
    refuses it, as the Scalar reference does."""
    cert = appendix_certificate("DD24_VIII", {"alpha": 1, "gamma": 1})
    for verdict in (verify_certificate, _scalar_failures):
        with pytest.raises(ConstraintViolation,
                           match="radicand of s is negative at these bindings"):
            verdict(cert)
