import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supertriples.catalog import appendix_certificate, catalog_triple
from supertriples.errors import (ConstraintViolation, DivisionByZero,
                                 InconsistentRadical)
from supertriples.scalars import (Domain, ParamContext, Scalar, arith,
                                  clear_denominators,
                                  cleared_vanish_on_branches, is_zero,
                                  random_scalar, substitute,
                                  vanishes_on_branches)


def ctx_p():
    return ParamContext([("p", Domain.free())])


def ctx_rho():
    base = ParamContext([("kappa", Domain.free()), ("lam", Domain.free()),
                         ("gam", Domain.free())])
    k, l, g = (base.param(n) for n in ("kappa", "lam", "gam"))
    radicand = (k * k - l * g).re[0]
    return ParamContext(list(zip(base.params, (Domain.free(),) * 3)),
                        radicals=[("rho", radicand)])


def test_common_denominator_sum():
    ctx = ParamContext([("p", Domain.free()), ("beta", Domain.free())])
    p, beta = ctx.param("p"), ctx.param("beta")
    s = beta / (p + 1) + beta * p / (p + 1)
    assert s == beta


def test_radical_square_is_radicand():
    ctx = ctx_rho()
    rho = ctx.param("rho")
    k, l, g = (ctx.param(n) for n in ("kappa", "lam", "gam"))
    assert rho * rho == k * k - l * g


def test_used_params():
    """Parameters in the numerator or the denominator count; a nonzero
    radical part brings in the radicand's parameters."""
    ctx = ctx_rho()
    k, l, rho = (ctx.param(n) for n in ("kappa", "lam", "rho"))
    assert ctx.const(3).used_params() == set()
    assert (2 / (k + 1)).used_params() == {"kappa"}
    assert (l * rho).used_params() == {"kappa", "lam", "gam"}
    assert (rho * rho - k * k).used_params() == {"lam", "gam"}


def test_field_inverse_of_monomial():
    ctx = ctx_p()
    p = ctx.param("p")
    inv = arith(2 * p, None, "inv")
    assert (inv * (2 * p)).is_one()


def test_is_zero_examples():
    ctx = ctx_p()
    p = ctx.param("p")
    assert is_zero((p + 1) / (p + 1) - 1)
    abg = ParamContext([(n, Domain.free()) for n in ("alpha", "beta", "gamma")])
    a, b, g = (abg.param(n) for n in ("alpha", "beta", "gamma"))
    expr = a / 2 - b / 2 + g / 4
    assert expr.substitute({"alpha": 0, "beta": 0, "gamma": 0}).is_zero()
    kctx = ParamContext([("kappa", Domain.free())])
    assert not is_zero(kctx.param("kappa"))


def test_substitute_sign_parameter():
    ctx = ParamContext([("eps", Domain.sign())])
    half_eps = ctx.param("eps") / 2
    assert half_eps.substitute({"eps": 1}) == Fraction(1, 2)
    with pytest.raises(ConstraintViolation):
        half_eps.substitute({"eps": 3})


def test_substitute_radical_consistent():
    ctx = ctx_rho()
    rho = ctx.param("rho")
    v = rho.substitute({"kappa": 5, "lam": 3, "gam": 3, "rho": 4})
    assert v == 4
    # the same radical rules when mapping into another context
    k, g = ctx.param("kappa"), ctx.param("gam")
    s = (k + rho) / rho + rho * g
    # a bound radical: with lam = 0 the radicand is kappa^2
    plain = ParamContext([(n, Domain.free()) for n in ctx.params])
    pk, pg = plain.param("kappa"), plain.param("gam")
    assert ctx.bind_scalars(plain, {"lam": 0, "rho": pk})(s) == 2 + pk * pg
    # the target's own radical, under a larger context
    names = ("x",) + ctx.params
    base = ParamContext([(n, Domain.free()) for n in names])
    bk, bl, bg = (base.param(n) for n in ("kappa", "lam", "gam"))
    big = ParamContext([(n, Domain.free()) for n in names],
                       radicals=[("rho", (bk * bk - bl * bg).re[0])])
    lifted = ctx.bind_scalars(big, {})(s)
    brho, bk, bg = big.param("rho"), big.param("kappa"), big.param("gam")
    assert lifted == (bk + brho) / brho + brho * bg
    assert str(lifted) == str(s)


def test_substitute_radical_inconsistent():
    ctx = ctx_rho()
    rho = ctx.param("rho")
    with pytest.raises(InconsistentRadical):
        rho.substitute({"kappa": 1, "lam": 1, "gam": 1, "rho": 1})
    # the same radical rules when mapping into another context
    target = ParamContext([(n, Domain.free()) for n in ctx.params])
    k, g = target.param("kappa"), target.param("gam")
    with pytest.raises(InconsistentRadical):   # bound to a wrong root
        ctx.bind_scalars(target, {"lam": 0, "rho": g})
    with pytest.raises(InconsistentRadical):   # target has no radical
        ctx.bind_scalars(target, {})
    other = ParamContext([(n, Domain.free()) for n in ctx.params],
                         radicals=[("rho", k.re[0])])
    with pytest.raises(InconsistentRadical):   # mismatched radicand
        ctx.bind_scalars(other, {})


def test_division_by_zero():
    ctx = ctx_p()
    p = ctx.param("p")
    with pytest.raises(DivisionByZero):
        (p - p).inv()
    with pytest.raises(DivisionByZero):
        arith(p, ctx.zero(), "div")


def test_radical_inverse():
    ctx = ctx_rho()
    rho = ctx.param("rho")
    k = ctx.param("kappa")
    x = rho + k
    assert (x * x.inv()).is_one()


def test_gcd_cancellation():
    ctx = ctx_p()
    p = ctx.param("p")
    t = (p ** 2 - 1) / (p - 1)
    assert t == p + 1
    u = (p ** 3 + p) / p
    assert u == p * p + 1


def test_vanishes_on_branches():
    ctx = ParamContext([("eps", Domain.sign()), ("x", Domain.free())])
    eps, x = ctx.param("eps"), ctx.param("x")
    assert not (eps * eps - 1).is_zero()
    assert vanishes_on_branches(eps * eps - 1)
    assert not vanishes_on_branches(eps * x)


def test_finite_domain_branches():
    ctx = ParamContext([("delta", Domain.finite([0, 1])), ("eps", Domain.sign())])
    branches = ctx.sign_branches()
    assert len(branches) == 4
    assert {tuple(sorted(b.items())) for b in branches} == {
        (("delta", Fraction(0)), ("eps", Fraction(1))),
        (("delta", Fraction(0)), ("eps", Fraction(-1))),
        (("delta", Fraction(1)), ("eps", Fraction(1))),
        (("delta", Fraction(1)), ("eps", Fraction(-1)))}


def test_domain_checking():
    dom = Domain.interval(-1, 1, lo_open=True, hi_open=True)
    assert dom.allows(Fraction(1, 2)) and not dom.allows(1)
    excl = Domain.free(excluded=(0,))
    assert excl.allows(5) and not excl.allows(0)
    half = Domain.interval(0, None, lo_open=True)
    assert half.allows(3) and not half.allows(0) and not half.allows(-1)


# -- field axioms and substitution homomorphism -----------------------------

small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(seed):
    rng = random.Random(seed)
    ctx = ParamContext([("p", Domain.free()), ("q", Domain.free())])
    a = random_scalar(ctx, rng)
    b = random_scalar(ctx, rng)
    c = random_scalar(ctx, rng)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert (a * a.inv()).is_one()


def test_field_axioms_at_sampled_points():
    rng = random.Random(0)
    ctx = ParamContext([("p", Domain.free()), ("q", Domain.free())])
    a = random_scalar(ctx, rng, depth=3)
    b = random_scalar(ctx, rng, depth=3)
    expr = a * b - b * a
    for _ in range(120):
        bind = {"p": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                "q": Fraction(rng.randint(-9, 9), rng.randint(1, 5))}
        assert expr.substitute(bind).is_zero()


@given(st.integers(0, 10 ** 6), small_fraction, small_fraction)
@settings(max_examples=60, deadline=None)
def test_bind_and_bind_scalars_agree(seed, x, y):
    """bind and bind_scalars are one map: numeric bindings, renaming into a
    larger context, and a general image such as p = 1/q."""
    rng = random.Random(seed)
    ctx = ParamContext([("p", Domain.free()), ("q", Domain.free())])
    s = random_scalar(ctx, rng, depth=3) / (random_scalar(ctx, rng) or 1)
    everywhere = {"p": x, "q": y}
    try:
        value = s.substitute(everywhere)
    except DivisionByZero:     # a denominator vanishes at (x, y)
        return
    for bind, rest in (({"p": x}, {"q": y}), (everywhere, {})):
        reduced, mapper = ctx.bind(bind)
        assert mapper(s) == ctx.bind_scalars(reduced, bind)(s)
        assert mapper(s).substitute(rest) == value
    big = ParamContext([("r", Domain.free()), ("q", Domain.free()),
                        ("p", Domain.free())])
    renamed = ctx.bind_scalars(big, {})(s)
    assert renamed.substitute(dict(everywhere, r=0)) == value
    try:
        diagonal = s.substitute({"p": x, "q": x}) if x else None
    except DivisionByZero:
        diagonal = None
    if diagonal is not None:
        q = big.param("q")
        inverted = ctx.bind_scalars(big, {"p": 1 / q, "q": 1 / q})(s)
        assert inverted.substitute({"p": 0, "q": 1 / x, "r": 0}) == diagonal


def test_bind_scalars_general_image():
    ctx = ctx_p()
    p = ctx.param("p")
    qctx = ParamContext([("q", Domain.free())])
    q = qctx.param("q")
    mapper = ctx.bind_scalars(qctx, {"p": 1 / q})
    assert mapper((p + 1) / (p - 1)) == (1 + q) / (1 - q)
    assert mapper(p * p - 2) == 1 / (q * q) - 2
    with pytest.raises(DivisionByZero):
        ctx.bind_scalars(qctx, {"p": 1})(1 / (p - 1))


@given(small_fraction, small_fraction)
@settings(max_examples=60, deadline=None)
def test_substitute_commutes_with_arith(x, y):
    ctx = ParamContext([("p", Domain.free()), ("q", Domain.free())])
    p, q = ctx.param("p"), ctx.param("q")
    bind = {"p": x, "q": y}
    for op in ("add", "sub", "mul"):
        lhs = substitute(arith(p + 1, q - 2, op), bind)
        rhs = arith(substitute(p + 1, bind), substitute(q - 2, bind), op)
        assert lhs == rhs
    if y != 2:
        lhs = substitute((p + 1) / (q - 2), bind)
        rhs = substitute(p + 1, bind) / substitute(q - 2, bind)
        assert lhs == rhs


def test_is_zero_implies_zero_at_all_bindings():
    ctx = ParamContext([("p", Domain.free())])
    p = ctx.param("p")
    s = (p + 1) * (p - 1) - p * p + 1
    assert s.is_zero()
    rng = random.Random(3)
    for _ in range(100):
        assert s.substitute({"p": Fraction(rng.randint(-20, 20),
                                           rng.randint(1, 7))}).is_zero()


def test_scalar_str_roundtrip():
    ctx = ctx_rho()
    rho, k, g = ctx.param("rho"), ctx.param("kappa"), ctx.param("gam")
    for s in (rho / (2 * g), (k + rho) / rho, k ** 2 / 2 - g, ctx.const(0),
              ctx.const(Fraction(-3, 7))):
        assert ctx.parse(str(s)) == s


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_fraction_normal_form_cancels_common_factors(seed):
    """(f*h)/(g*h) and f/g normalize to the same representation."""
    rng = random.Random(seed)
    ctx = ParamContext([("p", Domain.free()), ("q", Domain.free())])
    f = random_scalar(ctx, rng)
    g = random_scalar(ctx, rng)
    h = random_scalar(ctx, rng)
    if g.is_zero() or h.is_zero():
        return
    lhs = (f * h) / (g * h)
    rhs = f / g
    assert lhs == rhs
    assert lhs.key() == rhs.key()  # canonical form, not just equal values


def _contexts(*algebras):
    out = [A.ctx for A in algebras]
    for A in algebras:
        out += [c.ctx for (_, _, _, c) in A.nonzero()]
    return out


def test_substitute_shares_one_context():
    """A triple or a certificate changes context once: every part of the
    result, every scalar included, holds the same context object."""
    t = catalog_triple("MT24_4").substitute({"p": Fraction(1, 2)})
    assert len({id(c) for c in [t.ctx] + _contexts(t.S, t.S_dual)}) == 1
    cert = appendix_certificate("DD24_IIp_1").substitute(
        {"p": Fraction(1, 2), "alpha": 1})
    src, tgt = cert.source, cert.target
    parts = ([cert.ctx, src.triple.ctx, tgt.triple.ctx]
             + [x.ctx for row in cert.matrix for x in row]
             + _contexts(src, tgt, src.triple.S, src.triple.S_dual,
                         tgt.triple.S, tgt.triple.S_dual))
    assert len({id(c) for c in parts}) == 1
    assert cert.ctx.params == ("beta", "gamma")
    assert cert.verify()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_cleared_arithmetic_matches_scalar_arithmetic(seed):
    """Clearing commutes with the ring operations: x = X / c and y = Y / c'
    give x * y = X Y / (c c') and x + y = (X c' + Y c) / (c c'), checked by
    clearing the Scalar results over the same denominators."""
    rng = random.Random(seed)
    ctx = ctx_rho()
    rho = ctx.radical()
    k, l, g = (ctx.param(n) for n in ("kappa", "lam", "gam"))
    x = (random_scalar(ctx, rng) / (k * k + rng.randint(1, 5))
         + rho * random_scalar(ctx, rng, 1))
    y = (random_scalar(ctx, rng) * rho / (g * g + 1)
         + random_scalar(ctx, rng, 1) / (l * l + 2))
    (X,), c = clear_denominators(ctx, [x])
    (Y,), d = clear_denominators(ctx, [y])
    (P, S), e = clear_denominators(ctx, [x * y, x + y])
    # P / e = X Y / (c d) and S / e = (X d + Y c) / (c d)
    assert not (P * c * d - X * Y * e)
    assert not (S * c * d - (X * d + Y * c) * e)
    assert bool(X) == bool(x) and not X - X


def test_cleared_vanishing_leaves_rational_radicands_and_zero_dens_out():
    """A cleared value vanishing on every sign branch is accepted only when
    no branch needs bind's radical rule or a zero denominator: those
    branches are left to the Scalar path."""
    ctx = ParamContext([("p", Domain.free()), ("eps", Domain.sign())])
    p, eps = ctx.param("p"), ctx.param("eps")
    (v, one), _ = clear_denominators(ctx, [p * (eps * eps - 1), ctx.one()])
    (den_ok, den_zero), _ = clear_denominators(ctx, [eps + 2, eps + 1])
    assert v and cleared_vanish_on_branches(ctx, [v], (den_ok,))
    assert not cleared_vanish_on_branches(ctx, [v], (den_zero,))
    assert not cleared_vanish_on_branches(ctx, [v, one], (den_ok,))
    assert cleared_vanish_on_branches(ctx, [v - v], (den_zero,))
    rad = ParamContext([("p", Domain.free()), ("eps", Domain.sign())],
                       radicals=[("s", (p * p + eps).re[0])])
    const = ParamContext([("p", Domain.free()), ("eps", Domain.sign())],
                         radicals=[("s", (2 * eps).re[0])])
    for ctx2, expected in ((rad, True), (const, False)):
        p2, eps2 = ctx2.param("p"), ctx2.param("eps")
        (w,), den = clear_denominators(ctx2, [p2 * (eps2 * eps2 - 1)])
        assert cleared_vanish_on_branches(ctx2, [w], (den,)) is expected
