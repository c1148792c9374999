import ast
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import supertriples
from supertriples import polys
from supertriples.catalog import (ENV_PATH, Catalog, _catalog_decls,
                                  appendix_certificate, catalog_triple)
from supertriples.errors import (ConstraintViolation, DivisionByZero,
                                 InconsistentRadical)
from supertriples.parsing import parse_scalar
from supertriples.polys import _p_add, _p_divexact, _p_gcd, _p_gcd_prs, _p_mul
from supertriples.scalars import (Domain, ParamContext, Scalar, _rf_add,
                                  _rf_make, _rf_mul, arith,
                                  clear_denominators, failing_on_branches,
                                  is_zero, substitute)


def random_scalar(ctx, rng, depth=2):
    """Small random scalar for property tests."""
    if depth == 0 or not ctx.params:
        return ctx.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    op = rng.randint(0, 3)
    if op == 0:
        return ctx.param(rng.choice(ctx.params))
    a = random_scalar(ctx, rng, depth - 1)
    b = random_scalar(ctx, rng, depth - 1)
    if op == 1:
        return a + b
    if op == 2:
        return a * b
    return a - b


def scalar_vanishes_on_branches(s):
    """The Scalar reference: s is zero on every finite-domain branch of its
    context, each branch substituted by ``bind`` (no substitution when
    there are none)."""
    branches = s.ctx.sign_branches()
    if len(branches) == 1 and not branches[0]:
        return s.is_zero()
    return all(s.substitute(b).is_zero() for b in branches)


def scalar_branch_failures(residuals):
    """The items of residuals whose last entry, a Scalar, fails to vanish
    on some branch (``scalar_vanishes_on_branches``): the independent
    oracle for the checks that ``failing_on_branches`` decides."""
    return [item for item in residuals
            if not scalar_vanishes_on_branches(item[-1])]


def scalar_verdict(check):
    """check() or, when it refuses its input, the exception's type."""
    try:
        return check()
    except (ConstraintViolation, DivisionByZero) as exc:
        return type(exc)


def perturbations(ctx):
    """Nonzero Scalars of ctx to perturb an input by: a rational times 1, a
    parameter or the product of x - v over the values v of a finite
    parameter x (zero on every branch, though not as a Scalar), divided by
    1 or by x^2 + 1 for a parameter x, which vanishes on no branch."""
    factors = [ctx.one()] + [ctx.param(name) for name in ctx.params]
    for name in ctx.params:
        if ctx.domains[name].is_finite:
            factor = ctx.one()
            for v in ctx.domains[name].values:
                factor = factor * (ctx.param(name) - v)
            factors.append(factor)
    dens = [ctx.one()] + [ctx.param(name) ** 2 + 1 for name in ctx.params]
    return st.builds(lambda delta, factor, den: delta * factor / den,
                     st.fractions(-5, 5, max_denominator=7).filter(bool),
                     st.sampled_from(factors), st.sampled_from(dens))


def test_polys_is_the_only_polynomial_module():
    """Only polys.py defines _p_* functions, and polys imports nothing from
    the package: the ring sits below the scalar tower."""
    package = os.path.dirname(supertriples.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("_p_")]
        assert bool(defined) == (name == "polys.py"), (name, defined)
        if name == "polys.py":
            inside = [ast.dump(node) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and (node.level or node.module.startswith("supertriples"))
                      or isinstance(node, ast.Import)
                      and any(a.name.startswith("supertriples") for a in node.names)]
            assert not inside, inside


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
    assert inv * (2 * p) == 1


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
    assert x * x.inv() == 1


def test_gcd_cancellation():
    ctx = ctx_p()
    p = ctx.param("p")
    t = (p ** 2 - 1) / (p - 1)
    assert t == p + 1
    u = (p ** 3 + p) / p
    assert u == p * p + 1


@st.composite
def monomial_and_polynomial(draw):
    """(m, g) over 1-4 variables: m = c*x^a with c a nonzero Fraction of
    either sign (a = 0 gives a constant), g a random nonzero polynomial or
    a product m'*h, so that it often shares a monomial factor with m."""
    nv = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 3)] * nv)
    coefficient = st.fractions(-6, 6, max_denominator=5).filter(bool)
    m = {draw(exponent): draw(coefficient)}
    g = draw(st.dictionaries(exponent, coefficient, min_size=1, max_size=4))
    if draw(st.booleans()):
        g = _p_mul({draw(exponent): draw(coefficient)}, g)
    return m, g


@given(monomial_and_polynomial())
@settings(max_examples=200, deadline=None)
def test_gcd_with_a_monomial_equals_the_prs_gcd(pair):
    """With a monomial argument, in either order, _p_gcd reads the gcd off
    the exponents and gives the pseudo-remainder sequence's result: the
    primitive x^b, b the componentwise minimum, dividing both arguments."""
    m, g = pair
    expected = _p_gcd_prs(m, g)
    for f, h in ((m, g), (g, m)):
        got = _p_gcd(f, h)
        assert got == expected
        _p_divexact(f, got)
        _p_divexact(h, got)


@given(st.integers(0, 4).flatmap(lambda nv: st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * nv),
    st.fractions(-3, 3, max_denominator=3).filter(bool), max_size=4)))
def test_p_is_const_equals_the_all_zero_exponents_test(f):
    """_p_is_const reads at most one key, and agrees with the definition:
    every monomial's exponents are zero (so zero is constant), over any
    number of variables, none included."""
    assert polys._p_is_const(f) == all(all(e == 0 for e in m) for m in f)


@st.composite
def polynomial_pair(draw):
    """(g, h) over one number (0-3) of variables, with small rational
    coefficients: g has at most four terms, h at most two; either may be
    zero."""
    nv = draw(st.integers(0, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * nv)
    coefficient = st.fractions(-4, 4, max_denominator=4).filter(bool)
    return tuple(draw(st.dictionaries(exponent, coefficient, max_size=size))
                 for size in (4, 2))


@given(polynomial_pair())
@settings(max_examples=300, deadline=None)
def test_p_sqrt_returns_exact_roots(pair):
    """_p_sqrt(g*g) is g up to sign, so it squares back to g*g; and a root
    it returns always squares to its input, for the random g and for g*g
    disturbed by h (nearly never a square)."""
    g, h = pair
    square = _p_mul(g, g)
    root = polys._p_sqrt(square)
    assert root is not None and _p_mul(root, root) == square
    assert root in (g, polys._p_neg(g))
    for f in (g, _p_add(square, h)):
        root = polys._p_sqrt(f)
        if root is not None:
            assert _p_mul(root, root) == f


# _p_gcd_prs calls made while building the shipped catalog, of its 154
# _p_gcd calls, recursion included (959 when every gcd ran the sequence)
CATALOG_PRS_GCDS = 16


def test_building_the_catalog_takes_no_prs_gcd_with_a_monomial(monkeypatch):
    """The shipped catalog builds with no pseudo-remainder sequence on a
    monomial argument, and with a pinned number of them in all: counts
    repeat exactly, so a lost fast path shows here, not only in time."""
    calls = []
    prs = polys._p_gcd_prs

    def counted(f, g):
        calls.append(len(f) == 1 or len(g) == 1)
        return prs(f, g)

    monkeypatch.delenv(ENV_PATH, raising=False)
    monkeypatch.setattr(polys, "_p_gcd_prs", counted)
    Catalog(_catalog_decls())
    assert not any(calls)
    assert len(calls) == CATALOG_PRS_GCDS


def test_vanishes_on_branches():
    """eps^2 - 1 is not zero but vanishes on both sign branches, eps x and
    a nonzero integer do not; the decider and the Scalar reference agree,
    on cleared Scalars and on integers, the degree-0 case."""
    ctx = ParamContext([("eps", Domain.sign()), ("x", Domain.free())])
    eps, x = ctx.param("eps"), ctx.param("x")
    values = [eps * eps - 1, eps * x, ctx.zero(), (eps * eps - 1) / (x * x + 1)]
    assert not values[0].is_zero()
    assert scalar_vanishes_on_branches(values[0])
    assert not scalar_vanishes_on_branches(values[1])
    cleared, den = clear_denominators(ctx, values)
    assert failing_on_branches(ctx, cleared, (den,)) == [1]
    assert scalar_branch_failures([(v,) for v in values]) == [(values[1],)]
    numeric = ParamContext()
    ints, one = clear_denominators(numeric, [numeric.const(Fraction(3, 2)),
                                             numeric.zero(), numeric.const(-1)])
    assert (ints, one) == ([3, 0, -2], 2)
    assert failing_on_branches(numeric, ints, (one,)) == [0, 2]


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


def _kind_sample(kind, dom, rng):
    """Domain.sample as it read when a domain stored its kind ('free',
    'finite' or 'interval'): the reference for the kind-free sampler."""
    if kind == "finite":
        return rng.choice(dom.values)
    for _ in range(1000):
        num = rng.randint(-12, 12)
        den = rng.randint(1, 6)
        v = Fraction(num, den)
        if kind == "interval":
            lo = dom.lo if dom.lo is not None else Fraction(-13)
            hi = dom.hi if dom.hi is not None else Fraction(13)
            span = hi - lo
            v = lo + abs(v) % 1 * span if span < 26 else v
        if dom.allows(v):
            return v
    raise ConstraintViolation("could not sample domain")


SAMPLED_DOMAINS = [
    ("free", Domain.free()),
    ("free", Domain.free(excluded=(0, 1))),
    ("finite", Domain.sign()),
    ("finite", Domain.finite([0, 1, Fraction(-2, 3)])),
    ("interval", Domain.interval(0, None, lo_open=True)),
    ("interval", Domain.interval(None, 0, True, True)),
    ("interval", Domain.interval(-1, 1, excluded=(0,))),
    ("interval", Domain.interval(Fraction(1, 3), 2, True, False)),
    ("interval", Domain.interval(-20, 20)),
    ("interval", Domain.interval(None, None, True, True, excluded=(2,))),
]


@pytest.mark.parametrize("kind, dom", SAMPLED_DOMAINS,
                         ids=[d.describe() for _, d in SAMPLED_DOMAINS])
def test_domain_sample_draws_as_the_kind_based_sampler(kind, dom):
    """Without a stored kind, sample draws the same values from the same
    rng, and leaves it in the same state, as the kind-based sampler did,
    so orbit draws do not move."""
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert dom.sample(ours) == _kind_sample(kind, dom, ref), seed
        assert ours.getstate() == ref.getstate()


def test_an_infinite_bound_is_open():
    """A missing bound is open, so the unbounded interval is free: equal,
    hashed alike and described as free."""
    assert Domain.interval(None, None) == Domain.free()
    assert hash(Domain.interval(None, None)) == hash(Domain.free())
    assert Domain.interval(None, None, excluded=(0,)).describe() == "free \\ {0}"
    assert Domain.interval(0, None, lo_open=True) == Domain.interval(0, None, True, True)
    assert Domain.interval(0, None).describe() == "[0, inf)"
    assert Domain.interval(0, 1) != Domain.interval(0, 1, hi_open=True)


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
        assert a * a.inv() == 1


@given(st.integers(0, 10 ** 6), st.sampled_from(["params", "radical"]))
@settings(max_examples=80, deadline=None)
def test_equality_is_equality_of_canonical_forms(seed, which):
    """== compares canonical forms and subtracts nothing: it agrees with
    (a - b).is_zero() and equal scalars hash alike, over parameters and over
    a radical, for b drawn at random or rebuilt from a in another order, and
    for a copy of a in an equal but distinct context object."""
    rng = random.Random(seed)

    def make():
        if which == "radical":
            return ctx_rho()
        return ParamContext([("p", Domain.free()), ("q", Domain.free())])

    ctx = make()

    def draw():
        x = random_scalar(ctx, rng)
        if ctx.radical_name is not None:
            x = x + random_scalar(ctx, rng, 1) * ctx.radical()
        return x

    a, c = draw(), draw()
    twin = make()
    copy = ctx.bind_scalars(twin, {})(a)
    assert twin is not ctx and copy.ctx is twin
    for b in (draw(), c, a + c - c, c + a - c, (a * c) / c if c else -(-a),
              a * 1, copy):
        assert (a == b) == (a - b).is_zero() == (b == a)
        if a == b:
            assert hash(a) == hash(b)
    assert a == copy and a == a + c - c
    assert (a == 0) == a.is_zero() and (a == 1) == (a - 1).is_zero()


@given(st.lists(st.tuples(st.sampled_from(["int", "fraction", "numeric",
                                           "parametric"]), small_fraction),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_equal_numbers_hash_alike(drawn):
    """Ints, Fractions and constant Scalars, of a numeric context and of one
    with a parameter, hash alike whenever they are equal, so a set or a dict
    key treats a constant and its number as one."""
    contexts = {"numeric": ParamContext(),
                "parametric": ParamContext([("p", Domain.free())])}

    def make(kind, q):
        if kind == "int":
            return q.numerator
        if kind == "fraction":
            return q
        return contexts[kind].const(q)

    values = [make(kind, q) for kind, q in drawn]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                assert {a: True}.get(b), (a, b)
    one = contexts["numeric"].const(1)
    assert len({one, 1, Fraction(1)}) == 1


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
        assert parse_scalar(ctx, str(s)) == s


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


def test_cleared_vanishing_settles_rational_radicands_and_zero_dens():
    """A branch on which an input denominator vanishes leaves that input
    undefined: DivisionByZero, unless every value has already failed.  A
    branch that makes the radicand a rational q settles the radical by
    bind's rule: a square q binds it to its root, a negative q is a
    ConstraintViolation, any other q keeps it, so both parts must vanish."""
    ctx = ParamContext([("p", Domain.free()), ("eps", Domain.sign())])
    p, eps = ctx.param("p"), ctx.param("eps")
    (v, one), _ = clear_denominators(ctx, [p * (eps * eps - 1), ctx.one()])
    (den_ok, den_zero), _ = clear_denominators(ctx, [eps + 2, eps + 1])
    assert v and failing_on_branches(ctx, [v], (den_ok,)) == []
    with pytest.raises(DivisionByZero):
        failing_on_branches(ctx, [v], (den_zero,))
    assert failing_on_branches(ctx, [v, one], (den_ok,)) == [1]
    assert failing_on_branches(ctx, [one], (den_zero,)) == [0]
    assert failing_on_branches(ctx, [v - v], (den_zero,)) == []

    def context(radicand):
        base = ParamContext([("p", Domain.free()), ("eps", Domain.sign())])
        return ParamContext([("p", Domain.free()), ("eps", Domain.sign())],
                            radicals=[("s", radicand(base).re[0])])

    # s^2 = p^2 + eps stays formal; s^2 = 4 eps is negative on eps = -1;
    # s^2 = 2 + eps keeps s on eps = 1 (q = 3) and binds s = 1 on eps = -1
    for radicand, value, expected in (
            (lambda c: c.param("p") ** 2 + c.param("eps"),
             lambda c: c.param("p") * (c.param("eps") ** 2 - 1), []),
            (lambda c: 4 * c.param("eps"),
             lambda c: c.param("p") * (c.param("eps") ** 2 - 1),
             ConstraintViolation),
            (lambda c: 2 + c.param("eps"),
             lambda c: (c.radical() - 1) * (c.param("eps") - 1), []),
            (lambda c: 2 + c.param("eps"),
             lambda c: c.radical() - 1, [0])):
        ctx2 = context(radicand)
        w = value(ctx2)
        (cleared,), den = clear_denominators(ctx2, [w])
        if expected is ConstraintViolation:
            with pytest.raises(ConstraintViolation, match="radicand of s is negative"):
                failing_on_branches(ctx2, [cleared], (den,))
            with pytest.raises(ConstraintViolation, match="radicand of s is negative"):
                scalar_branch_failures([(w,)])
        else:
            assert failing_on_branches(ctx2, [cleared], (den,)) == expected
            assert scalar_branch_failures([(w,)]) == [(w,)] * len(expected)


def _as_fraction_through_is_constant(s):
    """The value of a constant Scalar read through ``is_constant`` and
    ``polys._p_const_value``, the reference for ``Scalar.as_fraction``."""
    if not s.is_constant():
        raise ConstraintViolation("scalar %s is not numeric" % s)
    num, den = map(polys._p_const_value, s.re)
    return num if den == 1 else Fraction(num) / den


AS_FRACTION_CONTEXTS = {
    "numeric": lambda: ParamContext(),
    "parameter": ctx_p,
    "radical": lambda: ParamContext(radicals=[("r", polys._p_const(2, 0))]),
    "both": ctx_rho,
}


@given(small_fraction, small_fraction.filter(bool),
       st.sampled_from(sorted(AS_FRACTION_CONTEXTS)))
@settings(max_examples=150, deadline=None)
def test_as_fraction_reads_the_canonical_constant(x, y, which):
    """as_fraction reads a constant off its canonical form: a Fraction equal
    to the value read through is_constant, for constants built directly and
    by arithmetic that cancels every parameter and the radical.  A
    parameter, a radical or a quotient that is no constant raises the
    reference's ConstraintViolation, message and all."""
    ctx = AS_FRACTION_CONTEXTS[which]()
    gens = [ctx.param(name) for name in ctx.params]
    if ctx.radical_name:
        gens.append(ctx.radical())
    constants = [ctx.const(x), ctx.const(x) / y, ctx.zero()]
    for g in gens:
        constants += [(g + x) - g, (g * x) / g, (x * g + y) / g - y / g]
    for s in constants:
        value = s.as_fraction()
        assert type(value) is Fraction
        assert value == _as_fraction_through_is_constant(s)
    assert constants[0].as_fraction() == x and constants[1].as_fraction() == x / y
    others = [g + x for g in gens] + [g * y for g in gens]
    others += [ctx.const(y) / (g * g + 1) for g in gens if g.rad is None]
    for s in others:
        with pytest.raises(ConstraintViolation) as reference:
            _as_fraction_through_is_constant(s)
        with pytest.raises(ConstraintViolation) as read:
            s.as_fraction()
        assert str(read.value) == str(reference.value)


rational_or_int = st.one_of(small_fraction, st.integers(-9, 9))
constant_rf = st.tuples(rational_or_int,
                        rational_or_int.filter(bool)).map(
    lambda nd: ({(): nd[0]} if nd[0] else {}, {(): nd[1]}))


@given(constant_rf, constant_rf)
@settings(max_examples=300, deadline=None)
def test_constant_rational_functions_skip_the_gcd(a, b):
    """Over no parameter, _rf_make, _rf_add and _rf_mul divide two
    constants and take no gcd.  Their results are dict-equal to those of the
    general path, run on the same constants as polynomials in one
    variable, and every value is a Fraction, even for int coefficients."""
    def lift(rf):
        return tuple({(0,): c for c in p.values()} for p in rf)

    def drop(rf):
        return tuple({(): c for c in p.values()} for p in rf)

    for fast, general in (
            (_rf_make(*a, 0), _rf_make(*lift(a), 1)),
            (_rf_add(a, b, 0), _rf_add(lift(a), lift(b), 1)),
            (_rf_mul(a, b, 0), _rf_mul(lift(a), lift(b), 1))):
        assert fast == drop(general)
        assert fast[1] == {(): 1}
        assert all(type(c) is Fraction for p in fast for c in p.values())


RADICAL_CONTEXTS = {
    "constant": lambda: ParamContext(radicals=[("r", polys._p_const(2, 0))]),
    "parameter": lambda: ParamContext(
        [("p", Domain.free())], radicals=[("r", ctx_p().param("p").re[0])]),
    "both": ctx_rho,
}


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(RADICAL_CONTEXTS)))
@settings(max_examples=80, deadline=None)
def test_a_zero_radical_part_is_stored_as_none(seed, which):
    """A radical part that cancels is stored as None, never as a zero
    rational function, so ``rad is None`` is the one test of it: for every
    arithmetic result on random a + b*r, and for r*r - q and
    (a + b*r) - b*r in particular."""
    rng = random.Random(seed)
    ctx = RADICAL_CONTEXTS[which]()
    r = ctx.radical()
    q = Scalar(ctx, (ctx.radicand, ctx.one().re[1]), None)
    a, b, c = (random_scalar(ctx, rng) for _ in range(3))
    x = a + b * r
    results = [r * r - q, x - b * r, (a + b * r) - (b * r + a), x * c - x * c,
               r * b - b * r, x + c, x - c, x * c, -x, x * x, r * x - x * r]
    if x:
        results += [x.inv(), c / x, x / x, x * x.inv()]
    for s in results:
        assert s.rad is None or s.rad[0], s
    for s in results[:5]:
        assert s.rad is None, s
