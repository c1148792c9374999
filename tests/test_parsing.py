import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from supertriples.catalog import AlgebraEntry, get_catalog
from supertriples.errors import DivisionByZero, ParseError, UnknownName
from supertriples.parsing import (MAX_DIGITS, MAX_EXPONENT, MAX_PAREN_DEPTH,
                                  Tokenizer,
                                  eval_generator_combo, parse_catalog, parse_expr, parse_scalar,
                                  render_brackets, render_combo,
                                  render_params, _negative_everywhere)
from supertriples.polys import _p_compose, _p_const_value, _p_sqrt, _p_str
from supertriples.scalars import Domain, ParamContext
from test_scalars import random_scalar


def test_expression_basics():
    ctx = ParamContext([("p", Domain.free())])
    p = ctx.param("p")
    assert parse_scalar(ctx, "1/2") == Fraction(1, 2)
    assert parse_scalar(ctx, "p^2 - 1") == p * p - 1
    assert parse_scalar(ctx, "-(p + 1)/(2*p)") == -(p + 1) / (2 * p)
    assert parse_scalar(ctx, "sqrt(9/4)") == Fraction(3, 2)


def test_expression_radical():
    base = ParamContext([("g", Domain.free())])
    radicand = base.param("g").re[0]
    ctx = ParamContext([("g", Domain.free())], radicals=[("s", radicand)])
    s = ctx.param("s")
    assert parse_scalar(ctx, "sqrt(g)") == s
    assert parse_scalar(ctx, "1/s") == s.inv()
    with pytest.raises(ParseError):
        parse_scalar(ctx, "sqrt(g + 1)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_catalog("algebra X super_dim (1, ?)")
    assert "line 1" in str(err.value)


def test_trailing_input_rejected():
    ctx = ParamContext()
    with pytest.raises(ParseError):
        parse_scalar(ctx, "1 + 2 junk")


def test_domain_forms():
    text = """
    algebra T super_dim (1, 2)
      params { eps : sign; delta : {0, 1}; p : (-1, 1); q : [0, inf);
               k : free \\ {0, -1}; r : {-1/2, 3}; t : (0, 1) \\ {1/2, 1/3} }
      brackets { }
    """
    decl = parse_catalog(text)[0]
    ctx = decl.ctx
    assert ctx.domains["eps"].is_sign
    assert ctx.domains["delta"].values == (Fraction(0), Fraction(1))
    assert not ctx.domains["p"].allows(1)
    assert ctx.domains["q"].allows(0) and not ctx.domains["q"].allows(-1)
    assert not ctx.domains["k"].allows(0) and not ctx.domains["k"].allows(-1)
    assert ctx.domains["r"].values == (Fraction(-1, 2), Fraction(3))
    assert not ctx.domains["t"].allows(Fraction(1, 3))
    assert ctx.domains["t"].allows(Fraction(1, 4))


def test_unbounded_interval_is_free():
    """(-inf, inf) is the domain free: equal, and printed as free, with its
    exclusions too."""
    text = """
    algebra T super_dim (1, 1)
      params { a : free; b : (-inf, inf); c : free \\ {0}; d : (-inf, inf) \\ {0};
               e : [0, inf) }
      brackets { }
    """
    dom = parse_catalog(text)[0].ctx.domains
    assert dom["a"] == dom["b"] and dom["c"] == dom["d"] and dom["a"] != dom["c"]
    assert [dom[n].describe() for n in "abcde"] == [
        "free", "free", "free \\ {0}", "free \\ {0}", "[0, inf)"]


def _algebra(brackets):
    return AlgebraEntry(parse_catalog(
        "algebra X super_dim (1, 2) params { a : free } brackets { %s }"
        % brackets)[0])


def test_bracket_combos():
    """A bracket value is a linear combination of generators."""
    alg = _algebra("[b1, f1] = -a*f1 - (f2 - f1)/a + (a - a);"
                   " [b1, f2] = 2*sqrt(9/4)*f2 - 3*f2 + 0*f1;"
                   " [f1, f2] = (a/2)*b1")
    a = alg.ctx.param("a")
    brackets = alg.algebra.brackets_dict()
    assert brackets[(0, 1)] == {1: (1 - a * a) / a, 2: -1 / a}
    assert (0, 2) not in brackets      # 3*f2 - 3*f2 + 0*f1 vanishes
    assert brackets[(1, 2)] == {0: a / 2}


@given(st.integers(1, 3).flatmap(lambda nv: st.tuples(
    st.dictionaries(st.tuples(*[st.sampled_from([0, 1, 2, 4])] * nv),
                    st.fractions(-3, 3, max_denominator=3).filter(bool),
                    min_size=1, max_size=4),
    st.lists(st.fractions(-4, 4, max_denominator=5), min_size=nv, max_size=nv))))
@settings(max_examples=300, deadline=None)
def test_negative_everywhere_is_sound(drawn):
    """A radicand refused as negative at every real point is negative at
    every sampled rational point, whatever its monomials."""
    q, point = drawn
    if _negative_everywhere(q):
        value = _p_compose(q, [(x, None) for x in point], 0)
        assert value and _p_const_value(value) < 0


def test_negative_everywhere_examples():
    """-p^2 - 1 and -1 are refused; -p^2 (zero at 0), -p - 1 (an odd
    exponent), p^2 - 1 and -gamma (a shipped radicand on (-inf, 0)) are
    kept."""
    ctx = ParamContext([("p", Domain.free())])
    for text, refused in (("-p^2 - 1", True), ("-1", True),
                          ("-p^4 - 3*p^2 - 1/2", True), ("-p^2", False),
                          ("-p - 1", False), ("p^2 - 1", False),
                          ("-p^2 + 1", False)):
        assert _negative_everywhere(parse_scalar(ctx, text).re[0]) is refused, text
    gamma = ParamContext([("gamma", Domain.interval(None, 0, True, True))])
    assert not _negative_everywhere(parse_scalar(gamma, "-gamma").re[0])


def test_shipped_radicands_are_no_polynomial_squares():
    """The four radicands of the shipped catalog (its certificates) are
    kept by the radicand refusals: none is negative at every real point or
    the square of a polynomial, so the catalog parses, -gamma included."""
    radicands = {(e.ctx.params, _p_str(e.ctx.radicand, e.ctx.params))
                 for e in get_catalog().certs.values() if e.ctx.radical_name}
    assert sorted(r for _, r in radicands) == [
        "-gamma", "-lambda*gamma + kappa^2", "alpha*eps + gamma*eps", "gamma"]
    for params, radicand in radicands:
        text = "algebra X super_dim (1, 0) params { %s; r : sqrt(%s) }" % (
            "; ".join("%s : free" % name for name in params), radicand)
        (decl,) = parse_catalog(text)
        assert _p_sqrt(decl.ctx.radicand) is None


def test_shipped_catalogs_roundtrip():
    """Parse -> re-render -> re-parse equals the original in memory."""
    cat = get_catalog()
    # algebras
    for name, entry in cat.algebras.items():
        alg = entry.algebra
        text = "algebra %s super_dim (%d, %d) %s %s" % (
            name, entry.grading.m, entry.grading.n,
            render_params(entry.ctx),
            render_brackets(alg.names, sorted(alg.brackets_dict().items())))
        redecl = parse_catalog(text)[0]
        from supertriples.catalog import AlgebraEntry
        rebuilt = AlgebraEntry(redecl).algebra
        assert rebuilt.ctx == alg.ctx
        assert rebuilt.tensor_equal(alg), name
    # triples
    for tid, entry in cat.triples.items():
        t = entry.triple
        left = render_brackets(t.S.names, sorted(t.S.brackets_dict().items()))
        right = render_brackets(t.S_dual.names,
                                sorted(t.S_dual.brackets_dict().items()))
        text = "triple %s super_dim (%d, %d) %s left %s right %s" % (
            tid, entry.grading.m, entry.grading.n, render_params(entry.ctx),
            left[len("brackets "):] and left.replace("brackets ", "", 1),
            right.replace("brackets ", "", 1))
        redecl = parse_catalog(text)[0]
        from supertriples.catalog import TripleEntry
        rebuilt = TripleEntry(redecl, cat.algebras).triple
        assert rebuilt.S.tensor_equal(t.S), tid
        assert rebuilt.S_dual.tensor_equal(t.S_dual), tid
    # automorphism blocks
    for name, entry in cat.algebras.items():
        if not entry.decl.autos:
            continue
        blocks = []
        for branch in entry.automorphisms():
            fam_params = "; ".join(
                "%s : %s" % (n, branch.ctx.domains[n].describe())
                for n in branch.family_params)
            matrix = "[%s]" % ", ".join(
                "[%s]" % ", ".join(str(x) for x in row)
                for row in branch.matrix)
            cons = "; ".join(str(c) for c in branch.constraints)
            blocks.append("automorphism { params { %s } matrix %s"
                          " constraints { %s } }" % (fam_params, matrix, cons))
        alg = entry.algebra
        text = "algebra %s super_dim (%d, %d) %s %s %s" % (
            name, entry.grading.m, entry.grading.n,
            render_params(entry.ctx),
            render_brackets(alg.names, sorted(alg.brackets_dict().items())),
            " ".join(blocks))
        from supertriples.catalog import AlgebraEntry
        rebuilt = AlgebraEntry(parse_catalog(text)[0])
        for old, new in zip(entry.automorphisms().branches,
                            rebuilt.automorphisms().branches):
            assert old.ctx == new.ctx, name
            assert all((a - b).is_zero() for ra, rb in zip(old.matrix, new.matrix)
                       for a, b in zip(ra, rb)), name
            assert len(old.constraints) == len(new.constraints)
    # certificates re-render through scalar syntax
    for cid, entry in cat.certs.items():
        cert = entry.certificate
        for row in cert.matrix:
            for x in row:
                assert parse_scalar(cert.ctx, str(x)) == x, cid


def test_comments_and_strings():
    text = '# leading comment\nalgebra A super_dim (1, 0) brackets { } comment "abelian"\n'
    decl = parse_catalog(text)[0]
    assert decl.comment == "abelian"


def test_tokenizer_unterminated_string():
    with pytest.raises(ParseError):
        Tokenizer('label "oops')


def test_superscript_digits_are_not_numbers():
    """str.isdigit accepts superscripts that int() refuses; a number is read
    from decimal digits only, so '2⁵' is 2 followed by a stray character."""
    for text, where, ch in (("2⁵", "line 1, col 2", "⁵"),
                            ("²", "line 1, col 1", "²")):
        with pytest.raises(ParseError) as err:
            parse_scalar(ParamContext(), text)
        assert str(err.value) == "%s: unexpected character %r" % (where, ch)


def test_parentheses_nest_at_most_max_paren_depth():
    """parse_expr recurses once per open parenthesis, so deeper nesting is a
    ParseError at the first parenthesis past the bound, not a RecursionError."""
    deepest = "(" * MAX_PAREN_DEPTH + "1" + ")" * MAX_PAREN_DEPTH
    assert parse_scalar(ParamContext(), deepest) == 1
    with pytest.raises(ParseError) as err:
        parse_scalar(ParamContext(), "(" + deepest + ")")
    assert str(err.value) == ("line 1, col %d: parentheses nested deeper than %d"
                              % (MAX_PAREN_DEPTH + 1, MAX_PAREN_DEPTH))


_EXPR_CHARS = "0123456789pq_()+-*/^,; \n#\"²⁵٣"
_EXPR_TEXTS = st.one_of(st.text(), st.text(alphabet=_EXPR_CHARS),
                        st.lists(st.sampled_from(["sqrt(", "(", ")", "-", "+",
                                                  "1", "p", "^", "*"])
                                 ).map("".join))


@given(_EXPR_TEXTS)
@example("(" * (MAX_PAREN_DEPTH + 1) + "1")
@example("sqrt(" * (MAX_PAREN_DEPTH + 1))
@example("-" * 5000 + "1")
@example("2⁵")
@settings(max_examples=300, deadline=None)
def test_tokenizer_and_parse_expr_raise_only_parse_errors(text):
    """For any text the tokenizer and parse_expr give tokens and an AST or
    raise ParseError.  Nothing is evaluated here."""
    try:
        tz = Tokenizer(text)
        while not tz.at("eof"):
            parse_expr(tz)
    except ParseError:
        pass


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


# 1/2 + 1/3 + 1/5 + ...: each term grows the denominator, so the sum passes
# MAX_DIGITS digits well before its 600th term
_PRIME_SUM = " + ".join("1/%d" % p for p in _primes(600))


@given(_EXPR_TEXTS)
@example("(" + "+".join(["1"] * 5000) + ")")
@example("-" * 5001 + "p")
@example("1/(p - p)")
@example("q")
@example("sqrt(p)")
@example("(((((2^64)^64)^64)^64)^64)")
@example("((((p + 1)^8)^8)^8)")
@example("(0^-1)")
@example(_PRIME_SUM)
@settings(max_examples=300, deadline=None)
def test_parse_scalar_raises_only_input_errors(text):
    """For any text parse_scalar gives a Scalar or raises ParseError,
    UnknownName or DivisionByZero.  Nested powers multiply their exponents,
    and a power is refused before it is computed when its size would pass
    MAX_DIGITS digits or degree MAX_EXPONENT."""
    ctx = ParamContext([("p", Domain.free())])
    try:
        assert parse_scalar(ctx, text).ctx is ctx
    except (ParseError, UnknownName, DivisionByZero):
        pass


def test_long_chains_evaluate_in_a_loop():
    """A 1500-term sum and a run of 1500 signs evaluate without recursing
    once per operator; a sign run is at most one negation."""
    ctx = ParamContext()
    assert parse_scalar(ctx, "(" + "+".join(["1"] * 1500) + ")") == 1500
    assert parse_scalar(ctx, "-" * 1500 + "1") == 1
    assert parse_expr(Tokenizer("-" * 1501 + "1")) == ("neg", ("num", 1))
    assert parse_expr(Tokenizer("+-+-1")) == ("num", 1)


def test_exponents_are_at_most_max_exponent():
    """A power multiplies once per unit of its exponent, so |k| is bounded;
    the error points at the exponent."""
    ctx = ParamContext()
    assert parse_scalar(ctx, "2^%d" % MAX_EXPONENT) == 2 ** MAX_EXPONENT
    assert parse_scalar(ctx, "2^-%d" % MAX_EXPONENT) == Fraction(1, 2 ** MAX_EXPONENT)
    for text, col in (("2^%d" % (MAX_EXPONENT + 1), 3),
                      ("1 + 2^-99999999", 7)):
        with pytest.raises(ParseError) as err:
            parse_scalar(ctx, text)
        assert str(err.value) == ("line 1, col %d: exponent larger than %d"
                                  % (col, MAX_EXPONENT))


def test_powers_are_bounded_in_evaluated_size():
    """A power whose coefficients could pass MAX_DIGITS digits or whose
    degree could pass MAX_EXPONENT is a ParseError at its exponent, raised
    before the power is multiplied out.  A sum, difference, product or
    quotient past either bound is one at its operator, once computed."""
    ctx = ParamContext([("p", Domain.free())])
    big = "9" * MAX_DIGITS
    assert parse_scalar(ctx, "((2^64)^51)") == 2 ** (64 * 51)
    assert parse_scalar(ctx, "((p^8)^8)") == ctx.param("p") ** 64
    assert parse_scalar(ctx, "((1/2)^64)^-51") == 2 ** (64 * 51)
    assert parse_scalar(ctx, big + " - 1") == 10 ** MAX_DIGITS - 2
    assert parse_scalar(ctx, "(1/" + big + ")*p^63*p") == ctx.param("p") ** 64 / int(big)
    for text, col, message in (
            ("((2^64)^52)", 9, "power of more than %d digits" % MAX_DIGITS),
            ("(((((2^64)^64)^64)^64)^64)", 12,
             "power of more than %d digits" % MAX_DIGITS),
            ("1 + ((p^8)^9)", 12, "power of degree more than %d" % MAX_EXPONENT),
            ("(p/(p+1))^-65", 11, "exponent larger than %d" % MAX_EXPONENT),
            (big + "*" + big, MAX_DIGITS + 1,
             "product of more than %d digits" % MAX_DIGITS),
            ("1 - " + big + "*10", MAX_DIGITS + 5,
             "product of more than %d digits" % MAX_DIGITS),
            ("p - (1/" + big + ")/" + big, MAX_DIGITS + 9,
             "quotient of more than %d digits" % MAX_DIGITS),
            ("1/" + big + " - 1/" + big[:-1] + "7", MAX_DIGITS + 4,
             "difference of more than %d digits" % MAX_DIGITS),
            # the partial sums pass 1 000 digits when 1/2371, the 351st
            # prime, is added
            (_PRIME_SUM, _PRIME_SUM.index(" + 1/2371") + 2,
             "sum of more than %d digits" % MAX_DIGITS),
            ("p^64 - p^32*p^33", 12, "product of degree more than %d" % MAX_EXPONENT)):
        with pytest.raises(ParseError) as err:
            parse_scalar(ctx, text)
        assert str(err.value) == "line 1, col %d: %s" % (col, message)


def test_number_literals_are_at_most_max_digits():
    """Python refuses to read an int of more than 4300 digits (from 3.11);
    a fixed, lower bound makes a longer literal a ParseError everywhere."""
    ctx = ParamContext()
    assert parse_scalar(ctx, "9" * MAX_DIGITS) == 10 ** MAX_DIGITS - 1
    with pytest.raises(ParseError) as err:
        parse_scalar(ctx, "1 + " + "9" * 5000)
    assert str(err.value) == ("line 1, col 5: number longer than %d digits"
                              % MAX_DIGITS)


@pytest.mark.parametrize("parse, where, message", [
    (lambda: parse_catalog("algebra X super_dim (1, "), "line 1, col 25",
     "expected int, got end of input"),
    (lambda: parse_catalog("triple T super_dim (2, 2)\n  left = A11()\n"),
     "line 3, col 1", "triple T needs left and right sides"),
    (lambda: parse_scalar(ParamContext(), "1 +"), "line 1, col 4",
     "expected expression, got end of input"),
    (lambda: parse_catalog("algebra X super_dim (1, # two"), "line 1, col 30",
     "expected int, got end of input"),
], ids=["superdim", "triple-sides", "scalar", "after-comment"])
def test_end_of_input_has_a_position(parse, where, message):
    """Errors at the end of the input point just past its last character."""
    with pytest.raises(ParseError) as err:
        parse()
    assert str(err.value) == "%s: %s" % (where, message)


@pytest.mark.parametrize("text, where", [
    ('algebra X super_dim (1, 0) comment "a\nb"\n  brackets { ? }',
     "line 3, col 14"),
    ('algebra X super_dim (1, 0) comment "a\nb" ?', "line 2, col 4"),
], ids=["next-line", "same-line"])
def test_positions_count_newlines_inside_strings(text, where):
    with pytest.raises(ParseError) as err:
        parse_catalog(text)
    assert str(err.value) == "%s: unexpected character '?'" % where


@pytest.mark.parametrize("value, message", [
    ("f1*f2", "product of generators in a bracket value"),
    ("(a*f1)*(f2 - f2)", "product of generators in a bracket value"),
    ("f1/f2", "division by a generator"),
    ("0/f1", "division by a generator"),
    ("f1^2", "power of a generator"),
    ("f1 + a", "bracket value has a non-generator term a"),
    ("sqrt(f1)", "f1 is not a parameter here (parameters: a)"),
    ("f7", "f7 is not a parameter here (parameters: a)"),
])
def test_bracket_value_errors(value, message):
    with pytest.raises((ParseError, UnknownName)) as err:
        _algebra("[b1, f1] = %s" % value)
    assert str(err.value) == message


def test_clauses_in_any_order():
    """brackets may precede params; a repeated clause keeps its last value;
    every automorphism block is kept."""
    decl = parse_catalog("""
    algebra X super_dim (1, 2)
      brackets { [b1, f1] = a*f1; [b1, f2] = a*f2 }
      automorphism { params { s : free \\ {0} } matrix [[1, 0, 0], [0, s, 0], [0, 0, s]] }
      params { q : free }
      comment "first"
      params { a : {1, -1, 2/3} }
      automorphism { matrix [[1, 0, 0], [0, 0, 1], [0, 1, 0]] constraints { } }
      comment "last"
    triple T super_dim (2, 2) label "x" right = A11() params { } left = A11()
    cert Z matrix [[1]] to T() from T()
    """)
    alg, triple, cert = decl
    assert alg.ctx.params == ("a",)
    assert alg.ctx.domains["a"].values == (1, -1, Fraction(2, 3))
    assert alg.comment == "last"
    assert len(alg.brackets) == 2
    assert [len(b.params) for b in alg.autos] == [1, 0]
    assert triple.left == triple.right == ("ref", "A11", {})
    assert cert.source == cert.target == ("T", {})
    entry = AlgebraEntry(alg)
    assert len(entry.automorphisms().branches) == 2


def test_cert_needs_from_to_and_matrix():
    """A cert's body is exactly one of matrix or shear: neither or both is
    an error at its end, and shear leaves the matrix to the catalog."""
    with pytest.raises(ParseError) as err:
        parse_catalog("cert Z from T() to T()\nalgebra Y super_dim (1, 0)")
    assert str(err.value) == ("line 2, col 1: cert Z needs from, to and one "
                              "of matrix or shear")
    with pytest.raises(ParseError) as err:
        parse_catalog("cert Z from T() to T() shear matrix [[1]]")
    assert str(err.value) == ("line 1, col 42: cert Z needs from, to and one "
                              "of matrix or shear")
    (decl,) = parse_catalog("cert Z shear from T() to T()")
    assert decl.matrix is None and decl.source == decl.target == ("T", {})


@pytest.mark.parametrize("domain, message", [
    ("{1, , 2}", "line 1, col 45: expected int, got ','"),
    ("free \\ {}", "line 1, col 49: expected int, got '}'"),
    ("(0, 1) \\ {1/2, 1", "line 1, col 57: expected }, got end of input"),
])
def test_number_lists_malformed(domain, message):
    with pytest.raises(ParseError) as err:
        parse_catalog("algebra X super_dim (1, 2) params { a : %s" % domain)
    assert str(err.value) == message


_P = ParamContext([("p", Domain.free())])
_ROUNDTRIP_CONTEXTS = [
    ParamContext([("p", Domain.free()), ("q", Domain.free())]),
    ParamContext([("p", Domain.free())], radicals=[("s", _P.param("p").re[0])]),
]


@given(st.integers(0, 10 ** 6), st.sampled_from(_ROUNDTRIP_CONTEXTS),
       st.sets(st.integers(0, 3), max_size=4))
@settings(max_examples=80, deadline=None)
def test_render_combo_roundtrip(seed, ctx, indices):
    """A combination {index: Scalar} rendered by render_combo reads back as
    the same combination."""
    rng = random.Random(seed)
    combo = {}
    for k in indices:
        c = random_scalar(ctx, rng)
        if ctx.radical_name is not None:
            c = c + random_scalar(ctx, rng) * ctx.radical()
        if rng.random() < 0.3:
            d = random_scalar(ctx, rng)
            if not d.is_zero():
                c = c / d
        if not c.is_zero():
            combo[k] = c
    names = ["b1", "b2", "f1", "f2"]
    text = render_combo(names, combo)
    ast = parse_expr(Tokenizer(text))
    back = eval_generator_combo(ast, ctx, {n: i for i, n in enumerate(names)})
    assert back == combo, text
