"""Exact coefficient arithmetic.

The tower is Q -> Q[params] -> Q(params) -> Q(params)[r]/(r^2 - q): multivariate
polynomials over the rationals in the context's named parameters, their fraction
field, and at most one quadratic extension generator per context.  The
polynomials are the dicts of ``polys``, one slot per context parameter in
declaration order, and both parts of a Scalar are kept in that module's
canonical form, so ``==`` compares canonical forms and subtracts nothing.

Every change of context goes through one map, ParamContext.bind_scalars, built
on one polynomial substitution, _p_compose: each parameter goes to a rational,
to a Scalar of the target (e.g. p = 1/q) or, unbound, to the target parameter
of its name; the radical to a bound value or the target's own radical, either
of which must square to the radicand's image.  ``bind`` checks the domains of
rational values, builds the reduced context and maps into it.  One rule
settles a radical, ``_settle_radical``: once the bindings make the radicand a
rational q, a square q binds the radical to its nonnegative root and a
negative q is a ConstraintViolation (the scalars are real).  Objects change
context once, by ``substitute`` (one bind) or by ``map_scalars(ctx, mapper)``.

Over no parameter a rational function is a constant: ``_rf_make``,
``_rf_add`` and ``_rf_mul`` then divide two Fractions and take no gcd
(``_rf_const``), and ``Scalar.as_fraction`` reads a constant straight off
its canonical form.

``clear_denominators`` writes a check's inputs once as integers or as Cleared
numerators in Q[params][r]/(r^2 - q) with integer coefficients, so its
residuals take no gcd, and ``failing_on_branches`` alone decides which of them
vanish on every sign branch.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ConstraintViolation, DivisionByZero, InconsistentRadical, UnknownName
from .polys import (_p_add, _p_compose, _p_const, _p_const_value, _p_content_signed,
                    _p_divexact, _p_gcd, _p_is_const, _p_mul, _p_neg, _p_scale,
                    _p_str, _p_var, exact_sqrt)

__all__ = ["Domain", "ParamContext", "Scalar", "arith", "is_zero", "substitute"]


# ---------------------------------------------------------------------------
# rational functions: pairs (num, den) in canonical form

_ZERO, _ONE = Fraction(0), Fraction(1)


def _rf_make(num, den, nv):
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ({}, _p_const(1, nv))
    if not nv:
        return _rf_const(_rf_value((num, den)))
    if not _p_is_const(den):
        g = _p_gcd(num, den)
        if g and not (_p_is_const(g) and _p_const_value(g) == 1):
            num = _p_divexact(num, g)
            den = _p_divexact(den, g)
    c = _p_content_signed(den)
    if c != 1:
        num = _p_scale(num, 1 / c)
        den = _p_scale(den, 1 / c)
    return (num, den)


def _rf_const(q):
    """The canonical form of the rational q over no parameter, with no gcd
    taken: ({(): q}, {(): 1}) with q a Fraction, or ({}, {(): 1}) for zero."""
    if not q:
        return ({}, {(): _ONE})
    return ({(): q if type(q) is Fraction else Fraction(q)}, {(): _ONE})


def _rf_value(rf):
    """The value n / d of a rational function whose numerator is zero or a
    constant n and whose denominator is a constant d; an int n is made a
    Fraction before the division, so none gives a float."""
    num, den = rf
    if not num:
        return _ZERO
    (n,), (d,) = num.values(), den.values()
    return n if d == 1 else Fraction(n) / d


def _rf_is_one_den(rf):
    num, den = rf
    return _p_is_const(den) and _p_const_value(den) == 1


def _rf_add(a, b, nv):
    if not nv:
        return _rf_const(_rf_value(a) + _rf_value(b))
    an, ad = a
    bn, bd = b
    if ad == bd:
        return _rf_make(_p_add(an, bn), ad, nv)
    return _rf_make(_p_add(_p_mul(an, bd), _p_mul(bn, ad)), _p_mul(ad, bd), nv)


def _rf_neg(a):
    return (_p_neg(a[0]), a[1])


def _rf_mul(a, b, nv):
    if not nv:
        return _rf_const(_rf_value(a) * _rf_value(b))
    an, ad = a
    bn, bd = b
    if not an or not bn:
        return ({}, _p_const(1, nv))
    return _rf_make(_p_mul(an, bn), _p_mul(ad, bd), nv)


def _term_image(v):
    """The term (c, j) of _p_compose when the Scalar v is a constant c or a
    single parameter +-x_j, else v itself."""
    num = v.re[0]
    if v.rad is None and _rf_is_one_den(v.re):
        if _p_is_const(num):
            return (_p_const_value(num), None)
        if len(num) == 1:
            (m, c), = num.items()
            if c in (1, -1) and sum(m) == 1:
                return (None if c == 1 else c, m.index(1))
    return v


# ---------------------------------------------------------------------------


class Domain:
    """Allowed rational values of one parameter: the finite set ``values``,
    else the interval from lo to hi less ``excluded``; an infinite bound
    (None) is open, and ``free`` is the unbounded interval."""

    __slots__ = ("values", "lo", "hi", "lo_open", "hi_open", "excluded")

    def __init__(self, values=None, lo=None, hi=None, lo_open=False,
                 hi_open=False, excluded=()):
        self.values = tuple(values) if values is not None else None
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open or lo is None
        self.hi_open = hi_open or hi is None
        self.excluded = frozenset(Fraction(x) for x in excluded)

    @classmethod
    def free(cls, excluded=()):
        return cls(excluded=excluded)

    @classmethod
    def sign(cls):
        return cls(values=(Fraction(1), Fraction(-1)))

    @classmethod
    def finite(cls, values):
        return cls(values=tuple(Fraction(v) for v in values))

    @classmethod
    def interval(cls, lo, hi, lo_open=False, hi_open=False, excluded=()):
        return cls(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open,
                   excluded=excluded)

    @property
    def is_finite(self):
        return self.values is not None

    @property
    def is_sign(self):
        return self.is_finite and set(self.values) == {1, -1}

    def allows(self, value):
        value = Fraction(value)
        if self.values is not None:
            return value in self.values
        lo, hi = self.lo, self.hi
        return (value not in self.excluded
                and (lo is None or value > lo or value == lo and not self.lo_open)
                and (hi is None or value < hi or value == hi and not self.hi_open))

    def sample(self, rng):
        """A member of a finite set, else the first allowed n/d, n in
        [-12, 12] and d in [1, 6], folded into an interval shorter than 26."""
        if self.values is not None:
            return rng.choice(self.values)
        lo = -13 if self.lo is None else self.lo
        hi = 13 if self.hi is None else self.hi
        span = hi - lo
        for _ in range(1000):
            v = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            if span < 26:
                v = lo + abs(v) % 1 * span
            if self.allows(v):
                return v
        raise ConstraintViolation("could not sample domain")

    def describe(self):
        if self.is_finite:
            if self.is_sign:
                return "sign"
            return "{%s}" % ", ".join(str(v) for v in self.values)
        if self.lo is None and self.hi is None:
            base = "free"
        else:
            lo = "-inf" if self.lo is None else str(self.lo)
            hi = "inf" if self.hi is None else str(self.hi)
            base = "%s%s, %s%s" % ("(" if self.lo_open else "[", lo, hi,
                                   ")" if self.hi_open else "]")
        if self.excluded:
            base += " \\ {%s}" % ", ".join(str(v) for v in sorted(self.excluded))
        return base

    def _key(self):
        return (self.values, self.lo, self.hi, self.lo_open, self.hi_open,
                self.excluded)

    def __eq__(self, other):
        return isinstance(other, Domain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Domain(%s)" % self.describe()


class ParamContext:
    """Named parameters with domains, plus at most one radical generator
    r with a defining relation r^2 = q, q a polynomial in the parameters."""

    __slots__ = ("params", "domains", "radical_name", "radicand", "_index",
                 "_zero", "_one")

    def __init__(self, params=(), radicals=()):
        names = []
        domains = {}
        for name, dom in params:
            if name in domains:
                raise ConstraintViolation("duplicate parameter %r" % name)
            names.append(name)
            domains[name] = dom
        self.params = tuple(names)
        self.domains = domains
        self._index = {name: i for i, name in enumerate(self.params)}
        radicals = list(radicals)
        if len(radicals) > 1:
            raise ConstraintViolation("at most one radical per context")
        if radicals:
            rname, radicand = radicals[0]
            if rname in domains:
                raise ConstraintViolation("radical name %r clashes with parameter" % rname)
            poly = self._coerce_radicand(radicand)
            self.radical_name = rname
            self.radicand = poly
        else:
            self.radical_name = None
            self.radicand = None
        self._zero = None
        self._one = None

    def _coerce_radicand(self, radicand):
        if isinstance(radicand, Scalar):
            if radicand.ctx.params != self.params:
                raise ConstraintViolation("radicand context mismatch")
            if radicand.rad is not None or not _rf_is_one_den(radicand.re):
                raise ConstraintViolation("radicand must be a polynomial in the parameters")
            return radicand.re[0]
        if isinstance(radicand, dict):
            return radicand
        return _p_const(Fraction(radicand), len(self.params))

    # -- scalar constructors ------------------------------------------------

    @property
    def nvars(self):
        return len(self.params)

    def zero(self):
        if self._zero is None:
            self._zero = self.const(0)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = self.const(1)
        return self._one

    def const(self, c):
        nv = self.nvars
        return Scalar(self, (_p_const(c, nv), _p_const(1, nv)), None)

    def param(self, name):
        if name == self.radical_name:
            return self.radical()
        if name not in self._index:
            raise not_a_parameter(name, self.params)
        nv = self.nvars
        return Scalar(self, (_p_var(self._index[name], nv), _p_const(1, nv)), None)

    def radical(self):
        if self.radical_name is None:
            raise UnknownName("context has no radical")
        nv = self.nvars
        return Scalar(self, ({}, _p_const(1, nv)),
                      (_p_const(1, nv), _p_const(1, nv)))

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        """The one test of context sameness: the same object or equal parts."""
        if other is self:
            return True
        return (isinstance(other, ParamContext)
                and self.params == other.params
                and all(self.domains[k] == other.domains[k] for k in self.params)
                and self.radical_name == other.radical_name
                and self.radicand == other.radicand)

    def __hash__(self):
        return hash((self.params, self.radical_name))

    def __repr__(self):
        bits = ["%s: %s" % (n, self.domains[n].describe()) for n in self.params]
        if self.radical_name:
            bits.append("%s = sqrt(%s)" % (self.radical_name,
                                           _p_str(self.radicand, self.params)))
        return "ParamContext{%s}" % "; ".join(bits)

    def check_binding(self, name, value):
        dom = self.domains.get(name)
        if dom is None:
            raise not_a_parameter(name, self.params)
        if not dom.allows(value):
            raise ConstraintViolation(
                "%s = %s violates domain %s" % (name, value, dom.describe()))

    def sign_branches(self):
        """All assignments of the finite-domain parameters (each branch is a
        {name: Fraction} map; a single empty branch when there are none)."""
        return finite_branches(self, [n for n in self.params
                                      if self.domains[n].is_finite])

    # -- substitution -------------------------------------------------------

    def bind(self, bindings):
        """Substitute rational values for some parameters, and for the
        radical once its radicand is numeric: (reduced context, bind_scalars
        into it).  The one radical rule: when the bindings make the radicand
        a rational q, the radical is bound to q's nonnegative root if q is a
        square, and a negative q is a ConstraintViolation; otherwise an
        unbound radical stays, its radicand composed."""
        bindings = {k: Fraction(v) for k, v in bindings.items()}
        for name, value in bindings.items():
            if name != self.radical_name:
                self.check_binding(name, value)
        keep = [n for n in self.params if n not in bindings]
        radicals = ()
        if self.radicand is not None and self.radical_name not in bindings:
            radicand, root = self._settle_radical(*self._terms(bindings))
            if root is None:
                radicals = ((self.radical_name, radicand),)
            else:
                bindings[self.radical_name] = root
        new_ctx = ParamContext([(n, self.domains[n]) for n in keep], radicals)
        return new_ctx, self.bind_scalars(new_ctx, bindings)

    def _settle_radical(self, terms, nv):
        """(radicand, root): the radicand under _p_compose(., terms, nv) and
        the root of a square rational one (else None); a negative rational
        one is a ConstraintViolation, as the scalars are real."""
        radicand = _p_compose(self.radicand, terms, nv)
        if not _p_is_const(radicand):
            return radicand, None
        q = _p_const_value(radicand)
        if q < 0:
            raise ConstraintViolation("radicand of %s is negative at these "
                                      "bindings" % self.radical_name)
        return radicand, exact_sqrt(q)

    def _terms(self, bindings):
        """(terms, nv): the images _p_compose takes for rational bindings of
        some parameters, the unbound ones renumbered in declaration order."""
        keep = [n for n in self.params if n not in bindings]
        index = {n: i for i, n in enumerate(keep)}
        return [(bindings.get(n), index.get(n)) for n in self.params], len(keep)

    def bind_scalars(self, target_ctx, bindings):
        """The one map of this context's scalars into target_ctx: each
        parameter to its binding (a rational or a Scalar of target_ctx) or
        the target parameter of its name, the radical to its binding or the
        target's radical, which must square to the radicand's image.  A
        rational or a Scalar +-x_j substitutes term by term (_p_compose);
        any other Scalar becomes a fresh variable whose powers are then
        multiplied in as Scalars."""
        nv = target_ctx.nvars
        terms, general = [], []
        for name in self.params:
            if name not in bindings and name in target_ctx._index:
                terms.append((None, target_ctx._index[name]))
                continue
            v = bindings[name] if name in bindings else target_ctx.param(name)
            if not isinstance(v, Scalar):
                terms.append((Fraction(v), None))
                continue
            if v.ctx != target_ctx:
                raise ConstraintViolation("binding scalar from foreign context")
            term = _term_image(v)
            if isinstance(term, Scalar):
                general.append(term)
                term = (None, nv + len(general) - 1)
            terms.append(term)
        one, unit = _p_const(1, nv), _p_const(1, self.nvars)

        def evaluate(f):
            total = target_ctx.zero()
            for m, c in _p_compose(f, terms, nv + len(general)).items():
                term = Scalar(target_ctx, ({m[:nv]: c}, one), None)
                for v, e in zip(general, m[nv:]):
                    term = term * v ** e
                total = total + term
            return total

        def image(rf):
            if not rf[0]:
                return target_ctx.zero()  # denominator 1: nothing to divide
            if general:
                den = evaluate(rf[1])
                if not den:
                    raise DivisionByZero("zero denominator")
                return evaluate(rf[0]) / den
            num, den = _p_compose(rf[0], terms, nv), one
            if rf[1] != unit:  # a polynomial over 1 stays in lowest terms
                num, den = _rf_make(num, _p_compose(rf[1], terms, nv), nv)
            return Scalar(target_ctx, (num, den), None)

        rad = None
        if self.radical_name is not None:
            if self.radical_name in bindings:
                rad, whose = bindings[self.radical_name], "bound radical"
                if not isinstance(rad, Scalar):
                    rad = target_ctx.const(rad)
                square = rad * rad
            elif target_ctx.radical_name is not None:
                rad, whose = target_ctx.radical(), "target context radical"
                square = Scalar(target_ctx, (target_ctx.radicand, one), None)
            else:
                raise InconsistentRadical("target context lacks a radical for %r"
                                          % self.radical_name)
            radicand = image((self.radicand, _p_const(1, self.nvars)))
            if square != radicand:
                raise InconsistentRadical("%s does not square to radicand" % whose)

        def mapper(s):
            if s.ctx != self:
                raise ConstraintViolation("scalar from foreign context")
            out = image(s.re)
            if s.rad is None:
                return out
            return out + image(s.rad) * rad

        return mapper


class Scalar:
    """Element a + b*r of the fraction field (b = 0 when the context has no
    radical in play); r^2 equals the context radicand.  ``rad`` is b, or
    None when b = 0: the constructor stores a zero b as None, so
    ``rad is None`` is the one test of a zero radical part."""

    __slots__ = ("ctx", "re", "rad")

    def __init__(self, ctx, re, rad):
        self.ctx = ctx
        self.re = re
        if rad is not None and not rad[0]:
            rad = None
        self.rad = rad

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx == self.ctx:
                return other
            raise ConstraintViolation("scalar context mismatch")
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return NotImplemented

    def _polys(self):
        """Both parts' polynomials, and the radicand with a radical part."""
        if self.rad is None:
            return list(self.re)
        return [*self.re, *self.rad, self.ctx.radicand]

    def _rad_rf(self):
        if self.rad is not None:
            return self.rad
        return ({}, _p_const(1, self.ctx.nvars))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = self.ctx.nvars
        re = _rf_add(self.re, other.re, nv)
        if self.rad is None and other.rad is None:
            return Scalar(self.ctx, re, None)
        rad = _rf_add(self._rad_rf(), other._rad_rf(), nv)
        return Scalar(self.ctx, re, rad)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        rad = None if self.rad is None else _rf_neg(self.rad)
        return Scalar(self.ctx, _rf_neg(self.re), rad)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = self.ctx.nvars
        if self.rad is None and other.rad is None:
            return Scalar(self.ctx, _rf_mul(self.re, other.re, nv), None)
        a, b = self.re, self._rad_rf()
        c, d = other.re, other._rad_rf()
        q = (self.ctx.radicand, _p_const(1, nv))
        re = _rf_add(_rf_mul(a, c, nv), _rf_mul(_rf_mul(b, d, nv), q, nv), nv)
        rad = _rf_add(_rf_mul(a, d, nv), _rf_mul(b, c, nv), nv)
        return Scalar(self.ctx, re, rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        if type(other) is int and other == 1:
            return self.inv()
        return self.inv() * other

    def inv(self):
        nv = self.ctx.nvars
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        if self.rad is None:
            num, den = self.re
            return Scalar(self.ctx, _rf_make(den, num, nv), None)
        a, b = self.re, self._rad_rf()
        q = (self.ctx.radicand, _p_const(1, nv))
        norm = _rf_add(_rf_mul(a, a, nv),
                       _rf_neg(_rf_mul(_rf_mul(b, b, nv), q, nv)), nv)
        if not norm[0]:
            raise DivisionByZero("radicand is a perfect square; element not invertible here")
        inv_norm = _rf_make(norm[1], norm[0], nv)
        return Scalar(self.ctx, _rf_mul(a, inv_norm, nv),
                      _rf_neg(_rf_mul(b, inv_norm, nv)))

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = self.ctx.one()
        for _ in range(k):
            out = out * self
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.re[0] and self.rad is None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ctx == other.ctx and self.re == other.re
                and self.rad == other.rad)

    def __hash__(self):
        # a constant equals its Fraction value (__eq__), so it hashes as one
        if self.is_constant():
            return hash(self.as_fraction())
        return hash(self.key())

    def key(self):
        """Hashable canonical key (context-local)."""
        def freeze(rf):
            return tuple(sorted(rf[0].items())), tuple(sorted(rf[1].items()))
        return (freeze(self.re), None if self.rad is None else freeze(self.rad))

    def is_constant(self):
        ok = _p_is_const(self.re[0]) and _p_is_const(self.re[1])
        return ok and self.rad is None

    def used_params(self):
        """Names of the parameters this scalar depends on; a nonzero radical
        part depends on the radicand's parameters too."""
        return {self.ctx.params[i] for f in self._polys() for m in f
                for i, e in enumerate(m) if e}

    def size(self):
        """(bits, degree): the largest bit length of a coefficient's
        numerator or denominator and the largest total degree over this
        scalar's polynomials, the radicand's too when the radical part is
        nonzero.  A power s ** k has at most about k times each."""
        polys = self._polys()
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for f in polys for c in f.values())
        return bits, max(sum(m) for f in polys for m in f)

    def as_fraction(self):
        """The value of a constant, read off its canonical form: no radical,
        a constant denominator and a numerator that is empty or one constant
        term; ConstraintViolation for any other scalar."""
        num, den = self.re
        if self.rad is None and _p_is_const(num) and _p_is_const(den):
            return _rf_value(self.re)
        raise ConstraintViolation("scalar %s is not numeric" % self)

    # -- substitution -------------------------------------------------------

    def substitute(self, bindings):
        _, mapper = self.ctx.bind(bindings)
        return mapper(self)

    # -- display ------------------------------------------------------------

    def __str__(self):
        names = self.ctx.params
        bits = []
        num, den = self.re
        if num:
            s = _p_str(num, names)
            if not _rf_is_one_den(self.re):
                s = "(%s)/(%s)" % (s, _p_str(den, names))
            bits.append(s)
        if self.rad is not None:
            rnum, rden = self.rad
            rs = _p_str(rnum, names)
            if not _rf_is_one_den(self.rad):
                rs = "(%s)/(%s)" % (rs, _p_str(rden, names))
            if rs == "1":
                rs = self.ctx.radical_name
            elif rs == "-1":
                rs = "-" + self.ctx.radical_name
            elif len(rnum) > 1 or not _rf_is_one_den(self.rad):
                rs = "(%s)*%s" % (rs, self.ctx.radical_name)
            else:
                rs = "%s*%s" % (rs, self.ctx.radical_name)
            if bits and not rs.startswith("-"):
                bits.append("+ " + rs)
            else:
                bits.append(rs)
        if not bits:
            return "0"
        return " ".join(bits)

    def __repr__(self):
        return "Scalar(%s)" % self

    def __bool__(self):
        return not self.is_zero()


# ---------------------------------------------------------------------------
# spec surface helpers


def arith(a, b, op):
    """Dispatch arithmetic by name; op in {add, sub, mul, div, neg, inv}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "neg":
        return -a
    if op == "inv":
        return a.inv()
    raise ValueError("unknown op %r" % op)


def not_a_parameter(name, params):
    """The UnknownName error for a binding of `name` where only `params`
    may be bound."""
    return UnknownName("%s is not a parameter here (parameters: %s)"
                       % (name, ", ".join(params) or "none"))


def finite_branches(ctx, names):
    """Every assignment of the finite-domain parameters `names` of ctx, as
    {name: value} maps; the first name varies slowest."""
    branches = [{}]
    for name in names:
        branches = [dict(b, **{name: v}) for b in branches
                    for v in ctx.domains[name].values]
    return branches


def is_zero(s):
    return s.is_zero()


def substitute(s, bindings):
    return s.substitute(bindings)


# ---------------------------------------------------------------------------
# cleared elements: fraction-free identity tests


class Cleared:
    """Element a + b*r of Q[params][r]/(r^2 - q): the pair (a, b) of dict
    polynomials, with the radicand q (None without a radical).  Only ring
    operations, so no gcd; the kernels take them like any other entry.
    ``clear_denominators`` makes them from Scalars with int coefficients,
    which products by ints keep; ``classify._dual_system`` makes the
    enumeration's polynomial entries, with no radical part and Fraction
    coefficients where the seed has them."""

    __slots__ = ("re", "rad", "q")

    def __init__(self, re, rad, q):
        self.re = re
        self.rad = rad
        self.q = q

    def __add__(self, other):
        return Cleared(_p_add(self.re, other.re), _p_add(self.rad, other.rad),
                       self.q)

    def __neg__(self):
        return Cleared(_p_neg(self.re), _p_neg(self.rad), self.q)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cleared(_p_scale(self.re, other), _p_scale(self.rad, other),
                           self.q)
        a, b, c, d = self.re, self.rad, other.re, other.rad
        re = _p_mul(a, c)
        if b and d:
            re = _p_add(re, _p_mul(_p_mul(b, d), self.q))
        return Cleared(re, _p_add(_p_mul(a, d), _p_mul(b, c)), self.q)

    def __bool__(self):
        return bool(self.re or self.rad)

    def vanishes_at(self, terms, nv, root=None):
        """Whether self vanishes under _p_compose(., terms, nv), with the
        radical bound to root when one is given: else both parts must."""
        re, rad = _p_compose(self.re, terms, nv), _p_compose(self.rad, terms, nv)
        return not (re or rad) if root is None else not _p_add(re, _p_scale(rad, root))


def clear_denominators(ctx, values):
    """(numerators, den) with each Scalar x of values equal to numerator /
    den: integers over the lcm of the denominators with no parameter and no
    radical (the degree-0 case), else Cleared numerators over den, the
    product of the distinct denominators of the values' parts, each part's
    numerator multiplied by the other denominators, its cofactor, so no gcd
    or division is taken.  Numerators and den are then multiplied by one
    lcm of their coefficient denominators, so every coefficient is an int,
    and so is every coefficient of a radicand with integer coefficients.  A
    nonzero value from another context is a ConstraintViolation, as in
    Scalar arithmetic."""
    for x in values:
        if x.ctx != ctx and x:
            raise ConstraintViolation("scalar context mismatch")
    if not ctx.params and ctx.radicand is None:
        fracs = [x.as_fraction() for x in values]
        den = lcm(*(x.denominator for x in fracs))
        return [x.numerator * (den // x.denominator) for x in fracs], den
    one = _p_const(1, ctx.nvars)
    dens = {}
    for x in values:
        for rf in (x.re, x.rad):
            if rf is not None and rf[1] != one:
                dens.setdefault(frozenset(rf[1].items()), rf[1])
    # each cofactor is the product of the dens before it times that of the
    # dens after it
    before = [one]
    for den in dens.values():
        before.append(_p_mul(before[-1], den))
    den = before.pop()
    cofactor, after = {frozenset(one.items()): den}, one
    for (key, d), prefix in zip(reversed(dens.items()), reversed(before)):
        cofactor[key] = _p_mul(prefix, after)
        after = _p_mul(after, d)

    def numerator(rf):
        if rf is None:
            return {}
        return _p_mul(rf[0], cofactor[frozenset(rf[1].items())])

    parts = [(numerator(x.re), numerator(x.rad)) for x in values]
    scale = lcm(*(c.denominator for p in [den, *(p for pair in parts for p in pair)]
                  for c in p.values()))

    def integral(p):
        return {m: c.numerator * (scale // c.denominator) for m, c in p.items()}

    q = ctx.radicand
    if q is not None and all(c.denominator == 1 for c in q.values()):
        q = {m: c.numerator for m, c in q.items()}
    return ([Cleared(integral(a), integral(b), q) for a, b in parts],
            Cleared(integral(den), {}, q))


def failing_on_branches(ctx, values, dens):
    """The positions, in order, of the values (``clear_denominators``
    numerators over dens) that fail to vanish on some finite-domain branch
    of ctx: the one test of every vanishing claim.  Without such branches,
    as for integers, a value fails when it is nonzero.  A branch settles the
    radical as ``bind`` does (``_settle_radical``), and one where a den
    vanishes leaves an input undefined, a DivisionByZero.  Like a
    value-by-value substitution, a branch is reached only while some value
    has vanished on every branch before it."""
    nonzero = [i for i, v in enumerate(values) if v]
    branches = ctx.sign_branches() if nonzero else [{}]
    if branches == [{}]:
        return nonzero
    alive = set(nonzero)
    for branch in branches:
        if not alive:
            break
        terms, nv = ctx._terms(branch)
        root = None if ctx.radicand is None else ctx._settle_radical(terms, nv)[1]
        if any(d.vanishes_at(terms, nv) for d in dens):
            raise DivisionByZero("a denominator vanishes at %s" % ", ".join(
                "%s = %s" % item for item in branch.items()))
        alive = {i for i in alive if values[i].vanishes_at(terms, nv, root)}
    return [i for i in nonzero if i not in alive]

