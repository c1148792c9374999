"""Dict polynomials over the rationals: the ring under the scalar tower.

A polynomial is a dict mapping exponent tuples (one slot per variable, in a
fixed order) to nonzero Fractions, or ints; zero is {}.  Products and sums
come out expanded with no zero coefficient, so the dict is the polynomial's
canonical form and equal polynomials are equal dicts.  With ``_p_gcd`` (read
off the exponents when one side is a monomial, else a primitive
pseudo-remainder sequence) and ``_p_content_signed`` a fraction of two
polynomials has one canonical form too: numerator and denominator without
a common factor, the denominator integer-primitive with a positive leading
(lex-largest) coefficient.  ``_p_compose`` is the one substitution.
``_p_int_forms`` writes polynomials once with integer coefficients, so a
point scaled to one denominator evaluates them on integers alone.
``exact_sqrt`` and ``_p_sqrt`` take exact square roots in Q and in Q[x].

This module imports nothing from the package.
"""

from fractions import Fraction
from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm


def _p_const(c, nv):
    if type(c) is not Fraction:
        c = Fraction(c)
    if not c:
        return {}
    return {(0,) * nv: c}


def _p_var(i, nv):
    e = [0] * nv
    e[i] = 1
    return {tuple(e): Fraction(1)}


def _p_add(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_neg(f):
    return {m: -c for m, c in f.items()}


def _p_sub(f, g):
    return _p_add(f, _p_neg(g))


def _p_scale(f, c):
    """f times the rational c; an int c keeps integer coefficients
    integers."""
    if not c:
        return {}
    return {m: c * k for m, k in f.items()}


def _p_mul(f, g):
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    out = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(a + b for a, b in zip(mf, mg))
            s = out.get(m)
            if s is None:
                out[m] = cf * cg
            else:
                s = s + cf * cg
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _p_is_const(f):
    # only one key can be the all-zero exponent tuple
    return not f or (len(f) == 1 and not any(next(iter(f))))


def _p_const_value(f):
    if not f:
        return Fraction(0)
    (m, c), = f.items()
    return c


def _p_lead(f):
    return max(f)


def _p_content_signed(f):
    """Fraction c so that f/c has coprime integer coefficients and positive
    leading (lex-largest monomial) coefficient."""
    num = 0
    den = 1
    for c in f.values():
        num = _igcd(num, abs(c.numerator))
        den = den * c.denominator // _igcd(den, c.denominator)
    c = Fraction(num, den)
    if f[_p_lead(f)] < 0:
        c = -c
    return c


def _p_max_var(f):
    """Largest variable index with a positive exponent, or -1."""
    best = -1
    for m in f:
        for i in range(len(m) - 1, best, -1):
            if m[i]:
                best = i
                break
    return best


def _p_uni(f, v):
    """View f as univariate in variable v: dict degree -> coefficient poly."""
    out = {}
    for m, c in f.items():
        d = m[v]
        key = list(m)
        key[v] = 0
        key = tuple(key)
        coeff = out.setdefault(d, {})
        coeff[key] = coeff.get(key, Fraction(0)) + c
    return {d: {m: c for m, c in coeff.items() if c} for d, coeff in out.items() if coeff}


def _p_shift(f, v, k):
    out = {}
    for m, c in f.items():
        e = list(m)
        e[v] += k
        out[tuple(e)] = c
    return out


def _p_divexact(f, g):
    """Exact multivariate division; g must divide f."""
    if not f:
        return {}
    q = {}
    r = dict(f)
    lg = _p_lead(g)
    cg = g[lg]
    while r:
        lr = _p_lead(r)
        if any(a < b for a, b in zip(lr, lg)):
            raise ArithmeticError("inexact polynomial division")
        m = tuple(a - b for a, b in zip(lr, lg))
        c = r[lr] / cg
        q[m] = c
        r = _p_sub(r, _p_mul({m: c}, g))
    return q


def exact_sqrt(q):
    """The nonnegative rational square root of q, or None when q is negative
    or not the square of a rational."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = _isqrt(q.numerator), _isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _p_sqrt(f):
    """The g with g*g == f and a positive leading coefficient, or None when
    f is not the square of a polynomial over Q.  Term by term from the top,
    as in long division: with g the top terms of the root found so far, the
    leading term of f - g*g is 2*lead(g)*t for the next term t, which comes
    after every term found and has at most half of f's degree in each
    variable.  So the loop ends, and a root it returns is exact."""
    if not f:
        return {}
    lead = _p_lead(f)
    top = exact_sqrt(f[lead])
    if top is None or any(e % 2 for e in lead):
        return None
    half = tuple(e // 2 for e in lead)
    bound = [max(m[v] for m in f) // 2 for v in range(len(lead))]
    g = {half: top}
    last = half
    while True:
        r = _p_sub(f, _p_mul(g, g))
        if not r:
            return g
        lr = _p_lead(r)
        t = tuple(a - b for a, b in zip(lr, half))
        if t >= last or any(e < 0 or e > b for e, b in zip(t, bound)):
            return None
        g[t] = r[lr] / (2 * top)
        last = t


def _p_primitive(f):
    if not f:
        return f
    return _p_scale(f, 1 / _p_content_signed(f))


def _p_gcd(f, g):
    """Primitive multivariate gcd with positive leading coefficient.  When
    one argument is a monomial c*x^a (a nonzero constant included) every
    divisor of it is a unit times a monomial, so the gcd is x^b, b the
    componentwise minimum of a and every exponent of the other argument;
    the rest take ``_p_gcd_prs``."""
    if not f:
        return _p_primitive(g)
    if not g:
        return _p_primitive(f)
    if len(g) == 1:
        f, g = g, f
    if len(f) == 1:
        (b,) = f
        for m in g:
            b = tuple(map(min, b, m))
        return {b: Fraction(1)}
    return _p_gcd_prs(f, g)


def _p_gcd_prs(f, g):
    """``_p_gcd`` of two nonzero polynomials by a primitive pseudo-remainder
    sequence (Brown 1971) in the top variable, after their contents."""
    f = _p_primitive(f)
    g = _p_primitive(g)
    if f == g:
        return f
    v = max(_p_max_var(f), _p_max_var(g))
    if v < 0:
        return _p_const(1, len(next(iter(f))))
    cont_f = _p_list_gcd(list(_p_uni(f, v).values()))
    cont_g = _p_list_gcd(list(_p_uni(g, v).values()))
    cont = _p_gcd(cont_f, cont_g)
    fp = _p_divexact(f, cont_f)
    gp = _p_divexact(g, cont_g)
    # primitive pseudo-remainder sequence in the top variable
    if _p_deg(fp, v) < _p_deg(gp, v):
        fp, gp = gp, fp
    while gp:
        r = _p_prem(fp, gp, v)
        fp, gp = gp, _p_primitive(r)
    fp = _p_divexact(fp, _p_list_gcd(list(_p_uni(fp, v).values())))
    return _p_primitive(_p_mul(cont, fp))


def _p_list_gcd(polys):
    out = {}
    for p in polys:
        out = _p_gcd(out, p)
        if _p_is_const(out) and out:
            break
    return out


def _p_deg(f, v):
    return max((m[v] for m in f), default=-1)


def _p_prem(f, g, v):
    """Pseudo-remainder of f by g with respect to variable v."""
    df = _p_deg(f, v)
    dg = _p_deg(g, v)
    gu = _p_uni(g, v)
    lg = gu[dg]
    r = dict(f)
    e = df - dg + 1
    while r:
        dr = _p_deg(r, v)
        if dr < dg:
            break
        ru = _p_uni(r, v)
        lr = ru[dr]
        r = _p_sub(_p_mul(r, lg), _p_mul(_p_shift(lr, v, dr - dg), g))
        e -= 1
    for _ in range(e):
        r = _p_mul(r, lg)
    return r


def _p_compose(f, images, nv):
    """The one polynomial substitution: f with variable i replaced by the
    term images[i] = (c, j), that is c * x_j over nv target variables (c None
    for the coefficient 1, j None for the constant c).  Applied term by term;
    several variables may share a target."""
    out = {}
    for m, coeff in f.items():
        e = [0] * nv
        for i, exp in enumerate(m):
            if not exp:
                continue
            c, j = images[i]
            if c is not None:
                coeff = coeff * c ** exp
            if j is not None:
                e[j] += exp
        if not coeff:
            continue
        key = tuple(e)
        s = out[key] + coeff if key in out else coeff
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _p_int_forms(polys, nv):
    """The polynomials over nv variables as integer forms for evaluation at
    rational points n/e, n integers over one positive integer e.  With deg
    the largest total degree and scale the lcm of every coefficient
    denominator, each form is a list of terms (k, factors), factors the
    variables of the term with repetition, deg in all, variable nv standing
    for e, so that at the point (n, e)

        form(n, e) = sum k * n^m * e^(deg - |m|) = scale * e^deg * f(n/e).

    Forms made together share scale and e^deg, so a quotient of two of them
    is the quotient of their polynomials, and a form is 0 exactly where its
    polynomial vanishes."""
    deg = max((sum(m) for f in polys for m in f), default=0)
    scale = _ilcm(*(c.denominator for f in polys for c in f.values()))
    forms = []
    for f in polys:
        form = []
        for m, c in f.items():
            factors = [i for i, a in enumerate(m) for _ in range(a)]
            factors += [nv] * (deg - sum(m))
            form.append((c.numerator * (scale // c.denominator), tuple(factors)))
        forms.append(form)
    return forms


def _p_int_value(form, point):
    """The integer value of a ``_p_int_forms`` form at the integer point
    (n, e), e last."""
    total = 0
    for k, factors in form:
        for i in factors:
            k *= point[i]
        total += k
    return total


def _p_str(f, names):
    if not f:
        return "0"
    parts = []
    for m in sorted(f, reverse=True):
        c = f[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            a = abs(c)
            if a != 1:
                body = "%s*%s" % (a, body)
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    if s.startswith("+ "):
        s = s[2:]
    elif s.startswith("- "):
        s = "-" + s[2:]
    return s
