"""One text grammar shared by the algebra, triple and certificate catalogs.

Scalar expressions use ordinary infix syntax over integer/fraction literals,
parameter names, + - * / ^ and sqrt(...); parsing is exact, no floating point.
Catalog declarations:

    algebra NAME super_dim (m, n)
      params { p : free; eps : sign; rho : sqrt(expr); kappa : free \\ {0} }
      brackets { [b1, f1] = f1; ... }
      automorphism { params {...} matrix [[...], ...] constraints { c; d } }

    triple ID super_dim (m, n) params {...} label "..."
      left = NAME(p = p)            # or  left { [b1,f1] = f1; ... }
      right { [ft1, ft1] = eps*bt1; ... }

    cert ID params {...} from TRIPLE_ID(p = p) to TRIPLE_ID(...) matrix [[...], ...]
    cert ID params {...} from TRIPLE_ID(...) to TRIPLE_ID(...) shear

The clauses after a declaration's head may come in any order.  '#' starts
a comment.  Semicolons between items are optional separators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, UnknownName
from .polys import _p_is_const, _p_sqrt, _p_str, exact_sqrt
from .scalars import Domain, ParamContext

__all__ = ["parse_scalar", "parse_catalog", "Tokenizer"]

_PUNCT = ("(", ")", "[", "]", "{", "}", ",", ";", ":", "=", "+", "-", "*", "/",
          "^", "\\")
# parse_expr and _eval recurse once per open parenthesis; deeper text is
# refused
MAX_PAREN_DEPTH = 64
# the largest |k| of a power x^k; Scalar powers multiply once per unit of k
MAX_EXPONENT = 64
# the longest number literal, well inside every Python's int-string limit
MAX_DIGITS = 1000
# a power is refused before it is computed, and the result of + - * / after,
# when its coefficients could outgrow a MAX_DIGITS-digit number or its
# degree MAX_EXPONENT
MAX_BITS = (10 ** MAX_DIGITS).bit_length()


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)

    def shown(self):
        """The token as error messages quote it."""
        return "end of input" if self.kind == "eof" else repr(self.value)


class Tokenizer:
    def __init__(self, text):
        self.tokens = []
        line, col = 1, 1
        i, n = 0, len(text)
        depth = 0
        while i < n:
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if ch == "#":
                j = i
                while j < n and text[j] != "\n":
                    j += 1
                col += j - i
                i = j
                continue
            if ch == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 1
                if j >= n:
                    raise ParseError("unterminated string", line, col)
                body = text[i + 1:j]
                self.tokens.append(Token("string", body, line, col))
                if "\n" in body:
                    line += body.count("\n")
                    col = len(body) - body.rindex("\n") + 1
                else:
                    col += j - i + 1
                i = j + 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                if j - i > MAX_DIGITS:
                    raise ParseError("number longer than %d digits" % MAX_DIGITS,
                                     line, col)
                self.tokens.append(Token("int", int(text[i:j]), line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(Token("name", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch in _PUNCT:
                if ch == "(":
                    depth += 1
                    if depth > MAX_PAREN_DEPTH:
                        raise ParseError("parentheses nested deeper than %d"
                                         % MAX_PAREN_DEPTH, line, col)
                elif ch == ")" and depth:
                    depth -= 1
                self.tokens.append(Token(ch, ch, line, col))
                i += 1
                col += 1
                continue
            raise ParseError("unexpected character %r" % ch, line, col)
        self.eof = Token("eof", None, line, col)   # just past the last character
        self.pos = 0

    def peek(self, k=0):
        if self.pos + k < len(self.tokens):
            return self.tokens[self.pos + k]
        return self.eof

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise ParseError("expected %s%s, got %s"
                             % (kind, "" if value is None else " %r" % value,
                                tok.shown()), tok.line, tok.col)
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            self.pos += 1
            return tok
        return None

    def at(self, kind, value=None):
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)


# ---------------------------------------------------------------------------
# expression ASTs


# the AST kind of each binary operator, also the name of its result in errors
_BINARY = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}


def parse_expr(tz):
    node = _term(tz)
    while True:
        tok = tz.accept("+") or tz.accept("-")
        if tok is None:
            return node
        node = (_BINARY[tok.kind], node, _term(tz), tok.line, tok.col)


def _term(tz):
    node = _factor(tz)
    while True:
        tok = tz.accept("*") or tz.accept("/")
        if tok is None:
            return node
        node = (_BINARY[tok.kind], node, _factor(tz), tok.line, tok.col)


def _factor(tz):
    negs = 0
    while tz.at("-") or tz.at("+"):   # a loop: sign chains must not recurse
        negs += tz.next().kind == "-"
    node = _power(tz)
    return ("neg", node) if negs % 2 else node


def _power(tz):
    base = _atom(tz)
    if tz.accept("^"):
        start = tz.peek()
        neg = bool(tz.accept("-"))
        tok = tz.expect("int")
        if tok.value > MAX_EXPONENT:
            raise ParseError("exponent larger than %d" % MAX_EXPONENT,
                             start.line, start.col)
        return ("pow", base, -tok.value if neg else tok.value, start.line,
                start.col)
    return base


def _atom(tz):
    tok = tz.peek()
    if tok.kind == "int":
        tz.next()
        return ("num", Fraction(tok.value))
    if tok.kind == "name":
        tz.next()
        if tok.value == "sqrt":
            tz.expect("(")
            inner = parse_expr(tz)
            tz.expect(")")
            return ("sqrt", inner)
        return ("name", tok.value)
    if tok.kind == "(":
        tz.next()
        node = parse_expr(tz)
        tz.expect(")")
        return node
    raise ParseError("expected expression, got %s" % tok.shown(),
                     tok.line, tok.col)


def _eval(ast, ctx, genmap):
    """The one walker of expression ASTs: the value as a linear combination
    {None: scalar part, index: coefficient}, where the names in genmap stand
    for the generators of those basis indices.  An absent part is zero.
    The left spine of a + - * / chain is walked in a loop, so the recursion
    goes only into right operands and through parentheses and sqrt(."""
    spine = []
    while ast[0] in _BINARY.values():
        spine.append(ast)
        ast = ast[1]
    a = _eval_operand(ast, ctx, genmap)
    for kind, _, right, line, col in reversed(spine):
        a = _binary(kind, a, _eval(right, ctx, genmap), ctx)
        for c in a.values():
            _check_size(c, 1, kind, line, col)
    return a


def _eval_operand(ast, ctx, genmap):
    """_eval of a number, name, sqrt(, negation or power."""
    kind = ast[0]
    if kind == "num":
        return {None: ctx.const(ast[1])}
    if kind == "name":
        if ast[1] in genmap:
            return {genmap[ast[1]]: ctx.one()}
        return {None: ctx.param(ast[1])}
    if kind == "sqrt":      # the context radical, or an exact rational root
        inner = eval_ast(ast[1], ctx)
        if ctx.radical_name is not None:
            r = ctx.radical()
            if r * r == inner:
                return {None: r}
        if inner.is_constant():
            root = exact_sqrt(inner.as_fraction())
            if root is not None:
                return {None: ctx.const(root)}
        raise ParseError("sqrt(%s) does not match the context radical" % inner)
    a = _eval(ast[1], ctx, genmap)
    if kind == "neg":
        return {k: -c for k, c in a.items()}
    if _has_generators(a):
        raise ParseError("power of a generator")
    _, _, k, line, col = ast
    _check_size(a[None], abs(k), "power", line, col)
    return {None: a[None] ** k}


def _check_size(value, k, what, line, col):
    """Refuse value ** k when its coefficients could outgrow MAX_DIGITS
    digits or its degree MAX_EXPONENT: a power before it is multiplied out,
    the result of + - * / (k = 1) once it is computed."""
    bits, degree = value.size()
    if bits * k > MAX_BITS:
        raise ParseError("%s of more than %d digits" % (what, MAX_DIGITS),
                         line, col)
    if degree * k > MAX_EXPONENT:
        raise ParseError("%s of degree more than %d" % (what, MAX_EXPONENT),
                         line, col)


def _binary(kind, a, b, ctx):
    """The combination a + b, a - b, a * b or a / b."""
    if kind in ("sum", "difference"):
        out = dict(a)
        for k, c in b.items():
            if kind == "difference":
                c = -c
            out[k] = out[k] + c if k in out else c
        return out
    if kind == "product":
        if _has_generators(b):
            if _has_generators(a):
                raise ParseError("product of generators in a bracket value")
            s = a.get(None, ctx.zero())
            return {k: s * c for k, c in b.items()}
        return {k: c * b[None] for k, c in a.items()}
    if _has_generators(b):
        raise ParseError("division by a generator")
    return {k: c / b[None] for k, c in a.items()}


def _has_generators(combo):
    return len(combo) > 1 or None not in combo


def eval_ast(ast, ctx):
    """Evaluate an expression AST to a Scalar of ctx."""
    return _eval(ast, ctx, {})[None]


def parse_scalar(ctx, text):
    tz = Tokenizer(text)
    ast = parse_expr(tz)
    if not tz.at("eof"):
        tok = tz.peek()
        raise ParseError("trailing input %r" % tok.value, tok.line, tok.col)
    return eval_ast(ast, ctx)


def eval_generator_combo(ast, ctx, genmap):
    """Evaluate an AST as a linear combination of generators.

    genmap maps generator names to basis indices.  Returns {index: Scalar}.
    A pure scalar value is only allowed when it is zero.
    """
    combo = _eval(ast, ctx, genmap)
    scal = combo.pop(None, None)
    if scal is not None and not scal.is_zero():
        raise ParseError("bracket value has a non-generator term %s" % scal)
    return {k: v for k, v in combo.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# domains and params blocks


def _parse_number(tz):
    neg = bool(tz.accept("-"))
    tok = tz.expect("int")
    value = Fraction(tok.value)
    if tz.accept("/"):
        den = tz.expect("int")
        if not den.value:
            raise ParseError("zero denominator", den.line, den.col)
        value /= den.value
    return -value if neg else value


def _parse_bound(tz):
    if tz.at("name", "inf"):
        tz.next()
        return None
    if tz.at("-") and tz.peek(1).kind == "name" and tz.peek(1).value == "inf":
        tz.next()
        tz.next()
        return None
    return _parse_number(tz)


def _parse_numbers(tz):
    """{n, n, ...}: a finite domain or a list of exclusions."""
    tz.expect("{")
    out = [_parse_number(tz)]
    while tz.accept(","):
        out.append(_parse_number(tz))
    tz.expect("}")
    return tuple(out)


def _parse_exclusions(tz):
    return _parse_numbers(tz) if tz.accept("\\") else ()


def _parse_domain(tz):
    """Returns Domain or ('radical', ast)."""
    if tz.at("name", "sign"):
        tz.next()
        return Domain.sign()
    if tz.at("name", "free"):
        tz.next()
        return Domain.free(excluded=_parse_exclusions(tz))
    if tz.at("name", "sqrt"):
        tz.next()
        tz.expect("(")
        ast = parse_expr(tz)
        tz.expect(")")
        return ("radical", ast)
    if tz.at("{"):
        return Domain.finite(_parse_numbers(tz))
    open_tok = tz.next()
    if open_tok.kind not in ("(", "["):
        raise ParseError("expected a domain", open_tok.line, open_tok.col)
    lo = _parse_bound(tz)
    tz.expect(",")
    hi = _parse_bound(tz)
    close_tok = tz.next()
    if close_tok.kind not in (")", "]"):
        raise ParseError("expected ) or ]", close_tok.line, close_tok.col)
    lo_open = open_tok.kind == "(" or lo is None
    hi_open = close_tok.kind == ")" or hi is None
    excluded = _parse_exclusions(tz)
    if lo is not None and hi is not None and (
            lo > hi or lo == hi and (lo_open or hi_open or lo in excluded)):
        raise ParseError("empty domain", open_tok.line, open_tok.col)
    return Domain.interval(lo, hi, lo_open=lo_open, hi_open=hi_open,
                           excluded=excluded)


def _parse_params_block(tz):
    """params { name : domain ; ... } -> (param list, radical list of at most
    one (name token, radicand AST)); a name declared twice or a second
    radical is a ParseError at its name."""
    params = []
    radicals = []
    seen = set()
    tz.expect("{")
    while not tz.accept("}"):
        tok = tz.expect("name")
        if tok.value in seen:
            raise ParseError("duplicate parameter %r" % tok.value, tok.line, tok.col)
        seen.add(tok.value)
        tz.expect(":")
        dom = _parse_domain(tz)
        if isinstance(dom, tuple) and dom[0] == "radical":
            if radicals:
                raise ParseError("at most one radical per context", tok.line, tok.col)
            radicals.append((tok, dom[1]))
        else:
            params.append((tok.value, dom))
        tz.accept(";")
    return params, radicals


def _negative_everywhere(q):
    """Whether the polynomial q is negative at every real point, by a sound
    test: -q has a positive constant term, and every monomial of -q has a
    positive coefficient and only even exponents, so -q is at least that
    constant.  A negative constant is the case with no other monomial."""
    return (any(not any(m) for m in q)
            and all(c < 0 and not any(e % 2 for e in m) for m, c in q.items()))


def build_context(params, radicals):
    """Assemble a ParamContext; a radical's radicand AST may name only the
    declared parameters, and the radicand must be a polynomial that is
    neither negative at every real point (``_negative_everywhere``; the
    scalars are real) nor the square of a polynomial over Q (sqrt(4) is the
    number 2 and sqrt(p^2) is |p|, which the radical's zero test could not
    see), else it is a ParseError at the radical's name."""
    base = ParamContext(params)
    if not radicals:
        return base
    (tok, ast), = radicals
    try:
        radicand = eval_ast(ast, base)
    except UnknownName as exc:
        raise ParseError("radicand of %s: %s" % (tok.value, exc),
                         tok.line, tok.col) from None
    if not _p_is_const(radicand.re[1]):
        raise ParseError("radicand of %s is %s, not a polynomial"
                         % (tok.value, radicand), tok.line, tok.col)
    ctx = ParamContext(params, [(tok.value, radicand.re[0])])
    q, root = ctx.radicand, _p_sqrt(ctx.radicand)
    if root is None and not _negative_everywhere(q):
        return ctx
    raise ParseError("radicand of %s is %s, %s" % (
        tok.value, _p_str(q, ctx.params), "negative" if root is None
        else "a rational square" if _p_is_const(q)
        else "the square of %s" % _p_str(root, ctx.params)), tok.line, tok.col)


# ---------------------------------------------------------------------------
# declarations


class AlgebraDecl:
    def __init__(self, name, m, n, ctx, brackets, autos, comment=None):
        self.name = name
        self.m = m
        self.n = n
        self.ctx = ctx
        self.brackets = brackets  # list of (gen, gen, ast)
        self.autos = autos        # list of AutoBranchDecl
        self.comment = comment


class AutoBranchDecl:
    def __init__(self, params, radicals, matrix, constraints):
        self.params = params
        self.radicals = radicals
        self.matrix = matrix          # [[ast]]
        self.constraints = constraints  # [ast]


class TripleDecl:
    def __init__(self, ident, m, n, ctx, left, right, label=None):
        self.id = ident
        self.m = m
        self.n = n
        self.ctx = ctx
        self.left = left    # ("ref", name, {param: ast}) | ("inline", brackets)
        self.right = right
        self.label = label


class CertDecl:
    def __init__(self, ident, ctx, source, target, matrix):
        self.id = ident
        self.ctx = ctx
        self.source = source  # (triple_id, {param: ast})
        self.target = target
        self.matrix = matrix  # [[ast]], or None for a shear


def _parse_superdim(tz):
    tz.expect("name", "super_dim")
    tz.expect("(")
    m = tz.expect("int").value
    tz.expect(",")
    n = tz.expect("int").value
    tz.expect(")")
    return m, n


def _parse_brackets_block(tz):
    out = []
    tz.expect("{")
    while not tz.accept("}"):
        tz.expect("[")
        a = tz.expect("name").value
        tz.expect(",")
        b = tz.expect("name").value
        tz.expect("]")
        tz.expect("=")
        ast = parse_expr(tz)
        out.append((a, b, ast))
        tz.accept(";")
    return out


def _parse_matrix(tz):
    """[[expr, ...], ...], after the keyword matrix."""
    tz.expect("[")
    rows = []
    while True:
        tz.expect("[")
        row = [parse_expr(tz)]
        while tz.accept(","):
            row.append(parse_expr(tz))
        tz.expect("]")
        rows.append(row)
        if not tz.accept(","):
            break
    tz.expect("]")
    return rows


def _parse_ref(tz):
    name = tz.expect("name").value
    bindings = {}
    tz.expect("(")
    if not tz.at(")"):
        while True:
            pname = tz.expect("name").value
            tz.expect("=")
            bindings[pname] = parse_expr(tz)
            if not tz.accept(","):
                break
    tz.expect(")")
    return name, bindings


def _parse_side(tz):
    if tz.accept("="):
        name, bindings = _parse_ref(tz)
        return ("ref", name, bindings)
    return ("inline", _parse_brackets_block(tz))


def _parse_automorphism(tz):
    tz.expect("{")
    params, radicals = [], []
    if tz.accept("name", "params"):
        params, radicals = _parse_params_block(tz)
    tz.expect("name", "matrix")
    matrix = _parse_matrix(tz)
    constraints = []
    if tz.accept("name", "constraints"):
        tz.expect("{")
        while not tz.accept("}"):
            constraints.append(parse_expr(tz))
            tz.accept(";")
    tz.expect("}")
    return AutoBranchDecl(params, radicals, matrix, constraints)


def _parse_string(tz):
    return tz.expect("string").value


def _parse_clauses(tz, handlers):
    """Keyword clauses in any order, each read by handlers[keyword]:
    {keyword: value}, the last value of a repeated clause, except that
    automorphism blocks are collected in a list."""
    out = {}
    while tz.at("name") and tz.peek().value in handlers:
        keyword = tz.next().value
        value = handlers[keyword](tz)
        if keyword == "automorphism":
            out.setdefault(keyword, []).append(value)
        else:
            out[keyword] = value
    return out


def _clause_context(clauses):
    return build_context(*clauses.get("params", ([], [])))


def _parse_algebra(tz):
    name = tz.expect("name").value
    m, n = _parse_superdim(tz)
    clauses = _parse_clauses(tz, {"params": _parse_params_block,
                                  "brackets": _parse_brackets_block,
                                  "comment": _parse_string,
                                  "automorphism": _parse_automorphism})
    return AlgebraDecl(name, m, n, _clause_context(clauses),
                       clauses.get("brackets", []),
                       clauses.get("automorphism", []), clauses.get("comment"))


def _parse_triple(tz):
    ident = tz.expect("name").value
    m, n = _parse_superdim(tz)
    clauses = _parse_clauses(tz, {"params": _parse_params_block,
                                  "label": _parse_string,
                                  "left": _parse_side, "right": _parse_side})
    if "left" not in clauses or "right" not in clauses:
        tok = tz.peek()
        raise ParseError("triple %s needs left and right sides" % ident,
                         tok.line, tok.col)
    return TripleDecl(ident, m, n, _clause_context(clauses), clauses["left"],
                      clauses["right"], clauses.get("label"))


def _parse_cert(tz):
    ident = tz.expect("name").value
    clauses = _parse_clauses(tz, {"params": _parse_params_block,
                                  "from": _parse_ref, "to": _parse_ref,
                                  "matrix": _parse_matrix,
                                  "shear": lambda tz: None})
    if (not {"from", "to"} <= clauses.keys()
            or ("matrix" in clauses) == ("shear" in clauses)):
        tok = tz.peek()
        raise ParseError("cert %s needs from, to and one of matrix or shear"
                         % ident, tok.line, tok.col)
    return CertDecl(ident, _clause_context(clauses), clauses["from"],
                    clauses["to"], clauses.get("matrix"))


def parse_catalog(text):
    """Parse a catalog file into declaration objects."""
    tz = Tokenizer(text)
    decls = []
    while not tz.at("eof"):
        tok = tz.expect("name")
        if tok.value == "algebra":
            decls.append(_parse_algebra(tz))
        elif tok.value == "triple":
            decls.append(_parse_triple(tz))
        elif tok.value == "cert":
            decls.append(_parse_cert(tz))
        else:
            raise ParseError("expected algebra/triple/cert, got %r" % tok.value,
                             tok.line, tok.col)
    return decls


# ---------------------------------------------------------------------------
# rendering (round-trip support)


def render_params(ctx):
    bits = []
    for name in ctx.params:
        bits.append("%s : %s" % (name, ctx.domains[name].describe()))
    if ctx.radical_name is not None:
        bits.append("%s : sqrt(%s)" % (ctx.radical_name,
                                       _p_str(ctx.radicand, ctx.params)))
    return "params { %s }" % "; ".join(bits)


def render_combo(names, comps):
    """Render {index: Scalar} as a + joined generator combination."""
    bits = []
    for k in sorted(comps):
        s = str(comps[k])
        if s == "1":
            term = names[k]
        elif s == "-1":
            term = "-" + names[k]
        else:
            term = "(%s)*%s" % (s, names[k])
        bits.append(term)
    if not bits:
        return "0"
    out = bits[0]
    for term in bits[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def render_brackets(names, bracket_items):
    bits = []
    for (i, j), comps in bracket_items:
        bits.append("[%s, %s] = %s" % (names[i], names[j],
                                       render_combo(names, comps)))
    return "brackets { %s }" % "; ".join(bits)
