"""Shipped catalogs: the superalgebras of superdimension (1,1), (2,1) and
(1,2) with their automorphism families, the triple lists of superdimension
(2,2), (4,2) and (2,4), and the certificate library.  A certificate lists
its matrix, or is a ``shear`` whose matrix ``iso.shear_matrix`` derives
from its two endpoint triples.  An entry that names another (a triple's
side, a certificate's endpoints) takes it into its own context at the
bindings it gives, by ``iso._in_context``.

Extra catalog directories can be supplied through the environment variable
SUPERTRIPLES_CATALOG_PATH (colon separated); their files extend or override
the shipped ones by id.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction

from .algebra import AutoBranch, AutomorphismFamily, Grading, SuperAlgebra
from .errors import (ConstraintViolation, ParseError, SuperTriplesError,
                     UnknownId, UnknownName)
from .iso import IsoCertificate, _in_context, shear_matrix
from .memo import memoized
from .parsing import (AlgebraDecl, CertDecl, TripleDecl, build_context,
                      eval_ast, eval_generator_combo, parse_catalog)
from .triples import ManinTriple, build_double

__all__ = ["get_catalog", "catalog", "automorphisms", "catalog_triple",
           "appendix_certificate", "table_rows", "list_algebras",
           "list_certificates"]

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
ENV_PATH = "SUPERTRIPLES_CATALOG_PATH"


def _build(entry, value, bindings, method="substitute"):
    """``value.substitute(bindings)``, or the value's method of that name,
    at parameter bindings ({name: rational}); inside a ``report_memo()``
    block the object (or the failure) that gave for the same entry, method
    and bindings."""
    key = (entry, method,
           tuple(sorted((n, Fraction(v)) for n, v in bindings.items())))
    return memoized(key, lambda: getattr(value, method)(bindings))


def _eval_bindings(ref, ref_ctx, exprs, ctx):
    """{name: Scalar of ctx} for the bindings `exprs` of a reference to the
    entry `ref`, each a name that entry declares (a parameter or its
    radical)."""
    undeclared = sorted(set(exprs) - set(ref_ctx.params) - {ref_ctx.radical_name})
    if undeclared:
        raise UnknownName("%s declares no parameter %s"
                          % (ref, ", ".join(undeclared)))
    return {n: eval_ast(ast, ctx) for n, ast in exprs.items()}


def _eval_brackets(bracket_decls, ctx, names, owner):
    """{(i, j): {k: Scalar}} from declared brackets [a, b] = combination of
    the generators `names`."""
    genmap = {n: i for i, n in enumerate(names)}
    brackets = {}
    for (a, b, ast) in bracket_decls:
        for g in (a, b):
            if g not in genmap:
                raise ParseError("unknown generator %r in %s" % (g, owner))
        tgt = brackets.setdefault((genmap[a], genmap[b]), {})
        for k, c in eval_generator_combo(ast, ctx, genmap).items():
            tgt[k] = tgt.get(k, ctx.zero()) + c
    return brackets


class AlgebraEntry:
    def __init__(self, decl):
        self.decl = decl
        self.name = decl.name
        self.grading = Grading(decl.m, decl.n)
        self.ctx = decl.ctx
        brackets = _eval_brackets(decl.brackets, decl.ctx,
                                  self.grading.names(False), decl.name)
        self.algebra = SuperAlgebra.from_brackets(self.grading, decl.ctx,
                                                  brackets, name=decl.name)
        branches = []
        for br in decl.autos:
            params = [(n, self.ctx.domains[n]) for n in self.ctx.params]
            params += br.params
            ctx = build_context(params, br.radicals)
            matrix = [[eval_ast(ast, ctx) for ast in row] for row in br.matrix]
            constraints = [eval_ast(ast, ctx) for ast in br.constraints]
            branches.append(AutoBranch(ctx, matrix, constraints,
                                       [n for n, _ in br.params]))
        self.family = AutomorphismFamily(self.name, self.grading, branches)

    def automorphisms(self):
        return self.family


class TripleEntry:
    def __init__(self, decl, algebras):
        self.decl = decl
        self.id = decl.id
        self.grading = Grading(decl.m, decl.n)
        self.ctx = decl.ctx
        self.label = decl.label
        # the left side's algebra and its bindings (Scalars of ctx), when it
        # references a catalog algebra
        self.seed_name, self.seed_bindings = None, {}
        S = self._build_side(decl.left, dual=False, algebras=algebras)
        Sd = self._build_side(decl.right, dual=True, algebras=algebras)
        self.triple = ManinTriple(S, Sd, ident=decl.id, label=decl.label)

    def _build_side(self, side, dual, algebras):
        names = self.grading.names(dual)
        if side[0] == "ref":
            _, aname, bexprs = side
            if aname not in algebras:
                raise UnknownName("unknown algebra %s" % aname)
            entry = algebras[aname]
            if entry.grading != self.grading:
                raise ConstraintViolation("side %s has wrong superdimension" % aname)
            bindings = _eval_bindings(aname, entry.ctx, bexprs, self.ctx)
            if not dual:
                self.seed_name, self.seed_bindings = aname, bindings
            alg = _in_context(entry.algebra, self.ctx, bindings)
            return SuperAlgebra(self.grading, self.ctx, alg.entries(),
                                names=names, name=aname, dual_role=dual)
        brackets = _eval_brackets(side[1], self.ctx, names,
                                  "triple %s" % self.id)
        return SuperAlgebra.from_brackets(self.grading, self.ctx, brackets,
                                          names=names, dual_role=dual)

    def build(self, bindings=None):
        """The row at parameter bindings, its own triple without them."""
        return _build(self, self.triple, bindings) if bindings else self.triple

    @functools.cached_property
    def signature(self):
        """``ManinTriple.signature`` of the row's own triple, which every
        build of the row at bindings keeps to."""
        return self.triple.signature()


class CertEntry:
    def __init__(self, decl, triples):
        self.decl = decl
        self.id = decl.id
        self.ctx = decl.ctx
        self.source_id, src_exprs = decl.source
        self.target_id, tgt_exprs = decl.target
        if self.source_id not in triples or self.target_id not in triples:
            raise UnknownId("cert %s references unknown triples" % decl.id)
        src, tgt = triples[self.source_id], triples[self.target_id]
        # each endpoint's bindings, Scalars of ctx
        self.source_values = _eval_bindings(self.source_id, src.ctx,
                                            src_exprs, self.ctx)
        self.target_values = _eval_bindings(self.target_id, tgt.ctx,
                                            tgt_exprs, self.ctx)
        source = _in_context(src.triple, self.ctx, self.source_values)
        target = _in_context(tgt.triple, self.ctx, self.target_values)
        if decl.matrix is None:
            matrix = shear_matrix(source, target)
        else:
            matrix = [[eval_ast(ast, self.ctx) for ast in row]
                      for row in decl.matrix]
        self.certificate = IsoCertificate(self.ctx, matrix, build_double(source),
                                          build_double(target), note=decl.id)

    def build(self, bindings=None):
        """The certificate at parameter bindings, built as a triple is: a
        radical whose radicand they make a rational square is bound to its
        nonnegative root, and a negative one is refused
        (``ParamContext.bind``)."""
        cert = self.certificate
        return _build(self, cert, bindings) if bindings else cert

    def matrix_at(self, bindings):
        """(context, matrix) of ``build(bindings)`` without its endpoint
        doubles (``IsoCertificate.matrix_at``), kept as ``build`` keeps the
        whole certificate."""
        return _build(self, self.certificate, bindings, "matrix_at")


class Catalog:
    def __init__(self, decls=()):
        """decls: (path, declaration) pairs, built by ``extend``."""
        self.algebras = {}
        self.triples = {}
        self.certs = {}
        self.extend(decls)

    def extend(self, decls):
        """Build the entries of (path, declaration) pairs: algebras first,
        then triples, then certificates.  Returns the entries in the order
        of decls."""
        entries = [None] * len(decls)
        for kind in (AlgebraDecl, TripleDecl, CertDecl):
            for i, (path, decl) in enumerate(decls):
                if isinstance(decl, kind):
                    entries[i] = self.add(path, decl)
        return entries

    def add(self, path, decl):
        """Build and return the entry of one declaration from file `path`,
        against the entries added so far; an error in building it is a
        ParseError naming the file."""
        try:
            if isinstance(decl, AlgebraDecl):
                entry = self.algebras[decl.name] = AlgebraEntry(decl)
            elif isinstance(decl, TripleDecl):
                entry = self.triples[decl.id] = TripleEntry(decl, self.algebras)
            else:
                entry = self.certs[decl.id] = CertEntry(decl, self.triples)
        except SuperTriplesError as exc:
            raise ParseError("%s: %s" % (path, exc)) from None
        return entry

    def table_rows(self, table):
        prefix = "MT%s_" % table
        rows = [k for k in self.triples if k.startswith(prefix)]
        return sorted(rows, key=lambda k: int(k.split("_")[1]))


_CATALOG = None


def parse_catalog_file(path):
    """The declarations of one catalog file, read as UTF-8; every ParseError
    (unreadable, not UTF-8, bad syntax) names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc.reason))
    try:
        return parse_catalog(text)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc)) from None


def _catalog_decls():
    dirs = [DATA_DIR] + [d for d in os.environ.get(ENV_PATH, "").split(os.pathsep)
                         if d and os.path.isdir(d)]
    paths = [os.path.join(d, fn) for d in dirs for fn in sorted(os.listdir(d))
             if fn.endswith(".cat")]
    return [(path, decl) for path in paths for decl in parse_catalog_file(path)]


def get_catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = Catalog(_catalog_decls())
    return _CATALOG


def catalog(name, bindings=None):
    """A catalog superalgebra, optionally at parameter bindings."""
    cat = get_catalog()
    if name not in cat.algebras:
        raise UnknownName("unknown algebra %s" % name)
    alg = cat.algebras[name].algebra
    if bindings:
        alg = alg.substitute(bindings)
    return alg


def automorphisms(name, bindings=None):
    """A catalog superalgebra's automorphism family, optionally with the
    algebra's parameters bound as ``catalog(name, bindings)`` binds them."""
    cat = get_catalog()
    if name not in cat.algebras:
        raise UnknownName("unknown algebra %s" % name)
    family = cat.algebras[name].automorphisms()
    if bindings:
        family = AutomorphismFamily(name, family.grading,
                                    [b.substitute(bindings) for b in family])
    return family


def catalog_triple(ident, bindings=None):
    cat = get_catalog()
    if ident not in cat.triples:
        raise UnknownId("unknown triple %s" % ident)
    return cat.triples[ident].build(bindings)


def appendix_certificate(pair_id, bindings=None):
    cat = get_catalog()
    if pair_id not in cat.certs:
        raise UnknownId("unknown certificate %s" % pair_id)
    return cat.certs[pair_id].build(bindings)


def table_rows(table):
    return get_catalog().table_rows(table)


def list_algebras():
    return sorted(get_catalog().algebras)


def list_certificates():
    return sorted(get_catalog().certs)
