"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed or stdout was closed early
(``| head``), 2 parse error (and argparse's usage errors), 3 constraint
violation, 4 budget exhausted: an ``enumerate`` grid larger than its fixed
bound ``classify.ENUM_BUDGET``.
The search and enumeration budgets are fixed; no option sets them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .algebra import check_antisymmetry, check_jacobi, commutant_series
from .catalog import (Catalog, appendix_certificate, automorphisms, catalog,
                      catalog_triple, get_catalog, list_algebras,
                      list_certificates, parse_catalog_file, table_rows)
from .classify import (REPORTS, _check_family, _fp_str, _value_of,
                       classify_doubles, enumerate_duals, match_22,
                       reduce_orbits, report)
from .errors import (BudgetExceeded, ConstraintViolation, DivisionByZero,
                     InconsistentRadical, ParseError, SuperTriplesError,
                     UnknownId, UnknownName)
from .forms import canonical_form, check_ad_invariance
from .iso import (G_NAMES, NoSolution, _in_context, odd_action_matrices,
                  solve_r, verify_certificate)
from .parsing import MAX_DIGITS, AlgebraDecl, TripleDecl
from .scalars import Domain, ParamContext, not_a_parameter
from .triples import build_double, check_compatibility

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_BUDGET = 4
EXIT_PIPE_CLOSED = 1  # stdout closed early, as Python's own exit on EPIPE

def _rational(flag, text):
    """The Fraction of an option value, its digits and any decimal exponent
    bounded by ``MAX_DIGITS`` as catalog literals are."""
    text = text.strip()
    try:
        if sum(ch.isdecimal() for ch in text) > MAX_DIGITS:
            raise ConstraintViolation("%s: number longer than %d digits"
                                      % (flag, MAX_DIGITS))
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ConstraintViolation("%s: exponent larger than %d"
                                      % (flag, MAX_DIGITS))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConstraintViolation("%s: %r is not an exact rational"
                                  % (flag, text))


def _parse_bindings(pairs):
    out = {}
    for item in pairs or ():
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ConstraintViolation("--bind expects name=value, got %r" % item)
        out.setdefault(name, []).append(_rational("--bind " + name, value))
    return out


def _single_bindings(multi):
    return {k: _value_of(multi, k, None) for k in multi}


def _report_checks(args, kind, checks):
    """Print the checks [(machine key, text label, failing residuals)] of
    the algebra or triple args.<kind>; exit 0 when none fails."""
    if args.format == "machine":
        print("check %s=%s %s" % (kind, getattr(args, kind), " ".join(
            "%s=%s" % (key, "fail" if bad else "pass") for key, _, bad in checks)))
    else:
        for _, label, bad in checks:
            print("%s: %s (%d residuals)"
                  % (label, "FAIL" if bad else "PASS", len(bad)))
    return EXIT_CHECK_FAILED if any(bad for _, _, bad in checks) else EXIT_OK


def cmd_check(args):
    if args.algebra:
        A = catalog(args.algebra, _single_bindings(_parse_bindings(args.bind)))
        return _report_checks(args, "algebra", [
            ("antisymmetry", "antisymmetry", check_antisymmetry(A)),
            ("jacobi", "jacobi", check_jacobi(A))])
    if args.triple:
        t = catalog_triple(args.triple, _single_bindings(_parse_bindings(args.bind)))
        D = build_double(t)  # compatibility is the Jacobi identity of D
        return _report_checks(args, "triple", [
            ("compatibility", "compatibility", check_jacobi(D)),
            ("ad_invariance", "ad-invariance",
             check_ad_invariance(D, canonical_form(*t.superdim())))])
    if args.file:
        decls = parse_catalog_file(args.file)
        # built as on the catalog path, on top of the catalog's algebras and
        # triples but without changing it; certificates are not verified
        local = Catalog()
        local.algebras.update(get_catalog().algebras)
        local.triples.update(get_catalog().triples)
        entries = local.extend([(args.file, decl) for decl in decls])
        ok = True
        for decl, entry in zip(decls, entries):
            if isinstance(decl, AlgebraDecl):
                bad = (check_antisymmetry(entry.algebra)
                       or check_jacobi(entry.algebra))
                ok = ok and not bad
                print("algebra %s: %s" % (decl.name,
                                          "PASS" if not bad else "FAIL"))
            elif isinstance(decl, TripleDecl):
                bad = check_compatibility(entry.triple)
                ok = ok and not bad
                print("triple %s: %s" % (decl.id,
                                         "PASS" if not bad else "FAIL"))
        print("parsed %d declarations" % len(decls))
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    raise ConstraintViolation("check needs --algebra, --triple or --file")


def cmd_double(args):
    t = catalog_triple(args.triple, _single_bindings(_parse_bindings(args.bind)))
    D = build_double(t)
    if args.format == "machine":
        for (i, j, k, c) in D.nonzero():
            if i <= j:
                print("bracket i=%s j=%s k=%s coeff=%s"
                      % (D.names[i], D.names[j], D.names[k],
                         str(c).replace(" ", "")))
    else:
        print(D.describe_brackets())
    return EXIT_OK


def cmd_invariants(args):
    t = catalog_triple(args.triple)  # an unknown triple before a bad --bind
    bindings = _single_bindings(_parse_bindings(args.bind))
    fp = commutant_series(build_double(t.substitute(bindings) if bindings else t))
    if args.format == "machine":
        print("fingerprint triple=%s dims=%s totals=%s"
              % (args.triple, _fp_str(fp),
                 ",".join(str(x) for x in fp.totals())))
    else:
        print("commutant superdimensions: %s  (totals %s)"
              % (fp, fp.totals()))
    return EXIT_OK


def cmd_verify_iso(args):
    cert = appendix_certificate(args.cert,
                                _single_bindings(_parse_bindings(args.bind)))
    ok, residuals = verify_certificate(cert)
    form_fail = [r for r in residuals if r[0] == "form"]
    bracket_fail = [r for r in residuals if r[0] == "bracket"]
    if args.format == "machine":
        print("verify cert=%s form=%s transport=%s"
              % (args.cert, "pass" if not form_fail else "fail",
                 "pass" if not bracket_fail else "fail"))
    else:
        print("cpodm(i): %s, cpodm(ii): %s"
              % ("PASS" if not form_fail else "FAIL",
                 "PASS" if not bracket_fail else "FAIL"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_solve_r(args):
    bindings = _single_bindings(_parse_bindings(args.bind))
    seed = catalog(args.algebra, bindings)
    m, n = seed.superdim()
    if m != 1 or n not in G_NAMES:
        raise ConstraintViolation("solve-r needs a (1,1) or (1,2) seed algebra")
    # G's names, each once: its upper triangle, row by row
    names = tuple(dict.fromkeys(name for row in G_NAMES[n] for name in row))
    ctx = seed.ctx
    if args.g:
        vals = [_rational("--g", x) for x in args.g.split(",")]
        if len(vals) != len(names):
            raise ConstraintViolation("--g expects %s for a (1,%d) seed"
                                      % (",".join(names), n))
        g = {name: ctx.const(v) for name, v in zip(names, vals)}
    else:
        # G symbolic: the seed lifted into a context with G's names as well
        gctx = ParamContext([(name, Domain.free()) for name in
                             tuple(ctx.params) + names])
        seed = _in_context(seed, gctx)
        g = {name: gctx.param(name) for name in names}
    G = [[g[name] for name in row] for row in G_NAMES[n]]
    res = solve_r(odd_action_matrices(seed)[0], G)
    if isinstance(res, NoSolution):
        if args.format == "machine":
            print("solve_r algebra=%s status=nosolution witness=%s"
                  % (args.algebra, str(res.witness).replace(" ", "")))
        else:
            print("NoSolution: requires %s = 0" % res.witness)
        return EXIT_CHECK_FAILED
    if args.format == "machine":
        flat = ";".join(str(x).replace(" ", "") for row in res for x in row)
        print("solve_r algebra=%s status=ok R=%s" % (args.algebra, flat))
    else:
        for row in res:
            print("  [ %s ]" % ", ".join(str(x) for x in row))
    return EXIT_OK


def cmd_enumerate(args):
    bindings = _single_bindings(_parse_bindings(args.bind))
    seed = catalog(args.seed, bindings)
    fam = automorphisms(args.seed, bindings)
    _check_family(fam)  # before the enumeration, not after it
    sols = enumerate_duals(seed)
    orbits = reduce_orbits(sols, fam)
    if args.format == "machine":
        print("enumerate seed=%s solutions=%d orbits=%d"
              % (args.seed, len(sols), len(orbits)))
    else:
        print("%d solutions, %d orbit representatives" % (len(sols), len(orbits)))
    for rep, members in orbits:
        label = ""
        if seed.superdim() == (1, 1) and args.seed in ("A11", "N11", "S11"):
            m = match_22(args.seed, rep)
            label = m[0] if m else "unmatched"
        line = ("orbit rep=%s members=%d class=%s"
                % (rep.describe_brackets().replace(" ", ""), len(members), label)
                if args.format == "machine"
                else "  rep %-28s members %d  %s"
                % (rep.describe_brackets(), len(members), label))
        print(line)
    return EXIT_OK


def cmd_classify(args):
    bindings = _single_bindings(_parse_bindings(args.bind))
    rows = []
    for rid in args.rows.split(","):
        rid = rid.strip()
        if not rid:
            raise ConstraintViolation(
                "--rows expects comma separated triple ids, got %r" % args.rows)
        entry = get_catalog().triples.get(rid)
        if entry is None:
            raise UnknownId("unknown triple %s" % rid)
        rows.append((rid, entry))
    # a name must be declared by at least one listed row
    declared = tuple(dict.fromkeys(n for _, e in rows for n in e.ctx.params))
    for name in bindings:
        if name not in declared:
            raise not_a_parameter(name, declared)
    specs = [(rid, {k: v for k, v in bindings.items() if k in e.ctx.params})
             for rid, e in rows]
    result = classify_doubles(specs)
    for line in result.lines(args.format):
        print(line)
    return EXIT_OK


def cmd_report(args):
    rep = report(args.target, _parse_bindings(args.bind) or None)
    print(rep.render(args.format))
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_list(args):
    print("algebras: %s" % ", ".join(list_algebras()))
    for table in ("22", "42", "24"):
        print("triples (%s): %s" % (table, ", ".join(table_rows(table))))
    print("certificates: %s" % ", ".join(list_certificates()))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="supertriples",
        description="Exact computations with Manin supertriples and "
                    "Drinfel'd superdoubles in low dimensions.")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="axioms of an algebra / compatibility of a triple")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--algebra")
    target.add_argument("--triple")
    target.add_argument("--file")
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("double", help="print the double's brackets")
    p.add_argument("--triple", required=True)
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("invariants", help="commutant fingerprint at numeric bindings")
    p.add_argument("--triple", required=True)
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify-iso", help="verify a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_verify_iso)

    p = sub.add_parser("solve-r", help="solve the shear equation for a (1,1) or (1,2) seed")
    p.add_argument("--algebra", required=True)
    p.add_argument("--g", help="numeric G entries: alpha for a (1,1) seed, "
                   "alpha,beta,gamma for a (1,2) seed (default: symbolic)")
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_solve_r)

    p = sub.add_parser("enumerate", help="enumerate dual algebras for a seed")
    p.add_argument("--seed", required=True)
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="group triples into double classes")
    p.add_argument("--rows", required=True, help="comma separated triple ids")
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="reproduce a table or theorem")
    p.add_argument("--target", required=True, choices=REPORTS)
    p.add_argument("--bind", action="append")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("list", help="list catalog contents")
    p.set_defaults(func=cmd_list)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # as the SIGPIPE note of the Python documentation advises: point
        # stdout at devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (ConstraintViolation, DivisionByZero, InconsistentRadical,
            UnknownId, UnknownName) as exc:
        print("constraint violation: %s" % exc, file=sys.stderr)
        return EXIT_CONSTRAINT
    except SuperTriplesError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
