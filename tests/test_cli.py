import contextlib
import io
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from supertriples.cli import main

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None

CLI = [sys.executable, "-m", "supertriples.cli"]
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(*args, env=None, timeout=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=e, timeout=timeout)


def test_check_algebra_pass():
    r = run("check", "--algebra", "F")
    assert r.returncode == 0
    assert "jacobi: PASS (0 residuals)" in r.stdout


def test_check_triple():
    r = run("check", "--triple", "MT42_8")
    assert r.returncode == 0
    assert "compatibility: PASS" in r.stdout


@pytest.mark.parametrize("first, second", [
    (["--algebra", "A11"], ["--triple", "MT22_1"]),
    (["--algebra", "A11"], ["--file", "x.cat"]),
    (["--triple", "MT22_1"], ["--file", "x.cat"]),
], ids=["algebra-triple", "algebra-file", "triple-file"])
def test_check_takes_one_target(first, second):
    """Two of --algebra, --triple and --file are a usage error, exit 2, with
    nothing checked; none of them is a constraint violation, exit 3."""
    r = run("check", *first, *second)
    assert r.returncode == 2 and r.stdout == ""
    assert "not allowed with argument" in r.stderr
    r = run("check")
    assert r.returncode == 3
    assert r.stderr == ("constraint violation: check needs --algebra, "
                        "--triple or --file\n")


def test_verify_iso_output():
    r = run("verify-iso", "--cert", "DD42_V")
    assert r.returncode == 0
    assert "cpodm(i): PASS, cpodm(ii): PASS" in r.stdout


def test_report_table5_with_binds():
    r = run("report", "--target", "table5", "--bind", "p=2", "--bind", "kappa=1")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_solve_r_symbolic_and_witness():
    r = run("solve-r", "--algebra", "C2_1")
    assert r.returncode == 0
    r = run("solve-r", "--algebra", "C3")
    assert r.returncode == 1
    assert "gamma" in r.stdout


def test_machine_determinism():
    a = run("--format", "machine", "report", "--target", "thm1")
    b = run("--format", "machine", "report", "--target", "thm1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("args", [
    ("report", "--target", "thm1"),
    ("report", "--target", "thm2"),
    ("enumerate", "--seed", "S21"),
])
def test_machine_output_ignores_hash_seed(args):
    """Set and dict iteration order must not reach machine output."""
    a, b = (run("--format", "machine", *args, env={"PYTHONHASHSEED": seed})
            for seed in ("0", "1"))
    assert a.returncode == b.returncode == 0
    assert a.stdout and a.stdout == b.stdout


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("algebra ( nope")
    r = run("check", "--file", str(bad))
    assert r.returncode == 2


def test_exit_code_constraint_violation():
    r = run("invariants", "--triple", "MT42_10", "--bind", "kappa=0")
    assert r.returncode == 3
    r = run("verify-iso", "--cert", "NOSUCH")
    assert r.returncode == 3
    # unknown names and ids print a plain message, not a quoted key
    assert r.stderr == "constraint violation: unknown certificate NOSUCH\n"
    r = run("check", "--triple", "NOSUCH")
    _one_line_error(r, 3)
    assert "unknown triple NOSUCH" in r.stderr
    r = run("verify-iso", "--cert", "DD42_V", "--bind", "p=0")
    _one_line_error(r, 3)
    assert "p is not a parameter" in r.stderr


def test_exit_code_budget():
    """A12's grid of 7^7 points exceeds the fixed enumeration bound."""
    r = run("enumerate", "--seed", "A12")
    assert r.returncode == 4
    assert "exceeds budget 300000" in r.stderr


@pytest.mark.parametrize("args", [
    ("classify", "--rows", "MT24_9,MT24_13,MT24_4", "--bind", "p=1/2"),
    ("report", "--target", "thm3"),
    ("enumerate", "--seed", "S11"),
])
def test_budget_is_not_an_option(args):
    """The search and enumeration budgets are fixed: --budget is a usage
    error."""
    r = run(*args, "--budget", "5")
    assert r.returncode == 2
    assert "unrecognized arguments: --budget 5" in r.stderr
    assert r.stdout == ""


def test_enumerate_output_matches_classes():
    r = run("--format", "machine", "enumerate", "--seed", "S11")
    assert r.returncode == 0
    assert "class=MT22_4[eps=1]" in r.stdout
    assert "class=MT22_5" in r.stdout
    assert "unmatched" not in r.stdout


def test_classify_command():
    r = run("--format", "machine", "classify",
            "--rows", "MT22_3,MT22_4,MT22_5", "--bind", "eps=1")
    assert r.returncode == 0
    assert "class index=0" in r.stdout
    assert "edge from=" in r.stdout


@pytest.mark.parametrize("rows, edge", [
    ("MT24_20,FAM24_A_G", "edge from=MT24_20 to=FAM24_A_G[alpha=1,beta=1,"
     "gamma=-1] via=DD24_III_2.inv(shear)"),
    ("FAM24_A_G,MT24_20", "edge from=FAM24_A_G[alpha=1,beta=1,gamma=-1] "
     "to=MT24_20 via=inv(inv(shear)).inv(DD24_III_2)"),
], ids=["forward", "reverse"])
def test_classify_composes_certificates_across_contexts(rows, edge):
    """At alpha = beta = 1, gamma = -1 the catalog certificate DD24_III_2
    keeps its radical rho = sqrt(2), irrational, while the shear it is
    composed with has no radical: IsoCertificate.compose maps the shear
    into rho's context, in either order of the rows."""
    r = run("--format", "machine", "classify", "--rows", rows,
            "--bind", "alpha=1", "--bind", "beta=1", "--bind", "gamma=-1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1:] == [edge]


@pytest.mark.parametrize("args, message", [
    (("report", "--target", "thm2", "--bind", "kapa=2"),
     "kapa is not a parameter here (parameters: p, kappa)"),
    (("report", "--target", "thm3", "--bind", "eps=1"),
     "eps is not a parameter here (parameters: p, kappa)"),
    (("report", "--target", "table5", "--bind", "p=2", "--bind", "q=1"),
     "q is not a parameter here (parameters: p, kappa)"),
    (("report", "--target", "thm1", "--bind", "p=1"),
     "p is not a parameter here (parameters: none)"),
    (("report", "--target", "table2", "--bind", "kappa=1"),
     "kappa is not a parameter here (parameters: none)"),
    (("report", "--target", "table4", "--bind", "p=1"),
     "p is not a parameter here (parameters: none)"),
    (("report", "--target", "table7", "--bind", "p=1"),
     "p is not a parameter here (parameters: none)"),
    (("classify", "--rows", "MT22_1", "--bind", "p=5"),
     "p is not a parameter here (parameters: none)"),
    (("classify", "--rows", "MT22_1,MT22_4", "--bind", "kappa=1"),
     "kappa is not a parameter here (parameters: eps)"),
])
def test_unread_bind_names_are_refused(args, message):
    """report and classify refuse a --bind name they would never read, as
    every other subcommand does."""
    r = run(*args)
    _one_line_error(r, 3)
    assert message in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args, name", [
    (("classify", "--rows", "MT22_4", "--bind", "eps=1", "--bind", "eps=-1"),
     "eps"),
    (("invariants", "--triple", "MT42_14", "--bind", "kappa=1",
      "--bind", "kappa=2"), "kappa"),
    (("report", "--target", "thm2", "--bind", "p=2", "--bind", "p=3"), "p"),
    (("report", "--target", "thm3", "--bind", "kappa=1", "--bind", "p=1/3",
      "--bind", "kappa=1"), "kappa"),
])
def test_a_name_bound_twice_is_refused(args, name):
    """A command that reads one value per name refuses a name bound more
    than once, even to the same value, instead of keeping the last."""
    r = run(*args)
    _one_line_error(r, 3)
    assert r.stderr == ("constraint violation: %s is bound more than once\n"
                        % name)
    assert r.stdout == ""


def test_table5_reads_every_value_of_a_name():
    r = run("--format", "machine", "report", "--target", "table5",
            "--bind", "p=2", "--bind", "p=3")
    assert r.returncode == 0
    assert "id=MT42_6[p=2]" in r.stdout and "id=MT42_6[p=3]" in r.stdout


def test_classify_binds_a_name_one_listed_row_declares():
    r = run("--format", "machine", "classify", "--rows", "MT22_1,MT22_4",
            "--bind", "eps=1")
    assert r.returncode == 0
    assert "members=MT22_4[eps=1]" in r.stdout


def test_classify_lists_a_repeated_row_once():
    r = run("--format", "machine", "classify", "--rows", "MT22_1,MT22_1")
    assert r.returncode == 0
    assert r.stdout == "class index=0 fingerprint=0,0;0,0;0,0 members=MT22_1\n"


def test_classify_has_no_strategy_option():
    r = run("classify", "--rows", "MT22_3,MT22_4", "--strategy", "auto")
    assert r.returncode == 2
    assert "unrecognized arguments: --strategy" in r.stderr


def test_double_and_invariants():
    r = run("double", "--triple", "MT22_4")
    assert "(eps)*f1 - ft1" in r.stdout
    r = run("invariants", "--triple", "MT42_14", "--bind", "kappa=1")
    assert "(totals (5, 5, 5))" in r.stdout


def test_catalog_search_path(tmp_path):
    extra = tmp_path / "extra.cat"
    extra.write_text("algebra ZZ_test super_dim (1, 1) brackets { [b1, f1] = f1 }\n")
    r = run("check", "--algebra", "ZZ_test",
            env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)})
    assert r.returncode == 0
    r2 = run("check", "--algebra", "ZZ_test")
    assert r2.returncode == 3
    (tmp_path / "binary.cat").write_bytes(b"\xff\xfe algebra")
    env = {"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}
    _one_line_error(run("list", env=env), 2)
    _one_line_error(run("check", "--algebra", "ZZ_test", env=env), 2)
    # a syntax error names the file it is in
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "bad.cat").write_text("algebra ( nope\n")
    r = run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(broken)})
    _one_line_error(r, 2)
    assert str(broken / "bad.cat") in r.stderr
    # so does an error found while building an entry: an unknown generator
    # or an unknown algebra on the left of a triple
    for name, text in (
            ("gen", "algebra ZZ super_dim (1, 1) brackets { [b1, zz] = f1 }\n"),
            ("alg", "triple ZT super_dim (1, 1)\n  left = NOPE()\n  right { }\n")):
        d = tmp_path / name
        d.mkdir()
        (d / "entry.cat").write_text(text)
        for argv in (("list",), ("check", "--algebra", "F")):
            r = run(*argv, env={"SUPERTRIPLES_CATALOG_PATH": str(d)})
            _one_line_error(r, 2)
            assert str(d / "entry.cat") in r.stderr


def test_bad_automorphism_block_is_a_parse_error(tmp_path):
    """An unknown name in an automorphism block fails when the catalog is
    built, naming the file, not when the family is first used."""
    (tmp_path / "zq.cat").write_text(
        "algebra ZQ super_dim (1, 1)\n  brackets { }\n  automorphism {\n"
        "    params { a : free \\ {0} }\n    matrix [[nope, 0], [0, a]]\n"
        "    constraints { a }\n  }\n")
    env = {"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}
    for argv in (("list",), ("enumerate", "--seed", "ZQ")):
        r = run(*argv, env=env)
        _one_line_error(r, 2)
        assert str(tmp_path / "zq.cat") in r.stderr
    r = run("check", "--file", str(tmp_path / "zq.cat"))
    _one_line_error(r, 2)
    assert str(tmp_path / "zq.cat") in r.stderr


def test_check_file_unknown_algebra_is_a_parse_error(tmp_path):
    """check --file builds its entries as the catalog does: an unknown
    algebra on the left of a triple is a parse error naming the file."""
    path = tmp_path / "zt.cat"
    path.write_text("triple ZT super_dim (1, 1)\n  left = NOPE()\n  right { }\n")
    r = run("check", "--file", str(path))
    _one_line_error(r, 2)
    assert str(path) in r.stderr and "unknown algebra NOPE" in r.stderr


def test_check_file_builds_in_catalog_order(tmp_path):
    """check --file builds a file's algebras before its triples, as the
    catalog path does, and prints its lines in file order."""
    path = tmp_path / "order.cat"
    path.write_text("triple ZT super_dim (1, 1)\n  left = ZZ()\n  right { }\n"
                    "algebra ZZ super_dim (1, 1) brackets { [b1, f1] = f1 }\n")
    r = run("check", "--file", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["triple ZT: PASS", "algebra ZZ: PASS",
                                     "parsed 2 declarations"]
    assert run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}
               ).returncode == 0


def test_check_file_builds_certificates(tmp_path):
    """A cert on an unknown triple is a parse error naming the file, in
    check --file as on the catalog path."""
    path = tmp_path / "cert.cat"
    path.write_text("cert CX\n  from NOPE() to MT22_3()\n"
                    "  matrix [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],"
                    " [0, 0, 0, 1]]\n")
    for r in (run("check", "--file", str(path)),
              run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)})):
        _one_line_error(r, 2)
        assert str(path) in r.stderr and "unknown triples" in r.stderr


@pytest.mark.parametrize("text, message", [
    ("cert ZS\n  from MT22_4(eps = 1) to MT22_4(eps = 1)\n  shear\n",
     "shear source dual is not abelian"),
    ("cert ZS\n  from MT24_18() to FAM24_A_G(alpha = 1, beta = 0, gamma = 1)\n"
     "  shear\n", "shear source and target have different seeds"),
    ("triple ZN super_dim (1, 1)\n  left = S11()\n  right { [bt1, ft1] = ft1 }\n"
     "cert ZS\n  from MT22_3() to ZN()\n  shear\n",
     "shear target dual is not N-type"),
    ("triple ZF super_dim (2, 1)\n  left = F()\n  right { }\n"
     "cert ZS\n  from ZF() to ZF()\n  shear\n", "seed has odd-odd brackets"),
    ("cert ZS\n  params { alpha : free; beta : free; gamma : free }\n"
     "  from MT24_18() to FAM24_C3_G(alpha = alpha, beta = beta, gamma = gamma)\n"
     "  shear\n", "shear R-system has no solution: gamma != 0"),
], ids=["source-dual", "seeds", "target-dual", "odd-odd", "no-solution"])
def test_a_shear_with_no_derivation_is_a_parse_error(tmp_path, text, message):
    """A shear certificate whose matrix cannot be derived is a parse error
    naming the file, in check --file and on the catalog search path."""
    path = tmp_path / "shear.cat"
    path.write_text(text)
    for r in (run("check", "--file", str(path)),
              run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)})):
        _one_line_error(r, 2)
        assert str(path) in r.stderr and message in r.stderr


def _one_line_error(r, code):
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_check_file_unreadable_exits_parse(tmp_path):
    _one_line_error(run("check", "--file", str(tmp_path / "missing.cat")), 2)
    _one_line_error(run("check", "--file", str(tmp_path)), 2)
    binary = tmp_path / "binary.cat"
    binary.write_bytes(b"\xff\xfe algebra")
    _one_line_error(run("check", "--file", str(binary)), 2)


def test_solve_r_bad_g_exits_constraint():
    _one_line_error(run("solve-r", "--algebra", "C2_p", "--g", "a,b,c"), 3)
    _one_line_error(run("solve-r", "--algebra", "C2_p", "--g", "1,2,1/0"), 3)
    _one_line_error(run("solve-r", "--algebra", "C2_p", "--g", "1,2"), 3)
    _one_line_error(run("solve-r", "--algebra", "S11", "--g", "1,2,3"), 3)
    r = run("--format", "machine", "solve-r", "--algebra", "S11", "--g", "2")
    assert r.returncode == 0
    assert "R=1" in r.stdout.split()


@pytest.mark.parametrize("domain", ["{1/0}", "(0, 1/0)", "free \\ {2/0}"])
def test_zero_denominator_in_a_domain_is_a_parse_error(tmp_path, domain):
    """A domain number with denominator 0 is a parse error naming the file,
    on the catalog search path and in check --file alike."""
    path = tmp_path / "zd.cat"
    path.write_text("algebra ZD super_dim (1, 1)\n  params { p : %s }\n"
                    "  brackets { [b1, f1] = p*f1 }\n" % domain)
    for r in (run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}),
              run("check", "--file", str(path))):
        _one_line_error(r, 2)
        assert str(path) in r.stderr and "zero denominator" in r.stderr


@pytest.mark.parametrize("text, argvs", [
    ("triple ZT super_dim (1, 1)\n  left = S11(p = 1)\n  right { }\n",
     [("list",), ("check", "--triple", "ZT"), ("check", "--file", None)]),
    ("cert ZC\n  from MT22_3(q = 5) to MT22_3()\n"
     "  matrix [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n",
     [("list",), ("verify-iso", "--cert", "ZC"), ("check", "--file", None)]),
    ("cert ZC\n  from MT22_3() to MT22_4(eps = 1, q = 5)\n"
     "  matrix [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1/2, 0, 1]]\n",
     [("list",), ("verify-iso", "--cert", "ZC"), ("check", "--file", None)]),
], ids=["triple-left", "cert-source", "cert-target"])
def test_binding_an_undeclared_parameter_is_a_parse_error(tmp_path, text,
                                                          argvs):
    """A reference may bind only the parameters its entry declares (S11 and
    MT22_3 have none, MT22_4 only eps): on the catalog search path and in
    check --file, the file is then a parse error naming it."""
    path = tmp_path / "ref.cat"
    path.write_text(text)
    env = {"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}
    for argv in argvs:
        r = run(*(str(path) if a is None else a for a in argv), env=env)
        _one_line_error(r, 2)
        assert str(path) in r.stderr and "declares no parameter" in r.stderr


def test_superscript_digit_is_a_parse_error(tmp_path):
    """A superscript digit in a bracket value is a parse error naming the
    file, not a ValueError traceback from int()."""
    path = tmp_path / "sup.cat"
    path.write_text("algebra SUP super_dim (1, 1)\n"
                    "  brackets { [b1, f1] = 2\u2075*f1 }\n", encoding="utf-8")
    r = run("check", "--file", str(path))
    _one_line_error(r, 2)
    assert str(path) in r.stderr
    assert "line 2, col 26: unexpected character" in r.stderr


def _check_bracket_value(tmp_path, value, timeout=None):
    """check --file on a (1,1) algebra whose one bracket is [b1, f1] = value."""
    path = tmp_path / "value.cat"
    path.write_text("algebra VAL super_dim (1, 1)\n"
                    "  brackets { [b1, f1] = %s }\n" % value)
    return path, run("check", "--file", str(path), timeout=timeout)


@pytest.mark.parametrize("value", ["(" + "+".join(["1"] * 1500) + ")*f1",
                                   "-" * 1500 + "1*f1"],
                         ids=["sum", "signs"])
def test_long_chains_in_a_bracket_value_check(tmp_path, value):
    """A 1500-term sum and a run of 1500 signs evaluate in a loop, not with
    a RecursionError."""
    _, r = _check_bracket_value(tmp_path, value)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "algebra VAL: PASS\nparsed 1 declarations\n"


@pytest.mark.parametrize("value, message", [
    ("9" * 5000 + "*f1", "line 2, col 25: number longer than 1000 digits"),
    ("2^99999999*f1", "line 2, col 27: exponent larger than 64"),
], ids=["digits", "exponent"])
def test_oversized_numbers_are_parse_errors(tmp_path, value, message):
    """A literal past Python's int-string limit and an exponent that would
    take ages to multiply out are parse errors naming the file, at once."""
    path, r = _check_bracket_value(tmp_path, value, timeout=60)
    _one_line_error(r, 2)
    assert r.stderr == "parse error: %s: %s\n" % (path, message)


def test_an_oversized_product_is_a_parse_error_through_both_routes(tmp_path):
    """A product of 80 factors 10^60 once passed check --file and ended
    double --triple in a ValueError traceback, when its 4 800-digit
    coefficient was printed.  The product is refused at the '*' where it
    passes MAX_DIGITS digits, the 16th, by check --file and by a catalog
    read from SUPERTRIPLES_CATALOG_PATH alike."""
    path = tmp_path / "big.cat"
    path.write_text("triple BIG_1 super_dim (1, 1)\n"
                    "  left = A11()\n"
                    "  right { [ft1, ft1] = %s*bt1 }\n"
                    % "*".join(["(10^60)"] * 80))
    message = ("parse error: %s: line 3, col 151: product of more than 1000 "
               "digits\n" % path)
    for r in (run("check", "--file", str(path)),
              run("double", "--triple", "BIG_1",
                  env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)})):
        _one_line_error(r, 2)
        assert r.stderr == message


@pytest.mark.parametrize("params, message", [
    ("p : free; p : sign", "line 2, col 22: duplicate parameter 'p'"),
    ("p : free; r : sqrt(p); s : sqrt(p + 1)",
     "line 2, col 35: at most one radical per context"),
    ("p : free; r : sqrt(q)", "line 2, col 22: radicand of r: q is not a "
     "parameter here (parameters: p)"),
    ("p : free; r : sqrt(-1)", "line 2, col 22: radicand of r is -1, negative"),
    ("p : (0, inf); r : sqrt(-p^2 - 1)",
     "line 2, col 26: radicand of r is -p^2 - 1, negative"),
    ("p : free; r : sqrt(4)",
     "line 2, col 22: radicand of r is 4, a rational square"),
    ("p : (0, inf); r : sqrt(p^2)",
     "line 2, col 26: radicand of r is p^2, the square of p"),
    ("p : (0, inf); r : sqrt(4*p^2 + 4*p + 1)",
     "line 2, col 26: radicand of r is 4*p^2 + 4*p + 1, the square of 2*p + 1"),
    ("p : (0, inf); r : sqrt(1/p)",
     "line 2, col 26: radicand of r is (1)/(p), not a polynomial"),
    ("p : (0, 0)", "line 2, col 16: empty domain"),
    ("p : (1, 0)", "line 2, col 16: empty domain"),
    ("p : [1, 1] \\ {1}", "line 2, col 16: empty domain"),
], ids=["duplicate", "second-radical", "undeclared-radicand",
        "negative-radicand", "negative-everywhere-radicand", "square-radicand",
        "square-monomial-radicand", "square-polynomial-radicand", "non-polynomial-radicand",
        "empty-open-interval",
        "empty-reversed-interval", "empty-excluded-point"])
def test_params_block_errors_are_parse_errors(tmp_path, params, message):
    """A faulty params block is a parse error at its position naming the
    file, on the catalog search path and in check --file alike.  A radicand
    must be a polynomial, neither negative at every real point (a negative
    constant, or minus a sum of a positive constant and positive even
    monomials) nor the square of a polynomial, and a domain may not be
    empty."""
    path = tmp_path / "pb.cat"
    path.write_text("algebra PB super_dim (1, 1)\n  params { %s }\n"
                    "  brackets { [b1, f1] = p*f1 }\n" % params)
    for r in (run("list", env={"SUPERTRIPLES_CATALOG_PATH": str(tmp_path)}),
              run("check", "--file", str(path))):
        _one_line_error(r, 2)
        assert r.stderr == "parse error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("params, brackets", [
    ("", "[f1, f1] = b1; [b1, f1] = (sqrt(4) - 2)*f1"),
    ("r : sqrt(2)", "[f1, f1] = b1; [b1, f1] = (r*r - 2)*f1"),
    ("p : (0, inf); r : sqrt(2*p^2)",
     "[f1, f1] = b1; [b1, f1] = (r*r - 2*p^2)*f1"),
], ids=["square-literal", "non-square-radicand", "non-square-polynomial"])
def test_check_file_keeps_sound_radicals(tmp_path, params, brackets):
    """What the radicand refusals leave: the literal sqrt(4) is the number
    2, so (sqrt(4) - 2)*f1 is 0 and the Jacobi identity holds, as it does
    for (r*r - 2)*f1 with r^2 = 2 and for (r*r - 2*p^2)*f1 with r^2 = 2p^2,
    which is no square over Q.  A radical r : sqrt(4) would have failed the
    same algebra, and r : sqrt(-1) passed (r*r + 1)*f1."""
    path = tmp_path / "rad.cat"
    path.write_text("algebra RC super_dim (1, 1)\n  params { %s }\n"
                    "  brackets { %s }\n" % (params, brackets))
    r = run("check", "--file", str(path))
    assert r.returncode == 0, r.stderr
    assert "algebra RC: PASS" in r.stdout


def test_check_file_grading_violation(tmp_path):
    """A bracket of two generators whose parities do not sum to the
    result's is refused when the algebra is built: exit 2."""
    path = tmp_path / "grading.cat"
    path.write_text("algebra GV super_dim (1, 1)\n  brackets { [b1, f1] = b1 }\n")
    r = run("check", "--file", str(path))
    _one_line_error(r, 2)
    assert "violates the grading" in r.stderr


@pytest.mark.parametrize("brackets", [
    "[b1, f1] = 0; [f1, b1] = f1",
    "[f1, b1] = f1; [b1, f1] = 0",
])
def test_check_file_keeps_a_zero_bracket_listed_both_ways(tmp_path, brackets):
    """A pair listed both ways keeps both values, a zero one included: no
    transpose is filled over [b1, f1] = 0, so [f1, b1] = f1 breaks graded
    antisymmetry and the algebra fails its check, exit 1."""
    path = tmp_path / "zero.cat"
    path.write_text("algebra ZB super_dim (1, 1)\n  brackets { %s }\n" % brackets)
    r = run("check", "--file", str(path))
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == ["algebra ZB: FAIL", "parsed 1 declarations"]


def _readme_cli_commands():
    """The commands of the README's CLI block, as argument lists."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.strip()]
    assert all(c[0] == "supertriples" for c in commands)
    return [c[1:] for c in commands]


# the README commands that do not exit 0: a shear equation with no
# solution, a dual grid over the enumeration budget and a seed with no
# automorphism family
README_EXITS = {"solve-r --algebra C3": 1, "enumerate --seed A12": 4,
                "enumerate --seed N12_abg": 3}


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands(argv):
    """Every command of the README's CLI block runs and exits as documented."""
    assert main(argv) == README_EXITS.get(" ".join(argv), 0)


def test_zero_denominator_at_a_binding_is_a_constraint_violation():
    """Inside DD24_III_2's domain the radicand vanishes at these bindings, so
    rho = 0 and the matrix divides by it."""
    r = run("verify-iso", "--cert", "DD24_III_2", "--bind", "kappa=1",
            "--bind", "lambda=1", "--bind", "gamma=1")
    _one_line_error(r, 3)
    assert r.stderr == "constraint violation: zero denominator\n"


@pytest.mark.parametrize("bind", ["=1", " =1", "p"])
def test_bind_needs_a_name_and_a_value(bind):
    r = run("check", "--triple", "MT22_4", "--bind", bind)
    _one_line_error(r, 3)
    assert r.stderr == ("constraint violation: --bind expects name=value, "
                        "got %r\n" % bind)


@pytest.mark.parametrize("rows", ["MT22_1,", ",", "MT22_1,,MT22_2"])
def test_rows_refuses_an_empty_id(rows):
    r = run("classify", "--rows", rows)
    _one_line_error(r, 3)
    assert r.stderr == ("constraint violation: --rows expects comma "
                        "separated triple ids, got %r\n" % rows)


def test_a_sign_branch_with_a_negative_radicand_is_a_constraint_violation():
    """DD24_VIII's s^2 = eps*(alpha + gamma) is -2 on the eps = -1 branch
    at alpha = gamma = 1, so that branch leaves the reals; binding eps = 1
    keeps only the real one."""
    argv = ["verify-iso", "--cert", "DD24_VIII", "--bind", "alpha=1",
            "--bind", "gamma=1"]
    r = run(*argv)
    _one_line_error(r, 3)
    assert r.stderr == ("constraint violation: radicand of s is negative at "
                        "these bindings\n")
    r = run(*argv, "--bind", "eps=1")
    assert r.returncode == 0
    assert r.stdout == "cpodm(i): PASS, cpodm(ii): PASS\n"


@pytest.mark.parametrize("value, message", [
    ("1e100000", "--bind eps: exponent larger than 1000"),
    ("1e-1001", "--bind eps: exponent larger than 1000"),
    ("9" * 1001, "--bind eps: number longer than 1000 digits"),
    ("1/" + "3" * 1001, "--bind eps: number longer than 1000 digits"),
], ids=["exponent", "negative-exponent", "digits", "denominator"])
def test_oversized_bind_values_are_constraint_violations(value, message):
    """A --bind value is bounded as a catalog literal is, before Fraction
    reads it: a huge exponent would otherwise be multiplied out and its
    digits then refused by Python's int-string limit."""
    r = run("check", "--triple", "MT22_4", "--bind", "eps=" + value,
            timeout=60)
    _one_line_error(r, 3)
    assert r.stderr == "constraint violation: %s\n" % message


# each triple with the names its check may be given: its own parameters
# (sign, interval, free and excluded domains) and one it does not have
_BIND_TRIPLES = {"MT22_4": ("eps", "p"), "MT24_28": ("p", "kappa", "eps"),
                 "MT42_14": ("kappa",), "MT24_16": ("kappa",),
                 "FAM24_C5p_G": ("p", "alpha", "gamma")}
_BIND_VALUES = st.one_of(
    st.fractions(max_denominator=12).map(str),
    st.sampled_from(["0", "1", "-1", "inf", "nan", "1/0", "0.5", "-1e0",
                     "1e-3", "+2", "1_000", " 3 / 4 "]),
    st.integers(990, 1010).map(lambda k: "9" * k),
    st.integers(-10 ** 6, 10 ** 6).map(lambda e: "1e%d" % e),
    st.text(max_size=12))


@given(st.sampled_from(sorted(_BIND_TRIPLES)), st.data())
@settings(max_examples=150, deadline=None)
def test_random_bind_values_never_crash_check(triple, data):
    """Random, huge and malformed --bind values on check --triple exit 0, 1
    or 3 (domain edges and excluded points included), never a traceback."""
    argv = ["check", "--triple", triple]
    for name in data.draw(st.lists(st.sampled_from(_BIND_TRIPLES[triple]),
                                   unique=True, min_size=1)):
        argv += ["--bind", "%s=%s" % (name, data.draw(_BIND_VALUES))]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 3)


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="needs a pipe whose capacity can be set")
def test_a_pipe_closed_after_one_line_ends_quietly():
    """`enumerate --seed C4 | head -1`: the reader takes one line and closes
    the pipe.  The pipe holds one page, so the 9 895 bytes of output cannot
    all be written before the close; the run still ends with an empty
    stderr, no traceback, and the documented exit code 1."""
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(CLI + ["--format", "machine", "enumerate",
                                   "--seed", "C4"],
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_end, 1)
        if not byte:
            break  # the run ended before its first line: the asserts say how
        line += byte
    os.close(read_end)
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert line == b"enumerate seed=C4 solutions=343 orbits=133\n"
