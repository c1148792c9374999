"""Golden machine-readable outputs for the cheap symbolic targets and for
``enumerate`` on the faster numeric seeds.

The ``solve_r.txt`` golden pins ``solve-r`` on every seed the command
accepts, symbolic and numeric, with each request's exit status: the R of
every solvable system and the witness of every unsolvable one.

The ``verify_iso.txt`` golden pins ``verify-iso`` on every catalog
certificate; ``double.txt`` pins ``double`` and ``check_triple.txt`` pins
``check --triple`` on every catalog triple in both formats, each output
under a ``# <id> <format>`` header.

The classification targets (table5, thm1, thm2, thm3) are golden-checked
inside the acceptance suite where they already run once.  The enumerate
goldens pin the orbit representatives, the member counts and the
``match_22`` classes, not only the orbit sizes.
"""

import contextlib
import io
import os

import pytest

from supertriples.catalog import get_catalog, list_certificates
from supertriples.classify import report
from supertriples.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _compare(name, rendered):
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REGEN_GOLDEN"):
        with open(path, "w") as fh:
            fh.write(rendered)
    with open(path) as fh:
        assert fh.read() == rendered, name


def _check(target):
    _compare("report_%s.txt" % target, report(target).render("machine") + "\n")


def test_golden_table2():
    _check("table2")


def test_golden_table4():
    _check("table4")


def test_golden_table7():
    _check("table7")


@pytest.mark.parametrize("seed, binds", [
    ("A11", []), ("N11", []), ("S11", []), ("N21", []), ("S21", []),
    ("F", []), ("C1_p", ["--bind", "p=2"]), ("C2_1", []), ("C4", []),
    ("A21", []), ("C2_m1", []), ("C2_p", ["--bind", "p=1/2"]), ("C3", []),
    ("C5_0", []), ("C5_p", ["--bind", "p=1"]),
])
def test_golden_enumerate(seed, binds):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "machine", "enumerate", "--seed", seed] + binds)
    assert code == 0
    _compare("enumerate_%s.txt" % seed, out.getvalue())


# the (1,1) and (1,2) seeds without odd-odd brackets: every seed solve-r takes
SOLVE_R_SEEDS = ("A11", "S11", "A12", "C2_1", "C2_m1", "C2_p", "C3", "C4",
                 "C5_0", "C5_p")


def _solve_r_requests():
    for seed in SOLVE_R_SEEDS:
        yield ["--algebra", seed]
        yield ["--algebra", seed, "--g", "1" if seed.endswith("11") else "1,-2,3"]
    for seed in ("C2_p", "C5_p"):
        for p in ("0", "1/2", "-1/3", "1/5"):
            yield ["--algebra", seed, "--bind", "p=" + p]
            yield ["--algebra", seed, "--bind", "p=" + p, "--g", "1,-2,3"]


def test_golden_solve_r():
    rendered = []
    for args in _solve_r_requests():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--format", "machine", "solve-r"] + args)
        rendered.append("# %s exit=%d\n%s" % (" ".join(args), code,
                                              out.getvalue()))
    _compare("solve_r.txt", "".join(rendered))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def test_golden_verify_iso():
    _compare("verify_iso.txt", "".join(
        _run(["--format", "machine", "verify-iso", "--cert", cid])
        for cid in list_certificates()))


def _per_triple(command):
    return "".join(
        "# %s %s\n%s" % (tid, fmt, _run(["--format", fmt, command, "--triple", tid]))
        for tid in sorted(get_catalog().triples) for fmt in ("machine", "text"))


def test_golden_double():
    _compare("double.txt", _per_triple("double"))


def test_golden_check_triple():
    _compare("check_triple.txt", _per_triple("check"))
