"""Golden machine-readable outputs for the cheap symbolic targets and for
``enumerate`` on the faster numeric seeds.

The classification targets (table5, thm1, thm2, thm3) are golden-checked
inside the acceptance suite where they already run once.  The enumerate
goldens pin the orbit representatives, the member counts and the
``match_22`` classes, not only the orbit sizes.
"""

import contextlib
import io
import os

import pytest

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
