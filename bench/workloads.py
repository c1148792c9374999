"""The benchmark's three workloads and their correctness gates.

Each workload turns a seed into a fixed list of operations (one *pass*).
An operation returns None when its output is correct and an error message
otherwise; it drives the package only through ``supertriples.cli.main`` (with
stdout captured) or the names ``supertriples`` exports.

* ``reproduce``: the seven ``report`` targets at default bindings in
  ``--format machine``, each compared byte for byte with
  ``tests/golden/report_<target>.txt``.  Stresses the search kernel
  (``thm3`` spends most of its time in ``iso.search_iso``).
* ``queries``: a seeded mix of light CLI requests from a recorded pool, each
  compared with its recorded exit code, first line and output digest.
  Stresses the parametric scalar tower; never reaches ``search_iso``.
* ``enumerate``: ``enumerate_duals`` plus ``reduce_orbits`` for six numeric
  seeds, compared with recorded solution and orbit counts.  Stresses bulk
  constant arithmetic in ``SuperAlgebra.transport_dual``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

REPORT_TARGETS = ("table2", "table4", "table5", "table7", "thm1", "thm2", "thm3")

# Requests of each kind in one pass of the query mix.  Every certificate and
# every shipped .cat file is in each pass; the other kinds are drawn from
# their pools.  The counts keep each kind under half of a pass (a thm2
# report costs about a hundred light requests) and make a pass cost about
# the same whatever the seed.
QUERY_MIX = {
    "check_triple": 60,
    "double": 60,
    "invariants": 100,
    "solve_r": 40,
    "verify_iso": 26,
    "check_file": 7,
    "thm2": 2,
}


class Op:
    """One operation: ``run()`` returns None if correct, else a message."""

    __slots__ = ("kind", "label", "run")

    def __init__(self, kind, label, run):
        self.kind = kind
        self.label = label
        self.run = run


def run_cli(argv):
    """(exit code, stdout) of ``supertriples.cli.main(argv)`` in-process."""
    from supertriples import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def first_line(text):
    return text.split("\n", 1)[0]


def _load_reference(name):
    with open(os.path.join(REFERENCE_DIR, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# reproduce


def report_op(target, golden_dir):
    path = os.path.join(golden_dir, "report_%s.txt" % target)
    with open(path) as fh:
        golden = fh.read()
    argv = ["--format", "machine", "report", "--target", target]

    def run():
        code, text = run_cli(argv)
        if code != 0:
            return "report %s: exit %s" % (target, code)
        if text != golden:
            got, want = text.split("\n"), golden.split("\n")
            line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                        min(len(got), len(want)))
            return "report %s: differs from %s at line %d" % (target, path, line + 1)
        return None

    return Op(target, target, run)


def reproduce_ops(seed, root):
    golden_dir = os.path.join(root, "tests", "golden")
    targets = list(REPORT_TARGETS)
    random.Random(seed).shuffle(targets)
    return [report_op(t, golden_dir) for t in targets]


# ---------------------------------------------------------------------------
# queries


def query_pool():
    """{kind: [request, ...]} from the recorded reference."""
    pool = {}
    for req in _load_reference("queries.json")["requests"]:
        pool.setdefault(req["kind"], []).append(req)
    return pool


def query_mix(pool, seed, mix=QUERY_MIX):
    """The seeded request list of one pass: ``mix[kind]`` requests of each
    kind, taken in turn from a seeded permutation of its pool, all shuffled."""
    rng = random.Random(seed)
    requests = []
    for kind in sorted(mix):
        order = list(pool[kind])
        rng.shuffle(order)
        requests += [order[i % len(order)] for i in range(mix[kind])]
    rng.shuffle(requests)
    return requests


def query_op(req):
    argv = req["argv"]

    def run():
        code, text = run_cli(argv)
        if code != req["exit"]:
            return "%s: exit %s, expected %s" % (" ".join(argv), code, req["exit"])
        if first_line(text) != req["first"] or digest(text) != req["sha256"]:
            return "%s: output differs from the reference" % " ".join(argv)
        return None

    return Op(req["kind"], " ".join(argv), run)


def queries_ops(seed, root):
    return [query_op(req) for req in query_mix(query_pool(), seed)]


# ---------------------------------------------------------------------------
# enumerate


def enumerate_result(name, bindings):
    """(solution count, sorted orbit sizes) for one numeric seed algebra."""
    from supertriples import automorphisms, catalog, enumerate_duals, reduce_orbits
    seed_algebra = catalog(name, bindings)
    solutions = enumerate_duals(seed_algebra)
    orbits = reduce_orbits(solutions, automorphisms(name))
    return len(solutions), sorted(len(members) for _, members in orbits)


def enumerate_op(name, ref):
    bindings = {k: Fraction(v) for k, v in ref["bindings"].items()}

    def run():
        solutions, sizes = enumerate_result(name, bindings)
        if solutions != ref["solutions"] or sizes != ref["orbit_sizes"]:
            return ("enumerate %s: %d solutions, orbits %s; expected %d, %s"
                    % (name, solutions, sizes, ref["solutions"], ref["orbit_sizes"]))
        return None

    return Op(name, name, run)


def enumerate_ops(seed, root):
    ref = _load_reference("enumerate.json")["seeds"]
    names = sorted(ref)
    random.Random(seed).shuffle(names)
    return [enumerate_op(n, ref[n]) for n in names]


MAKE_OPS = {"reproduce": reproduce_ops, "queries": queries_ops,
            "enumerate": enumerate_ops}
WORKLOADS = tuple(MAKE_OPS)


def make_ops(workload, seed, root):
    return MAKE_OPS[workload](seed, root)


def warm_up():
    """Fill the package's lazy caches (catalog, automorphism families) so
    every pass, the first included, does the same work."""
    from supertriples import automorphisms
    from supertriples.catalog import get_catalog, list_algebras
    get_catalog()
    for name in list_algebras():
        automorphisms(name)
