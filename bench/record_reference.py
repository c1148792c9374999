"""Record the expected outputs the ``queries`` and ``enumerate`` gates use.

Run from the repository root, only when a change to the package is meant to
alter these outputs, and review the diff of ``bench/reference/``:

    python3 bench/record_reference.py

The query pool covers every catalog triple, every certificate, every (1,2)
seed algebra that ``solve-r`` accepts, each shipped ``.cat`` file and a grid
of generic thm2 bindings.  Bindings are drawn only from each parameter's own
domain, so no request is refused.  Requests whose result the paper fixes
are checked here before they are written: every catalog triple passes both
checks, every certificate verifies and every thm2 report passes.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import REFERENCE_DIR, digest, enumerate_result, first_line, run_cli  # noqa: E402

DATA_DIR = os.path.join("src", "supertriples", "data")
BIND_FIRST = ("2", "1/2", "1", "-1", "0")
BIND_SECOND = ("-1/3", "3", "1/3", "-2", "1", "-1", "0")
THM2_P = ("2", "3", "1/2", "5/2", "-3", "7/3")
THM2_KAPPA = ("1", "2", "-3", "1/2")
ENUM_SEEDS = (("A11", {}), ("N11", {}), ("S11", {}), ("S21", {}), ("F", {}),
              ("C1_p", {"p": "2"}))
MACHINE = ["--format", "machine"]


def _binding_sets(ctx):
    """Up to two full bindings of ctx's parameters, each inside its domain."""
    if not ctx.params:
        return [{}]
    out = []
    for choice in (BIND_FIRST, BIND_SECOND):
        bnd = {}
        for name in ctx.params:
            dom = ctx.domains[name]
            if dom.is_finite:
                value = dom.values[0 if choice is BIND_FIRST else -1]
                bnd[name] = str(value)
            else:
                bnd[name] = next(v for v in choice if dom.allows(Fraction(v)))
        if bnd not in out:
            out.append(bnd)
    return out


def _shear_seed(algebra):
    """A (1,2) algebra with [f,f] = 0: the seeds ``solve-r`` accepts."""
    if algebra.superdim() != (1, 2):
        return False
    return all(c.is_zero() for a in (1, 2) for b in (1, 2)
               for c in algebra.F[a][b])


def _bind_args(bindings):
    args = []
    for name, value in bindings.items():
        args += ["--bind", "%s=%s" % (name, value)]
    return args


def candidate_requests():
    from supertriples.catalog import get_catalog, list_algebras, list_certificates
    cat = get_catalog()
    reqs = []
    for tid in cat.triples:
        reqs.append(("check_triple", MACHINE + ["check", "--triple", tid]))
        reqs.append(("double", MACHINE + ["double", "--triple", tid]))
        for bnd in _binding_sets(cat.triples[tid].ctx):
            reqs.append(("invariants", MACHINE + ["invariants", "--triple", tid]
                         + _bind_args(bnd)))
    for cid in list_certificates():
        reqs.append(("verify_iso", MACHINE + ["verify-iso", "--cert", cid]))
    for name in list_algebras():
        entry = cat.algebras[name]
        if not _shear_seed(entry.algebra):
            continue
        for bnd in _binding_sets(entry.ctx):
            reqs.append(("solve_r", MACHINE + ["solve-r", "--algebra", name]
                         + _bind_args(bnd)))
            reqs.append(("solve_r", MACHINE + ["solve-r", "--algebra", name,
                                               "--g", "1,2,3"] + _bind_args(bnd)))
    for fn in sorted(os.listdir(os.path.join(ROOT, DATA_DIR))):
        if fn.endswith(".cat"):
            reqs.append(("check_file", MACHINE + ["check", "--file",
                                                  "%s/%s" % (DATA_DIR, fn)]))
    for p in THM2_P:
        for kappa in THM2_KAPPA:
            reqs.append(("thm2", MACHINE + ["report", "--target", "thm2",
                                            "--bind", "p=" + p,
                                            "--bind", "kappa=" + kappa]))
    return reqs


def _paper_claim_holds(kind, code, text):
    first = first_line(text)
    if kind == "check_triple":
        return code == 0 and first.endswith("compatibility=pass ad_invariance=pass")
    if kind == "verify_iso":
        return code == 0 and first.endswith("form=pass transport=pass")
    if kind == "thm2":
        return code == 0 and first == "report target=thm2 status=pass"
    if kind == "solve_r":
        return code in (0, 1)
    return code == 0


def record_queries():
    requests = []
    for kind, argv in candidate_requests():
        code, text = run_cli(argv)
        if not _paper_claim_holds(kind, code, text):
            raise SystemExit("unexpected result for %s: exit %s, %r"
                             % (" ".join(argv), code, first_line(text)))
        requests.append({"kind": kind, "argv": argv, "exit": code,
                         "first": first_line(text), "sha256": digest(text)})
    return {"requests": requests}


def record_enumerate():
    seeds = {}
    for name, bindings in ENUM_SEEDS:
        solutions, sizes = enumerate_result(
            name, {k: Fraction(v) for k, v in bindings.items()})
        seeds[name] = {"bindings": bindings, "solutions": solutions,
                       "orbit_sizes": sizes}
    return {"seeds": seeds}


def main():
    os.chdir(ROOT)
    os.environ.pop("SUPERTRIPLES_CATALOG_PATH", None)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, "queries.json")
    with open(path, "w") as fh:  # one request a line keeps diffs readable
        fh.write('{"requests": [\n%s\n]}\n' % ",\n".join(
            json.dumps(r, sort_keys=True) for r in record_queries()["requests"]))
    print("wrote", path)
    path = os.path.join(REFERENCE_DIR, "enumerate.json")
    with open(path, "w") as fh:
        json.dump(record_enumerate(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
