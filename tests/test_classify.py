import itertools
import math
import os
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from supertriples import algebra, classify, cli, iso, matrices
from supertriples.algebra import AutoBranch, Grading, SuperAlgebra, _jacobi
from supertriples.catalog import (AlgebraEntry, automorphisms, catalog,
                                  catalog_triple, get_catalog, list_algebras)
from supertriples.classify import (ENUM_BUDGET, ENUM_GRID, ORBIT_GRID,
                                   DualAnsatz, Instance, _members, _unify_side,
                                   classify_doubles, enumerate_duals,
                                   find_certificate, make_instances,
                                   reduce_orbits, report)
from supertriples.errors import (ConstraintViolation, DimensionMismatch,
                                 DivisionByZero, InconsistentRadical,
                                 UnknownName)
from supertriples.iso import _in_context, verify_certificate
from supertriples.matrices import inv
from supertriples.parsing import parse_catalog
from supertriples.polys import _p_add, _p_compose, _p_const, _p_mul, _p_var
from supertriples.scalars import Domain, ParamContext, Scalar
from supertriples.triples import _signature_admits, build_double


def test_thm1_grouping():
    rep = report("thm1")
    assert rep.passed
    text = rep.render("machine")
    assert "class label=III members=MT22_3|MT22_4[eps=1]|MT22_5" in text
    assert "class label=I members=MT22_1" in text
    assert "class label=II members=MT22_2" in text


def test_classify_single_triple_is_one_class():
    result = classify_doubles([("MT42_3", {})])
    assert len(result.groups) == 1


def test_classify_edges_verify():
    result = classify_doubles(
        [("MT22_3", {}), ("MT22_4", {"eps": 1}), ("MT22_5", {})])
    assert len(result.groups) == 1
    assert result.edges
    for (i, j, cert) in result.edges:
        ok, _ = verify_certificate(cert)
        assert ok


def test_classify_table5_equality_claim():
    """(C1_0|A21) and (C1_0|C1_0,kappa=0) coincide as tensors, so the
    identity certificate discharges the table's '=' claim."""
    a = catalog_triple("MT42_6", {"p": 0})
    entry = get_catalog().triples["MT42_10"]
    b = _in_context(entry.triple, a.ctx, {"kappa": 0})  # kappa = 0 is outside the domain
    assert a.S.tensor_equal(b.S) and a.S_dual.tensor_equal(b.S_dual)


def test_classify_rejects_incompatible_instance():
    with pytest.raises(ConstraintViolation):
        classify_doubles([("MT42_6", {})])  # unbound p


def test_find_certificate_across_seeds():
    a = make_instances([("MT24_13", {})])[0]
    b = make_instances([("MT24_9", {})])[0]
    cert = find_certificate(a, b)
    assert cert is not None and cert.verify()


def test_find_certificate_refuses_different_superdimensions():
    """The abelian doubles of MT42_1 and MT24_1 have equal tensors but
    superdimensions (4,2) and (2,4): no route joins them, and neither
    instance is expanded into route nodes to find that out."""
    a, b = make_instances([("MT42_1", {}), ("MT24_1", {})])
    assert a.double.triple.tensor_equal(b.double.triple)
    assert find_certificate(a, b) is None
    assert a._nodes is None and b._nodes is None


def test_find_certificate_radical_route():
    """(C5_0|N(1,0,1)) joins class VIII through the sqrt(2) extension."""
    a = make_instances([("MT24_31", {"kappa": 1})])[0]
    b = make_instances([("MT24_31", {"kappa": 0})])[0]
    cert = find_certificate(a, b)
    assert cert is not None
    assert cert.ctx.radical_name is not None
    ok, _ = verify_certificate(cert)
    assert ok


def test_fingerprint_separations_match_table5():
    insts = make_instances([("MT42_3", {}), ("MT42_6", {"p": 0})])
    assert insts[0].fingerprint.dims[0] == (1, 2)
    assert insts[1].fingerprint.dims[0] == (3, 0)
    assert insts[0].fingerprint != insts[1].fingerprint


def test_report_table5():
    rep = report("table5")
    assert rep.passed
    lines = rep.render("machine").splitlines()
    assert any("id=MT42_6[p=0]" in ln and "c1_superdim=3,0" in ln for ln in lines)
    assert any("id=MT42_3 " in ln and "c1_superdim=1,2" in ln for ln in lines)


def test_report_table5_drops_repeated_bindings():
    """p=0 is always added to the bound p values, and --bind may repeat a
    value; each binding set is reported once."""
    rep = report("table5", {"p": [Fraction(0)],
                            "kappa": [Fraction(1), Fraction(1)]})
    assert rep.passed
    idents = [ln.split()[1] for ln in rep.render("machine").splitlines()[1:]]
    assert "id=MT42_6[p=0]" in idents and "id=MT42_10[kappa=1]" in idents
    assert len(idents) == len(set(idents))


def test_thm3_builds_each_instance_once(monkeypatch):
    """Within one thm3 report each ident's Instance is constructed once:
    the family spot checks route against the grouping's own instances
    (make_instances keeps them in the report memo), route nodes included."""
    built = []
    init = Instance.__init__

    def counted(self, row_id, bindings, entry):
        init(self, row_id, bindings, entry)
        built.append(self.ident)

    monkeypatch.setattr(Instance, "__init__", counted)
    assert report("thm3").passed
    assert "MT24_9" in built
    assert len(built) == len(set(built))


@pytest.mark.parametrize("target, merges", [("thm1", 2), ("thm2", 14)])
def test_each_merge_is_verified_once(monkeypatch, target, merges):
    """The route planner verifies each planned route's composite once: one
    verify_certificate call per merge edge, and the report is unchanged."""
    calls = []

    def counted(cert):
        calls.append(cert)
        return verify_certificate(cert)

    monkeypatch.setattr(classify, "verify_certificate", counted)
    rendered = report(target).render("machine")
    assert rendered.count("\nedge ") == merges
    assert len(calls) == merges
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "report_%s.txt" % target)
    with open(path) as fh:
        assert fh.read() == rendered + "\n"


@pytest.mark.parametrize("target, inversions", [("thm2", 7), ("thm3", 140)])
def test_scalar_inversions_per_report(monkeypatch, target, inversions):
    """Exact Scalar.inv calls of one report, the catalog parsed beforehand.
    Certificates are inverted by their signed transpose and shear base
    points built without a transport, so every inversion left is the
    reciprocal of a pivot in iso.solve_shear's back-substitution or the
    normalisation of a NoSolution witness."""
    get_catalog()
    calls = [0]
    real = Scalar.inv

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(Scalar, "inv", counted)
    assert report(target).passed
    assert calls[0] == inversions
    assert not hasattr(iso, "inv")


@pytest.mark.parametrize("target, eliminations", [
    ("table2", 0), ("table4", 0), ("table5", 0), ("table7", 0), ("thm1", 2),
    ("thm2", 7), ("thm3", 87)])
def test_eliminations_per_report(monkeypatch, target, eliminations):
    """Exact solves of one report (``matrices.echelon`` calls), the catalog
    parsed beforehand.  The commutant spans take ``echelon_add`` directly,
    so every solve is an inv, an f_solve or iso.solve_shear's."""
    get_catalog()
    calls = [0]
    real = matrices.echelon

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(matrices, "echelon", counted)
    monkeypatch.setattr(iso, "echelon", counted)
    assert report(target).passed
    assert calls[0] == eliminations
    assert not hasattr(matrices, "rref")


def test_clearings_per_report(monkeypatch):
    """``scalars.clear_denominators`` calls of report thm3, the catalog
    parsed beforehand: each algebra clears its tensor once
    (``SuperAlgebra.cleared_tensor`` keeps it), a numeric one as its
    ``integer_tensor``, and each certificate matrix is cleared on its own."""
    get_catalog()
    calls = [0]
    real = algebra.clear_denominators

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(algebra, "clear_denominators", counted)
    monkeypatch.setattr(classify, "clear_denominators", counted)
    assert report("thm3").passed
    assert calls[0] == 92


@pytest.mark.parametrize("target", ["table2", "table4", "table5", "table7",
                                    "thm1", "thm2", "thm3"])
def test_no_transport_per_report(monkeypatch, target):
    """A report transports no double: the shear base point is stated as the
    instance's own double, not read off a transported copy."""
    get_catalog()
    calls = [0]
    real = SuperAlgebra._transport

    def counted(self, M, M_inv):
        calls[0] += 1
        return real(self, M, M_inv)

    monkeypatch.setattr(SuperAlgebra, "_transport", counted)
    assert report(target).passed
    assert calls[0] == 0


def _base_certificates(monkeypatch):
    """Every certificate iso.shear_certificate returns during report thm1,
    thm2 and thm3, and whether each verifies."""
    certs = []
    real = classify.shear_certificate

    def recorded(triple, double):
        cert = real(triple, double)
        if cert is not None:
            assert cert.target is double and cert.note == "shear"
            certs.append(cert)
        return cert

    monkeypatch.setattr(classify, "shear_certificate", recorded)
    for target in ("thm1", "thm2", "thm3"):
        report(target)
    return [verify_certificate(cert)[0] for cert in certs]


def test_base_certificates_verify(monkeypatch):
    """The planner no longer compares a shear's image with the instance's
    dual; each base certificate still maps onto the instance's double."""
    verdicts = _base_certificates(monkeypatch)
    assert len(verdicts) == 60
    assert all(verdicts)


def test_base_certificates_check_sees_a_wrong_shear(monkeypatch):
    """Mutation check of test_base_certificates_verify: with R[0][0] off by
    one, most base certificates fail verification."""
    real = iso.solve_shear

    def off_by_one(H_list, G_list):
        R = real(H_list, G_list)
        if not isinstance(R, iso.NoSolution):
            R[0][0] = R[0][0] + R[0][0].ctx.one()
        return R

    monkeypatch.setattr(iso, "solve_shear", off_by_one)
    verdicts = _base_certificates(monkeypatch)
    assert len(verdicts) == 60
    assert verdicts.count(False) == 57


def _snapshot(obj):
    """What a reader of a built triple, certificate or certificate matrix
    sees."""
    if isinstance(obj, tuple):  # (context, matrix) of matrix_at
        return [list(row) for row in obj[1]]
    if hasattr(obj, "matrix"):
        return (obj.note, [list(row) for row in obj.matrix],
                _snapshot(obj.source.triple), _snapshot(obj.target.triple))
    return obj.id, obj.label, list(obj.S.nonzero()), list(obj.S_dual.nonzero())


def _count_constructions(monkeypatch):
    """({"triples": n, "certs": m, "matrices": k}, built): the calls of
    ManinTriple.substitute, IsoCertificate.substitute and
    IsoCertificate.matrix_at, which only catalog builds make, each a miss of
    the build memo; built holds (object, ``_snapshot``) for each."""
    from supertriples.iso import IsoCertificate
    from supertriples.triples import ManinTriple
    counts = {"triples": 0, "certs": 0, "matrices": 0}
    built = []
    for cls, name, key in ((ManinTriple, "substitute", "triples"),
                           (IsoCertificate, "substitute", "certs"),
                           (IsoCertificate, "matrix_at", "matrices")):
        def construct(obj, bindings, plain=getattr(cls, name), key=key):
            counts[key] += 1
            out = plain(obj, bindings)
            built.append((out, _snapshot(out)))
            return out
        monkeypatch.setattr(cls, name, construct)
    return counts, built


def test_aliases_build_only_rows_a_certificate_names(monkeypatch):
    """The route planner builds a catalog row at bindings only when a
    certificate endpoint names that row and the row's signature admits the
    node; the thm2 and thm3 reports are unchanged, and the constructions
    with bindings (instances and failed builds included) are pinned: one
    per (entry, bindings) in a report, however many nodes ask.  A catalog
    certificate is never substituted whole: only its matrix is bound."""
    from supertriples.catalog import TripleEntry
    cat = get_catalog()
    named = {rid for c in cat.certs.values()
             for rid in (c.source_id, c.target_id)}
    plain_build = TripleEntry.build
    matcher = classify._Node.match.__code__
    matched = []

    def build(entry, bindings=None):
        if bindings and sys._getframe(1).f_code is matcher:
            matched.append(entry.id)
        return plain_build(entry, bindings)

    monkeypatch.setattr(TripleEntry, "build", build)
    counts, _ = _count_constructions(monkeypatch)
    made = {}
    for target in ("thm2", "thm3"):
        counts.update(triples=0, certs=0, matrices=0)
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "report_%s.txt" % target)
        with open(path) as fh:
            assert fh.read() == report(target).render("machine") + "\n"
        made[target] = dict(counts)
    assert matched
    assert set(matched) <= named, sorted(set(matched) - named)
    assert made == {"thm2": {"triples": 19, "certs": 0, "matrices": 14},
                    "thm3": {"triples": 167, "certs": 0, "matrices": 82}}


def test_a_signature_rejection_is_never_a_match(monkeypatch):
    """For every route node of thm3 and of thm2 at p = 1/2, kappa = 1, and
    every catalog row the node could be matched to, a row the signatures
    rule out (``triples._signature_admits``) does not build into the node's
    tensors at the node's bindings.  Among the rows they admit, some match
    with a support strictly larger than the node's, and some do not match:
    the test needs the support to be a subset, not equal, and it leaves
    work to the build."""
    from supertriples.memo import report_memo
    nodes = {}
    plain = classify._expand

    def expand(inst):
        out = plain(inst)
        nodes.update((id(node), node) for node in out)
        return out

    monkeypatch.setattr(classify, "_expand", expand)
    report("thm3")
    report("thm2", {"p": Fraction(1, 2), "kappa": Fraction(1)})
    cat = get_catalog()
    tally = {"rejected": 0, "admitted": 0, "wider_match": 0}
    with report_memo():
        for node in nodes.values():
            triple = node.double.triple
            for entry in cat.triples.values():
                if (entry.grading.dim != triple.grading.dim
                        or any(p not in node.pool for p in entry.ctx.params)):
                    continue
                try:
                    built = entry.build({p: node.pool[p]
                                         for p in entry.ctx.params})
                    equal = built.tensor_equal(triple)
                except (ConstraintViolation, DivisionByZero,
                        InconsistentRadical):
                    equal = False
                if not _signature_admits(entry.signature, node.signature):
                    assert not equal, (entry.id, node.pool)
                    tally["rejected"] += 1
                    continue
                tally["admitted"] += 1
                wider = any(n_support < r_support for (r_support, _), (
                    n_support, _) in zip(entry.signature, node.signature))
                tally["wider_match"] += equal and wider
    assert len(nodes) > 100
    assert tally["rejected"] > tally["admitted"] > tally["wider_match"] > 0


def test_catalog_certificates_run_between_the_instances_own_doubles():
    """A catalog certificate found by the planner has the route nodes'
    doubles as source and target, not doubles rebuilt from its endpoint
    rows: the (4,2) instances MT42_6[p=+-1/2] are joined through the
    matrix of DD24_IIp_2, declared between (2,4) rows (ROADMAP item 11),
    and it verifies between their own (4,2) doubles."""
    a, b = make_instances([("MT42_6", {"p": Fraction(1, 2)}),
                           ("MT42_6", {"p": Fraction(-1, 2)})])
    cert = find_certificate(a, b)
    assert cert.note == "DD24_IIp_2"
    assert cert.source is a.double and cert.target is b.double
    assert cert.source.superdim() == (4, 2)
    assert verify_certificate(cert)[0]


def test_a_row_undefined_at_the_pool_matches_nothing(monkeypatch):
    """A row whose denominator vanishes inside its domain is undefined at
    p = 0: a node whose pool binds p = 0 matches nothing there, with no
    DivisionByZero escaping, while at p = 1 the row builds and matches."""
    from supertriples.catalog import TripleEntry
    cat = get_catalog()
    (decl,) = parse_catalog("triple ZD_1 super_dim (1, 1)\n"
                            "  params { p : free }\n  left = S11()\n"
                            "  right { [ft1, ft1] = (1/p)*bt1 }\n")
    monkeypatch.setitem(cat.triples, "ZD_1", TripleEntry(decl, cat.algebras))
    with pytest.raises(DivisionByZero):
        catalog_triple("ZD_1", {"p": 0})
    for row, bindings, p, want in (("MT22_3", {}, 0, None),
                                   ("MT22_4", {"eps": 1}, 0, None),
                                   ("MT22_4", {"eps": 1}, 1, {"p": 1})):
        inst = make_instances([(row, bindings)])[0]
        node = classify._Node(inst.double, None, {"p": Fraction(p)}, {})
        assert _signature_admits(cat.triples["ZD_1"].signature,
                                 node.signature)
        assert node.match("ZD_1") == want


def test_build_memo_lives_for_one_report(monkeypatch):
    """A report's builds are shared only within that report: a second thm3
    in the same process constructs as much as the first, and nothing built
    stays reachable from the catalog module.  No reader in the report
    changes a shared triple or certificate."""
    from supertriples.memo import _MEMO
    counts, built = _count_constructions(monkeypatch)
    report("thm3")
    first, made = dict(counts), len(built)
    assert _MEMO.get() is None
    counts.update(triples=0, certs=0, matrices=0)
    report("thm3")
    assert counts == first and len(built) == 2 * made
    assert _MEMO.get() is None
    for obj, seen in built:
        assert _snapshot(obj) == seen


def test_a_failed_build_is_tried_once_per_report(monkeypatch):
    """Inside a report memo a build that raised raises again on a repeat,
    as a fresh exception of the same class and message, without being
    constructed again; the memo keeps no exception object.  Outside a memo
    every call constructs."""
    from supertriples.memo import _MEMO, report_memo
    counts, _ = _count_constructions(monkeypatch)
    entry = get_catalog().certs["DD24_IV_2"]
    bindings = {"alpha": 0, "gamma": 0, "kappa": 0}
    with report_memo():
        raised = []
        for _ in range(3):
            with pytest.raises(ConstraintViolation) as info:
                entry.build(bindings)
            raised.append(info.value)
        kept = list(_MEMO.get().values())
    assert counts["certs"] == 1
    assert len({id(exc) for exc in raised}) == 3
    assert {(type(exc), str(exc)) for exc in raised} == {
        (ConstraintViolation, "kappa = 0 violates domain free \\ {0}")}
    assert not any(isinstance(v, BaseException) for v in kept)
    assert _MEMO.get() is None
    with pytest.raises(ConstraintViolation):
        entry.build(bindings)
    assert counts["certs"] == 2


def test_repeated_spec_is_one_instance():
    """A repeated (row, bindings) spec, or a finite branch already listed,
    is classified once, at its first position."""
    result = classify_doubles([("MT22_1", {}), ("MT22_1", {}),
                               ("MT22_4", {"eps": 1}), ("MT22_4", {})])
    idents = [inst.ident for inst in result.instances]
    assert idents == ["MT22_1", "MT22_4[eps=1]", "MT22_4[eps=-1]"]
    assert all(i != j for (i, j, _) in result.edges)


@pytest.mark.parametrize("target, name", [
    ("thm2", "kapa"), ("thm3", "q"), ("table5", "eps"), ("thm1", "p"),
    ("table2", "p"), ("table4", "kappa"), ("table7", "p")])
def test_report_refuses_a_binding_it_never_reads(target, name):
    with pytest.raises(UnknownName, match="%s is not a parameter" % name):
        report(target, {name: Fraction(1)})


def test_report_tables_symbolic():
    for target in ("table2", "table4", "table7"):
        rep = report(target)
        assert rep.passed, target


@pytest.fixture
def no_inv(monkeypatch):
    """matrices.inv, under each name it is imported by, raises: the orbit
    reduction inverts no matrix."""
    def refuse(a):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(matrices, "inv", refuse)
    monkeypatch.setattr(algebra, "inv", refuse)


def test_orbit_scaling_merge_example(no_inv):
    """Duals [ft,ft]=bt and [ft,ft]=4bt of the abelian seed share an orbit."""
    seed = catalog("A11")
    sols = enumerate_duals(seed)
    fam = automorphisms("A11")
    orbits = reduce_orbits(sols, fam)
    zero = seed.ctx.zero()

    def orbit_of(value):
        for idx, (repr_, members) in enumerate(orbits):
            for mem in members:
                if (mem.bracket(1, 1).get(0, zero) == value
                        and mem.bracket(0, 1).get(1, zero).is_zero()):
                    return idx
        return None

    # 4*bt is not on the enumeration grid; apply the scaling by hand instead
    one_orbit = orbit_of(seed.ctx.one())
    two_orbit = orbit_of(seed.ctx.const(2))
    minus_orbit = orbit_of(seed.ctx.const(-1))
    assert one_orbit is not None and one_orbit == two_orbit == minus_orbit


def test_orbit_single_solution(no_inv):
    seed = catalog("S11")
    sols = enumerate_duals(seed)
    abelian = [s for s in sols if not s.nonzero()]
    orbits = reduce_orbits(abelian, automorphisms("S11"))
    assert len(orbits) == 1 and len(orbits[0][1]) == 1


def test_orbit_sign_split_preserved(no_inv):
    """eps = +1 and eps = -1 N-type duals of S11 stay in distinct orbits."""
    seed = catalog("S11")
    sols = enumerate_duals(seed)
    orbits = reduce_orbits(sols, automorphisms("S11"))
    signs = set()
    for rep_, members in orbits:
        t = rep_.bracket(1, 1).get(0, rep_.ctx.zero())
        if not t.is_zero():
            signs.add(t.as_fraction() > 0)
    assert signs == {True, False}


@pytest.mark.parametrize("name, bindings, solutions, sizes", [
    ("S21", {}, 13, [1, 1, 1, 2, 2, 6]),
    ("F", {}, 41, [1, 1, 1, 1, 1, 1, 1, 2, 2, 5, 5, 5, 5, 5, 5]),
    ("C1_p", {"p": 2}, 13, [1, 1, 1, 2, 2, 6]),
])
def test_orbits_of_21_seeds(name, bindings, solutions, sizes, no_inv):
    sols = enumerate_duals(catalog(name, bindings))
    orbits = reduce_orbits(sols, automorphisms(name))
    assert len(sols) == solutions
    assert sorted(len(members) for _, members in orbits) == sizes
    # representatives are the smallest tensors, listed in increasing order
    keys = [rep.tensor_key() for rep, _ in orbits]
    assert keys == sorted(keys)
    for rep, members in orbits:
        assert rep.tensor_key() == min(m.tensor_key() for m in members)


@pytest.mark.parametrize("eps", [1, -1])
def test_n12_eps_family_is_bound_at_the_seed(eps):
    """automorphisms(name, bindings) binds the seed's own parameter in the
    matrices and the constraints, so reduce_orbits runs on the bound seed's
    duals and every member the constraints accept is invertible (at eps = -1
    the unbound constraint d^2 + eps*c^2 would let c = d through)."""
    seed = catalog("N12_eps", {"eps": eps})
    family = automorphisms("N12_eps", {"eps": eps})
    one = seed.ctx.one()
    duals = [SuperAlgebra.from_brackets(seed.grading, seed.ctx, brackets,
                                        dual_role=True)
             for brackets in ({}, {(0, 1): {1: one}}, {(0, 2): {2: one}},
                              {(0, 1): {1: one}, (0, 2): {2: one}})]
    orbits = reduce_orbits(duals, family)
    assert sorted(len(m) for _, m in orbits) == ([1, 1, 2] if eps == 1
                                                 else [1, 1, 1, 1])
    accepted = 0
    for branch in family:
        assert set(branch.ctx.params) == {"c", "d"}
        for c in ORBIT_GRID:
            for d in ORBIT_GRID:
                try:
                    _, mat = branch.instantiate({"c": c, "d": d})
                except ConstraintViolation:
                    continue
                inv([[x.as_fraction() for x in row] for row in mat])
                accepted += 1
    assert accepted


def test_reduce_orbits_refuses_a_family_that_uses_unbound_parameters(monkeypatch):
    """N12_eps's family uses eps in its matrices: left unbound, it is refused
    before any branch is compiled or any member drawn.  C1_p's family
    carries p but never uses it, so it needs no binding
    (``test_orbits_of_21_seeds`` pins its orbits)."""
    seed = catalog("N12_eps", {"eps": 1})
    duals = [SuperAlgebra.from_brackets(seed.grading, seed.ctx, {},
                                        dual_role=True)]

    def draw(*args):
        raise AssertionError("a family member was drawn")

    monkeypatch.setattr(AutoBranch, "instantiate", draw)
    monkeypatch.setattr(classify._BranchDraw, "__init__", draw)
    monkeypatch.setattr(classify._BranchDraw, "_member", draw)
    with pytest.raises(ConstraintViolation) as err:
        reduce_orbits(duals, automorphisms("N12_eps"))
    assert str(err.value) == (
        "automorphism family of N12_eps depends on unbound parameter(s) eps; "
        "bind them with automorphisms(name, bindings)")
    for branch in automorphisms("C1_p"):
        assert "p" in branch.ctx.params and not branch.unbound_params()


def _unify(value, x, assignment):
    row_ctx = ParamContext([("x", Domain.free())])
    return _unify_side({"x": value}, row_ctx, {"x": Fraction(x)}, assignment)


def test_unify_side_reads_scalar_endpoint_values():
    """A constant must equal the instance's value, +-p assigns p, anything
    else never unifies; one assignment is shared by both endpoints."""
    ctx = ParamContext([("p", Domain.free())])
    p = ctx.param("p")
    assignment = {}
    assert _unify(ctx.const(2), 2, assignment) and assignment == {}
    assert not _unify(ctx.const(2), 3, {})
    assert _unify(p, 3, assignment) and assignment == {"p": 3}
    assert _unify(-p, -3, assignment) and assignment == {"p": 3}
    assert not _unify(-p, 3, assignment)
    fresh = {}
    assert _unify(-p, 3, fresh) and fresh == {"p": -3}
    assert not _unify(2 * p, 6, {})
    assert not _unify(p + 1, 4, {})
    # a parameter the endpoint leaves unbound is the cert parameter of the
    # same name; an instance missing it never unifies
    row_ctx = ParamContext([("p", Domain.free())])
    fresh = {}
    assert _unify_side({}, row_ctx, {"p": Fraction(5)}, fresh)
    assert fresh == {"p": 5}
    assert not _unify_side({}, row_ctx, {}, {})


BIND_POOL = [Fraction(x) for x in
             ("1/2", "-1/2", "1/3", "2", "-2", "3", "1", "-1", "0", "4")]


@pytest.mark.parametrize("cid", sorted(get_catalog().certs))
def test_unifying_shipped_endpoints_rebuilds_the_certificate(cid):
    """Instances built from each endpoint's bindings at a domain point unify
    back to that point, and the certificate built there verifies."""
    cat = get_catalog()
    entry = cat.certs[cid]
    ctx = entry.ctx
    rng = random.Random(cid)
    for _ in range(50):
        point = {n: rng.choice([v for v in BIND_POOL if ctx.domains[n].allows(v)])
                 for n in ctx.params}
        assignment = {}
        for tid, values in ((entry.source_id, entry.source_values),
                            (entry.target_id, entry.target_values)):
            row_ctx = cat.triples[tid].ctx
            inst = {n: (values[n].substitute(point).as_fraction()
                        if n in values else point[n]) for n in row_ctx.params}
            assert _unify_side(values, row_ctx, inst, assignment)
        assert all(point[n] == v for n, v in assignment.items())
        missing = [n for n in ctx.params if n not in assignment]
        assert all(ctx.domains[n].is_finite for n in missing)
        try:
            cert = entry.build(dict(point, **assignment))
        except ConstraintViolation:
            continue
        assert verify_certificate(cert)[0]
        return
    raise AssertionError("no domain point builds %s" % cid)


@pytest.mark.parametrize("name", ["F", "S21"])
def test_join_full_test_matches_scalar_transport(name):
    """For members of the family (grid ones from ``_members`` and random
    samples), the join's full test says solution i moves onto solution j
    exactly when Scalar ``transport_dual`` takes sol_i to sol_j, and then
    the projected lookup finds j in i's bucket."""
    sols = enumerate_duals(catalog(name))
    scaled = [sol.integer_tensor() for sol in sols]
    den = math.lcm(*(t for _, t in scaled))
    tensors = [[e[:3] + (e[3] * (den // t),) for e in nz] for nz, t in scaled]
    sides = [iso._projected_sides((N, 1), (N, 1), sols[0].dim) for N in tensors]
    members = list(itertools.islice(_members(automorphisms(name)), 6))
    rng = random.Random(8)
    for branch in automorphisms(name):
        members += classify._BranchDraw(branch).samples(rng, 3)
    ctx = sols[0].ctx
    moves = 0
    for M, c in members:
        A = [[ctx.const(Fraction(x, c)) for x in col] for col in zip(*M)]
        P = iso._projections(M)
        for i, sol in enumerate(sols):
            moved = sol.transport_dual(A)
            for j, target in enumerate(sols):
                joined = not algebra._transport_residuals(
                    M, tensors[j], tensors[i], 1, c)
                assert joined == moved.tensor_equal(target), (M, c, i, j)
                assert not joined or (iso._evaluations(P, c, sides[j])[0]
                                      == iso._evaluations(P, c, sides[i])[1])
                moves += joined and i != j
    assert moves


def test_reduce_orbits_refuses_a_singular_member(monkeypatch):
    """A member that is not invertible could join tensors in different
    orbits, so it is refused, as inverting it would be.  The draw is made
    to give A = [[1, 0], [1, 0]], as M = c A^T with c = 1."""
    sols = enumerate_duals(catalog("A11"))
    monkeypatch.setattr(classify._BranchDraw, "_member",
                        lambda self, ints, den: ([[1, 1], [0, 0]], 1))
    with pytest.raises(DimensionMismatch, match="singular member .* A11"):
        reduce_orbits(sols, automorphisms("A11"))


def test_reduce_orbits_refuses_a_family_with_no_branch(monkeypatch):
    """N12_abg has no automorphism block: applying no member would report
    every dual as its own orbit, so the family is refused, and ``enumerate``
    refuses it before enumerating."""
    bindings = {"alpha": 1, "beta": 0, "gamma": 1}
    seed = catalog("N12_abg", bindings)
    duals = [SuperAlgebra.from_brackets(seed.grading, seed.ctx, {},
                                        dual_role=True)]
    with pytest.raises(ConstraintViolation) as err:
        reduce_orbits(duals, automorphisms("N12_abg", bindings))
    assert str(err.value) == ("N12_abg has no automorphism family to reduce "
                              "its duals by")

    def enumerate_refused(seed):
        raise AssertionError("the duals were enumerated")

    monkeypatch.setattr(cli, "enumerate_duals", enumerate_refused)
    assert cli.main(["enumerate", "--seed", "N12_abg", "--bind", "alpha=1",
                     "--bind", "beta=0", "--bind", "gamma=1"]) == 3


# ---------------------------------------------------------------------------
# integer draws and the integer grid filter against their Scalar and
# Fraction references

# the seed bindings under which a family that uses its algebra's parameters
# is drawn; every other shipped family uses none
FAMILY_BINDINGS = {"N12_eps": ({"eps": 1}, {"eps": -1})}


def _family(text):
    return AlgebraEntry(parse_catalog(text)[0]).family


# a family with a radical and a denominator, as the grammar allows: at b = 4
# the radical settles to 2, at b = 2 it stays and the entry is irrational,
# at b = 1 the denominator vanishes, at b < 0 the radicand is negative
RADICAL_FAMILY = _family("""
algebra RX super_dim (1, 1)
  brackets { }
  automorphism {
    params { a : free \\ {0}; b : (-inf, 4]; r : sqrt(b) }
    matrix [[a, 0], [0, r + 1/(b - 1)]]
    constraints { a; a*r - 1 }
  }
""")
# families only user catalogs reach: no family parameter (the draw clears
# its entries to ints), a denominator in a constraint alone, and an entry
# whose rational and radical parts have different denominators
FIXED_FAMILY = _family("""
algebra RF super_dim (1, 1)
  brackets { }
  automorphism { matrix [[-1, 0], [0, 1/2]] }
""")
CONSTRAINT_DEN_FAMILY = _family("""
algebra RC super_dim (1, 1)
  brackets { }
  automorphism {
    params { a : free \\ {0} }
    matrix [[a, 0], [0, 1]]
    constraints { a - 1; 1/(a - 1) }
  }
""")
MIXED_DEN_FAMILY = _family("""
algebra RM super_dim (1, 1)
  brackets { }
  automorphism {
    params { b : [0, inf); r : sqrt(b) }
    matrix [[1, 0], [0, 1/(b - 1) + r/(b - 4)]]
  }
""")
USER_FAMILIES = {"RX": RADICAL_FAMILY, "RF": FIXED_FAMILY,
                 "RC": CONSTRAINT_DEN_FAMILY, "RM": MIXED_DEN_FAMILY}


def _draw_branches():
    branches = [(name, fam.branches[0]) for name, fam in USER_FAMILIES.items()]
    for name in list_algebras():
        family = automorphisms(name)
        if any(b.unbound_params() for b in family):
            families = [automorphisms(name, b) for b in FAMILY_BINDINGS[name]]
        else:
            families = [family]
        branches += [(name, b) for fam in families for b in fam]
    return branches


DRAW_BRANCHES = _draw_branches()


def _outcome(draw):
    """draw()'s value, or the class of the SuperTriplesError it raises."""
    try:
        return draw()
    except (ConstraintViolation, DivisionByZero) as exc:
        return type(exc)


def integer_matrix(M):
    """(integer matrix, a): the Fraction matrix M times a, the lcm of the
    denominators of its entries."""
    a = math.lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (a // x.denominator) for x in row] for row in M], a


def _scalar_member(branch, values):
    """``instantiate`` then ``as_fraction``, as (M, c) with M = c A^T:
    "refused" where instantiate raises a ConstraintViolation."""
    try:
        _, mat = branch.instantiate(dict(zip(branch.family_params, values)))
    except ConstraintViolation:
        return "refused"
    return integer_matrix([[x.as_fraction() for x in col]
                           for col in zip(*mat)])


def _integer_member(branch, values):
    member = classify._BranchDraw(branch).at(values)
    return "refused" if member is None else member


RATIONALS = st.one_of(
    st.sampled_from(ORBIT_GRID),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_draw_equals_scalar_instantiation(data):
    """On every shipped family (N12_eps bound) and the four user ones, at
    ``ORBIT_GRID`` points and at random rationals, in or out of the domain:
    the integer draw refuses exactly where ``instantiate`` does, and is
    otherwise ``instantiate`` followed by ``as_fraction``, or raises the
    same class of error (a zero denominator, an irrational member)."""
    _, branch = data.draw(st.sampled_from(DRAW_BRANCHES))
    values = [data.draw(RATIONALS) for _ in branch.family_params]
    assert (_outcome(lambda: _integer_member(branch, values))
            == _outcome(lambda: _scalar_member(branch, values)))


@pytest.mark.parametrize("a, b, want", [
    (2, 4, ([[6, 0], [0, 7]], 3)),        # r = 2: A = diag(2, 2 + 1/3)
    (2, 0, ([[2, 0], [0, -1]], 1)),       # r = 0
    (2, 2, ConstraintViolation),          # r = sqrt(2) stays: not rational
    (2, 1, DivisionByZero),
    (2, -1, "refused"),                   # negative radicand
    (2, 5, "refused"),                    # outside b's domain
    (Fraction(1, 2), 4, "refused"),       # the constraint a*r - 1 vanishes
])
def test_integer_draw_of_a_radical_family(a, b, want):
    """Each outcome the random draws may meet, met by both draws."""
    branch = RADICAL_FAMILY.branches[0]
    for draw in (_integer_member, _scalar_member):
        assert _outcome(lambda: draw(branch, [Fraction(a), Fraction(b)])) == want


@pytest.mark.parametrize("name, values, want", [
    ("RF", [], ([[-2, 0], [0, 1]], 2)),            # A = diag(-1, 1/2)
    ("RC", [2], ([[2, 0], [0, 1]], 1)),
    ("RC", [Fraction(-1, 2)], ([[-1, 0], [0, 2]], 2)),
    ("RC", [1], DivisionByZero),                   # before a - 1 refuses
    ("RC", [0], "refused"),                        # outside a's domain
    ("RM", [9], ([[40, 0], [0, 29]], 40)),         # 1/8 + 3/5
    ("RM", [Fraction(9, 4)], ([[35, 0], [0, -2]], 35)),  # D < 0: 4/5 - 6/7
    ("RM", [Fraction(1, 4)], ([[15, 0], [0, -22]], 15)),  # -4/3 - 2/15
    ("RM", [2], ConstraintViolation),              # sqrt(2) stays
    ("RM", [1], DivisionByZero),                   # the rational part's
    ("RM", [4], DivisionByZero),                   # the radical part's
    ("RM", [-1], "refused"),                       # outside b's domain
])
def test_integer_draw_of_user_families(name, values, want):
    """Each outcome of the draw paths only user catalogs reach, met by
    both draws."""
    branch = USER_FAMILIES[name].branches[0]
    for draw in (_integer_member, _scalar_member):
        assert _outcome(lambda: draw(branch, [Fraction(v) for v in values])) == want


def _fraction_filter(particular, null, higher, grid):
    """The reference grid filter: each point built and each polynomial of
    higher composed at it in Fractions."""
    kept = []
    for combo in itertools.product(grid, repeat=len(null)):
        point = list(particular)
        for s, vec in zip(combo, null):
            point = [x + s * y for x, y in zip(point, vec)]
        if not any(_p_compose(f, [(x, None) for x in point], 0) for f in higher):
            kept.append(point)
    return kept


ENUM_SEED_BINDINGS = {"C1_p": {"p": 2}, "C2_p": {"p": Fraction(1, 2)},
                      "C5_p": {"p": 1}, "N12_eps": {"eps": 1},
                      "N12_abg": {"alpha": 1, "beta": 0, "gamma": 1}}


def _enum_systems():
    """(name, particular, null, higher) for every catalog seed whose
    enumeration grid fits ENUM_BUDGET."""
    out = []
    for name in list_algebras():
        seed = catalog(name, ENUM_SEED_BINDINGS.get(name))
        system = classify._dual_system(seed, DualAnsatz(seed.grading))
        if system and len(ENUM_GRID) ** len(system[1]) <= ENUM_BUDGET:
            out.append((name,) + system)
    return out


ENUM_SYSTEMS = _enum_systems()


def _scalar_dual_system(seed, ansatz):
    """The Scalar reference route to ``classify._dual_system``: the seed
    mapped into a context with one free parameter u_s per ansatz slot, the
    dual and the double built as Scalar algebras by ``from_brackets`` (the
    double from [X_I, X~^J] = F~^{JK}_I X_K + F_{KI}^J X~^K alone, so it
    shares no code with ``triples.double_entries``), and the Jacobi
    residuals read off as Scalar numerators."""
    nu = ansatz.unknown_count
    uctx = ParamContext([("u%d" % s, Domain.free()) for s in range(nu)])
    S = seed.map_scalars(uctx, seed.ctx.bind_scalars(uctx, {}))
    slots = {}
    for s, (i, j, k) in enumerate(ansatz.slots):
        slots.setdefault((i, j), {})[k] = uctx.param("u%d" % s)
    dual = SuperAlgebra.from_brackets(ansatz.grading, uctx, slots,
                                      dual_role=True)
    h = S.dim
    brackets = {}
    for (i, j, k, c) in S.nonzero():
        brackets.setdefault((i, j), {})[k] = c
    for (i, j, k, c) in dual.nonzero():
        brackets.setdefault((h + i, h + j), {})[h + k] = c
        brackets.setdefault((k, h + i), {})[j] = c
    for (k, i, j, c) in S.nonzero():
        brackets.setdefault((i, h + j), {})[h + k] = c
    m, n = S.superdim()
    double = SuperAlgebra.from_brackets(Grading(2 * m, 2 * n), uctx, brackets,
                                        parity=S.parity + dual.parity)
    residuals = [r.re for (_, _, r) in _jacobi(double.nonzero(),
                                                double.parity)]
    linear = [(num, den) for (num, den) in residuals
              if max(map(sum, num)) <= 1]
    higher = [num for (num, _) in residuals if max(map(sum, num)) > 1]
    rows, rhs = [], []
    for num, den in linear:
        row = [Fraction(0)] * nu
        const = Fraction(0)
        scale = Fraction(1) / den[max(den)]
        for mono, coeff in num.items():
            if sum(mono):
                row[mono.index(1)] += coeff * scale
            else:
                const += coeff * scale
        rows.append(row)
        rhs.append(-const)
    if not rows:
        return ([Fraction(0)] * nu,
                [[Fraction(int(i == j)) for j in range(nu)] for i in range(nu)],
                higher)
    solved = matrices.f_solve(rows, rhs)
    return None if solved is None else solved + (higher,)


def test_every_seed_but_a12_fits_the_enumeration_budget():
    assert sorted(set(list_algebras()) - {s[0] for s in ENUM_SYSTEMS}) == ["A12"]


def test_dual_system_equals_the_scalar_route():
    """For every catalog seed, A12 included, the polynomial kernel run
    returns exactly the Scalar route's (particular, null, higher)."""
    for name in list_algebras():
        seed = catalog(name, ENUM_SEED_BINDINGS.get(name))
        ansatz = DualAnsatz(seed.grading)
        assert (classify._dual_system(seed, ansatz)
                == _scalar_dual_system(seed, ansatz)), name


@pytest.mark.parametrize("name, particular, null, higher",
                         [pytest.param(*s, id=s[0]) for s in ENUM_SYSTEMS
                          if len(s[2]) <= 3])
def test_integer_grid_filter_on_enum_grid(name, particular, null, higher):
    """On ``ENUM_GRID`` itself (seeds with up to 7^3 points), the integer
    filter keeps exactly the Fraction filter's points, in its order."""
    assert (list(classify._grid_solutions(particular, null, higher))
            == _fraction_filter(particular, null, higher, ENUM_GRID))


@given(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
                min_size=1, max_size=3, unique=True),
       st.builds(Fraction, st.integers(1, 5), st.integers(1, 7)),
       st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_integer_grid_filter_on_random_grids(grid, scale, rng):
    """For every seed whose grid fits ENUM_BUDGET, on a random grid of up
    to three rationals (so the grid's denominator is no fixed number), with
    the null vectors scaled by a random rational and every residual times
    u_k - t, t the u_k of a random grid point (the residuals are quadratic
    forms, the factor gives them terms of two degrees and keeps that point),
    the integer filter keeps exactly the Fraction filter's points, in its
    order."""
    with mock.patch.object(classify, "ENUM_GRID", tuple(grid)):
        for name, particular, null, higher in ENUM_SYSTEMS:
            null = [[scale * y for y in vec] for vec in null]
            nu = len(particular)
            k = rng.randrange(nu)
            t = particular[k] + sum(rng.choice(grid) * vec[k] for vec in null)
            factor = _p_add(_p_var(k, nu), _p_const(-t, nu))
            higher = [_p_mul(f, factor) for f in higher]
            assert (list(classify._grid_solutions(particular, null, higher))
                    == _fraction_filter(particular, null, higher, grid)), name
