"""Suite reports: statuses, constants, witnesses, and determinism."""

import json
import re
from functools import cached_property

import pytest

from specialortho import altmap, clifford, linalg, octonions, quadlie, suites
from specialortho.errors import UnknownSuite, ZeroParameter
from specialortho.exterior import K, QuadraticSpace
from specialortho.octonions import bilinear_B, cross_product
from specialortho.quadlie import decompose_quad_im, decompose_quad_oct
from specialortho.scalars import L1, L2, ONE, ZERO, parse, rat, render
from specialortho.suites import (
    SUITE_NAMES,
    Workspace,
    _proportionality,
    _psi_shortcut_witness,
    _quad_shortcut_witness,
    hodge_report,
    hodge_rows,
    run_suite,
)
from specialortho.superalg import build_tilde


@pytest.fixture(scope="module")
def ws():
    return Workspace()


@pytest.fixture(scope="module")
def reports(ws):
    return {name: run_suite(name, ws) for name in SUITE_NAMES}


def by_name(report):
    return {r.name: r for r in report.records}


def test_symbolic_suites_all_green(reports):
    for name, report in reports.items():
        assert report.ok, report.to_text()
        assert not any(r.status == "fails" for r in report.records), name


def test_g2_suite_contents(reports):
    rec = by_name(reports["g2"])
    assert rec["g2-dimension"].status == "holds"
    assert rec["g2-special"].status == "holds"
    assert rec["g3-superalgebra"].status == "holds"
    assert rec["g3-superalgebra"].constant == "1"
    assert "17|14" in rec["g3-superalgebra"].statement


def test_f4_suite_contents(reports):
    rec = by_name(reports["f4"])
    assert rec["clifford-pair-dimension"].status == "holds"
    assert rec["clifford-omega-spin"].status == "holds"
    assert rec["clifford-trace-form"].status == "holds"
    assert rec["f4-superalgebra"].status == "holds"
    assert "24|16" in rec["f4-superalgebra"].statement


def test_mathews_vacuity_split(reports):
    rec = by_name(reports["mathews"])
    holds = {n for n, r in rec.items() if r.status == "holds"}
    vacuous = {n for n, r in rec.items() if r.status == "vacuous"}
    # the first two rungs survive on both octonion modules (degenerately on
    # the seven-dimensional one, where each side vanishes); the higher rungs
    # are vacuous everywhere, as is the whole ladder below dimension five
    assert holds == {
        "mathews-im-wedge-mu-psi", "mathews-im-compose-mu-psi",
        "mathews-oct-wedge-mu-psi", "mathews-oct-compose-mu-psi",
        "mathews-im-compose-zero", "mathews-im-wedge-zero",
    }
    assert all(n.endswith(("psi-psi", "quad-psi")) or n.startswith("mathews-family")
               for n in vacuous)
    assert len(vacuous) == 8


def test_hodge_constants(ws):
    rows = {r.name: r for r in hodge_rows(ws)}
    want = {
        "hodge-im-cross-quad-id": "7",
        "hodge-im-cross-mu-psi": "-14/3",
        "hodge-im-id-phi-psi": "-7",
        "hodge-im-mu-phi-mu": "-42",
        "hodge-im-psi-phi-id": "63",
        "hodge-oct-psi-quad-id": "-56",
        "hodge-oct-psi-mu-psi": "112/3",
        "hodge-oct-mu-quad-mu": "-56",
        "hodge-oct-mu-compose": "-56/3",
        "hodge-oct-id-quad-psi": "8",
    }
    assert set(rows) == set(want)
    for name, constant in want.items():
        assert render(rows[name].computed) == constant, name
    # the eight-dimensional constants agree with the reference values; the
    # seven-dimensional references exceed the computed ones by exactly 21/8
    for name in ("hodge-oct-psi-quad-id", "hodge-oct-psi-mu-psi",
                 "hodge-oct-mu-quad-mu", "hodge-oct-mu-compose"):
        assert rows[name].note == "matches the reference value"
    for name in ("hodge-im-cross-quad-id", "hodge-im-cross-mu-psi"):
        row = rows[name]
        assert parse(row.reference) / row.computed == rat(21, 8)
        assert "21/8" in row.note


def test_hodge_report_table(ws):
    text = hodge_report(ws)
    lines = text.splitlines()
    assert lines[0].split() == ["claim", "computed", "reference", "note"]
    assert len(lines) == 11


def test_shortcuts_on_the_special_family(ws):
    # psi = 3 (mu - mu_can) and Q = 4 (v1, psi(v2,v3,v4)) at symbolic alpha;
    # no suite reports these two shortcuts for the family
    cov = ws.cov_family
    assert cov.special and not cov.psi.is_zero()
    assert _psi_shortcut_witness(cov) is None
    assert _quad_shortcut_witness(cov) is None


def test_binding_first_equals_substituting_after(ws):
    # an oracle for the scalar engine that shares none of its code paths per
    # operation: computing at a point must agree with computing symbolically
    # and evaluating the result at that point
    point = {"l1": 2, "l2": 3, "l3": -5, "a": 2}
    bound = Workspace(l1=rat(2), l2=rat(3), l3=rat(-5), alpha=rat(2))
    for name in ("cov_im", "cov_oct", "cov_family"):
        sym, at = getattr(ws, name), getattr(bound, name)
        for f, g in ((sym.mu, at.mu), (sym.psi, at.psi), (sym.quad, at.quad)):
            # spaces compare by identity, so compare the coefficient tables
            assert f.substitute(point).coeffs == g.coeffs, (name, f.name)
    symbolic = {r.name: r.computed.substitute(point) for r in hodge_rows(ws)}
    assert len(symbolic) == 10
    assert symbolic == {r.name: r.computed for r in hodge_rows(bound)}
    for decompose in (
        lambda w: decompose_quad_im(w.octs, w.cov_im.quad),
        lambda w: decompose_quad_oct(w.cov_oct.quad),
    ):
        sym, at = decompose(ws), decompose(bound)
        assert [(t.index, t.coefficient.substitute(point)) for t in sym] == [
            (t.index, t.coefficient) for t in at
        ]
    for cov in ("cov_im", "cov_oct", "cov_family"):
        sym = build_tilde(getattr(ws, cov), cov)
        at = build_tilde(getattr(bound, cov), cov)
        assert {
            key: {k: c.substitute(point) for k, c in row.items()}
            for key, row in sym.table.items()
        } == at.table
        assert [[c.substitute(point) for c in row] for row in sym.form] == at.form


def test_d21_failure_witness():
    report = run_suite("d21", Workspace(alpha=rat(1), beta=rat(1)))
    assert not report.ok
    rec = by_name(report)
    assert rec["d21-special"].status == "fails"
    assert "e1" in rec["d21-special"].witness
    assert rec["d21-superalgebra"].status == "fails"
    assert "graded Jacobi" in rec["d21-superalgebra"].witness
    assert rec["d21-psi-closed-form"].status == "vacuous"
    assert rec["d21-moment-closed-form"].status == "holds"


def test_d21_midpoint_vanishing():
    report = run_suite("d21", Workspace(alpha=rat(-1, 2)))
    rec = by_name(report)
    assert report.ok
    assert rec["d21-covariants-vanish"].status == "holds"


def test_d21_symbolic_omits_midpoint_record(reports):
    assert "d21-covariants-vanish" not in by_name(reports["d21"])


def test_decompositions_at_compact_point():
    ws1 = Workspace(l1=rat(1), l2=rat(1), l3=rat(1))
    rec = by_name(run_suite("decompositions", ws1))
    assert rec["dec-top-phi-quad"].constant == "-42"
    assert rec["dec-top-quad-quad"].constant == "-224"


def test_top_form_constants_symbolic(reports):
    rec = by_name(reports["decompositions"])
    assert rec["dec-top-phi-quad"].constant == "-42*l1^2*l2^2*l3^2"
    assert rec["dec-top-quad-quad"].constant == "-224*l1^2*l2^2*l3^2"


def test_reports_are_deterministic():
    a = run_suite("hodge", Workspace())
    b = run_suite("hodge", Workspace())
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_json_shape(reports):
    blob = json.loads(reports["g2"].to_json())
    assert blob["suite"] == "g2"
    assert blob["result"] == "ok"
    assert set(blob["parameters"]) == {"l1", "l2", "l3", "alpha", "beta"}
    for record in blob["records"]:
        assert "elapsed" not in record


def test_all_concatenates_in_order(ws):
    report = run_suite("all", ws)
    assert report.suite == "all"
    seen = [r.name.split("-")[0] for r in report.records]
    # g2 records come before clifford/spin, which come before d21, etc.
    assert seen.index("g2") < seen.index("clifford") < seen.index("d21")


def test_unknown_suite():
    with pytest.raises(UnknownSuite, match="expected one of"):
        run_suite("nope")


def test_zero_parameter_propagates():
    with pytest.raises(ZeroParameter):
        run_suite("d21", Workspace(alpha=rat(0)))


def test_hodge_rows_take_one_dual_per_map_and_volume(monkeypatch):
    calls = []
    real = suites.hodge_dual

    def counted(f, volume):
        calls.append((f, volume))
        return real(f, volume)

    monkeypatch.setattr(suites, "hodge_dual", counted)
    rows = hodge_rows(Workspace())
    assert all(row.computed is not None for row in rows)
    assert len(calls) == 7
    assert len({(id(f), id(volume)) for f, volume in calls}) == 7


def test_verify_all_composes_mu_and_psi_once(monkeypatch):
    calls = []
    real = quadlie.compose

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    for module in (quadlie, suites):
        monkeypatch.setattr(module, "compose", counted, raising=False)
    ws = Workspace(rat(2), rat(3), rat(-5), rat(2))
    assert run_suite("all", ws).ok
    for cov in (ws.cov_im, ws.cov_oct):
        assert sum(f is cov.mu and g is cov.psi for f, g in calls) == 1


def test_verify_all_builds_and_scans_each_superalgebra_once(monkeypatch):
    from specialortho import superalg

    counts = {"build_tilde": 0, "super_jacobi_check": 0, "form_invariance_witness": 0}
    scanned = []

    def counted(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key != "build_tilde":
                scanned.append(args[0])
            return real(*args, **kwargs)

        return wrapper

    build = counted("build_tilde", superalg.build_tilde)
    for module in (superalg, suites):
        monkeypatch.setattr(module, "build_tilde", build, raising=False)
    sa_class = quadlie.SuperAlgebra
    for scan in ("super_jacobi_check", "form_invariance_witness"):
        monkeypatch.setattr(sa_class, scan, counted(scan, getattr(sa_class, scan)))
    assert run_suite("all", Workspace(rat(2), rat(3), rat(-5), rat(2))).ok
    # one assembly, one graded Jacobi scan and one form scan for each of G3,
    # F4 and D(2,1;a); no scan of a Lie algebra g on its own
    assert counts == {"build_tilde": 3, "super_jacobi_check": 3, "form_invariance_witness": 3}
    assert sorted(sa.name for sa in scanned) == ["D(2,1;a)"] * 2 + ["F4"] * 2 + ["G3"] * 2
    assert all(sa.odd_dim for sa in scanned)


def test_verify_all_clears_each_assembly_table_once_and_builds_no_frac_rows(monkeypatch):
    # the scans read the table cleared once, with the (j, i) rows negated as
    # integers; the Frac rows of both orders wait for a bracket call
    built, cleared = [], []
    sa_class = quadlie.SuperAlgebra
    init, clear = sa_class.__init__, quadlie.clear_denominators

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def recording_clear(rows):
        cleared.append(rows)
        return clear(rows)

    monkeypatch.setattr(sa_class, "__init__", recording_init)
    monkeypatch.setattr(quadlie, "clear_denominators", recording_clear)
    assert run_suite("all", Workspace()).ok
    assemblies = [sa for sa in built if sa.odd_dim]
    assert sorted(sa.name for sa in assemblies) == ["D(2,1;a)", "F4", "G3"]
    for sa in assemblies:
        assert sum(rows is sa.table for rows in cleared) == 1
        assert "_cleared_rows" in vars(sa)
    # three tables and three forms, and no Frac rows on any SuperAlgebra
    assert len(cleared) == 6
    assert not any("_rows" in vars(sa) for sa in built)


def test_setup_builds_each_structure_constant_once(monkeypatch):
    counts = {"spinor_action": 0, "apply": 0, "uncleared": 0, "cd_mul": 0, "c_of": 0}

    def counted(key, real, when=lambda *args: True):
        def wrapper(*args):
            if when(*args):
                counts[key] += 1
            return real(*args)

        return wrapper

    cliff_class = clifford.CliffordAlgebra
    monkeypatch.setattr(
        cliff_class, "spinor_action", counted("spinor_action", cliff_class.spinor_action)
    )
    monkeypatch.setattr(cliff_class, "c_of", counted("c_of", cliff_class.c_of))
    monkeypatch.setattr(
        altmap.PairingSpec, "apply", counted("apply", altmap.PairingSpec.apply)
    )
    # the integer vectors that moment_action turns back into Fracs
    monkeypatch.setattr(quadlie, "uncleared", counted("uncleared", quadlie.uncleared))
    # _cd_unit recurses through the module name: count the top-level calls,
    # the ones through all three doubling levels
    monkeypatch.setattr(
        octonions,
        "_cd_unit",
        counted("cd_mul", octonions._cd_unit, lambda i, j, gammas: len(gammas) == 3),
    )
    ws = Workspace()
    for name, value in vars(Workspace).items():
        if isinstance(value, cached_property):
            getattr(ws, name)
    # the columns of the 21 so7 and 14 g2 actions; the moment-action tables of
    # so7 (28 pairs), g2 (21) and the family (6), the n vectors of each pair
    # read at once from the cleared action rows, with no PairingSpec.apply;
    # the 64 table products of basis units
    assert counts == {
        "spinor_action": 35,
        "apply": 0,
        "uncleared": 55,
        "cd_mul": 64,
        "c_of": 0,
    }
    counts["c_of"] = 0
    assert run_suite("all", Workspace()).ok
    assert counts["c_of"] == 7


def test_f4_clifford_checks_share_the_c_matrices(monkeypatch):
    calls = []
    real = clifford.CliffordAlgebra.spinor_action

    def counted(self, c):
        calls.append(c)
        return real(self, c)

    monkeypatch.setattr(clifford.CliffordAlgebra, "spinor_action", counted)
    ws = Workspace()
    assert run_suite("all", ws).ok
    # set-up builds 35; clifford-splitting the columns of the 7 c_u, which
    # it pairs with the g2 action table and clifford-c-action and
    # clifford-trace-form reuse; clifford-omega-spin the one of Omega
    assert len(calls) == 43
    w = ws.cliff.w_basis()
    assert sum(any(c is u for u in w) for c in calls) == 7


def test_verify_all_builds_phi_once_on_the_field_constant(monkeypatch):
    built, raised = [], []
    real_phi, real_eta_inv = octonions.OctonionAlgebra.phi.func, clifford.eta_inv

    def counted(octs):
        built.append(octs)
        return real_phi(octs)

    def recorded(f):
        raised.append(f)
        return real_eta_inv(f)

    phi_once = cached_property(counted)
    phi_once.__set_name__(octonions.OctonionAlgebra, "phi")
    monkeypatch.setattr(octonions.OctonionAlgebra, "phi", phi_once)
    monkeypatch.setattr(clifford, "eta_inv", recorded)
    ws = Workspace()
    assert run_suite("all", ws).ok
    # one build for the one algebra of the workspace
    assert built == [ws.octs]
    # the phi that Omega quantizes is the algebra's own
    phi = ws.octs.phi
    assert len(raised) == 1 and raised[0] is phi
    for form in (phi, ws.cov_im.quad, ws.cov_oct.quad, ws.cov_family.quad):
        assert form.codomain is K


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_module_records_build_osp_from_so(n):
    # a fourth module through the same builder: so(V) on V = k^n with the
    # weighted Gram diag(1, l1, l2, l1*l2) cut to n; its superalgebra is
    # osp(n|2), of dimension (n(n-1)/2 + 3)|2n, and osp(1|2) at 3|2 from
    # so(k) = 0
    weights = [rat(1), L1, L2, L1 * L2][:n]
    gram = [[w if r == c else rat(0) for c, w in enumerate(weights)] for r in range(n)]
    space = QuadraticSpace(tuple(f"v{k + 1}" for k in range(n)), gram, name=f"V{n}")
    cov = quadlie.covariants(quadlie.build_so(space)[0])
    # the fourth module is one more table entry; no Workspace stage builds it
    prefix, dims = f"so{n}", (n * (n - 1) // 2 + 3, 2 * n)
    module = suites.Module(
        key=f"osp{n}",
        g=f"so{n}",
        rep=None,
        cov=None,
        prefix=prefix,
        infix=f"so{n}",
        label=f"osp({n}|2)",
        dims=dims,
        closes="so(V) + sl2 + V (x) k^2 closes as osp(n|2)",
        bindings={},
    )
    records = suites.module_records(
        module, cov, closed_forms=lambda: suites._shortcut_records(prefix, cov)
    )
    assert [r.name for r in records] == [
        f"{prefix}-{name}"
        for name in (
            "jacobi", "invariant-form", "representation", "skew-action",
            "equivariance", "special", "psi-shortcut", "quad-shortcut",
        )
    ] + [f"osp{n}-superalgebra"]
    assert all(r.status == "holds" for r in records), [r.as_line() for r in records]
    assert records[-1].statement.endswith(f"dimension {dims[0]}|{dims[1]}")


# -- negative controls: one perturbed coefficient, each on a fresh Workspace --


def perturbed(f, index):
    """f with the first coordinate of its value at index moved by one."""
    coeffs = dict(f.coeffs)
    value = f.value(index)
    coeffs[index] = [value[0] + ONE] + value[1:]
    return altmap.AltMap(f.domain, f.codomain, f.degree, coeffs, name=f.name)


def failing(records):
    return {r.name: r.witness for r in records if r.status == "fails"}


def test_closed_form_names_the_perturbed_index(monkeypatch):
    def psi_im_expected(octs):
        return perturbed(quadlie.psi_im_expected(octs), (1, 2, 7))

    monkeypatch.setattr(suites, "psi_im_expected", psi_im_expected)
    assert failing(run_suite("g2", Workspace()).records) == {
        "g2-psi-closed-form": "the two sides differ at e_{127}"
    }


def test_mathews_rung_and_zero_identity_name_the_perturbed_index():
    ws = Workspace()
    ws.cov_oct.mu_wedge_psi = perturbed(ws.cov_oct.mu_wedge_psi, (2, 3, 4, 6, 8))
    ws.cov_im.mu_compose_psi = perturbed(ws.cov_im.mu_compose_psi, (1, 2, 4, 5, 6, 7))
    assert failing(run_suite("mathews", ws).records) == {
        "mathews-oct-wedge-mu-psi": "the two sides differ at e_{23468}",
        "mathews-im-compose-mu-psi": "the two sides differ at e_{124567}",
        "mathews-im-compose-zero": "the two sides differ at e_{124567}",
    }


def replaced(cov, **changes):
    """A fresh Covariants with some fields replaced: built by the constructor,
    so no cached mu_wedge_psi or mu_compose_psi of cov carries over."""
    fields = {
        name: getattr(cov, name)
        for name in ("rep", "mu", "mu_act", "psi", "quad", "special", "witness")
    }
    return quadlie.Covariants(**{**fields, **changes})


def test_shortcuts_name_the_perturbed_index():
    cov = Workspace().cov_im
    psi_moved = replaced(cov, psi=perturbed(cov.psi, (2, 4, 6)))
    quad_moved = replaced(cov, quad=perturbed(cov.quad, (1, 3, 5, 7)))
    # the right side of the Q shortcut reads psi, so it moves with psi
    assert failing(suites._shortcut_records("g2", psi_moved)) == {
        "g2-psi-shortcut": "the two sides differ at e_{246}",
        "g2-quad-shortcut": "the two sides differ at e_{1246}",
    }
    assert failing(suites._shortcut_records("g2", quad_moved)) == {
        "g2-quad-shortcut": "the two sides differ at e_{1357}",
    }


def test_restriction_and_unit_name_the_imaginary_index():
    # Q_Im perturbed at e_{1234} breaks the restriction; Q_O perturbed at
    # e_{1357}, with the unit first, breaks Q_O(v1, v2, v3, 1) at e_{246}
    ws = Workspace()
    ws.cov_im = replaced(ws.cov_im, quad=perturbed(ws.cov_im.quad, (1, 2, 3, 4)))
    ws.cov_oct = replaced(ws.cov_oct, quad=perturbed(ws.cov_oct.quad, (1, 3, 5, 7)))
    assert failing(run_suite("f4", ws).records) == {
        "spin-quad-closed-form": "the two sides differ at e_{1357}",
        "spin-quad-restriction": "the two sides differ at e_{1234}",
        "spin-quad-unit": "the two sides differ at e_{246}",
        "spin-quad-shortcut": "the two sides differ at e_{1357}",
    }


def test_splitting_names_the_failing_pair():
    # the action table cannot be edited in place, so the moved column goes
    # into a rebuilt representation, which a fresh workspace then holds
    ws = Workspace()
    rep, kernel = ws._g2
    with pytest.raises(TypeError):
        rep.act.table[4][2][3] = ONE
    columns = [[list(col) for col in cols] for cols in rep.act.table]
    columns[4][2][3] = columns[4][2][3] + ONE
    moved = quadlie.QuadLieRep(
        rep.name, rep.algebra_space, rep.algebra.table, columns, rep.space
    )
    assert moved.act.table[4][2][3] == rep.act.table[4][2][3] + ONE
    ws._g2 = (moved, kernel)
    witness = failing(run_suite("f4", ws).records).get("clifford-splitting")
    assert re.fullmatch(r"Tr\(rho\(d5\) rho\(c_e[1-7]\)\) != 0", witness or "")


def test_clifford_forms_nonsingular_names_a_vanishing_gram(monkeypatch):
    # the Grams are nonsingular by construction, so the check is reached by a
    # det that vanishes on the g2 Gram alone, after both spaces are built
    ws = Workspace()
    gram = ws.g2_rep.algebra_space.gram
    assert ws.so7_rep.algebra_space.gram is not gram
    monkeypatch.setattr(suites, "det", lambda m: rat(0) if m is gram else linalg.det(m))
    assert failing(run_suite("f4", ws).records) == {
        "clifford-forms-nonsingular": "a Gram determinant vanishes"
    }


def f4_clifford_caches(cliff):
    return {
        "monomial products": dict(cliff._mono_cache),
        "monomial columns": dict(cliff._column_cache),
        "Omega": cliff.omega().coeffs,
        "c_u": [c.coeffs for c in cliff.w_basis()],
    }


def moved_coefficient(element):
    """A new CliffordElement with the coefficient of its least monomial moved."""
    mask = min(element.coeffs)
    coeffs = {**element.coeffs, mask: element.coeffs[mask] + ONE}
    return clifford.CliffordElement(element.algebra, coeffs)


def test_clifford_omega_spin_names_the_moved_omega():
    clean = Workspace()
    run_suite("f4", clean)
    ws = Workspace()
    cliff = ws.cliff
    # the c_u are {u, Omega}: built first, they hold the true Omega
    cliff.w_basis()
    omega = cliff.omega()
    cliff._omega = moved_coefficient(omega)
    witness = failing(run_suite("f4", ws).records)["clifford-omega-spin"]
    assert witness == "rho(Omega)(1) != -7"
    # the moved element was a copy: restored, the shared caches are clean
    cliff._omega = omega
    assert f4_clifford_caches(cliff) == f4_clifford_caches(clean.cliff)


def test_clifford_trace_form_names_the_moved_c_u():
    clean = Workspace()
    run_suite("f4", clean)
    ws = Workspace()
    cliff = ws.cliff
    w = cliff.w_basis()
    cliff._w_basis = [*w[:4], moved_coefficient(w[4]), *w[5:]]
    witness = failing(run_suite("f4", ws).records)["clifford-trace-form"]
    assert witness == "(u,v) = (e5, e5)"
    cliff._w_basis = w
    assert f4_clifford_caches(cliff) == f4_clifford_caches(clean.cliff)


@pytest.mark.parametrize(
    "index, witness",
    [
        # mu(e2, e5), off the unit slot, and mu(1, e3), stored at (1, 4)
        ((3, 6), "mu(e2, e5) decomposition fails"),
        ((1, 4), "mu(e3, 1) != (1/6) c_(e3)"),
    ],
)
def test_spin_moment_from_g2_names_the_moved_coefficient(index, witness):
    ws = Workspace()
    original = ws.cov_oct
    ws.cov_oct = replaced(original, mu=perturbed(original.mu, index))
    assert failing(run_suite("f4", ws).records)["spin-moment-from-g2"] == witness
    # the copy was moved, not the workspace's mu_O
    assert quadlie.mu_oct_from_mu_im_witness(
        ws.octs, ws.cliff, ws.g2_kernel, ws.cov_im.mu, original.mu
    ) is None


@pytest.mark.parametrize(
    "suite, record, covariants, index, witness",
    [
        ("g2", "g2-special", "cov_im", (3, 6), "(u,v,w) = (e3, e1, e6) of ImO"),
        ("f4", "spin-special", "cov_oct", (2, 5), "(u,v,w) = (e2, e1, e5) of O"),
        ("d21", "d21-special", "cov_family", (1, 3), "(u,v,w) = (e1, e1, e3) of VxW"),
    ],
)
def test_special_names_the_moved_moment_coefficient(
    monkeypatch, suite, record, covariants, index, witness
):
    # covariants() gets mu with mu(e_i, e_j) moved, and check_special reads
    # the moment-action table built from that mu
    real = quadlie.moment_map
    with monkeypatch.context() as patched:
        patched.setattr(quadlie, "moment_map", lambda rep: perturbed(real(rep), index))
        ws = Workspace()
        assert failing(run_suite(suite, ws).records)[record] == witness
    # the moved map stays in that workspace: its representation still
    # solves to a special mu, and a fresh workspace holds the special one
    moved = getattr(ws, covariants)
    assert quadlie.check_special(moved.rep, real(moved.rep)) == (True, None)
    assert getattr(Workspace(), covariants).special


NOT_SPECIAL = (
    "moment map is not special orthogonal at {}; "
    "forced assembly violates the graded Jacobi identity, sector OOO: {}"
)


@pytest.mark.parametrize(
    "suite, key, index, special, ooo",
    [
        ("g2", "g3", (3, 6), "(u,v,w) = (e3, e1, e6) of ImO", "J(e1*a1, e3*a1, e6*a2) != 0"),
        ("f4", "f4", (2, 5), "(u,v,w) = (e2, e1, e5) of O", "J(e1*a1, e2*a1, e5*a2) != 0"),
        (
            "d21",
            "d21",
            (1, 3),
            "(u,v,w) = (e1, e1, e3) of VxW",
            "J(v1w1*a1, v1w1*a1, v2w1*a2) != 0",
        ),
    ],
)
def test_superalgebra_names_the_moved_moment_map_and_its_ooo_triple(
    monkeypatch, suite, key, index, special, ooo
):
    # on a fresh workspace whose mu has one coefficient moved, the
    # superalgebra record names the moment map's witness and the first OOO
    # triple of the forced assembly, that of the full scan over all triples
    from test_superalg import full_jacobi_scan

    real = quadlie.moment_map
    monkeypatch.setattr(quadlie, "moment_map", lambda rep: perturbed(real(rep), index))
    ws = Workspace()
    records = failing(run_suite(suite, ws).records)
    assert records[f"{key}-superalgebra"] == NOT_SPECIAL.format(special, ooo)
    module = suites.MODULES[key]
    sa = build_tilde(getattr(ws, module.cov), module.label, force=True)
    assert full_jacobi_scan(sa)["OOO"] == ooo


def test_zero_odd_odd_scale_of_a_moved_moment_map_is_a_failing_record(monkeypatch, capsys):
    # with mu(e1, e2) of the family moved, invariance of the form solves the
    # odd bracket's scale to 0: the forced assembly names that in the
    # d21-superalgebra witness, every other record still runs, and the CLI
    # exits 1 for the failed identities
    from specialortho import cli

    names = [r.name for r in run_suite("d21", Workspace()).records]
    real = quadlie.moment_map
    monkeypatch.setattr(quadlie, "moment_map", lambda rep: perturbed(real(rep), (1, 2)))
    records = run_suite("d21", Workspace()).records
    assert [r.name for r in records] == names
    special = "(u,v,w) = (e1, e1, e2) of VxW"
    assert failing(records) == {
        "d21-moment-closed-form": "the two sides differ at e_{12}",
        "d21-equivariance": "equivariance fails at x=hV, (v,w)=(e1,e2)",
        "d21-special": special,
        "d21-superalgebra": (
            f"moment map is not special orthogonal at {special}; "
            "invariance of the form leaves no nonzero scale for the odd bracket; "
            "forced assembly violates the graded Jacobi identity, "
            "sector OOO: J(v1w1*a1, v1w1*a1, v1w2*a2) != 0"
        ),
    }
    assert cli.main(["verify", "d21"]) == 1
    assert "result: FAIL (12 checks: 6 hold, 2 vacuous, 4 fail)" in capsys.readouterr().out


def proportionality_oracle(star, target):
    """c read at the first nonzero coefficient of the target, then the whole
    map star compared with the map c * target."""
    for index, vec in sorted(target.coeffs.items()):
        for k, c in enumerate(vec):
            if c.num:
                sv = star.coeffs.get(index)
                ratio = sv[k] / c if sv else ZERO
                return ratio if star == target.scale(ratio) else None
    return None if star.coeffs else ZERO


def test_proportionality_reads_the_constant_of_the_whole_map():
    # c * target is recognised; a star that differs from it anywhere, or has
    # another shape, gives None, as the whole-map comparison does
    ws = Workspace()
    mu, phi = ws.cov_im.mu, ws.octs.phi  # vector-valued with zero entries; sparse
    c = rat(3) * L1

    def moved(f, index, k, value):
        vec = f.value(index)
        vec[k] = value
        return altmap.AltMap(f.domain, f.codomain, f.degree, {**f.coeffs, index: vec})

    # a place where the target is zero: an entry of a stored vector of mu, and
    # a multi-index that phi does not store
    last = max(mu.coeffs)
    zero_in_mu = last, next(t for t, x in enumerate(mu.coeffs[last]) if not x.num)
    assert (1, 2, 4) not in phi.coeffs
    for target, (index, t) in ((mu, zero_in_mu), (phi, ((1, 2, 4), 0))):
        star = target.scale(c)
        assert _proportionality(star, target) == c
        first = min(star.coeffs)
        k = next(k for k, x in enumerate(star.coeffs[first]) if x.num)  # c is read here
        cases = [
            moved(star, first, k, star.coeffs[first][k] + ONE),
            moved(star, first, k, ZERO),  # c reads 0, the rest does not vanish
            moved(star, max(star.coeffs), -1, star.coeffs[max(star.coeffs)][-1] + ONE),
            moved(star, index, t, ONE),
            altmap.AltMap(star.domain, star.codomain, star.degree, {first: star.coeffs[first]}),
            altmap.AltMap(star.domain, star.codomain, star.degree + 1, star.coeffs),
        ]
        for bad in cases:
            assert _proportionality(bad, target) is None is proportionality_oracle(bad, target)
        zero = target.scale(ZERO)
        assert _proportionality(zero, target) is ZERO is proportionality_oracle(zero, target)
    empty = phi.scale(ZERO)
    assert _proportionality(empty, empty) is ZERO
    assert _proportionality(phi, empty) is None


def test_clifford_c_action_names_the_moved_c_u():
    ws = Workspace()
    cliff = ws.cliff
    w = cliff.w_basis()
    moved = list(w)
    mask = min(w[2].coeffs)
    moved[2] = clifford.CliffordElement(cliff, {**w[2].coeffs, mask: w[2].coeffs[mask] + ONE})
    cliff._w_basis = moved
    witness = failing(run_suite("f4", ws).records)["clifford-c-action"]
    assert witness == "rho(c_e3)(1) != -6 e3" == c_action_oracle(moved)
    # the perturbed element is a new one; c_(e3) itself is unchanged
    assert w[2].coeffs == cliff.c_of(ws.octs.imaginary_unit(3)).coeffs


def left_products(element, x):
    """rho(element) x by generic octonion products: each monomial's highest
    generator multiplies x first, from the left."""
    octs = element.algebra.octonions
    out = octs.from_coeffs([ZERO] * 8)
    for mask, c in element.coeffs.items():
        y = x
        for t in reversed([t for t in range(1, 8) if mask >> (t - 1) & 1]):
            y = octs.unit(t) * y
        out = out + y.scale(c)
    return out


def c_action_oracle(w):
    """The first failing text of clifford-c-action for the c_u list w, from
    the dense octonion sides, sharing no code with the spin columns."""
    octs = w[0].algebra.octonions
    one = octs.one()
    for i, cu in enumerate(w, 1):
        u = octs.imaginary_unit(i)
        if left_products(cu, one) != u.scale(rat(-6)):
            return f"rho(c_e{i})(1) != -6 e{i}"
        for j in range(1, 8):
            v = octs.imaginary_unit(j)
            want = cross_product(u, v).scale(rat(2)) + one.scale(rat(6) * bilinear_B(u, v))
            if left_products(cu, v) != want:
                return f"rho(c_e{i})(e{j}) != 2 e{i} x e{j} + 6 B(e{i},e{j})"
    return None


def test_clifford_c_action_names_a_moved_cross_term():
    # a g2 element annihilates the unit, so c_e3 + d keeps its unit column
    # and first moves rho(c_e3)(e1), whose closed side is 2 e3 x e1 alone
    ws = Workspace()
    cliff = ws.cliff
    w = cliff.w_basis()
    assert c_action_oracle(w) is None
    moved = [*w[:2], w[2] + ws.g2_kernel[0], *w[3:]]
    assert left_products(moved[2], ws.octs.one()) == left_products(w[2], ws.octs.one())
    cliff._w_basis = moved
    witness = failing(run_suite("f4", ws).records)["clifford-c-action"]
    assert witness == "rho(c_e3)(e1) != 2 e3 x e1 + 6 B(e3,e1)" == c_action_oracle(moved)


def test_clifford_c_action_names_a_moved_unit_term():
    # e1 and e2 e4 e7 both send the unit to e1 and e1 to the unit; the
    # combination m that annihilates the unit moves only the unit
    # coordinate of rho(c_e1)(e1), the 6 B(e1, e1) term
    ws = Workspace()
    cliff, octs = ws.cliff, ws.octs
    w = cliff.w_basis()
    e1, e247 = 0b1, 0b1001010
    a1, a247 = (
        left_products(clifford.CliffordElement(cliff, {m: ONE}), octs.one()).coeffs[1]
        for m in (e1, e247)
    )
    m = clifford.CliffordElement(cliff, {e1: a247, e247: -a1})
    assert left_products(m, octs.one()).is_zero()
    shift = left_products(m, octs.unit(1))
    assert shift.coeffs[0].num and not any(c.num for c in shift.coeffs[1:])
    moved = [w[0] + m, *w[1:]]
    cliff._w_basis = moved
    witness = failing(run_suite("f4", ws).records)["clifford-c-action"]
    assert witness == "rho(c_e1)(e1) != 2 e1 x e1 + 6 B(e1,e1)" == c_action_oracle(moved)
