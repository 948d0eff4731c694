"""Superalgebra assembly, graded Jacobi sectors, and serialization."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialortho.clifford import CliffordAlgebra
from specialortho.errors import NotSpecial, ParseError, ShapeMismatch
from specialortho.exterior import QuadraticSpace
from specialortho.octonions import build_algebra
from specialortho.scalars import ALPHA, L1, L2, L3, ONE, ROW_SHIFT, ZERO, dot, rat
from specialortho import family as fam
from specialortho import quadlie as ql
from specialortho import superalg as sup


@pytest.fixture(scope="module")
def octs():
    return build_algebra(L1, L2, L3)


@pytest.fixture(scope="module")
def cliff(octs):
    return CliffordAlgebra(octs)


@pytest.fixture(scope="module")
def d21():
    rep = fam.build_family(ALPHA, -ONE - ALPHA)
    return sup.build_tilde(ql.covariants(rep), "D(2,1;a)")


@pytest.fixture(scope="module")
def g3(cliff):
    rep, _ = ql.build_g2_rep(cliff)
    return sup.build_tilde(ql.covariants(rep), "G3")


@pytest.fixture(scope="module")
def f4(cliff):
    rep = ql.build_spinor_rep(cliff)
    return sup.build_tilde(ql.covariants(rep), "F4")


@pytest.mark.parametrize(
    "fixture_name,even,odd",
    [("d21", 9, 8), ("g3", 17, 14), ("f4", 24, 16)],
)
def test_dimensions(fixture_name, even, odd, request):
    sa = request.getfixturevalue(fixture_name)
    assert (sa.even_dim, sa.odd_dim) == (even, odd)
    assert sa.dim == even + odd


@pytest.mark.parametrize("fixture_name", ["d21", "g3", "f4"])
def test_jacobi_all_sectors_clean(fixture_name, request):
    sa = request.getfixturevalue(fixture_name)
    assert sa.super_jacobi_check() == {"EEE": {}, "EEO": {}, "EOO": {}, "OOO": {}}
    assert jacobi_texts(sa) == {"EEE": None, "EEO": None, "EOO": None, "OOO": None}


@pytest.mark.parametrize("fixture_name", ["d21", "g3", "f4"])
def test_form_invariant(fixture_name, request):
    sa = request.getfixturevalue(fixture_name)
    assert sa.form_invariance_witness() == {}
    assert full_invariance_scan(sa) is None


@pytest.mark.parametrize("fixture_name", ["d21", "g3", "f4"])
def test_odd_bracket_needs_no_rescaling(fixture_name, request):
    sa = request.getfixturevalue(fixture_name)
    assert sa.odd_odd_scale == ONE


def test_not_special_is_refused():
    cov = ql.covariants(fam.build_family(rat(1), rat(1)))
    assert not cov.special
    with pytest.raises(NotSpecial) as err:
        sup.build_tilde(cov, "refused")
    # the refusal names the witness found when the covariants were computed
    assert cov.witness in str(err.value)
    assert str(err.value) == f"moment map is not special orthogonal at {cov.witness}"


def test_forced_build_fails_only_in_odd_sector():
    cov = ql.covariants(fam.build_family(rat(1), rat(1)))
    sa = sup.build_tilde(cov, "forced", force=True)
    sectors = jacobi_texts(sa)
    assert sectors["EEE"] is None
    assert sectors["EEO"] is None
    assert sectors["EOO"] is None
    assert sectors["OOO"] is not None and "J(" in sectors["OOO"]


def test_perturbed_sl2_block_breaks_invariance(d21):
    # the sl2 block is the last three even rows and columns of the form
    form = [list(row) for row in d21.form]
    for i in range(d21.even_dim - 3, d21.even_dim):
        for j in range(d21.even_dim - 3, d21.even_dim):
            form[i][j] = form[i][j] * rat(2)
    sa = sup.SuperAlgebra(
        "scaled", d21.even_labels, d21.odd_labels, d21.table, form
    )
    witness = invariance_text(sa)
    assert witness is not None and "B(" in witness


def test_bracket_super_antisymmetry(d21):
    # even-even and even-odd flip sign; odd-odd is symmetric
    e0 = 0
    odd0, odd1 = d21.even_dim, d21.even_dim + 3
    row = d21.bracket(e0, odd0)
    assert row and d21.bracket(odd0, e0) == {k: -c for k, c in row.items()}
    sym = d21.bracket(odd0, odd1)
    assert sym and d21.bracket(odd1, odd0) == sym
    ee = d21.bracket(0, 1)
    assert ee and d21.bracket(1, 0) == {k: -c for k, c in ee.items()}


def test_even_self_bracket_rejected(d21):
    with pytest.raises(ShapeMismatch):
        sup.SuperAlgebra(
            "bad",
            ("x",),
            (),
            {(0, 0): {0: ONE}},
            [[ONE]],
        )


def test_form_parity_blocks_enforced():
    with pytest.raises(ShapeMismatch):
        sup.SuperAlgebra(
            "bad",
            ("x",),
            ("p",),
            {},
            [[ONE, ONE], [ONE, ZERO]],
        )


VANISH = "form must vanish across the parity split"
SUPERSYMMETRIC = "form is not supersymmetric"


def dense_form_error(form, even_dim):
    """The text of the first failing cell of a full row-major scan, each cell
    checked across the parity split first, or None for a valid form."""
    n = len(form)
    for i in range(n):
        for j in range(n):
            odd_i, odd_j = i >= even_dim, j >= even_dim
            if odd_i != odd_j and form[i][j].num:
                return VANISH
            want = -form[j][i] if odd_i and odd_j else form[j][i]
            if form[i][j] != want:
                return SUPERSYMMETRIC
    return None


def form_error(form, even_dim):
    labels = [f"x{i}" for i in range(len(form))]
    try:
        sup.SuperAlgebra("form", labels[:even_dim], labels[even_dim:], {}, form)
    except ShapeMismatch as e:
        return str(e)
    return None


@pytest.mark.parametrize(
    "form, even_dim, text",
    [
        # a nonzero entry across the parity split, and its transpose
        ([[ONE, ONE], [ONE, ONE]], 1, VANISH),
        # an asymmetric even block
        ([[ONE, rat(2)], [rat(3), ONE]], 2, SUPERSYMMETRIC),
        # a symmetric odd block
        ([[ZERO, ONE], [ONE, ZERO]], 0, SUPERSYMMETRIC),
        # a zero entry whose transpose is nonzero: within the even block, and
        # across the split, where the zero cell (0, 1) comes before (1, 0)
        ([[ONE, ZERO], [L1, ONE]], 2, SUPERSYMMETRIC),
        ([[ONE, ZERO], [ONE, ZERO]], 1, SUPERSYMMETRIC),
        ([[ONE, ONE], [ZERO, ZERO]], 1, VANISH),
    ],
)
def test_form_errors_name_the_first_failing_cell(form, even_dim, text):
    assert form_error(form, even_dim) == text
    assert dense_form_error(form, even_dim) == text


_form_entries = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, L1])


@given(st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_form_checks_raise_as_the_dense_scan(even_dim, data):
    n = data.draw(st.integers(min_value=even_dim, max_value=even_dim + 3))
    form = data.draw(
        st.lists(st.lists(_form_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    assert form_error(form, even_dim) == dense_form_error(form, even_dim)


def test_purely_even_wrapping(cliff):
    rep, _ = ql.build_g2_rep(cliff)
    sa = rep.algebra
    assert isinstance(sa, sup.SuperAlgebra) and sa.name == "g2"
    assert (sa.even_dim, sa.odd_dim) == (14, 0)
    assert sa.super_jacobi_check()["EEE"] == {}
    assert sa.form_invariance_witness() == {}


def jacobi_texts(sa):
    """The least triple of each sector of super_jacobi_check, written out by
    jacobi_text: None for a clean sector."""
    return {
        sector: sa.jacobi_text(min(failing.values(), default=None))
        for sector, failing in sa.super_jacobi_check().items()
    }


def invariance_text(sa):
    """The least triple of form_invariance_witness over its sectors, written
    out by invariance_text, or None."""
    return sa.invariance_text(min(sa.form_invariance_witness().values(), default=None))


def full_jacobi_failures(sa):
    """Per sector and output index k, the first triple (x, y, z) over every
    x and every pair y <= z at which J(x, y, z) has a nonzero coordinate k,
    with the Jacobiator written out from the bracket accessor."""
    sectors = ("EEE", "EEO", "EOO", "OOO")
    out = {s: {} for s in sectors}

    def br(u, v):
        """The bracket of sparse coordinate vectors."""
        terms = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in sa.bracket(i, j).items():
                    terms.setdefault(k, []).append((a * b, c))
        sums = {k: dot(pairs) for k, pairs in terms.items()}
        return {k: s for k, s in sums.items() if s.num}

    for x in range(sa.dim):
        for y in range(sa.dim):
            for z in range(y, sa.dim):
                sector = sectors[sa.parity(x) + sa.parity(y) + sa.parity(z)]
                ex, ey, ez = {x: ONE}, {y: ONE}, {z: ONE}
                sign = -1 if sa.parity(x) and sa.parity(y) else 1
                total = {}
                for c, vec in (
                    (1, br(ex, sa.bracket(y, z))),
                    (-1, br(sa.bracket(x, y), ez)),
                    (-sign, br(ey, sa.bracket(x, z))),
                ):
                    for k, v in vec.items():
                        total[k] = total.get(k, ZERO) + v * c
                for k, v in total.items():
                    if v.num:
                        out[sector].setdefault(k, (x, y, z))
    return out


def least_witnesses(sa, failures):
    """The witness of the least triple of each sector of failures."""
    out = {}
    for sector, failing in failures.items():
        out[sector] = None
        if failing:
            x, y, z = (sa.labels[t] for t in min(failing.values()))
            out[sector] = f"J({x}, {y}, {z}) != 0"
    return out


def full_jacobi_scan(sa):
    """First witness per sector: the least triple of full_jacobi_failures,
    which is the first one the scan meets."""
    return least_witnesses(sa, full_jacobi_failures(sa))


def doubled(sa, key):
    """A copy of sa with the first stored structure constant of [x_i, x_j]
    doubled, for key = (i, j)."""
    table = {k: dict(row) for k, row in sa.table.items()}
    m = min(table[key])
    table[key][m] = table[key][m] * rat(2)
    return sup.SuperAlgebra(
        sa.name + "'", sa.even_labels, sa.odd_labels, table, sa.form
    )


def perturbed_odd_odd(sa):
    """A copy of sa with the first stored odd-odd structure constant doubled."""
    return doubled(sa, min(k for k in sa.table if k[0] >= sa.even_dim))


def test_sorted_triples_give_the_full_scan_witnesses(g3, f4, d21):
    forced = sup.build_tilde(
        ql.covariants(fam.build_family(rat(1), rat(1))), "forced", force=True
    )
    perturbed = perturbed_odd_odd(g3)
    for sa in (
        broken_sl2(), perturbed, perturbed_odd_odd(f4), perturbed_odd_odd(d21), forced
    ):
        failures = full_jacobi_failures(sa)
        # the first triple at every output index, not only the least one,
        # listed in the order of the triples
        got = sa.super_jacobi_check()
        assert got == failures
        assert all(list(f.values()) == sorted(f.values()) for f in got.values())
        assert any(failures.values())
        assert jacobi_texts(sa) == least_witnesses(sa, failures)
    assert jacobi_texts(forced)["OOO"] is not None
    assert jacobi_texts(perturbed)["EOO"] is not None
    assert jacobi_texts(perturbed)["OOO"] is not None


def jacobi_scan_oracle(sa):
    """super_jacobi_check one sorted triple at a time: a fresh dict of the
    integer terms of L^2 J(x, y, z) per x <= y <= z, over the cleared rows,
    read in the order its terms were first added."""
    sectors = ("EEE", "EEO", "EOO", "OOO")
    out = {s: {} for s in sectors}
    rows, mask = sa._cleared_rows, (1 << ROW_SHIFT) - 1
    for x in range(sa.dim):
        for y in range(x, sa.dim):
            sign_xz = 1 if sa.parity(x) and sa.parity(y) else -1
            for z in range(y, sa.dim):
                acc = {}

                def add(key, k, v):
                    acc[k + key] = acc.get(k + key, 0) + v

                for mk, c in rows.get((y, z), ()):
                    for k, v in rows.get((x, mk >> ROW_SHIFT), ()):
                        add(mk & mask, k, c * v)
                for mk, c in rows.get((x, y), ()):
                    for k, v in rows.get((mk >> ROW_SHIFT, z), ()):
                        add(mk & mask, k, -c * v)
                for mk, c in rows.get((x, z), ()):
                    for k, v in rows.get((y, mk >> ROW_SHIFT), ()):
                        add(mk & mask, k, sign_xz * c * v)
                failing = out[sectors[sa.parity(x) + sa.parity(y) + sa.parity(z)]]
                for k, v in acc.items():
                    if v:
                        failing.setdefault(k >> ROW_SHIFT, (x, y, z))
    return out


def term_order_breaker():
    """4|0 table with [a,b] = d, [a,c] = c, [b,c] = b and [c,d] = a: at the
    first failing triple J(a, b, c) = d + a - b, one output from each term
    of J, [a,[b,c]] = d, -[[a,b],c] = a and -[b,[a,c]] = -b, so the outputs
    met in the order of the terms are not in increasing order."""
    form = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    table = {(0, 1): {3: ONE}, (0, 2): {2: ONE}, (1, 2): {1: ONE}, (2, 3): {0: ONE}}
    return sup.SuperAlgebra("order", ("a", "b", "c", "d"), (), table, form)


def test_pair_scan_meets_the_failures_in_the_order_of_the_triple_scan(g3, f4, d21):
    forced = sup.build_tilde(
        ql.covariants(fam.build_family(rat(1), rat(1))), "forced", force=True
    )
    order = term_order_breaker()
    # d from [x,[y,z]], then a from [[x,y],z], then b from [y,[x,z]]
    assert list(order.super_jacobi_check()["EEE"].items())[:3] == [
        (3, (0, 1, 2)), (0, (0, 1, 2)), (1, (0, 1, 2))
    ]
    for sa in (
        forced, perturbed_odd_odd(g3), perturbed_odd_odd(f4), perturbed_odd_odd(d21), g3, order
    ):
        got, want = sa.super_jacobi_check(), jacobi_scan_oracle(sa)
        # the same first triple at every output index, met in the same order
        assert {s: list(f.items()) for s, f in got.items()} == {
            s: list(f.items()) for s, f in want.items()
        }
    assert jacobi_scan_oracle(forced)["OOO"]
    assert not any(jacobi_scan_oracle(g3).values())


def broken_sl2():
    """sl2 with [e, f] = h + e, as a purely even SuperAlgebra."""
    table = fam.sl2_bracket_table()
    table[(1, 2)] = {0: ONE, 1: ONE}
    algebra = QuadraticSpace(fam.SL2_LABELS, fam.sl2_half_trace_gram(), name="sl2")
    plane = QuadraticSpace(("a1", "a2"), [[ONE, ZERO], [ZERO, ONE]], name="plane")
    return ql.QuadLieRep("bad", algebra, table, fam.sl2_plane_action(), plane).algebra


def test_lie_algebra_jacobi_failure_is_caught():
    # [e, f] = h + e breaks the Jacobi identity of sl2 at (h, e, f)
    assert jacobi_texts(broken_sl2())["EEE"] == "J(h, e, f) != 0"


def full_invariance_failures(sa):
    """Per sector, the first triple (x, y, z), over all of them in
    lexicographic order, with B([x,y],z) != B(x,[y,z])."""
    sectors = ("EEE", "EEO", "EOO", "OOO")
    out = {}
    for x, y, z in product(range(sa.dim), repeat=3):
        left = right = ZERO
        for m, c in sa.bracket(x, y).items():
            left = left + c * sa.form[m][z]
        for m, c in sa.bracket(y, z).items():
            right = right + c * sa.form[x][m]
        if left != right:
            out.setdefault(sectors[sa.parity(x) + sa.parity(y) + sa.parity(z)], (x, y, z))
    return out


def full_invariance_scan(sa):
    """The first triple over all of them with B([x,y],z) != B(x,[y,z]), as
    text, or None."""
    failures = full_invariance_failures(sa)
    if not failures:
        return None
    x, y, z = (sa.labels[t] for t in min(failures.values()))
    return f"B([{x},{y}],{z}) != B({x},[{y},{z}])"


def grading_breaker():
    """2|2 table with [x,y] = -q, [x,p] = -y, [y,p] = x: the brackets leave the
    grading, and invariance fails only at (p, x, y) and (p, y, x), each a
    triple with y even, x odd and z even that comes after its mirror."""
    form = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ONE],
        [ZERO, ZERO, -ONE, ZERO],
    ]
    table = {(0, 1): {3: -ONE}, (0, 2): {1: -ONE}, (1, 2): {0: ONE}}
    return sup.SuperAlgebra("graded?", ("x", "y"), ("p", "q"), table, form)


def right_side_breaker():
    """4|0 table with [b,c] = [b,d] = a and the unit form: at (a, b) the left
    side B([a,b], z) is zero for every z, and invariance fails at z = c and
    at z = d, so the witness is (a, b, c)."""
    form = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    table = {(1, 2): {0: ONE}, (1, 3): {0: ONE}}
    return sup.SuperAlgebra("right", ("a", "b", "c", "d"), (), table, form)


def test_invariance_witness_is_that_of_the_full_scan(g3, f4, d21):
    breaker = grading_breaker()
    right = right_side_breaker()
    # an even-even and an odd-odd constant doubled: both sectors fail
    both = doubled(perturbed_odd_odd(d21), (0, 1))
    failing = (
        broken_sl2(), perturbed_odd_odd(g3), perturbed_odd_odd(f4), breaker, right, both
    )
    for sa in failing:
        want = full_invariance_failures(sa)
        assert want
        assert sa.form_invariance_witness() == want
        assert invariance_text(sa) == full_invariance_scan(sa)
    assert set(both.form_invariance_witness()) == {"EEE", "EOO"}
    assert invariance_text(breaker) == "B([p,x],y) != B(p,[x,y])"
    assert invariance_text(right) == "B([a,b],c) != B(a,[b,c])"
    # the forced non-special assembly breaks Jacobi (OOO) but keeps the form
    forced = sup.build_tilde(
        ql.covariants(fam.build_family(rat(1), rat(1))), "forced", force=True
    )
    assert forced.form_invariance_witness() == {}
    assert full_invariance_scan(forced) is None


def rescaled(sa, p, s):
    """A copy of sa with the basis vector x_p replaced by s x_p: the bracket
    constant c_ij^k picks up s_i s_j / s_k and the form entry B_ij s_i s_j."""
    scale = [s if i == p else ONE for i in range(sa.dim)]
    table = {
        (i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in row.items()}
        for (i, j), row in sa.table.items()
    }
    form = [[f * scale[i] * scale[j] for j, f in enumerate(r)] for i, r in enumerate(sa.form)]
    return sup.SuperAlgebra(sa.name + "~", sa.even_labels, sa.odd_labels, table, form)


def test_rescaled_odd_vector_keeps_the_checks_exact(g3):
    # over x_p -> (1 + a) x_p the table's common denominator is not a
    # monomial, and the factors 1 + a cancel only in the field
    sa = rescaled(g3, g3.even_dim, ONE + ALPHA)
    assert any(c.den[2] > 0 for row in sa.table.values() for c in row.values())
    assert not any(sa.super_jacobi_check().values())
    assert sa.form_invariance_witness() == {}
    broken = perturbed_odd_odd(sa)
    want = full_jacobi_scan(broken)
    assert want["EOO"] is not None and want["OOO"] is not None
    assert jacobi_texts(broken) == want
    want = full_invariance_scan(broken)
    assert want is not None
    assert invariance_text(broken) == want


def test_symbolic_alpha_witnesses_are_those_of_the_full_scans(d21):
    # the D(2,1;a) form carries 1/beta = -1/(1 + a): its common denominator
    # is the binomial 2 a (1 + a)
    assert any(f.den[2] > 0 for row in d21.form for f in row)
    forced = sup.build_tilde(
        ql.covariants(fam.build_family(ALPHA, ONE)), "forced", force=True
    )
    for sa in (perturbed_odd_odd(d21), forced):
        assert jacobi_texts(sa) == full_jacobi_scan(sa)
        assert invariance_text(sa) == full_invariance_scan(sa)
    assert jacobi_texts(forced) == {
        "EEE": None,
        "EEO": None,
        "EOO": None,
        "OOO": "J(v1w1*a1, v1w1*a1, v2w2*a2) != 0",
    }


def test_checks_build_no_fraction_sums(g3, f4, monkeypatch):
    def refuse(pairs):
        raise AssertionError("dot called")

    monkeypatch.setattr(ql, "dot", refuse)
    for sa in (g3, f4):
        assert not any(sa.super_jacobi_check().values())
        assert sa.form_invariance_witness() == {}
    broken = perturbed_odd_odd(g3)
    assert broken.super_jacobi_check()["OOO"]
    assert broken.form_invariance_witness()


@pytest.mark.parametrize("fixture_name", ["d21", "g3", "f4"])
def test_bracket_rows_are_super_antisymmetric(fixture_name, request):
    sa = request.getfixturevalue(fixture_name)
    for i in range(sa.dim):
        for j in range(sa.dim):
            row = sa.bracket(i, j)
            if sa.parity(i) and sa.parity(j):
                assert sa.bracket(j, i) == row
            else:
                assert sa.bracket(j, i) == {k: -c for k, c in row.items()}


def test_export_import_round_trip(d21):
    text = sup.export_superalgebra(d21, {"a": "a"})
    doc = json.loads(text)
    assert doc["even_dim"] == 9 and doc["odd_dim"] == 8
    assert doc["parameters"] == {"a": "a"}
    assert len(doc["digest"]) == 64
    back = sup.import_superalgebra(text)
    assert sup.export_superalgebra(back, {"a": "a"}) == text


def test_import_rejects_tampering(d21):
    text = sup.export_superalgebra(d21)
    tampered = text.replace('"1"', '"2"', 1)
    with pytest.raises(ParseError):
        sup.import_superalgebra(tampered)
    with pytest.raises(ParseError):
        sup.import_superalgebra("{not json")
    with pytest.raises(ParseError):
        sup.import_superalgebra("{}")


def test_import_refuses_a_denominator_outside_the_set(d21):
    doc = json.loads(sup.export_superalgebra(d21))
    row = doc["brackets"][0][2]
    row[0][1] = "1/(l1 + 1)"
    with pytest.raises(ParseError) as caught:
        sup.import_superalgebra(json.dumps(doc))
    assert str(caught.value) == (
        "malformed superalgebra document: "
        "denominator l1 + 1 is not c * l1^i l2^j l3^k a^m (a + 1)^r"
    )


@pytest.mark.parametrize("key", ["even_dim", "odd_dim"])
def test_import_without_a_dimension_is_a_parse_error(d21, key):
    # the digest covers the brackets and the form only, so it still matches
    doc = json.loads(sup.export_superalgebra(d21))
    del doc[key]
    with pytest.raises(ParseError) as caught:
        sup.import_superalgebra(json.dumps(doc))
    assert str(caught.value) == f"malformed superalgebra document: '{key}'"


@pytest.mark.parametrize("parameters", [["a", "3"], "a=3", 3])
def test_import_with_parameters_not_an_object_is_a_parse_error(d21, parameters):
    doc = json.loads(sup.export_superalgebra(d21))
    doc["parameters"] = parameters
    with pytest.raises(ParseError) as caught:
        sup.import_superalgebra(json.dumps(doc))
    assert str(caught.value) == (
        "malformed superalgebra document: parameters is not an object"
    )


def test_import_with_an_odd_basis_not_a_list_is_a_parse_error(d21):
    doc = json.loads(sup.export_superalgebra(d21))
    doc["basis"]["odd_basis"] = 5
    with pytest.raises(ParseError) as caught:
        sup.import_superalgebra(json.dumps(doc))
    assert str(caught.value) == (
        "malformed superalgebra document: 'int' object is not iterable"
    )


def test_import_with_a_form_of_the_wrong_shape_is_a_parse_error(d21):
    doc = json.loads(sup.export_superalgebra(d21))
    doc["form"] = [["1"]]
    with pytest.raises(ParseError) as caught:
        sup.import_superalgebra(json.dumps(doc))
    assert str(caught.value) == (
        "malformed superalgebra document: form matrix must cover the full basis"
    )


def test_export_specialized_parameters():
    sa = sup.build_tilde(ql.covariants(fam.build_family(rat(3), rat(-4))), "D(2,1;3)")
    text = sup.export_superalgebra(sa, {"a": "3"})
    back = sup.import_superalgebra(text)
    assert back._imported_parameters == {"a": "3"}
    assert back.super_jacobi_check()["OOO"] == {}
