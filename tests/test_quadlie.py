"""Moment maps, covariants, and the identity ladder on the octonion modules."""

from itertools import combinations, product
from types import SimpleNamespace

import pytest

from specialortho import linalg
from specialortho.altmap import AltMap, PairingSpec, compose, wedge_rel
from specialortho.cli import main
from specialortho.clifford import PAIR_MASKS, CliffordAlgebra, CliffordElement
from specialortho.errors import ShapeMismatch, SingularMatrix, WrongDimension
from specialortho.exterior import K, QuadraticSpace, all_multi_indices
from specialortho.octonions import associator, build_algebra, commutator, cross_product
from specialortho.scalars import ALPHA, L1, L2, L3, ONE, ZERO, dot, parse, rat
from specialortho import family as fam
from specialortho import quadlie as ql
from specialortho import suites
from specialortho import superalg as sup
from specialortho.suites import Workspace
from test_linalg import SubspaceCoords, mat_mul, trace
from test_superalg import full_invariance_scan, jacobi_texts


@pytest.fixture(scope="module")
def octs():
    return build_algebra(L1, L2, L3)


@pytest.fixture(scope="module")
def cliff(octs):
    return CliffordAlgebra(octs)


@pytest.fixture(scope="module")
def g2(cliff):
    return ql.build_g2_rep(cliff)


@pytest.fixture(scope="module")
def so7(cliff):
    return ql.build_spinor_rep(cliff)


@pytest.fixture(scope="module")
def cov_im(g2):
    rep, _ = g2
    return ql.covariants(rep)


@pytest.fixture(scope="module")
def cov_oct(so7):
    return ql.covariants(so7)


# -- generic so(V) -----------------------------------------------------------


def small_space():
    gram = [[ONE, ZERO, ZERO], [ZERO, L1, ZERO], [ZERO, ZERO, L2]]
    return QuadraticSpace(("x", "y", "z"), gram, name="V3")


def hyperbolic_space():
    g = [[ZERO] * 4 for _ in range(4)]
    g[0][3] = g[3][0] = ONE
    g[1][2] = g[2][1] = -ONE
    return QuadraticSpace(("t1", "t2", "t3", "t4"), g, name="T4")


def action_columns(rep):
    """The columns rho(x_a) e_k of rep.act.table[a][k], as lists to move."""
    return [[list(col) for col in cols] for cols in rep.act.table]


# -- Frac scans of single identities, the oracles of module_witnesses --------

CLEAN = {
    "jacobi": None,
    "invariant-form": None,
    "representation": None,
    "skew-action": None,
    "equivariance": None,
}


def rep_property_oracle(rep):
    """rho([x_i, x_j]) e_k = rho(x_i) rho(x_j) e_k - rho(x_j) rho(x_i) e_k
    for i < j and every module basis vector e_k, or a witness."""
    act, rows = rep.act, rep.act.table
    basis = [rep.algebra_space.basis_vector(a) for a in range(rep.dim)]
    for i, j in combinations(range(rep.dim), 2):
        bracket = [ZERO] * rep.dim
        for k, c in rep.algebra.bracket(i, j).items():
            bracket[k] = c
        for k in range(rep.space.dim):
            expect = [
                p - q
                for p, q in zip(
                    act.apply(basis[i], rows[j][k]), act.apply(basis[j], rows[i][k])
                )
            ]
            if expect != act.apply(bracket, rep.space.basis_vector(k)):
                labels = rep.algebra_space.labels
                return f"rho([{labels[i]},{labels[j]}]) != [rho {labels[i]}, rho {labels[j]}]"
    return None


def skew_oracle(rep):
    """B(rho(x_a) e_i, e_j) + B(e_i, rho(x_a) e_j) = 0 for i <= j, or a witness."""
    space = rep.space
    for a, rows in enumerate(rep.act.table):
        for i in range(space.dim):
            for j in range(i, space.dim):
                left = space.pair(rows[i], space.basis_vector(j))
                right = space.pair(space.basis_vector(i), rows[j])
                if left != -right:
                    return (
                        f"B(rho({rep.algebra_space.labels[a]}) e{i+1}, e{j+1}) "
                        "is not skew"
                    )
    return None


def equivariance_oracle(rep, mu):
    """mu(rho(x) v, w) + mu(v, rho(x) w) = [x, mu(v, w)] on basis triples."""
    space = rep.space
    n = space.dim
    for a in range(rep.dim):
        for i in range(n):
            vi = space.basis_vector(i)
            xvi = rep.act.table[a][i]
            for j in range(i + 1, n):
                vj = space.basis_vector(j)
                xvj = rep.act.table[a][j]
                lhs = [
                    p + q
                    for p, q in zip(mu.evaluate([xvi, vj]), mu.evaluate([vi, xvj]))
                ]
                terms = {}
                for k, c in enumerate(mu.value((i + 1, j + 1))):
                    for m, b in rep.algebra.bracket(a, k).items():
                        terms.setdefault(m, []).append((c, b))
                if lhs != [dot(terms.get(m, ())) for m in range(rep.dim)]:
                    return (
                        f"equivariance fails at x={rep.algebra_space.labels[a]}, "
                        f"(v,w)=(e{i+1},e{j+1})"
                    )
    return None


def oracle_witnesses(cov):
    """What module_witnesses reports, from a scan of each identity on its
    own: g's Jacobi identity on rep.algebra, the Frac scan of its form and
    the three Frac scans above."""
    return {
        "jacobi": jacobi_texts(cov.rep.algebra)["EEE"],
        "invariant-form": full_invariance_scan(cov.rep.algebra),
        "representation": rep_property_oracle(cov.rep),
        "skew-action": skew_oracle(cov.rep),
        "equivariance": equivariance_oracle(cov.rep, cov.mu),
    }


def assembly_witnesses(cov):
    """The module witnesses of superalg.module_witnesses on cov's assembly."""
    rep = cov.rep
    out = sup.module_witnesses(cov, "tilde", (rep.dim + 3, 2 * rep.space.dim))
    return {name: out[name] for name in CLEAN}


@pytest.mark.parametrize("space_fn", [small_space, hyperbolic_space])
def test_so_fundamental_moment_is_canonical(space_fn):
    rep, mu_can = ql.build_so(space_fn())
    assert rep.algebra.super_jacobi_check()["EEE"] == {}
    assert rep.algebra.form_invariance_witness() == {}
    mu = ql.moment_map(rep)
    assert mu == mu_can
    cov = ql.covariants(rep)
    assert assembly_witnesses(cov) == oracle_witnesses(cov) == CLEAN
    ok, witness = ql.check_special(rep, mu)
    assert ok and witness is None


def dense_so(space):
    """build_so's table, Gram, labels and columns by elimination: the
    commutators of the dense column lists, re-expressed over the basis by
    SubspaceCoords, and the form -Tr(xy)/2."""
    n = space.dim
    pairs = list(combinations(range(n), 2))
    cols = [[ql.mu_can_value(space, i, j, k) for k in range(n)] for i, j in pairs]
    coords = SubspaceCoords([[c for col in x for c in col] for x in cols], label="so basis")
    table = {}
    for a, b in combinations(range(len(pairs)), 2):
        # on column lists, the columns of xy are the rows of mat_mul(y, x)
        ab, ba = mat_mul(cols[b], cols[a]), mat_mul(cols[a], cols[b])
        vec = coords.express([p - q for r, s in zip(ab, ba) for p, q in zip(r, s)])
        row = {k: c for k, c in enumerate(vec) if c.num}
        if row:
            table[(a, b)] = row
    minus_half = rat(-1, 2)
    gram = [[minus_half * linalg.trace_of_product(x, y) for y in cols] for x in cols]
    labels = tuple(f"M{i+1}{j+1}" for i, j in pairs)
    return table, gram, labels, cols


def diagonal_space(n):
    weights = [ONE, L1, L2, L1 * L2, L3, L1 * L3][:n]
    gram = [[w if r == c else ZERO for c, w in enumerate(weights)] for r in range(n)]
    return QuadraticSpace(tuple(f"v{k + 1}" for k in range(n)), gram, name=f"V{n}")


def skew_space():
    """A non-diagonal symbolic Gram: a chain of off-diagonal entries.

    It is D C D with D = diag(l1, l2, a + 1, l3) and C a constant chain, so
    every minor, and every denominator the oracle's elimination builds, is
    an integer times a monomial times a power of a + 1."""
    a1 = ALPHA + 1
    gram = [
        [L1**2, L1 * L2, ZERO, ZERO],
        [L1 * L2, 2 * L2**2, L2 * a1, ZERO],
        [ZERO, L2 * a1, a1**2, L3 * a1],
        [ZERO, ZERO, L3 * a1, -(L3**2)],
    ]
    return QuadraticSpace(("s1", "s2", "s3", "s4"), gram, name="S4")


@pytest.mark.parametrize(
    "space_fn",
    [
        *(pytest.param(lambda n=n: diagonal_space(n), id=f"V{n}") for n in range(2, 7)),
        pytest.param(hyperbolic_space, id="T4"),
        pytest.param(skew_space, id="S4"),
    ],
)
def test_closed_so_matches_the_dense_oracle(space_fn):
    space = space_fn()
    rep, _ = ql.build_so(space)
    table, gram, labels, cols = dense_so(space)
    closed = rep.algebra.table
    assert closed == table and list(closed) == list(table)
    # each row's keys in ascending index order, as elimination gives them
    assert all(list(row) == sorted(row) for row in closed.values())
    assert rep.algebra_space.gram == gram
    assert rep.algebra_space.labels == labels
    assert action_columns(rep) == cols


def test_check_special_reports_first_witness():
    rep, mu_can = ql.build_so(small_space())
    ok, witness = ql.check_special(rep, mu_can.scale(rat(2)))
    assert not ok
    assert witness == "(u,v,w) = (e1, e1, e2) of V3"


def test_so_covariants_vanish_for_canonical_map():
    rep, _ = ql.build_so(small_space())
    cov = ql.covariants(rep)
    assert cov.special
    # psi = 3 (mu - mu_can) = 0 when mu is canonical
    assert cov.psi.is_zero()
    assert cov.quad.is_zero()
    assert all(c.status == "vacuous" for c in ql.mathews_status(cov))


def test_bracket_antisymmetry_and_guards():
    rep, _ = ql.build_so(small_space())
    fwd = rep.algebra.bracket(0, 1)
    bwd = rep.algebra.bracket(1, 0)
    assert fwd and bwd == {k: -c for k, c in fwd.items()}
    assert rep.algebra.bracket(2, 2) == {}
    with pytest.raises(ShapeMismatch):
        ql.QuadLieRep(
            "bad",
            rep.algebra_space,
            {(1, 0): {0: ONE}},
            action_columns(rep),
            rep.space,
        )
    with pytest.raises(ShapeMismatch):
        ql.QuadLieRep("bad", rep.algebra_space, {}, action_columns(rep)[:-1], rep.space)


def test_action_table_holds_rho_of_each_basis_pair():
    # build_so's basis element M_ij acts as mu_can(e_i, e_j)
    rep, _ = ql.build_so(small_space())
    pairs = list(combinations(range(rep.space.dim), 2))
    for a, rows in enumerate(rep.act.table):
        e_a = rep.algebra_space.basis_vector(a)
        for k, col in enumerate(rows):
            assert list(col) == ql.mu_can_value(rep.space, *pairs[a], k)
            assert rep.act.apply(e_a, rep.space.basis_vector(k)) == list(col)


# -- failing representation witnesses on the sl2 plane ----------------------


def sl2_on_plane(gram, action=None):
    sl2 = QuadraticSpace(fam.SL2_LABELS, fam.sl2_half_trace_gram(), name="sl2")
    plane = QuadraticSpace(("a1", "a2"), gram, name="plane")
    action = action or fam.sl2_plane_action()
    return ql.QuadLieRep("sl2-plane", sl2, fam.sl2_bracket_table(), action, plane)


def test_doubled_e_breaks_the_representation_property():
    h, e, f = fam.sl2_plane_action()
    doubled = [[rat(2) * c for c in row] for row in e]
    rep = sl2_on_plane([[ZERO, ONE], [ONE, ZERO]], [h, doubled, f])
    # [h, 2e] = 2 (2e) still holds; [2e, f] = 2h breaks [e, f] = h
    cov = ql.covariants(rep)
    witnesses = assembly_witnesses(cov)
    assert witnesses["representation"] == "rho([e,f]) != [rho e, rho f]"
    # e a2 = a1 and B(a1, a2) = B(a2, a1) = 1: e is not skew for this form
    assert witnesses["skew-action"] == "B(rho(e) e2, e2) is not skew"
    assert witnesses == oracle_witnesses(cov)


def test_euclidean_plane_breaks_skewness_at_h():
    # h a1 = a1 and B(a1, a1) = 1
    rep = sl2_on_plane([[ONE, ZERO], [ZERO, ONE]])
    cov = ql.covariants(rep)
    witnesses = assembly_witnesses(cov)
    assert witnesses["representation"] is None
    assert witnesses["skew-action"] == "B(rho(h) e1, e1) is not skew"
    assert witnesses == oracle_witnesses(cov)


# -- the 14-dimensional annihilator on imaginaries --------------------------


def test_g2_structure(g2):
    rep, kernel = g2
    assert rep.dim == 14 and rep.space.dim == 7
    assert len(kernel) == 14
    assert rep.algebra.super_jacobi_check()["EEE"] == {}
    assert assembly_witnesses(ql.covariants(rep)) == CLEAN
    assert rep.algebra.form_invariance_witness() == {}


def test_g2_form_is_seven_dimensional_trace(g2):
    rep, _ = g2
    third = rat(-1, 3)
    # on column lists, mat_mul gives the transposed product, of the same trace
    cols = action_columns(rep)
    for a in range(0, 14, 5):
        for b in range(a, 14, 4):
            tr = trace(mat_mul(cols[a], cols[b]))
            assert rep.algebra_space.gram[a][b] == third * tr


def test_g2_moment_closed_forms(octs, g2, cov_im):
    rep, _ = g2
    mu = ql.moment_map(rep)
    ok, witness = ql.check_special(rep, mu)
    assert ok and witness is None
    assert cov_im.mu == mu
    assert assembly_witnesses(cov_im)["equivariance"] is None
    mu_act = ql.moment_action(rep, mu)
    assert ql.mu_im_pointwise_witness(octs, mu_act) is None
    assert ql.mu_im_canonical_split_witness(octs, mu_act) is None
    assert ql.g2_cyclic_witness(octs, mu) is None


def test_moment_map_solves_the_systems_of_the_full_pairing(monkeypatch, g2, so7):
    # the right side B_V(rho(x_a) e_i, e_j), read as one entry of the
    # action column on a diagonal V, is the full pair of the two vectors
    family = fam.build_family(ALPHA, -ONE - ALPHA)
    systems = []
    solve = ql.solve_linear

    def recorded(matrix, columns):
        systems.append((matrix, columns))
        return solve(matrix, columns)

    monkeypatch.setattr(ql, "solve_linear", recorded)
    for rep in (g2[0], so7, family):
        systems.clear()
        ql.moment_map(rep)
        space = rep.space
        want = [
            [space.pair(rep.act.table[a][i - 1], space.basis_vector(j - 1)) for a in range(rep.dim)]
            for i, j in all_multi_indices(space.dim, 2)
        ]
        [(matrix, columns)] = systems
        assert matrix is rep.algebra_space.gram
        assert columns == want
    assert g2[0].space.is_diagonal and so7.space.is_diagonal
    assert not family.space.is_diagonal


def test_im_covariants_match_closed_forms(octs, cov_im):
    assert cov_im.special
    assert cov_im.psi == ql.psi_im_expected(octs)
    assert cov_im.quad == ql.quad_im_expected(octs)


def test_im_identity_ladder(cov_im):
    checks = {c.name: c for c in ql.mathews_status(cov_im)}
    assert checks["wedge-mu-psi"].status == "holds"
    assert checks["compose-mu-psi"].status == "holds"
    assert checks["compose-psi-psi"].status == "vacuous"
    assert checks["compose-quad-psi"].status == "vacuous"
    # on imaginaries the composition identity holds because both sides vanish
    assert compose(cov_im.mu, cov_im.psi).is_zero()
    k_g = PairingSpec.scalar_multiply(cov_im.rep.algebra_space)
    assert wedge_rel(cov_im.quad, cov_im.mu, k_g).is_zero()


# -- the spinor representation on the octonions ------------------------------


def test_spinor_structure(octs, so7):
    assert so7.dim == 21 and so7.space.dim == 8
    assert so7.algebra.super_jacobi_check()["EEE"] == {}
    assert assembly_witnesses(ql.covariants(so7)) == CLEAN
    assert so7.algebra.form_invariance_witness() == {}
    # the invariant form is diagonal with B(s_ij, s_ij) = 3 q_i q_j
    gram = so7.algebra_space.gram
    qs = octs.space_im.diag
    t = 0
    for i in range(7):
        for j in range(i + 1, 7):
            assert gram[t][t] == rat(3) * qs[i] * qs[j]
            for s in range(t + 1, 21):
                assert gram[t][s].is_zero()
            t += 1


def test_oct_covariants_match_closed_forms(octs, cov_oct):
    assert cov_oct.special
    assert cov_oct.psi == ql.psi_oct_expected(octs)
    assert cov_oct.quad == ql.quad_oct_expected(octs)


def test_oct_identity_ladder(cov_oct):
    checks = {c.name: c for c in ql.mathews_status(cov_oct)}
    assert checks["wedge-mu-psi"].status == "holds"
    assert checks["compose-mu-psi"].status == "holds"
    assert checks["compose-psi-psi"].status == "vacuous"
    assert checks["compose-quad-psi"].status == "vacuous"


def test_oct_moment_decomposes_through_clifford(octs, cliff, g2, cov_oct):
    rep, kernel = g2
    mu_im = ql.moment_map(rep)
    assert (
        ql.mu_oct_from_mu_im_witness(octs, cliff, kernel, mu_im, cov_oct.mu) is None
    )
    assert ql.spinor_cyclic_witness(octs, cov_oct.mu) is None


def _cyclic_scan(octs, mu):
    """The first of all 343 ordered basis triples, in lexicographic order, at
    which mu(u, v x w) + mu(v, w x u) + mu(w, u x v) is not zero."""
    space, e = octs.space_im, octs.imaginary_unit
    for i, j, k in product(range(1, 8), repeat=3):
        total = [ZERO] * mu.codomain.dim
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            v = cross_product(e(y), e(z)).imaginary_coeffs()
            value = mu.evaluate([space.basis_vector(x - 1), v])
            total = [a + b for a, b in zip(total, value)]
        if any(c.num for c in total):
            return i, j, k
    return None


def test_g2_cyclic_record_agrees_with_the_ordered_scan():
    # the record compares the cyclic sum on the 35 increasing triples only;
    # the sum is alternating, so the first failing ordered triple is its
    # least failing increasing one
    ws = Workspace()
    octs, mu = ws.octs, ws.cov_im.mu
    assert _cyclic_scan(octs, mu) is None
    assert ql.g2_cyclic_witness(octs, mu) is None
    coeffs = dict(mu.coeffs)
    coeffs[(1, 2)] = [mu.value((1, 2))[0] + ONE] + mu.value((1, 2))[1:]
    moved = AltMap(mu.domain, mu.codomain, 2, coeffs)
    i, j, k = _cyclic_scan(octs, moved)
    assert i < j < k
    assert ql.g2_cyclic_witness(octs, moved) == (
        f"the two sides differ at e_{{{i}{j}{k}}}"
    )


# -- the pointwise triple records against their loops ------------------------


def mu_im_pointwise_oracle(octs, mu_act):
    """mu(u, v) w = -(1/4)([w, [u, v]] + 3 (u, v, w)), one loop over the
    basis triples with the generic octonion operations, or the first failing
    one."""
    three, minus_quarter = rat(3), rat(-1, 4)
    e = octs.imaginary_unit
    for i in range(1, 8):
        for j in range(1, 8):
            uv = commutator(e(i), e(j))
            for k in range(1, 8):
                w = e(k)
                expect = (
                    commutator(w, uv) + associator(e(i), e(j), w).scale(three)
                ).scale(minus_quarter)
                if mu_act.vector(i - 1, j - 1, k - 1) != expect.imaginary_coeffs():
                    return f"(u,v,w) = (e{i}, e{j}, e{k})"
    return None


def mu_im_canonical_split_oracle(octs, mu_act):
    """mu(u, v) w = (3/2) mu_can(u, v) w + (1/8) [w, [u, v]], one loop over
    the basis triples with the generic octonion operations, or the first
    failing one."""
    space = octs.space_im
    eighth, three_halves = rat(1, 8), rat(3, 2)
    e = octs.imaginary_unit
    for i in range(1, 8):
        for j in range(1, 8):
            uv = commutator(e(i), e(j))
            for k in range(1, 8):
                w = e(k)
                canonical = ql.mu_can_value(space, i - 1, j - 1, k - 1)
                expect_oct = commutator(w, uv).scale(eighth)
                expect = [
                    three_halves * c + e
                    for c, e in zip(canonical, expect_oct.imaginary_coeffs())
                ]
                if mu_act.vector(i - 1, j - 1, k - 1) != expect:
                    return f"(u,v,w) = (e{i}, e{j}, e{k})"
    return None


def spinor_cyclic_oracle(octs, mu):
    """mu(u, v x w) + cyclic = -(1/2) mu((u,v,w), 1), one loop over the
    imaginary triples with the generic octonion operations and evaluate, or
    the first failing one."""
    space, e = octs.space_oct, octs.imaginary_unit
    unit = space.basis_vector(0)
    minus_half = rat(-1, 2)
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                total = None
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    val = mu.evaluate(
                        [space.basis_vector(x), cross_product(e(y), e(z)).coeffs]
                    )
                    total = val if total is None else [p + q for p, q in zip(total, val)]
                rhs = mu.evaluate([associator(e(i), e(j), e(k)).coeffs, unit])
                expect = [minus_half * c for c in rhs]
                if total != expect:
                    return f"(u,v,w) = (e{i}, e{j}, e{k})"
    return None


def moved_mu_act(mu_act, i, j, k):
    """A copy of a MomentAction with the first coordinate of mu(e_i, e_j) e_k
    moved by one, 0-based.  At i > j the stored (j, i) vector moves by -1, as
    mu(e_i, e_j) is read from it with the sign -1; at i = j a vector is
    stored, which the table holds only when moved.  Every vector is copied,
    so the copied table stays as it was."""
    n = mu_act.n
    vectors = {key: [list(v) for v in vs] for key, vs in mu_act.vectors.items()}
    key, step = ((i, j), ONE) if i <= j else ((j, i), -ONE)
    stored = vectors.setdefault(key, [[ZERO] * n for _ in range(n)])
    stored[k][0] = stored[k][0] + step
    return ql.MomentAction(n, vectors)


def test_g2_moment_records_name_the_oracle_triple():
    ws = Workspace()
    octs, mu_act = ws.octs, ws.cov_im.mu_act
    for record, oracle in (
        (ql.mu_im_pointwise_witness, mu_im_pointwise_oracle),
        (ql.mu_im_canonical_split_witness, mu_im_canonical_split_oracle),
    ):
        assert record(octs, mu_act) is None
        # the records compare one coefficient at t = i xor j xor k and check
        # that the rest vanish: a diagonal entry, which the table stores only
        # when moved, and an off-diagonal one, both moved at e_t = e1; one
        # moved through its (j, i) read, which the (i, j) triple meets first;
        # one moved at e1 where t = 7; and one at k = i xor j, where t = 0
        # and the whole vector must vanish
        for where, witness in (
            ((2, 2, 0), "(u,v,w) = (e3, e3, e1)"),
            ((3, 5, 2), "(u,v,w) = (e4, e6, e3)"),
            ((5, 3, 2), "(u,v,w) = (e4, e6, e3)"),
            ((0, 1, 3), "(u,v,w) = (e1, e2, e4)"),
            ((0, 1, 2), "(u,v,w) = (e1, e2, e3)"),
        ):
            moved_act = moved_mu_act(mu_act, *where)
            assert record(octs, moved_act) == oracle(octs, moved_act) == witness
        # the Workspace table is untouched
        assert record(octs, mu_act) is None


class DenseMomentTable:
    """Every mu(e_i, e_j) e_k stored as its own vector, by evaluate and the
    action's field evaluation, the (j, i) vectors as computed: the table the
    readers of a MomentAction replaced, here the oracle of their signs."""

    def __init__(self, rep, mu):
        space = rep.space
        basis = [space.basis_vector(k) for k in range(space.dim)]
        self.table = [
            [[rep.act.apply(mu.evaluate([u, v]), w) for w in basis] for v in basis]
            for u in basis
        ]

    def vector(self, i, j, k):
        return self.table[i][j][k]


def check_special_oracle(rep, table):
    """mu(u,v) w + mu(u,w) v against (u,v) w + (u,w) v - 2 (v,w) u as whole
    vectors over a DenseMomentTable, in lexicographic order: the first
    failing triple, or None."""
    space = rep.space
    n, gram = space.dim, space.gram
    for i, j in product(range(n), repeat=2):
        for k in range(j, n):
            lhs = [p + q for p, q in zip(table.vector(i, j, k), table.vector(i, k, j))]
            rhs = [ZERO] * n
            rhs[k] = rhs[k] + gram[i][j]
            rhs[j] = rhs[j] + gram[i][k]
            rhs[i] = rhs[i] - rat(2) * gram[j][k]
            if lhs != rhs:
                return f"(u,v,w) = (e{i+1}, e{j+1}, e{k+1}) of {space.name}"
    return None


def moved_map(f, index):
    """f with the first coordinate of its value at index moved by one."""
    value = f.value(index)
    return AltMap(f.domain, f.codomain, f.degree, {**f.coeffs, index: [value[0] + ONE] + value[1:]})


@pytest.mark.parametrize(
    "covariants, index, witness",
    [
        ("cov_im", (3, 6), "(u,v,w) = (e3, e1, e6) of ImO"),
        ("cov_im", (2, 5), "(u,v,w) = (e2, e1, e5) of ImO"),
        ("cov_im", (1, 7), "(u,v,w) = (e1, e1, e7) of ImO"),
        ("cov_oct", (2, 5), "(u,v,w) = (e2, e1, e5) of O"),
        ("cov_family", (2, 4), "(u,v,w) = (e2, e1, e4) of VxW"),
    ],
)
def test_a_moved_moment_map_keeps_the_dense_witnesses(monkeypatch, covariants, index, witness):
    # covariants() rebuilds on a fresh Workspace with one coefficient of mu
    # moved; where the first failing triple reads mu(e_j, e_i), j > i, from
    # the stored (i, j) vector with the sign -1, check_special and the g2
    # pointwise records name the triples of the whole-vector loops over a
    # dense table
    real = ql.moment_map
    monkeypatch.setattr(ql, "moment_map", lambda rep: moved_map(real(rep), index))
    ws = Workspace()
    cov = getattr(ws, covariants)
    dense = DenseMomentTable(cov.rep, cov.mu)
    assert not cov.special
    assert cov.witness == check_special_oracle(cov.rep, dense) == witness
    assert ql.check_special(cov.rep, cov.mu) == (False, witness)
    if covariants == "cov_im":
        for record, oracle in (
            (ql.mu_im_pointwise_witness, mu_im_pointwise_oracle),
            (ql.mu_im_canonical_split_witness, mu_im_canonical_split_oracle),
        ):
            assert record(ws.octs, cov.mu_act) == oracle(ws.octs, dense) is not None
    # nothing moved reached a shared cache: a fresh Workspace on the real
    # moment map holds the special mu and the table of the dense oracle
    monkeypatch.setattr(ql, "moment_map", real)
    clean = getattr(Workspace(), covariants)
    assert clean.special and clean.witness is None
    dense = DenseMomentTable(clean.rep, clean.mu)
    n = clean.rep.space.dim
    assert all(
        clean.mu_act.vector(i, j, k) == dense.vector(i, j, k)
        for i, j, k in product(range(n), repeat=3)
    )


def test_canonical_split_refuses_a_gram_that_is_not_diagonal():
    # mu_can is one term at e_{i xor j xor k} only on a diagonal Gram
    gram = [[ONE if r == c else ZERO for c in range(7)] for r in range(7)]
    gram[0][1] = gram[1][0] = rat(1, 2)
    octs = SimpleNamespace(space_im=QuadraticSpace(tuple(f"e{k}" for k in range(1, 8)), gram))
    with pytest.raises(ShapeMismatch, match="diagonal Gram"):
        ql.mu_im_canonical_split_witness(octs, None)


def test_spin_cyclic_record_names_the_oracle_triple():
    ws = Workspace()
    octs, mu = ws.octs, ws.cov_oct.mu
    coeffs = dict(mu.coeffs)
    coeffs[(4, 6)] = [mu.value((4, 6))[0] + ONE] + mu.value((4, 6))[1:]
    moved_mu = AltMap(mu.domain, mu.codomain, 2, coeffs)
    witness = ql.spinor_cyclic_witness(octs, moved_mu)
    assert witness == spinor_cyclic_oracle(octs, moved_mu) == "(u,v,w) = (e1, e2, e5)"
    # mu(1, e2), stored at (1, 3), is read only by the closed-form side
    value = mu.value((1, 3))
    k = next(t for t, c in enumerate(value) if c.num)
    value[k] = value[k] + ONE
    moved_mu = AltMap(mu.domain, mu.codomain, 2, {**mu.coeffs, (1, 3): value})
    witness = ql.spinor_cyclic_witness(octs, moved_mu)
    assert witness == spinor_cyclic_oracle(octs, moved_mu) == "(u,v,w) = (e1, e4, e7)"
    assert ql.spinor_cyclic_witness(octs, mu) is None


# -- psi and Q against their hand-written sums -------------------------------


def covariant_oracles(rep, mu):
    """psi and Q of mu written out: psi(v1,v2,v3) = mu(v1,v2) v3 +
    mu(v3,v1) v2 + mu(v2,v3) v1 over the moment-action table, and Q the
    alternating sum of (v, psi(...)) over the four cyclic deletions, each
    psi value found by evaluate."""
    space = rep.space
    n = space.dim
    mu_act = ql.moment_action(rep, mu)
    psi = {}
    for index in all_multi_indices(n, 3):
        i, j, k = (t - 1 for t in index)
        psi[index] = [
            a + b + c
            for a, b, c in zip(
                mu_act.vector(i, j, k), mu_act.vector(k, i, j), mu_act.vector(j, k, i)
            )
        ]
    psi = AltMap(space, space, 3, psi)
    basis = [space.basis_vector(k) for k in range(n)]
    quad = {}
    for index in all_multi_indices(n, 4):
        i, j, k, l = (basis[t - 1] for t in index)
        quad[index] = [
            space.pair(i, psi.evaluate([j, k, l]))
            - space.pair(l, psi.evaluate([i, j, k]))
            + space.pair(k, psi.evaluate([l, i, j]))
            - space.pair(j, psi.evaluate([k, l, i]))
        ]
    return psi, AltMap(space, K, 4, quad)


def plane_space():
    return QuadraticSpace(("p", "q"), [[ONE, ZERO], [ZERO, L1]], name="V2")


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_covariants_equal_the_hand_written_sums(weights):
    bound = () if weights is None else tuple(rat(w) for w in weights)
    ws = Workspace(*bound)
    for cov in (ws.cov_im, ws.cov_oct, ws.cov_family):
        assert not cov.psi.is_zero() and not cov.quad.is_zero()
        assert (cov.psi, cov.quad) == covariant_oracles(cov.rep, cov.mu)
    # the family at -1/2 and off the locus at alpha = beta = 1, where both
    # covariants vanish
    for alpha, beta in ((rat(-1, 2), None), (ONE, ONE)):
        cov = Workspace(*bound, alpha=alpha, beta=beta).cov_family
        assert cov.psi.is_zero() and cov.quad.is_zero()
        assert (cov.psi, cov.quad) == covariant_oracles(cov.rep, cov.mu)


@pytest.mark.parametrize("space_fn", [plane_space, small_space, hyperbolic_space])
def test_so_covariants_equal_the_hand_written_sums(space_fn):
    rep, _ = ql.build_so(space_fn())
    cov = ql.covariants(rep)
    assert (cov.psi, cov.quad) == covariant_oracles(rep, cov.mu)


def _fresh_reps():
    """One representation of each kind, built apart from every cache."""
    ws = Workspace(rat(2), rat(3), rat(-5))
    yield ws.g2_rep
    yield ws.so7_rep
    yield fam.build_family(ALPHA, -ONE - ALPHA)
    for space_fn in (plane_space, small_space, hyperbolic_space):
        yield ql.build_so(space_fn())[0]


def test_covariants_of_a_moved_mu_equal_the_hand_written_sums(monkeypatch):
    # psi = mu ^_rho Id and Q = Id ^_B psi hold for every alternating mu,
    # special or not: move one coefficient of mu and rebuild the covariants
    for rep in _fresh_reps():
        mu = ql.moment_map(rep)
        changed = False
        for index in sorted(mu.coeffs)[:2]:
            for k in range(min(3, rep.dim)):
                value = mu.value(index)
                value[k] = value[k] + ONE
                moved_mu = AltMap(mu.domain, mu.codomain, 2, {**mu.coeffs, index: value})
                monkeypatch.setattr(ql, "moment_map", lambda rep, m=moved_mu: m)
                cov = ql.covariants(rep)
                assert cov.mu is moved_mu
                assert (cov.psi, cov.quad) == covariant_oracles(rep, moved_mu)
                changed = changed or cov.psi != covariant_oracles(rep, mu)[0]
        monkeypatch.undo()
        assert changed or rep.space.dim < 3


def test_alternating_pairing_reads_the_map(octs, cov_im):
    for f in (octs.cross, cov_im.mu):
        pairing = PairingSpec.alternating(f)
        assert pairing.left is pairing.right is f.domain
        assert pairing.result is f.codomain
        space = f.domain
        zero = [ZERO] * f.codomain.dim
        for i, j in product(range(space.dim), repeat=2):
            e_i, e_j = space.basis_vector(i), space.basis_vector(j)
            got = pairing.apply(e_i, e_j)
            if i < j:
                assert got == f.value((i + 1, j + 1))
            elif i > j:
                assert got == [-c for c in f.value((j + 1, i + 1))]
            else:
                assert got == zero
        assert any(c.num for c in pairing.apply(space.basis_vector(0), space.basis_vector(1)))


def test_covariants_never_evaluate(monkeypatch):
    reps = list(_fresh_reps())

    def refuse(self, args):
        raise AssertionError("covariants evaluated an alternating map")

    monkeypatch.setattr(AltMap, "evaluate", refuse)
    for rep in reps:
        ql.covariants(rep)


# -- mu o psi against the ordered-block loop ----------------------------------


def compose_block_oracle(f, g):
    """f o g for a degree-2 f by the ordered-block loop: for each multi-index
    T and each increasing q-subset A of it, f(g(e_A), g(e_{T - A})) by
    evaluate, signed by the permutation A + (T - A) of T."""
    q, n = g.degree, g.domain.dim
    coeffs = {}
    for T in all_multi_indices(n, 2 * q):
        acc = [ZERO] * f.codomain.dim
        for A in combinations(T, q):
            B = tuple(t for t in T if t not in A)
            if A not in g.coeffs or B not in g.coeffs:
                continue
            value = f.evaluate([g.coeffs[A], g.coeffs[B]])
            odd = sum(a > b for a in A for b in B) % 2
            acc = [x - v if odd else x + v for x, v in zip(acc, value)]
        coeffs[T] = acc
    return AltMap(g.domain, f.codomain, 2 * q, coeffs)


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_mu_compose_psi_equals_the_block_loop(weights):
    bound = () if weights is None else tuple(rat(w) for w in weights)
    ws = Workspace(*bound)
    for cov in (ws.cov_im, ws.cov_oct, ws.cov_family):
        assert cov.mu_compose_psi == compose_block_oracle(cov.mu, cov.psi)
    # zero on Im O (mathews-im-compose-zero), not on O
    assert ws.cov_im.mu_compose_psi.is_zero()
    assert not ws.cov_oct.mu_compose_psi.is_zero()
    for alpha, beta in ((rat(-1, 2), None), (ONE, ONE)):
        cov = Workspace(*bound, alpha=alpha, beta=beta).cov_family
        assert cov.mu_compose_psi == compose_block_oracle(cov.mu, cov.psi)


def test_compose_of_a_moved_mu_equals_the_block_loop(monkeypatch):
    # one coefficient of mu moved, composed with the psi of the moved mu and
    # with the unmoved psi
    reps = list(_fresh_reps())[:2]
    for rep in reps:
        mu = ql.moment_map(rep)
        psi = ql.covariants(rep).psi
        for index in sorted(mu.coeffs)[:2]:
            value = mu.value(index)
            value[0] = value[0] + ONE
            moved_mu = AltMap(mu.domain, mu.codomain, 2, {**mu.coeffs, index: value})
            monkeypatch.setattr(ql, "moment_map", lambda rep, m=moved_mu: m)
            cov = ql.covariants(rep)
            assert cov.mu_compose_psi == compose_block_oracle(moved_mu, cov.psi)
            moved = compose(moved_mu, psi)
            assert moved == compose_block_oracle(moved_mu, psi)
            assert moved != compose(mu, psi)
        monkeypatch.undo()


def test_mu_compose_psi_never_evaluates(monkeypatch):
    covs = [ql.covariants(rep) for rep in list(_fresh_reps())[:3]]

    def refuse(self, args):
        raise AssertionError("mu o psi evaluated an alternating map")

    monkeypatch.setattr(AltMap, "evaluate", refuse)
    for cov in covs:
        cov.mu_compose_psi


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_double_commutator_equals_two_octonion_commutators(weights):
    # [e_k, [e_i, e_j]] as the g2 pointwise records read it: two entries of
    # the commutator table, at e_{i xor j xor k}
    params = (L1, L2, L3) if weights is None else tuple(rat(w) for w in weights)
    octs = build_algebra(*params)
    comm, e = octs.commutators, octs.imaginary_unit
    for i, j, k in product(range(1, 8), repeat=3):
        want = commutator(e(k), commutator(e(i), e(j)))
        assert octs.from_term(i ^ j ^ k, comm[i][j] * comm[k][i ^ j]) == want


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_spinor_brackets_match_super_bracket(weights):
    ws = Workspace() if weights is None else Workspace(*(rat(w) for w in weights))
    cliff, so7 = ws.cliff, ws.so7_rep
    pairs = cliff.pair_basis()
    position = {m: t for t, m in enumerate(PAIR_MASKS)}
    for a, b in combinations(range(21), 2):
        comm = cliff.super_bracket(pairs[a], pairs[b])
        want = {position[m]: c for m, c in comm.coeffs.items()}
        assert so7.algebra.bracket(a, b) == want


def g2_brackets_by_elimination(cliff, kernel):
    """The g2 bracket table as super_bracket, then coordinates over the
    kernel from a full elimination (test_linalg.SubspaceCoords)."""
    position = {m: t for t, m in enumerate(PAIR_MASKS)}

    def as_coords(x):
        out = [ZERO] * len(PAIR_MASKS)
        for mask, c in x.coeffs.items():
            out[position[mask]] = c
        return out

    coords = SubspaceCoords([as_coords(x) for x in kernel], label="g2 kernel")
    table = {}
    for a, b in combinations(range(len(kernel)), 2):
        vec = coords.express(as_coords(cliff.super_bracket(kernel[a], kernel[b])))
        row = {k: c for k, c in enumerate(vec) if c.num}
        if row:
            table[(a, b)] = row
    return table


@pytest.mark.parametrize("weights", [None, (1, 1, 1), (1, 1, -1), (2, 3, -5)])
def test_g2_brackets_match_super_bracket(weights):
    # symbolic, --compact, --split and one --at binding
    ws = Workspace() if weights is None else Workspace(*(rat(w) for w in weights))
    assert ws.g2_rep.algebra.table == g2_brackets_by_elimination(ws.cliff, ws.g2_kernel)


def test_g2_kernel_off_its_span_raises(monkeypatch, capsys):
    # e_1 e_2 added to the first kernel element: the brackets leave the span
    real = CliffordAlgebra.g2_kernel

    def moved(self):
        kernel = real(self)
        first = dict(kernel[0].coeffs)
        first[PAIR_MASKS[0]] = first.get(PAIR_MASKS[0], ZERO) + ONE
        kernel[0] = CliffordElement(self, first)
        return kernel

    monkeypatch.setattr(CliffordAlgebra, "g2_kernel", moved)
    cliff = CliffordAlgebra(build_algebra(L1, L2, L3))
    message = "^vector outside g2 kernel span$"
    with pytest.raises(SingularMatrix, match=message):
        g2_brackets_by_elimination(cliff, cliff.g2_kernel())
    with pytest.raises(SingularMatrix, match=message):
        ql.build_g2_rep(cliff)
    assert main(["verify", "g2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: vector outside g2 kernel span\n")


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_moment_action_matches_evaluate_then_act(weights):
    ws = Workspace() if weights is None else Workspace(*(rat(w) for w in weights))
    for cov in (ws.cov_im, ws.cov_oct, ws.cov_family):
        rep, space = cov.rep, cov.rep.space
        basis = [space.basis_vector(k) for k in range(space.dim)]
        for i, j, k in product(range(space.dim), repeat=3):
            want = rep.act.apply(cov.mu.evaluate([basis[i], basis[j]]), basis[k])
            assert cov.mu_act.vector(i, j, k) == want
        # a table built apart from the covariants gives the same verdict
        assert ql.check_special(rep, cov.mu) == (cov.special, cov.witness)
    rep, mu_can = ql.build_so(small_space())
    doubled = mu_can.scale(rat(2))
    expect = (False, "(u,v,w) = (e1, e1, e2) of V3")
    assert ql.check_special(rep, doubled) == expect
    assert ql.check_special(rep, doubled, ql.moment_action(rep, doubled)) == expect


# -- the module records against the single-identity oracles -----------------

def module_id(module):
    """The test id of a module: record prefix, covariants stage, export key."""
    return f"{module.prefix}-{module.cov}-{module.key}"


def module_witness_records(module, cov):
    """The jacobi, representation and equivariance witnesses, and every
    failing record, of module_records on cov."""
    records = suites.module_records(module, cov, closed_forms=tuple)
    by_name = {r.name: r for r in records}
    witnesses = {name: by_name[f"{module.prefix}-{name}"].witness for name in CLEAN}
    failing = {r.name: r.witness for r in records if r.status == "fails"}
    return witnesses, failing


def moved(cov, *, action=None, bracket=None, mu=None):
    """A fresh Covariants, apart from every Workspace cache: the entry (r, k)
    of rho(x_a) moved by one for action=(a, k, r), the first stored
    coefficient of [x_i, x_j] doubled for bracket=(i, j), both 0-based, or
    the first coordinate of mu(e_i, e_j) moved by one for the AltMap index
    mu=(i, j), 1-based."""
    rep, mu_map = cov.rep, cov.mu
    cols, table = action_columns(rep), dict(rep.algebra.table)
    if action is not None:
        a, k, r = action
        cols[a][k][r] = cols[a][k][r] + ONE
    if bracket is not None:
        row = table[bracket]
        k = min(row)
        table[bracket] = {**row, k: row[k] * rat(2)}
    if mu is not None:
        coeffs = dict(mu_map.coeffs)
        value = mu_map.value(mu)
        coeffs[mu] = [value[0] + ONE] + value[1:]
        mu_map = AltMap(mu_map.domain, mu_map.codomain, 2, coeffs)
    rep = ql.QuadLieRep(rep.name, rep.algebra_space, table, cols, rep.space)
    return ql.Covariants(
        rep, mu_map, cov.mu_act, cov.psi, cov.quad, cov.special, cov.witness
    )


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_module_records_agree_with_the_oracles(weights):
    ws = Workspace() if weights is None else Workspace(*(rat(w) for w in weights))
    for module in suites.MODULES.values():
        cov = getattr(ws, module.cov)
        witnesses, failing = module_witness_records(module, cov)
        assert witnesses == oracle_witnesses(cov) == CLEAN
        assert failing == {}


# per module: one action entry (a, k, r), one bracket coefficient (i, j) and
# one mu coefficient (i, j), each with the witness of the record it breaks
PERTURBATIONS = {
    "g2": {
        "action": ((4, 2, 3), "rho([d1,d5]) != [rho d1, rho d5]"),
        "bracket": ((0, 1), "J(d1, d2, d3) != 0"),
        "mu": ((5, 7), "equivariance fails at x=d1, (v,w)=(e1,e5)"),
    },
    "spin": {
        "action": ((6, 4, 1), "rho([s12,s13]) != [rho s12, rho s13]"),
        "bracket": ((0, 1), "J(s12, s13, s24) != 0"),
        "mu": ((5, 7), "equivariance fails at x=s12, (v,w)=(e5,e6)"),
    },
    "d21": {
        "action": ((4, 1, 2), "rho([hV,eW]) != [rho hV, rho eW]"),
        "bracket": ((0, 1), "J(hV, eV, fV) != 0"),
        "mu": ((2, 3), "equivariance fails at x=eV, (v,w)=(e2,e3)"),
    },
}
BROKEN_RECORD = {"action": "representation", "bracket": "jacobi", "mu": "equivariance"}
# the invariant-form witness of each module's bracket perturbation
INVARIANT_FORM_CONTROLS = {
    "g2": "B([d1,d2],d9) != B(d1,[d2,d9])",
    "spin": "B([s12,s13],s23) != B(s12,[s13,s23])",
    "d21": "B([hV,eV],fV) != B(hV,[eV,fV])",
}


@pytest.mark.parametrize("module", suites.MODULES.values(), ids=module_id)
def test_perturbed_modules_name_the_oracle_tuple(module):
    prefix, cov = module.prefix, getattr(Workspace(), module.cov)
    for kind, (where, witness) in PERTURBATIONS[prefix].items():
        broken = moved(cov, **{kind: where})
        witnesses, failing = module_witness_records(module, broken)
        assert witnesses == oracle_witnesses(broken)
        assert witnesses[BROKEN_RECORD[kind]] == witness
        for record, got in witnesses.items():
            assert failing.get(f"{prefix}-{record}") == got
        if kind == "bracket":
            assert witnesses["invariant-form"] == INVARIANT_FORM_CONTROLS[prefix]
            # the assembly's EEE form failure lies inside g
            form = sup.build_tilde(broken, "tilde", force=True).form_invariance_witness()
            assert max(form["EEE"]) < broken.rep.dim
        else:
            assert witnesses["invariant-form"] is None
    # the untouched module still holds
    assert module_witness_records(module, cov)[0] == CLEAN


def test_skew_action_record_names_the_moved_entry():
    # rho(d5) e3 gains e4; the imaginary Gram is diagonal, so only
    # B(rho(d5) e3, e4) + B(e3, rho(d5) e4) moves
    broken = moved(Workspace().cov_im, action=(4, 2, 3))
    _, failing = module_witness_records(suites.MODULES["g3"], broken)
    assert set(failing) == {
        "g2-representation",
        "g2-skew-action",
        "g2-equivariance",
        "g3-superalgebra",
    }
    assert failing["g2-skew-action"] == "B(rho(d5) e3, e4) is not skew"
    assert failing["g2-skew-action"] == skew_oracle(broken.rep)
    assert failing["g2-equivariance"] == "equivariance fails at x=d5, (v,w)=(e1,e3)"


# one action entry (a, k, r) per module and the skewness witness it makes;
# the family's Gram pairs e1 with e4, so rho(eV) e1 gaining e4 breaks (e1, e1)
SKEW_CONTROLS = {
    "spin": ((2, 1, 0), "B(rho(s14) e1, e2) is not skew"),
    "d21": ((1, 0, 3), "B(rho(eV) e1, e1) is not skew"),
}


@pytest.mark.parametrize("module", list(suites.MODULES.values())[1:], ids=module_id)
def test_skew_action_controls_name_the_oracle_entry(module):
    prefix = module.prefix
    where, witness = SKEW_CONTROLS[prefix]
    broken = moved(getattr(Workspace(), module.cov), action=where)
    witnesses, failing = module_witness_records(module, broken)
    assert failing[f"{prefix}-skew-action"] == witness == skew_oracle(broken.rep)
    assert witnesses == oracle_witnesses(broken)
    assert set(failing) == {
        f"{prefix}-{name}" for name in ("representation", "skew-action", "equivariance")
    } | {f"{module.key}-superalgebra"}


def hyperbolic_moved(step):
    """so(T4) with rho(M34) e2 moved by step e4, on fresh objects; the
    covariants are those of the unmoved module."""
    rep, _ = ql.build_so(hyperbolic_space())
    cov = ql.covariants(rep)
    cols = action_columns(rep)
    cols[5][1][3] = cols[5][1][3] + rat(step)
    moved_rep = ql.QuadLieRep(rep.name, rep.algebra_space, rep.algebra.table, cols, rep.space)
    return ql.Covariants(
        moved_rep, cov.mu, cov.mu_act, cov.psi, cov.quad, cov.special, cov.witness
    )


def test_zero_odd_odd_scale_is_refused():
    # invariance of the form then solves the odd bracket's scale to 0, which
    # would leave no odd-odd row and the EOO and OOO sectors empty; the
    # forced assembly keeps the unscaled rows, so the module records still
    # name the oracle's tuples, and the superalgebra record names the zero
    # scale first and carries no constant
    cov = hyperbolic_moved(1)
    with pytest.raises(ShapeMismatch, match="could not normalize the odd bracket"):
        sup.build_tilde(cov, "so(T4)")
    assert sup.build_tilde(cov, "so(T4)", force=True).odd_odd_scale == ZERO
    out = sup.module_witnesses(cov, "so(T4)", (9, 8))
    assert {name: out[name] for name in CLEAN} == oracle_witnesses(cov)
    assert out["superalgebra"] == (
        "invariance of the form leaves no nonzero scale for the odd bracket; "
        "EEO: J(M12, M34, t2*a1) != 0; EOO: J(M34, t1*a1, t2*a1) != 0; "
        "OOO: J(t2*a1, t3*a1, t4*a2) != 0; "
        "B([M34,t2*a1],t1*a2) != B(M34,[t2*a1,t1*a2])",
        None,
    )


def test_nonzero_odd_odd_scale_keeps_the_oracle_tuples():
    cov = hyperbolic_moved(-1)
    assert sup.build_tilde(cov, "so(T4)").odd_odd_scale == rat(2)
    out = sup.module_witnesses(cov, "so(T4)", (9, 8))
    assert {name: out[name] for name in CLEAN} == oracle_witnesses(cov) == {
        "jacobi": None,
        "invariant-form": None,
        "representation": "rho([M12,M34]) != [rho M12, rho M34]",
        "skew-action": "B(rho(M34) e1, e2) is not skew",
        "equivariance": "equivariance fails at x=M34, (v,w)=(e1,e2)",
    }
    witness, constant = out["superalgebra"]
    assert constant == "2"
    assert witness.startswith("EEO: J(M12, M34, t2*a1) != 0; EOO: ")


# -- decompositions and volumes ----------------------------------------------


def test_phi_dual_decomposition(octs):
    terms = ql.decompose_phi_dual(octs)
    assert len(terms) == 7
    by_index = {t.index: t.coefficient for t in terms}
    assert by_index[(1, 2, 3)] == parse("1/(l1*l2)")
    assert by_index[(1, 6, 7)] == parse("-1/(l1*l2*l3)")
    assert by_index[(3, 5, 6)] == parse("-1/(l1*l2*l3)")


def test_quad_im_decomposition(octs, cov_im):
    terms = ql.decompose_quad_im(octs, cov_im.quad)
    assert len(terms) == 7
    by_index = {t.index: t.coefficient for t in terms}
    assert by_index[(1, 2, 4, 7)] == parse("6/(l1*l2*l3)")
    assert by_index[(1, 3, 5, 7)] == parse("-6/(l1^2*l2*l3)")
    assert by_index[(2, 3, 6, 7)] == parse("-6/(l1*l2^2*l3)")
    assert by_index[(4, 5, 6, 7)] == parse("-6/(l1*l2*l3^2)")
    assert all("complement of line" in t.annotation for t in terms)


def test_quad_oct_decomposition(octs, cov_oct):
    terms = ql.decompose_quad_oct(cov_oct.quad)
    assert len(terms) == 14
    by_index = {t.index: t.coefficient for t in terms}
    assert by_index[(1, 2, 3, 4)] == parse("4/(l1*l2)")
    assert by_index[(1, 2, 7, 8)] == parse("-4/(l1*l2*l3)")
    assert by_index[(2, 4, 6, 8)] == parse("-4/(l1^2*l2*l3)")
    assert by_index[(3, 4, 7, 8)] == parse("-4/(l1*l2^2*l3)")
    assert by_index[(5, 6, 7, 8)] == parse("-4/(l1*l2*l3^2)")
    assert all(ql.is_affine_plane(t.index) for t in terms)


def test_decompositions_refuse_unexpected_supports(octs, cov_im, cov_oct):
    def edited(f, add=None, drop=None):
        coeffs = {i: v for i, v in f.coeffs.items() if i != drop}
        if add is not None:
            coeffs[add] = [ONE]
        return AltMap(f.domain, f.codomain, f.degree, coeffs)

    phi = SimpleNamespace(
        unit_product=octs.unit_product, phi=edited(octs.phi, add=(1, 2, 4))
    )
    cases = [
        (lambda: ql.decompose_phi_dual(phi), "support (1, 2, 4) is not a line"),
        (
            lambda: ql.decompose_quad_im(octs, edited(cov_im.quad, add=(1, 2, 3, 4))),
            "complement of (1, 2, 3, 4) is not a line",
        ),
        (
            lambda: ql.decompose_quad_oct(edited(cov_oct.quad, add=(1, 2, 3, 5))),
            "support (1, 2, 3, 5) is not an affine plane",
        ),
        (
            lambda: ql.decompose_quad_oct(edited(cov_oct.quad, drop=(1, 2, 3, 4))),
            "expected 14 terms, found 13",
        ),
    ]
    for decompose, message in cases:
        with pytest.raises(WrongDimension) as caught:
            decompose()
        assert str(caught.value) == message


def test_affine_plane_predicate():
    assert ql.is_affine_plane((1, 2, 3, 4))
    assert ql.is_affine_plane((5, 6, 7, 8))
    assert ql.is_affine_plane((1, 4, 6, 7))
    assert not ql.is_affine_plane((1, 2, 3, 5))
    assert not ql.is_affine_plane((1, 2, 3))
    assert not ql.is_affine_plane((1, 1, 2, 2))


def test_top_volume_constants(octs, cov_im, cov_oct):
    top = wedge_rel(octs.phi, cov_im.quad)
    assert list(top.coeffs) == [(1, 2, 3, 4, 5, 6, 7)]
    assert top.coeffs[(1, 2, 3, 4, 5, 6, 7)] == [parse("-42*l1^2*l2^2*l3^2")]

    top8 = wedge_rel(cov_oct.quad, cov_oct.quad)
    assert list(top8.coeffs) == [(1, 2, 3, 4, 5, 6, 7, 8)]
    assert top8.coeffs[(1, 2, 3, 4, 5, 6, 7, 8)] == [parse("-224*l1^2*l2^2*l3^2")]
