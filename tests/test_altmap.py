"""Shuffle wedge, shuffle composition, b_alt, Hodge duals vs brute force.

b_alt and hodge_verify_oracle are test-only: the library's Hodge
re-verification reads one scalar wedge per multi-index instead.
wedge_rel_frac_oracle is the shuffle wedge summed in the field, the oracle of
the integer-term kernel on every wedge that ``verify all`` makes.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialortho import altmap, quadlie, suites
from specialortho.altmap import (
    AltMap,
    PairingSpec,
    _hodge_right_sides,
    _shuffle_sign,
    _verify_hodge,
    brute_compose,
    brute_wedge_rel,
    compose,
    first_difference,
    hodge_dual,
    volume_constant,
    wedge_rel,
)
from specialortho.errors import ArityMismatch, ShapeMismatch, SingularPairing
from specialortho.exterior import (
    K,
    QuadraticSpace,
    all_multi_indices,
    render_multi_index,
)
from specialortho.scalars import ALPHA, L1, L2, ONE, ZERO, clear_denominators, dot, rat
from specialortho.suites import Workspace, run_suite


def b_alt(f, g):
    """Form on alternating maps: sum_I <f(e_I), g(e_I)> / q(e_I)."""
    if f.domain is not g.domain or f.degree != g.degree:
        raise ShapeMismatch("b_alt needs equal domains and degrees")
    if f.codomain is not g.codomain:
        raise ShapeMismatch("b_alt needs a common codomain")
    if not f.domain.is_diagonal:
        raise ShapeMismatch("b_alt requires a diagonal domain gram")
    total = ZERO
    small, large = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    for index, vec in small.coeffs.items():
        other = large.coeffs.get(index)
        if other is None:
            continue
        inner = f.codomain.pair(vec, other)
        if inner.num:
            total = total + inner / f.domain.q_product(index)
    return total


def hodge_verify_oracle(f, star, vol):
    """alpha ^_B star = b_alt(alpha, f) * vol replayed at every basis alpha =
    e_I x u_b, one form-paired wedge and one b_alt each: None when every
    alpha holds, else the SingularPairing text naming the first failure."""
    space, codomain = f.domain, f.codomain
    n, p = space.dim, f.degree
    full = tuple(range(1, n + 1))
    pairing = PairingSpec.form(codomain)
    for I in all_multi_indices(n, p):
        for b in range(codomain.dim):
            alpha = AltMap(space, codomain, p, {I: codomain.basis_vector(b)})
            left = wedge_rel(alpha, star, pairing).coeffs.get(full, [ZERO])[0]
            if left != b_alt(alpha, f) * vol:
                return (
                    "hodge dual failed re-verification at "
                    f"alpha = {render_multi_index(I)} x basis {b}"
                )
    return None


def diag_space(*qs, name="V"):
    n = len(qs)
    gram = [[qs[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return QuadraticSpace([f"e{i+1}" for i in range(n)], gram, name=name)


def random_map(space, codomain, degree, rng, density=0.7, values=None):
    coeffs = {}
    for index in all_multi_indices(space.dim, degree):
        vec = [
            (rng.choice(values) if values else rat(rng.randint(-3, 3)))
            if rng.random() < density
            else ZERO
            for _ in range(codomain.dim)
        ]
        coeffs[index] = vec
    return AltMap(space, codomain, degree, coeffs)


def test_evaluate_basis_and_general_paths_agree():
    V = diag_space(ONE, L1, L2)
    f = AltMap(V, K, 2, {(1, 2): [rat(3)], (1, 3): [L1], (2, 3): [rat(-1)]})
    e1, e2, e3 = (V.basis_vector(i) for i in range(3))
    assert f.evaluate([e1, e2]) == [rat(3)]
    assert f.evaluate([e2, e1]) == [rat(-3)]
    assert f.evaluate([e1, e1]) == [ZERO]
    # a non-basis argument expands into several terms
    u = [ONE, rat(2), ZERO]
    assert f.evaluate([u, e3]) == [L1 - rat(2)]
    with pytest.raises(ArityMismatch):
        f.evaluate([e1])


def test_alternation_general_path():
    V = diag_space(ONE, ONE, ONE, ONE)
    rng = random.Random(7)
    f = random_map(V, K, 3, rng)
    u = [rat(rng.randint(-2, 2)) for _ in range(4)]
    v = [rat(rng.randint(-2, 2)) for _ in range(4)]
    assert f.evaluate([u, v, u]) == [ZERO]
    assert f.evaluate([u, v, v]) == [ZERO]


_coords = st.sampled_from([ZERO, ZERO, ONE, rat(-1), rat(2), rat(-3), L1, ONE / L2])


@st.composite
def maps_with_arguments(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    p = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=2))
    V = diag_space(*(ONE for _ in range(n)))
    U = diag_space(*(ONE for _ in range(width)), name="U")
    coeffs = {
        I: [draw(_coords) for _ in range(width)] for I in all_multi_indices(n, p)
    }
    args = [[draw(_coords) for _ in range(n)] for _ in range(p)]
    return AltMap(V, U, p, coeffs), args


def cofactor_det(m):
    """The expansion along the first row: it divides by nothing, so its
    minors need not be denominators of the field's set."""
    if not m:
        return ONE
    total = ZERO
    for j, a in enumerate(m[0]):
        term = a * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


@given(maps_with_arguments())
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_determinant_expansion(case):
    # the reference: f(v_1, ..., v_p) = sum_I det(minor_I) f(e_I), where the
    # minor takes the rows I of the matrix whose columns are the arguments
    f, args = case
    p = f.degree
    want = [ZERO] * f.codomain.dim
    for I, vec in f.coeffs.items():
        d = cofactor_det([[args[c][I[r] - 1] for c in range(p)] for r in range(p)])
        want = [w + d * x for w, x in zip(want, vec)]
    assert f.evaluate(args) == want


def test_wedge_matches_brute_force_small():
    rng = random.Random(11)
    V = diag_space(*(ONE for _ in range(5)))
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        f = random_map(V, K, p, rng)
        g = random_map(V, K, q, rng)
        assert wedge_rel(f, g) == brute_wedge_rel(f, g)


def test_wedge_vector_valued_matches_brute_force():
    rng = random.Random(13)
    V = diag_space(ONE, L1, L2, ONE)
    pairing = PairingSpec.form(V)
    f = random_map(V, V, 1, rng)
    g = random_map(V, V, 2, rng)
    assert wedge_rel(f, g, pairing) == brute_wedge_rel(f, g, pairing)


def _fold_apply(pairing, x, y):
    """pairing(x, y) by pairwise + over the dense table: an oracle for apply."""
    out = [ZERO] * pairing.result.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, t in enumerate(pairing.table[i][j]):
                out[k] = out[k] + xi * yj * t
    return out


def test_apply_and_wedge_match_pairwise_folds():
    # monomial, constant and (a + 1)-denominator values, as dot meets them
    values = [rat(2), rat(-1, 3), L1, L2 / 2, -L1 * L2, ONE / (ALPHA + 1)]
    V = diag_space(ONE, L1, L2, ONE)
    pairing = PairingSpec.form(V)
    for seed in (11, 13, 17):
        rng = random.Random(seed)
        f = random_map(V, V, 1, rng, values=values)
        g = random_map(V, V, 2, rng, density=0.5, values=values)
        for x in f.coeffs.values():
            for y in f.coeffs.values():
                assert pairing.apply(x, y) == _fold_apply(pairing, x, y)
        assert wedge_rel(f, g, pairing) == brute_wedge_rel(f, g, pairing)
        # one stored value, as in the Hodge re-verification
        single = AltMap(V, V, 1, {(2,): V.basis_vector(3)})
        assert wedge_rel(single, g, pairing) == brute_wedge_rel(single, g, pairing)


def wedge_rel_frac_oracle(f, g, pairing=None):
    """wedge_rel summed in the field: each product term +-f_i(e_I) g_j(e_J)
    is a Frac, collected with its table entry per output coordinate, and
    each coordinate is one ``dot``."""
    pairing = pairing or PairingSpec.scalar_multiply(g.codomain)
    p, q, n = f.degree, g.degree, f.domain.dim
    result = AltMap(f.domain, pairing.result, p + q)
    if p + q > n:
        return result
    by_index = {}
    for I, fI in f.coeffs.items():
        free = [i for i in range(1, n + 1) if i not in I]
        for J in combinations(free, q):
            gJ = g.coeffs.get(J)
            if gJ is None:
                continue
            T = tuple(sorted(I + J))
            odd = _shuffle_sign([T.index(i) for i in I], p) < 0
            terms = by_index.setdefault(T, {})
            for i, x in enumerate(fI):
                for j, y in enumerate(gJ):
                    if not (x.num and y.num):
                        continue
                    c = -(x * y) if odd else x * y
                    for k, t in enumerate(pairing.table[i][j]):
                        if t.num:
                            terms.setdefault(k, []).append((c, t))
    for T in sorted(by_index):
        acc = [ZERO] * pairing.result.dim
        for k, pairs in by_index[T].items():
            acc[k] = dot(pairs)
        if any(c.num for c in acc):
            result.coeffs[T] = acc
    return result


@pytest.mark.parametrize(
    "weights, alpha, beta",
    [
        (None, None, None),
        ((rat(2), rat(3), rat(-5)), rat(2), None),
        (None, rat(-1, 2), None),
        (None, ONE, ONE),
    ],
)
def test_verify_all_wedges_match_the_frac_oracle(monkeypatch, weights, alpha, beta):
    # psi, Q, mu ^ psi, mu o psi (through compose), the cyclic sums and the
    # Mathews and Hodge wedges go through wedge_rel; each Hodge star is
    # re-verified by one-term wedges e_I ^ star on the same kernel
    real_wedge, real_dual = altmap.wedge_rel, altmap.hodge_dual
    seen = {"wedges": 0, "stars": 0}

    def checked_wedge(f, g, pairing=None):
        got = real_wedge(f, g, pairing)
        assert got == wedge_rel_frac_oracle(f, g, pairing)
        seen["wedges"] += 1
        return got

    def checked_dual(f, volume):
        star = real_dual(f, volume)
        pairing = PairingSpec.scalar_multiply(f.codomain)
        for I in all_multi_indices(f.domain.dim, f.degree):
            e_I = AltMap(f.domain, K, f.degree, {I: [ONE]})
            got = real_wedge(e_I, star, pairing)
            assert got == wedge_rel_frac_oracle(e_I, star, pairing)
        seen["stars"] += 1
        return star

    for module in (altmap, quadlie, suites):
        monkeypatch.setattr(module, "wedge_rel", checked_wedge)
    monkeypatch.setattr(suites, "hodge_dual", checked_dual)
    l1, l2, l3 = weights or (None, None, None)
    run_suite("all", Workspace(l1, l2, l3, alpha, beta))
    assert seen == {"wedges": 22, "stars": 7}


def test_cleared_values_outlive_no_change_of_coeffs(monkeypatch):
    # AltMap.cleared is made once per map and kept: at the end of a symbolic
    # verify all, every map whose cleared values were read still clears to them
    real = AltMap.__dict__["cleared"].func
    read = []

    def recorded(self):
        read.append(self)
        return real(self)

    cleared = cached_property(recorded)
    cleared.__set_name__(AltMap, "cleared")
    monkeypatch.setattr(AltMap, "cleared", cleared)
    report = run_suite("all", Workspace())
    assert len(read) == len({id(f) for f in read}) == 25
    for f in read:
        rows = {I: {k: c for k, c in enumerate(v) if c.num} for I, v in f.coeffs.items()}
        assert f.__dict__["cleared"] == clear_denominators(rows)
    assert report.ok


def test_wedge_over_two_term_denominators_matches_the_frac_oracle():
    # no command builds such a map: the product of its common denominators
    # carries a power of a + 1, which scalars.uncleared cancels where it can
    V = diag_space(ONE, L1, L2, ONE)
    rng = random.Random(23)
    values = [ONE / (ALPHA + 1), L2 / (L1 * (ALPHA + 1) ** 2), rat(-1, 3) * L1, rat(5)]
    f = random_map(V, V, 1, rng, values=values)
    g = random_map(V, V, 2, rng, density=0.6, values=values)
    pairing = PairingSpec.form(V)
    got = wedge_rel(f, g, pairing)
    assert any(c.den[2] > 0 for v in got.coeffs.values() for c in v)
    assert got == wedge_rel_frac_oracle(f, g, pairing) == brute_wedge_rel(f, g, pairing)
    for gg in (g, f):
        mu = random_map(V, V, 2, rng, density=0.5, values=values)
        alt = PairingSpec.alternating(mu)
        assert wedge_rel(gg, gg, alt) == wedge_rel_frac_oracle(gg, gg, alt)


def test_wedge_supercommutativity_scalar():
    rng = random.Random(17)
    V = diag_space(*(ONE for _ in range(6)))
    for p, q in [(1, 2), (2, 2), (2, 3), (1, 1)]:
        f = random_map(V, K, p, rng)
        g = random_map(V, K, q, rng)
        left = wedge_rel(f, g)
        right = wedge_rel(g, f)
        if (p * q) % 2:
            right = right.scale(rat(-1))
        assert left == right


def test_wedge_degree_overflow_is_zero():
    V = diag_space(ONE, ONE, ONE)
    f = AltMap(V, K, 2, {(1, 2): [ONE]})
    g = AltMap(V, K, 2, {(2, 3): [ONE]})
    assert wedge_rel(f, g).is_zero()
    assert wedge_rel(f, g).degree == 4


def test_compose_matches_brute_force():
    rng = random.Random(19)
    V4 = diag_space(ONE, ONE, L1, ONE)
    f = random_map(V4, K, 2, rng)
    g = random_map(V4, V4, 2, rng)
    assert compose(f, g) == brute_compose(f, g)
    f1 = random_map(V4, K, 2, rng)
    g1 = random_map(V4, V4, 1, rng)
    assert compose(f1, g1) == brute_compose(f1, g1)


def test_compose_matches_brute_force_2_3():
    rng = random.Random(23)
    V6 = diag_space(*(ONE for _ in range(6)))
    f = random_map(V6, K, 2, rng, density=0.5)
    g = random_map(V6, V6, 3, rng, density=0.4)
    assert compose(f, g) == brute_compose(f, g)


def test_compose_shape_guard():
    V = diag_space(ONE, ONE)
    W = diag_space(ONE, ONE, ONE)
    f = AltMap(V, K, 1, {(1,): [ONE]})
    g = AltMap(W, W, 1, {(1,): W.basis_vector(0)})
    with pytest.raises(ShapeMismatch):
        compose(f, g)


def test_wedge_shape_guard():
    V = diag_space(ONE, ONE, L1)
    W = diag_space(ONE, ONE)
    f = AltMap(V, K, 1, {(1,): [ONE], (3,): [L2]})
    g = AltMap(V, V, 1, {(2,): V.basis_vector(2), (3,): V.basis_vector(0)})
    with pytest.raises(ShapeMismatch):
        wedge_rel(f, AltMap(W, K, 1, {(1,): [ONE]}))
    # a vector-valued f has no default pairing
    with pytest.raises(ShapeMismatch):
        wedge_rel(g, g)
    # a scalar-valued f scales the values of g
    want = wedge_rel(f, g, PairingSpec.scalar_multiply(g.codomain))
    assert not want.is_zero()
    assert wedge_rel(f, g) == want


def test_first_difference_names_the_least_differing_index():
    V = diag_space(ONE, L1, ONE, L2)
    f = random_map(V, V, 2, random.Random(5), density=1.0, values=[rat(2), -L1])
    assert first_difference(f, AltMap(V, V, 2, dict(f.coeffs))) is None
    # two differences: one coordinate moved at (3, 4), a value dropped at (1, 3)
    coeffs = dict(f.coeffs)
    coeffs[(3, 4)] = [coeffs[(3, 4)][0] + ONE] + coeffs[(3, 4)][1:]
    coeffs[(1, 3)] = [ZERO] * 4
    g = AltMap(V, V, 2, coeffs)
    assert first_difference(f, g) == "the two sides differ at e_{13}"
    assert first_difference(g, f) == "the two sides differ at e_{13}"
    assert first_difference(f, f.scale(ZERO)) == "the two sides differ at e_{12}"
    W = diag_space(ONE, L1, ONE, L2)
    for other in (
        AltMap(W, V, 2, dict(f.coeffs)),
        AltMap(V, W, 2, dict(f.coeffs)),
        AltMap(V, V, 3),
    ):
        with pytest.raises(ShapeMismatch):
            first_difference(f, other)


def test_b_alt_scalar_and_weighted():
    V = diag_space(L1, L2, ONE)
    f = AltMap(V, K, 2, {(1, 2): [rat(2)], (1, 3): [ONE]})
    g = AltMap(V, K, 2, {(1, 2): [rat(3)], (2, 3): [ONE]})
    assert b_alt(f, g) == rat(6) / (L1 * L2)
    assert b_alt(f, f) == rat(4) / (L1 * L2) + ONE / L1


def test_b_alt_requires_diagonal_domain():
    gram = [[ZERO, ONE], [ONE, ZERO]]
    H = QuadraticSpace(("u", "v"), gram, name="H")
    f = AltMap(H, K, 1, {(1,): [ONE]})
    with pytest.raises(ShapeMismatch):
        b_alt(f, f)


@given(
    st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3),
    st.permutations([0, 1, 2]),
)
@settings(max_examples=40, deadline=None)
def test_b_alt_invariant_under_diagonal_isometry(signs, perm):
    # a signed permutation of the basis is an isometry of a diagonal form
    # whose permuted entries are equal; pulling a form back along it keeps b_alt
    V = diag_space(L1, L1, L1, name="iso")
    f = AltMap(V, K, 2, {(1, 2): [ONE], (1, 3): [rat(2)], (2, 3): [L2]})
    h = AltMap(V, K, 2, {(1, 2): [rat(3)], (1, 3): [L2], (2, 3): [rat(-1)]})
    images = [
        [rat(signs[i]) if r == perm[i] else ZERO for r in range(3)] for i in range(3)
    ]

    def pull_back(g):
        values = {
            I: g.evaluate([images[i - 1] for i in I]) for I in all_multi_indices(3, 2)
        }
        return AltMap(V, K, 2, values)

    assert b_alt(pull_back(f), pull_back(h)) == b_alt(f, h)


def test_hodge_dual_classical_three_space():
    V = diag_space(ONE, ONE, ONE)
    volume = AltMap(V, K, 3, {(1, 2, 3): [ONE]})
    f = AltMap(V, K, 1, {(1,): [ONE]})
    star = hodge_dual(f, volume)
    assert star.coeffs == {(2, 3): [ONE]}
    g = AltMap(V, K, 1, {(2,): [ONE]})
    assert hodge_dual(g, volume).coeffs == {(1, 3): [rat(-1)]}


def test_hodge_dual_weighted_metric():
    V = diag_space(L1, L2, ONE)
    vol = L1 * L2
    volume = AltMap(V, K, 3, {(1, 2, 3): [vol]})
    f = AltMap(V, K, 1, {(1,): [ONE]})
    star = hodge_dual(f, volume)
    # alpha = e1 gives: star(2,3) = vol / q1
    assert star.coeffs == {(2, 3): [L2]}


def test_hodge_dual_vector_valued_self_consistent():
    V = diag_space(ONE, L1, L2, ONE)
    volume = AltMap(V, K, 4, {(1, 2, 3, 4): [L1 * L2]})
    rng = random.Random(29)
    f = random_map(V, V, 2, rng)
    # hodge_dual re-verifies the defining identity internally
    star = hodge_dual(f, volume)
    assert star.degree == 2
    # double dual must reproduce f up to the known sign/volume factor: check
    # by re-solving the identity the other way around on a sample alpha
    pairing = PairingSpec.form(V)
    alpha = AltMap(V, V, 2, {(1, 3): V.basis_vector(1)})
    lhs = wedge_rel(alpha, star, pairing).coeffs.get((1, 2, 3, 4), [ZERO])[0]
    assert lhs == b_alt(alpha, f) * L1 * L2


def corrupted_stars(star, rng):
    """Copies of star with one coordinate moved by one or one nonzero
    coordinate negated, at the first, a middle and the last stored value,
    with the middle value dropped, and with six seeded coordinates moved by
    a constant or by L1."""

    def moved(J, t, c):
        value = star.value(J)
        value[t] = c
        return AltMap(star.domain, star.codomain, star.degree, {**star.coeffs, J: value})

    indices = all_multi_indices(star.domain.dim, star.degree)
    for _ in range(6):
        J, t = rng.choice(indices), rng.randrange(star.codomain.dim)
        yield moved(J, t, star.value(J)[t] + rng.choice([rat(-2), ONE, L1]))
    stored = sorted(star.coeffs)
    middle = stored[len(stored) // 2]
    for J in (stored[0], middle, stored[-1]):
        value = star.coeffs[J]
        k = next(t for t, c in enumerate(value) if c.num)
        yield moved(J, k, value[k] + ONE)
        yield moved(J, k, -value[k])
        yield moved(J, -1, value[-1] + ONE)
    kept = {J: v for J, v in star.coeffs.items() if J != middle}
    yield AltMap(star.domain, star.codomain, star.degree, kept)


@pytest.mark.parametrize("weights", [None, (2, 3, -5)])
def test_hodge_reverification_names_the_oracle_alpha(weights):
    # the duals of mu on Im O (values in g2, whose Gram is not diagonal) and
    # on O (values in so7); every corrupted star fails at the oracle's alpha
    ws = Workspace() if weights is None else Workspace(*(rat(w) for w in weights))
    cov_im, cov_oct = ws.cov_im, ws.cov_oct
    assert not cov_im.mu.codomain.is_diagonal
    for f, volume in (
        (cov_im.mu, wedge_rel(ws.octs.phi, cov_im.quad)),
        (cov_oct.mu, wedge_rel(cov_oct.quad, cov_oct.quad)),
    ):
        vol = volume_constant(volume)
        star = hodge_dual(f, volume)
        assert hodge_verify_oracle(f, star, vol) is None
        witnesses = set()
        for bad in corrupted_stars(star, random.Random(31)):
            witness = hodge_verify_oracle(f, bad, vol)
            assert witness is not None
            with pytest.raises(SingularPairing) as caught:
                _verify_hodge(bad, _hodge_right_sides(f, vol))
            assert str(caught.value) == witness
            witnesses.add(witness)
        assert len(witnesses) > 3


def test_volume_constant_guard():
    V = diag_space(ONE, ONE)
    volume = AltMap(V, K, 2, {(1, 2): [rat(5)]})
    assert volume_constant(volume) == rat(5)
    with pytest.raises(ShapeMismatch):
        volume_constant(AltMap(V, K, 1, {(1,): [ONE]}))


def test_identity_altmap():
    V = diag_space(ONE, ONE)
    ident = AltMap.identity(V)
    assert ident.value((1,)) == [ONE, ZERO]
    assert ident.value((2,)) == [ZERO, ONE]
