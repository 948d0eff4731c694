"""Cayley-Dickson structure, norm multiplicativity, cross products, phi."""

from __future__ import annotations

import random

import pytest

from specialortho.errors import DegenerateParameter, NotImaginary
from specialortho.exterior import K
from specialortho.octonions import (
    associative_form,
    associator,
    bilinear_B,
    build_algebra,
    commutator,
    cross_product,
    fano_lines,
)
from specialortho.scalars import ALPHA, L1, L2, L3, ONE, ZERO, rat


def _cd_conj(a: list) -> list:
    if len(a) == 1:
        return [a[0]]
    half = len(a) // 2
    left = _cd_conj(a[:half])
    return left + [-x for x in a[half:]]


def _cd_mul(a: list, b: list, gammas) -> list:
    """Dense Cayley-Dickson doubling on coordinate vectors, apart from the
    unit recursion that builds the algebra's table."""
    if len(a) == 1:
        return [a[0] * b[0]]
    half = len(a) // 2
    gamma = gammas[half.bit_length() - 1]
    a1, a2 = a[:half], a[half:]
    b1, b2 = b[:half], b[half:]
    # (a1, a2)(b1, b2) = (a1 b1 + gamma conj(b2) a2, b2 a1 + a2 conj(b1))
    first = [
        x + gamma * y
        for x, y in zip(_cd_mul(a1, b1, gammas), _cd_mul(_cd_conj(b2), a2, gammas))
    ]
    second = [
        x + y for x, y in zip(_cd_mul(b2, a1, gammas), _cd_mul(a2, _cd_conj(b1), gammas))
    ]
    return first + second


def norm_q(x):
    """The multiplicative norm q(x) = x conj(x)."""
    return (x * x.conjugate()).coeffs[0]


FANO = {
    frozenset({1, 2, 3}),
    frozenset({1, 4, 5}),
    frozenset({2, 4, 6}),
    frozenset({3, 4, 7}),
    frozenset({3, 5, 6}),
    frozenset({1, 6, 7}),
    frozenset({2, 5, 7}),
}


@pytest.fixture(scope="module")
def A():
    return build_algebra(L1, L2, L3)


def random_octonion(A, rng, imaginary=False):
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(8)]
    if imaginary:
        coeffs[0] = ZERO
    return A.from_coeffs(coeffs)


SYMBOLIC_COEFFS = (ZERO, ONE, -ONE, rat(1, 2), L1, -L2, L1 + L3, ALPHA, ALPHA * L2 - ONE)


def symbolic_octonion(A, rng):
    return A.from_coeffs([rng.choice(SYMBOLIC_COEFFS) for _ in range(8)])


def test_product_matches_cayley_dickson_doubling(A):
    rng = random.Random(19)
    for _ in range(4):
        x, y = symbolic_octonion(A, rng), symbolic_octonion(A, rng)
        assert (x * y).coeffs == _cd_mul(x.coeffs, y.coeffs, (-L1, -L2, -L3))


@pytest.mark.parametrize("weights", [(L1, L2, L3), (rat(2), rat(3), rat(-5))])
def test_unit_table_matches_dense_doubling(weights):
    A = build_algebra(*weights)
    gammas = [-w for w in weights]
    units = [A.unit(k).coeffs for k in range(8)]
    for i in range(8):
        for j in range(8):
            k, c = A.unit_product(i, j)
            assert k == i ^ j and c == A.units[i][j]
            assert A.from_term(k, c).coeffs == _cd_mul(units[i], units[j], gammas)


@pytest.mark.parametrize("weights", [(L1, L2, L3), (rat(2), rat(3), rat(-5))])
def test_unit_terms_equal_the_generic_operations(weights):
    # the one-term values on basis units against the operations on arbitrary
    # octonions, for every position 0..7, the real unit included
    A = build_algebra(*weights)
    e = [A.unit(k) for k in range(8)]
    for i in range(8):
        for j in range(8):
            assert A.from_term(*A.unit_product(i, j)) == e[i] * e[j]
            assert A.from_term(i ^ j, A.commutators[i][j]) == commutator(e[i], e[j])
            assert A.from_term(*A.unit_cross(i, j)) == cross_product(e[i], e[j])
            for k in range(8):
                want = associator(e[i], e[j], e[k])
                assert A.from_term(*A.unit_associator(i, j, k)) == want


def test_bilinear_B_is_the_polarized_norm(A):
    rng = random.Random(23)
    for _ in range(4):
        x, y = symbolic_octonion(A, rng), symbolic_octonion(A, rng)
        assert bilinear_B(x, y) == (norm_q(x + y) - norm_q(x) - norm_q(y)) / 2


@pytest.mark.parametrize("weights", [(L1, L2, L3), (rat(2), rat(3), rat(-5))])
def test_gram_matches_the_cayley_dickson_polarization(weights):
    # B(e_i, e_j) = (Re(e_i conj(e_j)) + Re(e_j conj(e_i))) / 2, each product
    # computed by doubling rather than read from the algebra's table
    A = build_algebra(*weights)
    gammas = [-w for w in weights]
    units = [A.unit(k).coeffs for k in range(8)]

    def real_part(i, j):
        return _cd_mul(units[i], _cd_conj(units[j]), gammas)[0]

    for i in range(8):
        for j in range(8):
            want = (real_part(i, j) + real_part(j, i)) / 2
            assert A.space_oct.gram[i][j] == want
            if i and j:
                assert A.space_im.gram[i - 1][j - 1] == want


def test_degenerate_parameter():
    with pytest.raises(DegenerateParameter):
        build_algebra(ZERO, L2, L3)


def test_defining_products(A):
    e = [A.unit(k) for k in range(8)]
    assert e[1] * e[2] == e[3]
    assert e[1] * e[4] == e[5]
    assert e[2] * e[4] == e[6]
    assert e[3] * e[4] == e[7]
    # unit acts as identity
    for k in range(8):
        assert e[0] * e[k] == e[k]
        assert e[k] * e[0] == e[k]


def test_unit_squares(A):
    e = [A.unit(k) for k in range(8)]
    expected = [ONE, L1, L2, L1 * L2, L3, L1 * L3, L2 * L3, L1 * L2 * L3]
    for k in range(1, 8):
        assert e[k] * e[k] == e[0].scale(-expected[k])
        assert norm_q(e[k]) == expected[k]


def test_gram_is_orthogonal_with_parameter_products(A):
    expected = [ONE, L1, L2, L1 * L2, L3, L1 * L3, L2 * L3, L1 * L2 * L3]
    for i in range(8):
        for j in range(8):
            want = expected[i] if i == j else ZERO
            assert A.space_oct.gram[i][j] == want
    assert A.space_oct.diag == expected
    assert A.space_im.diag == expected[1:]


def test_conjugation_antihomomorphism(A):
    rng = random.Random(3)
    x = random_octonion(A, rng)
    y = random_octonion(A, rng)
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.conjugate().conjugate() == x


def test_norm_composition_random(A):
    rng = random.Random(5)
    for _ in range(6):
        x = random_octonion(A, rng)
        y = random_octonion(A, rng)
        assert norm_q(x * y) == norm_q(x) * norm_q(y)


def test_norm_polarized_composition_on_basis_sample(A):
    # B(x1 y1, x2 y2) + B(x1 y2, x2 y1) = 2 B(x1, x2) B(y1, y2)
    e = [A.unit(k) for k in range(8)]
    rng = random.Random(7)
    for _ in range(40):
        i, j, k, l = (rng.randrange(8) for _ in range(4))
        lhs = bilinear_B(e[i] * e[j], e[k] * e[l]) + bilinear_B(
            e[i] * e[l], e[k] * e[j]
        )
        rhs = rat(2) * bilinear_B(e[i], e[k]) * bilinear_B(e[j], e[l])
        assert lhs == rhs


def test_products_follow_xor(A):
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            # e_i e_j is a nonzero multiple of e_{i xor j} and nothing else
            prod = (A.unit(i) * A.unit(j)).coeffs
            assert prod[i ^ j].num and prod[i ^ j] == A.units[i][j]
            assert all(not c.num for t, c in enumerate(prod) if t != i ^ j)


def test_fano_lines(A):
    lines = fano_lines(A)
    assert len(lines) == 7
    assert {frozenset(l) for l in lines} == FANO
    for i, j, k in lines:
        assert i ^ j == k
        prod = A.unit(i) * A.unit(j)
        coeff = prod.coeffs[k]
        assert coeff.lead_sign() > 0


def test_associator_alternates_and_quaternions_associate(A):
    e = [A.unit(k) for k in range(8)]
    assert associator(e[1], e[2], e[3]).is_zero()
    assert associator(e[1], e[2], e[4]).is_zero() is False
    rng = random.Random(9)
    x = random_octonion(A, rng)
    y = random_octonion(A, rng)
    assert associator(x, x, y).is_zero()
    assert associator(x, y, y).is_zero()
    assert associator(x, y, x).is_zero()


def test_jacobiator_is_minus_six_associator(A):
    rng = random.Random(11)
    for _ in range(4):
        u = random_octonion(A, rng, imaginary=True)
        v = random_octonion(A, rng, imaginary=True)
        w = random_octonion(A, rng, imaginary=True)
        jacobiator = (
            commutator(u, commutator(v, w))
            + commutator(v, commutator(w, u))
            + commutator(w, commutator(u, v))
        )
        assert jacobiator == associator(u, v, w).scale(rat(-6))


def test_cross_product_identities(A):
    e = [A.unit(k) for k in range(8)]
    assert cross_product(e[1], e[2]) == e[3]
    rng = random.Random(13)
    for _ in range(4):
        u = random_octonion(A, rng, imaginary=True)
        v = random_octonion(A, rng, imaginary=True)
        # u x v = u v + B(u, v) on imaginaries
        assert cross_product(u, v) == u * v + A.one().scale(bilinear_B(u, v))
        # commutator is twice the cross product
        assert commutator(u, v) == cross_product(u, v).scale(rat(2))
        # q(u x v) = q(u) q(v) - B(u, v)^2
        assert norm_q(cross_product(u, v)) == norm_q(u) * norm_q(v) - bilinear_B(
            u, v
        ) * bilinear_B(u, v)


def test_associative_form_values_and_alternation(A):
    e = [A.unit(k) for k in range(8)]
    assert associative_form(e[1], e[2], e[3]) == L1 * L2
    assert associative_form(e[2], e[1], e[3]) == -(L1 * L2)
    assert associative_form(e[1], e[2], e[4]) == ZERO
    with pytest.raises(NotImaginary):
        associative_form(e[0], e[1], e[2])


def test_phi_altmap_seven_nonzero_lines(A):
    phi = A.phi
    assert phi.codomain is K and A.phi is phi
    assert set(phi.coeffs) == {tuple(sorted(l)) for l in FANO}
    assert phi.coeffs[(1, 2, 3)] == [L1 * L2]
    assert A.cross.value((1, 2)) == [ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ZERO]


def test_malcev_identity(A):
    # u x (v x w) + v x (u x w) = B(v,w) u + B(u,w) v - 2 B(u,v) w
    def holds(u, v, w):
        lhs = cross_product(u, cross_product(v, w)) + cross_product(
            v, cross_product(u, w)
        )
        rhs = (
            u.scale(bilinear_B(v, w))
            + v.scale(bilinear_B(u, w))
            - w.scale(bilinear_B(u, v) * rat(2))
        )
        return lhs == rhs

    rng = random.Random(17)
    e = [A.unit(k) for k in range(8)]
    assert holds(e[1], e[2], e[4])
    for _ in range(4):
        u = random_octonion(A, rng, imaginary=True)
        v = random_octonion(A, rng, imaginary=True)
        w = random_octonion(A, rng, imaginary=True)
        assert holds(u, v, w)


def test_symbolic_alpha_can_scale_octonions(A):
    # scalars from the ambient field mix freely with the algebra
    x = A.unit(1).scale(ALPHA) + A.unit(2)
    assert norm_q(x) == ALPHA * ALPHA * L1 + L2
