"""Clifford monomial calculus, quantization, spin action, distinguished
degree-2 elements, and the 14-dimensional annihilator of the unit."""

from __future__ import annotations

import importlib
import pkgutil
import random
from itertools import combinations

import pytest

import specialortho
from specialortho import linalg
from specialortho.clifford import CliffordAlgebra, CliffordElement, PAIR_MASKS
from specialortho.altmap import AltMap, wedge_rel
from specialortho.errors import NotImaginary, ShapeMismatch, WrongDimension
from specialortho.exterior import K
from specialortho.octonions import bilinear_B, build_algebra, cross_product
from specialortho.scalars import L1, L2, L3, ONE, ZERO, dot, rat
from test_linalg import identity, mat_mul


def apply_to_octonion(cliff, c, x):
    """rho(c) x: the spin columns of c combined by the coordinates of x."""
    cols = cliff.spinor_action(c)
    return cliff.octonions.from_coeffs(
        [dot((t, col[r]) for t, col in zip(x.coeffs, cols)) for r in range(8)]
    )


def generator(cliff, i):
    """The generator e_i, 1 <= i <= 7."""
    return CliffordElement(cliff, {1 << (i - 1): ONE})


def degrees(x):
    """The degrees of the monomials of x."""
    return {bin(m).count("1") for m in x.coeffs}


def trace_product(cliff, a, b):
    """Tr(rho(a) rho(b)) over the 8-dimensional spin representation."""
    return linalg.trace_of_product(cliff.spinor_action(a), cliff.spinor_action(b))


@pytest.fixture(scope="module")
def A():
    return build_algebra(L1, L2, L3)


@pytest.fixture(scope="module")
def C(A):
    return CliffordAlgebra(A)


def random_element(C, rng, masks=None):
    masks = masks if masks is not None else range(128)
    coeffs = {}
    for m in masks:
        if rng.random() < 0.3:
            coeffs[m] = rat(rng.randint(-2, 2))
    return CliffordElement(C, coeffs)


def test_generator_relations(C):
    for i in range(1, 8):
        ei = generator(C, i)
        sq = ei * ei
        assert sq == CliffordElement(C, {0: -C.qs[i - 1]})
        for j in range(i + 1, 8):
            ej = generator(C, j)
            anti = ei * ej + ej * ei
            assert anti.is_zero()


def test_monomial_product_associative(C):
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (rng.randrange(128) for _ in range(3))
        m1, c1 = C.mono_mul(a, b)
        m2, c2 = C.mono_mul(m1, c)
        m3, c3 = C.mono_mul(b, c)
        m4, c4 = C.mono_mul(a, m3)
        assert m2 == m4 and c1 * c2 == c3 * c4


def test_quantize_monomials_and_space_guard(C, A):
    x = AltMap(A.space_im, K, 2, {(1, 2): [rat(3)], (4, 7): [ONE / L1]})
    assert C.quantize(x) == CliffordElement(C, {0b11: rat(3), 0b1001000: ONE / L1})
    with pytest.raises(ShapeMismatch):
        C.quantize(AltMap(A.space_oct, K, 1, {(1,): [ONE]}))
    with pytest.raises(ShapeMismatch):
        C.quantize(AltMap.identity(A.space_im))


def test_quantize_antisymmetrization(C, A):
    # quantize(x ^ y) = (Q(x) Q(y) - Q(y) Q(x)) / 2 for degree-1 x, y
    rng = random.Random(5)
    for _ in range(5):
        x = AltMap(
            A.space_im, K, 1, {(i,): [rat(rng.randint(-2, 2))] for i in range(1, 8)}
        )
        y = AltMap(
            A.space_im, K, 1, {(i,): [rat(rng.randint(-2, 2))] for i in range(1, 8)}
        )
        qx, qy = C.quantize(x), C.quantize(y)
        lhs = C.quantize(wedge_rel(x, y))
        assert lhs + lhs == qx * qy - qy * qx


def test_spin_action_is_representation(C):
    rng = random.Random(7)
    for _ in range(4):
        a = random_element(C, rng, masks=range(32))
        b = random_element(C, rng, masks=range(32))
        # on column lists, the columns of rho(a) rho(b) are mat_mul(cols(b), cols(a))
        left = C.spinor_action(C.multiply(a, b))
        right = mat_mul(C.spinor_action(b), C.spinor_action(a))
        assert left == right


def test_spin_action_generator_squares(C):
    for i in range(1, 8):
        m = C.spinor_action(generator(C, i))
        sq = mat_mul(m, m)
        expect = [[-C.qs[i - 1] * x for x in row] for row in identity(8)]
        assert sq == expect


@pytest.mark.parametrize("weights", [(L1, L2, L3), (rat(2), rat(3), rat(-5))])
def test_pair_traces_match_trace_product(weights):
    # the table holds the diagonal, read from the monomial columns, and is
    # zero off it; trace_product builds both spin matrices of one-term
    # elements, for every pair
    C = CliffordAlgebra(build_algebra(*weights))
    traces = C.pair_traces
    assert list(traces) == list(PAIR_MASKS)
    for x in PAIR_MASKS:
        for y in PAIR_MASKS:
            a_x, a_y = CliffordElement(C, {x: ONE}), CliffordElement(C, {y: ONE})
            assert trace_product(C, a_x, a_y) == (traces[x] if x == y else ZERO)


def test_pair_traces_need_a_diagonal_gram(monkeypatch):
    C = CliffordAlgebra(build_algebra(L1, L2, L3))
    monkeypatch.setattr(C.octonions.space_oct, "is_diagonal", False)
    with pytest.raises(ShapeMismatch, match="diagonal"):
        C.pair_traces


def test_w_basis_is_built_once(C, A):
    w = C.w_basis()
    assert C.w_basis() is w
    assert w == [C.c_of(A.imaginary_unit(i)) for i in range(1, 8)]


def test_super_bracket_parity_rules(C):
    rng = random.Random(11)
    even_masks = [m for m in range(128) if bin(m).count("1") % 2 == 0]
    odd_masks = [m for m in range(128) if bin(m).count("1") % 2 == 1]
    a = random_element(C, rng, masks=odd_masks)
    b = random_element(C, rng, masks=odd_masks)
    assert C.super_bracket(a, b) == a * b + b * a
    c = random_element(C, rng, masks=even_masks)
    assert C.super_bracket(c, a) == c * a - a * c
    assert C.super_bracket(c, c) == c * c - c * c


def test_omega_structure(C, A):
    omega = C.omega()
    assert degrees(omega) == {3}
    assert len(omega.coeffs) == 7
    # coefficient on e1 e2 e3 is phi(e1,e2,e3) / (q1 q2 q3) = 1 / q3
    assert omega.coeffs[0b111] == ONE / (L1 * L2)


def test_omega_spin_eigenvalues(C, A):
    # rho(Omega) fixes every imaginary unit and scales the unit by -7
    mat = C.spinor_action(C.omega())
    one = A.one()
    out = apply_to_octonion(C, C.omega(), one)
    assert out == one.scale(rat(-7))
    for i in range(1, 8):
        u = A.unit(i)
        assert apply_to_octonion(C, C.omega(), u) == u


def test_c_of_structure_and_action(C, A):
    for i in range(1, 8):
        u = A.imaginary_unit(i)
        cu = C.c_of(u)
        assert degrees(cu) <= {2}
        # rho(c_u) sends 1 to -6u and v to 2 u x v + 6 B(u, v)
        assert apply_to_octonion(C, cu, A.one()) == u.scale(rat(-6))
        for j in range(1, 8):
            v = A.imaginary_unit(j)
            expect = cross_product(u, v).scale(rat(2)) + A.one().scale(
                rat(6) * bilinear_B(u, v)
            )
            assert apply_to_octonion(C, cu, v) == expect
    with pytest.raises(NotImaginary):
        C.c_of(A.one())


def test_trace_form_on_w(C, A):
    # Tr(rho(c_u) rho(c_v)) = -96 B(u, v)
    for i in (1, 2, 5):
        for j in (1, 3, 7):
            u, v = A.imaginary_unit(i), A.imaginary_unit(j)
            got = trace_product(C, C.c_of(u), C.c_of(v))
            assert got == rat(-96) * bilinear_B(u, v)


def test_g2_kernel_dimension_and_annihilation(C, A):
    kernel = C.g2_kernel()
    assert len(kernel) == 14
    for x in kernel:
        assert set(x.coeffs) <= set(PAIR_MASKS)
        assert apply_to_octonion(C, x, A.one()).is_zero()


def test_g2_kernel_orthogonal_to_w_under_trace(C):
    kernel = C.g2_kernel()
    w = C.w_basis()
    for x in kernel[:3]:
        for c in w[:3]:
            assert trace_product(C, x, c) == ZERO


def test_kernel_plus_w_spans_degree_two(C):
    kernel = C.g2_kernel()
    w = C.w_basis()
    mask_pos = {m: t for t, m in enumerate(PAIR_MASKS)}
    rows = []
    for x in kernel + w:
        row = [ZERO] * 21
        for m, c in x.coeffs.items():
            row[mask_pos[m]] = c
        rows.append(row)
    assert linalg.rank(rows) == 21


# -- the dense oracle of the monomial columns ------------------------------------


def generator_matrix(C, t):
    """Left multiplication by e_t on the octonions, as a dense 8x8 matrix."""
    out = [[ZERO] * 8 for _ in range(8)]
    for j in range(8):
        r, c = C.octonions.unit_product(t, j)
        out[r][j] = c
    return out


def dense_monomial_matrix(C, mask):
    """The spin matrix of a monomial as the ordered product of its generator
    matrices, the lowest generator leftmost."""
    out = identity(8)
    for t in reversed([t for t in range(1, 8) if mask >> (t - 1) & 1]):
        out = mat_mul(generator_matrix(C, t), out)
    return out


def columns_matrix(columns):
    out = [[ZERO] * 8 for _ in range(8)]
    for j, (r, c) in enumerate(columns):
        out[r][j] = c
    return out


def column_mismatches(C):
    """The masks whose stored columns differ from the dense product."""
    return [
        mask
        for mask in range(128)
        if columns_matrix(C._columns(mask)) != dense_monomial_matrix(C, mask)
    ]


def commutator_mismatches(C):
    """The ordered pairs (a, b) of pair monomials where pair_commutators
    differs from the difference of the two dense matrix products."""
    dense = [dense_monomial_matrix(C, m) for m in PAIR_MASKS]
    table = C.pair_commutators
    out = []
    for a, b in combinations(range(21), 2):
        ab, ba = mat_mul(dense[a], dense[b]), mat_mul(dense[b], dense[a])
        diff = [[p - q for p, q in zip(r, s)] for r, s in zip(ab, ba)]
        for key, sign in (((a, b), ONE), ((b, a), -ONE)):
            u, c = table.get(key, (0, ZERO))
            if diff != [[sign * c * x for x in row] for row in dense[u]]:
                out.append(key)
    return out


class RightProductColumns(CliffordAlgebra):
    """Wrong sign rule: the coefficient of e_r e_t instead of e_t e_r."""

    def _columns(self, mask):
        if mask == 0:
            return tuple((j, ONE) for j in range(8))
        bit = mask & -mask
        t = bit.bit_length()
        return tuple(
            (t ^ r, self.octonions.units[r][t] * c) for r, c in self._columns(mask ^ bit)
        )


class BitXorColumns(CliffordAlgebra):
    """Wrong xor: the row moves by the mask bit, not the generator index."""

    def _columns(self, mask):
        if mask == 0:
            return tuple((j, ONE) for j in range(8))
        bit = mask & -mask
        t = bit.bit_length()
        return tuple(
            ((bit ^ r) & 7, self.octonions.units[t][r] * c)
            for r, c in self._columns(mask ^ bit)
        )


class ReversedCommutators(CliffordAlgebra):
    """Wrong sign rule: pair_commutators reads the product y x, not x y."""

    def mono_mul(self, left, right):
        if bin(left).count("1") == bin(right).count("1") == 2:
            left, right = right, left
        return super().mono_mul(left, right)


class CommutingPairs(CliffordAlgebra):
    """Wrong sign rule: every pair monomial commutes with every other."""

    @property
    def pair_commutators(self):
        return {}


class OrMonomials(CliffordAlgebra):
    """Wrong xor: two monomials multiply onto their union."""

    def mono_mul(self, left, right):
        mask, c = super().mono_mul(left, right)
        return left | right, c


@pytest.mark.parametrize("weights", [(L1, L2, L3), (rat(2), rat(3), rat(-5))])
def test_monomial_columns_and_commutators_match_the_dense_oracle(weights):
    octs = build_algebra(*weights)
    C = CliffordAlgebra(octs)
    assert column_mismatches(C) == []
    assert len(C._column_cache) == 128
    assert commutator_mismatches(C) == []
    # mutated kernels: each is caught
    assert column_mismatches(RightProductColumns(octs))
    assert column_mismatches(BitXorColumns(octs))
    assert commutator_mismatches(ReversedCommutators(octs))
    assert commutator_mismatches(CommutingPairs(octs))
    with pytest.raises(WrongDimension, match="left the degree-2 span"):
        OrMonomials(octs).pair_commutators


def test_the_package_defines_no_dense_matrix_product():
    # the dense products and subspace coordinates are the tests' oracle
    # (test_linalg), so no command can run them
    for info in pkgutil.iter_modules(specialortho.__path__):
        module = importlib.import_module(f"specialortho.{info.name}")
        for name in ("mat_mul", "mat_vec", "SubspaceCoords"):
            assert not hasattr(module, name), f"{info.name}.{name}"
