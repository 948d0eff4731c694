"""Octonion algebras with symbolic structure constants.

Triple Cayley-Dickson doubling over the field Q(l1, l2, l3, a): the doubling
scalars are -l1, -l2, -l3, so the basis unit at position k (binary digits
selecting the three doubling levels) squares to minus a product of the
parameters.  The norm is q(x) = x conj(x); its polarization B makes the basis
orthogonal with B(e_k, e_k) the matching parameter product.  Index arithmetic
on the seven imaginary units follows xor: e_i e_j = (sign) (monomial) e_{i xor j}.
The multiplication table is built on basis units alone: each of its 64
entries is one such product, found by doubling a pair of units through the
three levels, where only one of the four terms of the doubling survives.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from .altmap import AltMap, PairingSpec
from .errors import DegenerateParameter, NotImaginary, ShapeMismatch
from .exterior import K, QuadraticSpace, all_multi_indices
from .scalars import Frac, ONE, ZERO, rat

Vector = list[Frac]
HALF = rat(1, 2)


def _cd_unit(i: int, j: int, gammas: Sequence[Frac]) -> tuple[int, Frac]:
    """The product of basis units e_i e_j = c e_k, as (k, c), in the algebra
    doubled by ``gammas`` (innermost level first).

    With half = 2^(len(gammas) - 1), a unit below half is (e_i, 0) and one at
    or above it is (0, e_{i - half}).  Of the four terms of the doubling

        (a1, a2)(b1, b2) = (a1 b1 + gamma conj(b2) a2, b2 a1 + a2 conj(b1))

    only one survives, and conj(e_k) = -e_k for every k but 0.
    """
    if not gammas:
        return 0, ONE
    half = 1 << (len(gammas) - 1)
    inner = gammas[:-1]
    if i < half and j < half:  # a1 b1
        return _cd_unit(i, j, inner)
    if i < half:  # b2 a1
        k, c = _cd_unit(j - half, i, inner)
        return k + half, c
    if j < half:  # a2 conj(b1)
        k, c = _cd_unit(i - half, j, inner)
        return k + half, c if j == 0 else -c
    # gamma conj(b2) a2
    k, c = _cd_unit(j - half, i - half, inner)
    return k, gammas[-1] * (c if j == half else -c)


class OctonionAlgebra:
    """Structure constants, Gram data, and the two ambient quadratic spaces.

    ``table[i][j]`` is the product of the basis units e_i e_j, and
    ``product`` is the same table as the PairingSpec O x O -> O that
    multiplies octonions.  ``unit_tables`` holds, by (fn, positions), the
    values of fn on basis units (cross products, commutators, associators)
    that ``on_units`` has computed so far; it starts empty.  ``phi`` and
    ``cross`` are the associative form and the cross product as alternating
    maps on the imaginaries, each built on first access.
    """

    def __init__(self, l1: Frac, l2: Frac, l3: Frac):
        for value in (l1, l2, l3):
            if value.is_zero():
                raise DegenerateParameter("doubling parameters must be nonzero")
        self.params = (l1, l2, l3)
        gammas = (-l1, -l2, -l3)
        self.table: list[list[Vector]] = [[[ZERO] * 8 for _ in range(8)] for _ in range(8)]
        for i, row in enumerate(self.table):
            for j, entry in enumerate(row):
                k, c = _cd_unit(i, j, gammas)
                entry[k] = c
        # polarized norm: B(x, y) = (x conj(y) + y conj(x)) / 2, real component;
        # conj(e_k) = s_k e_k with s_0 = 1 and s_k = -1, so each side is a
        # signed real entry of the table
        real = [[row[j][0] if j == 0 else -row[j][0] for j in range(8)] for row in self.table]
        gram = [[(real[i][j] + real[j][i]) / 2 for j in range(8)] for i in range(8)]
        self.space_oct = QuadraticSpace(
            tuple(f"e{k+1}" for k in range(8)), gram, name="O"
        )
        self.space_im = QuadraticSpace(
            tuple(f"e{k}" for k in range(1, 8)),
            [[gram[i][j] for j in range(1, 8)] for i in range(1, 8)],
            name="ImO",
        )
        space = self.space_oct
        self.product = PairingSpec(space, space, space, self.table, name="octonion product")
        self.unit_tables: dict[tuple, Octonion] = {}

    def on_units(self, fn: Callable[..., "Octonion"], *positions: int) -> "Octonion":
        """fn of the basis units at these positions, computed by fn once per
        algebra; the stored value is shared and read only."""
        key = (fn, positions)
        value = self.unit_tables.get(key)
        if value is None:
            value = self.unit_tables[key] = fn(*(self.unit(k) for k in positions))
        return value

    @cached_property
    def phi(self) -> AltMap:
        """The associative form as a degree-3 map ImO^3 -> K."""
        coeffs = {}
        for index in all_multi_indices(7, 3):
            units = (self.imaginary_unit(i) for i in index)
            coeffs[index] = [associative_form(*units)]
        return AltMap(self.space_im, K, 3, coeffs, name="phi")

    @cached_property
    def cross(self) -> AltMap:
        """The cross product as a degree-2 map ImO^2 -> ImO."""
        coeffs = {
            index: self.on_units(cross_product, *index).imaginary_coeffs()
            for index in all_multi_indices(7, 2)
        }
        return AltMap(self.space_im, self.space_im, 2, coeffs, name="cross")

    def unit(self, k: int) -> "Octonion":
        """Basis octonion at position k (0 is the real unit)."""
        coeffs = [ONE if i == k else ZERO for i in range(8)]
        return Octonion(self, coeffs)

    def one(self) -> "Octonion":
        return self.unit(0)

    def imaginary_unit(self, k: int) -> "Octonion":
        """The imaginary basis unit e_k for k in 1..7."""
        if not 1 <= k <= 7:
            raise ShapeMismatch(f"imaginary unit index {k} is outside 1..7")
        return self.unit(k)

    def from_coeffs(self, coeffs: Sequence[Frac]) -> "Octonion":
        return Octonion(self, list(coeffs))

    def __repr__(self) -> str:
        rendered = ", ".join(p.render() for p in self.params)
        return f"OctonionAlgebra({rendered})"


class Octonion:
    """Element of an OctonionAlgebra in basis coordinates."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: OctonionAlgebra, coeffs: Sequence[Frac]):
        if len(coeffs) != 8:
            raise ShapeMismatch(f"an octonion has 8 coordinates, got {len(coeffs)}")
        self.algebra = algebra
        self.coeffs = list(coeffs)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Octonion":
        return Octonion(self.algebra, [-a for a in self.coeffs])

    def scale(self, c: Frac) -> "Octonion":
        return Octonion(self.algebra, [c * a for a in self.coeffs])

    def __mul__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.algebra, self.algebra.product.apply(self.coeffs, other.coeffs))

    def conjugate(self) -> "Octonion":
        return Octonion(self.algebra, [self.coeffs[0]] + [-a for a in self.coeffs[1:]])

    def imaginary_coeffs(self) -> Vector:
        return list(self.coeffs[1:])

    def is_imaginary(self) -> bool:
        return self.coeffs[0].is_zero()

    def is_zero(self) -> bool:
        return all(not a.num for a in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def render(self) -> str:
        parts = []
        for k, a in enumerate(self.coeffs):
            if not a.num:
                continue
            name = "1" if k == 0 else f"e{k}"
            parts.append(f"({a.render()})*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return self.render()


def build_algebra(l1: Frac, l2: Frac, l3: Frac) -> OctonionAlgebra:
    """Construct the algebra; raises DegenerateParameter on a zero parameter."""
    return OctonionAlgebra(l1, l2, l3)


def bilinear_B(x: Octonion, y: Octonion) -> Frac:
    """Polarization of the norm: B(x, y) = (q(x+y) - q(x) - q(y)) / 2."""
    return x.algebra.space_oct.pair(x.coeffs, y.coeffs)


def commutator(x: Octonion, y: Octonion) -> Octonion:
    return x * y - y * x


def associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    return (x * y) * z - x * (y * z)


def cross_product(u: Octonion, v: Octonion) -> Octonion:
    """u x v = (conj(v) u - conj(u) v) / 2; imaginary-valued on imaginaries."""
    return (v.conjugate() * u - u.conjugate() * v).scale(HALF)


def associative_form(u: Octonion, v: Octonion, w: Octonion) -> Frac:
    """The alternating trilinear form B(u x v, w) on imaginary octonions."""
    for x in (u, v, w):
        if not x.is_imaginary():
            raise NotImaginary("the associative form is defined on imaginaries")
    return bilinear_B(cross_product(u, v), w)


def fano_lines(algebra: OctonionAlgebra) -> list[tuple[int, int, int]]:
    """The seven oriented index triples (i, j, i xor j) with e_i e_j a
    positive multiple of e_{i xor j}."""
    lines = []
    seen = set()
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            k = i ^ j
            key = frozenset((i, j, k))
            if key in seen:
                continue
            prod = algebra.table[i][j]
            coeff = prod[k]
            if not coeff.num:
                raise ShapeMismatch("product must land on the xor index")
            if coeff.lead_sign() > 0:
                seen.add(key)
                lines.append((i, j, k))
    return sorted(lines)
