"""Octonion algebras with symbolic structure constants.

Triple Cayley-Dickson doubling over the field Q(l1, l2, l3, a): the doubling
scalars are -l1, -l2, -l3, so the basis unit at position k (binary digits
selecting the three doubling levels) squares to minus a product of the
parameters.  The norm is q(x) = x conj(x); its polarization B makes the basis
orthogonal with B(e_k, e_k) the matching parameter product.  The product is
stored once, as the 64 coefficients c of e_i e_j = c e_{i xor j}, each found
by doubling a pair of units, where one term of the doubling survives at each
level.  Products, commutators, cross products and associators of basis units
are one term (k, c) read from that table, and the commutator coefficients
are a second table of 64 built from it once; the operations on arbitrary
octonions expand term by term.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .altmap import AltMap
from .errors import DegenerateParameter, NotImaginary, ShapeMismatch
from .exterior import K, QuadraticSpace, all_multi_indices
from .scalars import Frac, ONE, ZERO, rat

Vector = list[Frac]
Term = tuple[int, Frac]
HALF = rat(1, 2)


def _cd_unit(i: int, j: int, gammas: Sequence[Frac]) -> Frac:
    """The coefficient c of e_i e_j = c e_{i xor j}, for basis units, in the
    algebra doubled by ``gammas`` (innermost level first).

    With half = 2^(len(gammas) - 1), a unit below half is (e_i, 0) and one at
    or above it is (0, e_{i - half}).  Of the four terms of the doubling

        (a1, a2)(b1, b2) = (a1 b1 + gamma conj(b2) a2, b2 a1 + a2 conj(b1))

    only one survives, and conj(e_k) = -e_k for every k but 0.
    """
    if not gammas:
        return ONE
    half = 1 << (len(gammas) - 1)
    inner = gammas[:-1]
    if i < half and j < half:  # a1 b1
        return _cd_unit(i, j, inner)
    if i < half:  # b2 a1
        return _cd_unit(j - half, i, inner)
    if j < half:  # a2 conj(b1)
        c = _cd_unit(i - half, j, inner)
        return c if j == 0 else -c
    # gamma conj(b2) a2
    c = _cd_unit(j - half, i - half, inner)
    return gammas[-1] * (c if j == half else -c)


class OctonionAlgebra:
    """Structure constants, Gram data, and the two ambient quadratic spaces.

    ``units[i][j]`` is the coefficient c of e_i e_j = c e_{i xor j}, the one
    store of the product.  ``unit_product``, ``unit_cross`` and
    ``unit_associator`` return that operation on basis units as its one
    term (k, c), with k the xor of the positions; ``commutators[i][j]`` is
    the c of [e_i, e_j] = c e_{i xor j}, built on first access.  The
    Gram is the table's diagonal (``space_oct.diag``).  ``phi`` and ``cross``
    are the associative form and the cross product as alternating maps on
    the imaginaries, each built on first access.
    """

    def __init__(self, l1: Frac, l2: Frac, l3: Frac):
        for value in (l1, l2, l3):
            if value.is_zero():
                raise DegenerateParameter("doubling parameters must be nonzero")
        self.params = (l1, l2, l3)
        gammas = (-l1, -l2, -l3)
        self.units = [[_cd_unit(i, j, gammas) for j in range(8)] for i in range(8)]
        # B(e_k, e_k) is the real part of e_k conj(e_k), and conj(e_k) = -e_k
        # for every k but 0; distinct units are orthogonal
        norms = [self.units[0][0]] + [-self.units[k][k] for k in range(1, 8)]
        gram = [[q if i == j else ZERO for j in range(8)] for i, q in enumerate(norms)]
        self.space_oct = QuadraticSpace(
            tuple(f"e{k+1}" for k in range(8)), gram, name="O"
        )
        self.space_im = QuadraticSpace(
            tuple(f"e{k}" for k in range(1, 8)),
            [row[1:] for row in gram[1:]],
            name="ImO",
        )

    def unit_product(self, i: int, j: int) -> Term:
        """e_i e_j as its one term (i xor j, c)."""
        return i ^ j, self.units[i][j]

    @cached_property
    def commutators(self) -> list[list[Frac]]:
        """The coefficient c of [e_i, e_j] = e_i e_j - e_j e_i = c e_{i xor j},
        for every pair of units, read from ``units`` once."""
        units = self.units
        return [[units[i][j] - units[j][i] for j in range(8)] for i in range(8)]

    def unit_cross(self, i: int, j: int) -> Term:
        """e_i x e_j = (conj(e_j) e_i - conj(e_i) e_j) / 2 as its one term."""
        ji, ij = self.units[j][i], self.units[i][j]
        return i ^ j, ((ji if j == 0 else -ji) - (ij if i == 0 else -ij)) * HALF

    def unit_associator(self, i: int, j: int, k: int) -> Term:
        """(e_i e_j) e_k - e_i (e_j e_k) as its one term."""
        units = self.units
        return i ^ j ^ k, units[i][j] * units[i ^ j][k] - units[j][k] * units[i][j ^ k]

    @cached_property
    def phi(self) -> AltMap:
        """The associative form as a degree-3 map ImO^3 -> K: B(e_i x e_j, e_k)
        is nonzero only where e_i x e_j lands on e_k."""
        coeffs = {}
        for i, j, k in all_multi_indices(7, 3):
            t, c = self.unit_cross(i, j)
            if t == k:
                coeffs[(i, j, k)] = [c * self.space_oct.diag[k]]
        return AltMap(self.space_im, K, 3, coeffs, name="phi")

    @cached_property
    def cross(self) -> AltMap:
        """The cross product as a degree-2 map ImO^2 -> ImO."""
        coeffs = {
            index: self.from_term(*self.unit_cross(*index)).imaginary_coeffs()
            for index in all_multi_indices(7, 2)
        }
        return AltMap(self.space_im, self.space_im, 2, coeffs, name="cross")

    def from_term(self, k: int, c: Frac) -> "Octonion":
        """The octonion c e_k."""
        coeffs = [ZERO] * 8
        coeffs[k] = c
        return Octonion(self, coeffs)

    def unit(self, k: int) -> "Octonion":
        """Basis octonion at position k (0 is the real unit)."""
        return self.from_term(k, ONE)

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

    def scale(self, c: Frac) -> "Octonion":
        return Octonion(self.algebra, [c * a for a in self.coeffs])

    def __mul__(self, other: "Octonion") -> "Octonion":
        out = [ZERO] * 8
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if a.num and b.num:
                    k, c = self.algebra.unit_product(i, j)
                    out[k] = out[k] + a * b * c
        return Octonion(self.algebra, out)

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

    def __repr__(self) -> str:
        parts = [
            f"({a.render()})*{'1' if k == 0 else f'e{k}'}"
            for k, a in enumerate(self.coeffs)
            if a.num
        ]
        return " + ".join(parts) if parts else "0"


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
            k, c = algebra.unit_product(i, j)
            key = frozenset((i, j, k))
            if key not in seen and c.lead_sign() > 0:
                seen.add(key)
                lines.append((i, j, k))
    return sorted(lines)
