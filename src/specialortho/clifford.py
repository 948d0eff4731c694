"""Clifford algebra of the imaginary octonions and its spin representation.

The quadratic form is the negative of the octonion norm restricted to the
imaginaries, so each generator squares to -q(e_i) and distinct generators
anticommute.  Monomials are stored as 7-bit masks (bit i-1 for generator i);
folding a generator into a mask costs one popcount-style sign.  The spin
action sends a monomial to the composition of left multiplications on the
full octonions.  Each left multiplication by a unit is monomial in the
(Z/2)^3 grading, e_j -> c e_{t xor j}, so the action of a monomial is stored
as its 8 columns, one term each, composed from the octonion unit table with
one product per column; spinor_action writes the 8 dense columns of an
element from them, the format of every linear action in the package.

quantize identifies the exterior algebra of the imaginary space with the
Clifford algebra as filtered vector spaces by sending an increasing wedge
monomial to the ordered product of its generators; an exterior element is
given as its coefficient table, a scalar-valued AltMap on the imaginaries.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Optional

from . import linalg
from .altmap import AltMap, eta_inv
from .errors import NotImaginary, ShapeMismatch, WrongDimension
from .octonions import Octonion, OctonionAlgebra
from .scalars import Frac, ONE, ZERO, dot

Vector = list[Frac]
Columns = tuple[tuple[int, Frac], ...]

PAIR_MASKS: tuple[int, ...] = tuple(
    (1 << (i - 1)) | (1 << (j - 1)) for i, j in combinations(range(1, 8), 2)
)


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(7) if mask >> i & 1)


class CliffordElement:
    """Element stored as mask -> coefficient over the monomial basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "CliffordAlgebra", coeffs: Optional[dict] = None):
        self.algebra = algebra
        self.coeffs: dict[int, Frac] = {}
        if coeffs:
            for mask, c in coeffs.items():
                if c.num:
                    self.coeffs[mask] = c

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            s = out.get(mask, ZERO) + c
            if s.num:
                out[mask] = s
            else:
                out.pop(mask, None)
        return CliffordElement(self.algebra, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            s = out.get(mask, ZERO) - c
            if s.num:
                out[mask] = s
            else:
                out.pop(mask, None)
        return CliffordElement(self.algebra, out)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return self.algebra.multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def parity_parts(self) -> tuple["CliffordElement", "CliffordElement"]:
        even, odd = {}, {}
        for mask, c in self.coeffs.items():
            (odd if bin(mask).count("1") & 1 else even)[mask] = c
        return (
            CliffordElement(self.algebra, even),
            CliffordElement(self.algebra, odd),
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs, key=lambda m: (bin(m).count("1"), m)):
            idx = _mask_to_tuple(mask)
            name = "1" if not idx else "e" + "".join(str(i) for i in idx)
            parts.append(f"({self.coeffs[mask].render()})*{name}")
        return " + ".join(parts)


class CliffordAlgebra:
    """Clifford algebra C(ImO, -q) with memoized monomial products."""

    def __init__(self, octonions: OctonionAlgebra):
        self.octonions = octonions
        self.qs: Vector = list(octonions.space_im.diag)
        self._mono_cache: dict[tuple[int, int], tuple[int, Frac]] = {}
        self._column_cache: dict[int, Columns] = {}
        self._omega: Optional[CliffordElement] = None
        self._w_basis: Optional[list[CliffordElement]] = None

    # -- construction ---------------------------------------------------------

    def pair_basis(self) -> list[CliffordElement]:
        """The 21 degree-2 monomials e_i e_j (i < j) in a fixed order."""
        return [CliffordElement(self, {m: ONE}) for m in PAIR_MASKS]

    # -- products ---------------------------------------------------------------

    def mono_mul(self, left: int, right: int) -> tuple[int, Frac]:
        """Product of two monomial masks: resulting mask and coefficient."""
        cached = self._mono_cache.get((left, right))
        if cached is not None:
            return cached
        mask = left
        coeff = ONE
        odd = False
        rem = right
        while rem:
            bit = rem & -rem
            rem ^= bit
            t = bit.bit_length() - 1
            above = mask >> (t + 1)
            if bin(above).count("1") & 1:
                odd = not odd
            if mask & bit:
                # generator squares to -q_t
                odd = not odd
                coeff = self.qs[t] if coeff is ONE else coeff * self.qs[t]
                mask ^= bit
            else:
                mask |= bit
        out = (mask, -coeff if odd else coeff)
        self._mono_cache[(left, right)] = out
        return out

    def multiply(self, a: CliffordElement, b: CliffordElement) -> CliffordElement:
        terms: dict[int, list] = {}
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                mask, coeff = self.mono_mul(ma, mb)
                terms.setdefault(mask, []).append((ca * cb, coeff))
        return CliffordElement(self, {m: dot(pairs) for m, pairs in terms.items()})

    def super_bracket(self, a: CliffordElement, b: CliffordElement) -> CliffordElement:
        """{a, b} = ab - (-1)^{|a||b|} ba, extended over parity components."""
        a_even, a_odd = a.parity_parts()
        b_even, b_odd = b.parity_parts()
        result = CliffordElement(self)
        for x, px in ((a_even, 0), (a_odd, 1)):
            if x.is_zero():
                continue
            for y, py in ((b_even, 0), (b_odd, 1)):
                if y.is_zero():
                    continue
                xy = self.multiply(x, y)
                yx = self.multiply(y, x)
                result = result + (xy + yx if px & py else xy - yx)
        return result

    # -- exterior identification ---------------------------------------------

    def quantize(self, x: AltMap) -> CliffordElement:
        """Ordered product of generators on each increasing wedge monomial."""
        if x.domain is not self.octonions.space_im or x.codomain.dim != 1:
            raise ShapeMismatch("quantize expects a scalar-valued map on ImO")
        out = {}
        for index, vec in x.coeffs.items():
            mask = 0
            for i in index:
                mask |= 1 << (i - 1)
            out[mask] = vec[0]
        return CliffordElement(self, out)

    # -- spin representation ----------------------------------------------------

    def _columns(self, mask: int) -> Columns:
        """The spin action of a monomial as its 8 columns: column j is the one
        term (r, c) of the image c e_r of e_j.

        The ordered product applies its highest generator first, so the
        lowest one, e_t, acts last: it sends c e_r to c * units[t][r] e_{t xor r}.
        """
        got = self._column_cache.get(mask)
        if got is not None:
            return got
        if mask == 0:
            out = tuple((j, ONE) for j in range(8))
        else:
            bit = mask & -mask
            t = bit.bit_length()
            units = self.octonions.units[t]
            out = tuple((t ^ r, units[r] * c) for r, c in self._columns(mask ^ bit))
        self._column_cache[mask] = out
        return out

    def spinor_action(self, c: CliffordElement) -> list[Vector]:
        """The 8 columns rho(c) e_j of c acting on the octonions by iterated
        left products, summed from the one-term columns of its monomials: a
        product only where a coefficient is not the ONE, a sum only where two
        monomials meet in one entry."""
        out = linalg.zeros(8, 8)
        for mask, coeff in c.coeffs.items():
            for col, (r, m) in zip(out, self._columns(mask)):
                x = m if coeff is ONE else coeff * m
                col[r] = col[r] + x if col[r].num else x
        return out

    @cached_property
    def pair_traces(self) -> dict[int, Frac]:
        """Tr(rho(x)^2) for every pair-monomial mask x.

        rho(y) moves e_j to the row j xor s(y), with s the xor of the
        generators, so rho(x) rho(y) has a diagonal only where s(x) = s(y).
        For x != y that product is, up to sign, a degree-4 monomial, whose
        trace vanishes when the Gram is diagonal: Tr(rho(x) rho(y)) is zero
        off the diagonal, and Tr(rho(x)^2) is a sum of 8 column products.
        """
        if not self.octonions.space_oct.is_diagonal:
            raise ShapeMismatch("pair traces need a diagonal octonion Gram")
        table = {}
        for x in PAIR_MASKS:
            cx = self._columns(x)
            table[x] = dot((cx[r][1], c) for r, c in cx)
        return table

    @cached_property
    def pair_commutators(self) -> dict[tuple[int, int], tuple[int, Frac]]:
        """[P_a, P_b] = c P_u for the pair monomials P = PAIR_MASKS, as (u, c)
        by positions (a, b) in both orders, where the commutator is nonzero.

        Two pair monomials that share one generator anticommute, so their
        commutator is twice their product, which lands on the pair monomial
        x xor y; disjoint ones commute.
        """
        position = {m: t for t, m in enumerate(PAIR_MASKS)}
        table = {}
        for (a, x), (b, y) in combinations(enumerate(PAIR_MASKS), 2):
            if x & y:
                mask, xy = self.mono_mul(x, y)
                if mask not in position:
                    raise WrongDimension("commutator of pair monomials left the degree-2 span")
                c = xy + xy
                table[(a, b)] = (position[mask], c)
                table[(b, a)] = (position[mask], -c)
        return table

    # -- distinguished elements -------------------------------------------------

    def omega(self) -> CliffordElement:
        """Quantization of the index-raised associative form."""
        if self._omega is None:
            self._omega = self.quantize(eta_inv(self.octonions.phi))
        return self._omega

    def c_of(self, u: Octonion) -> CliffordElement:
        """The degree-2 element {u, Omega} attached to an imaginary octonion."""
        if not u.is_imaginary():
            raise NotImaginary("c_of expects an imaginary octonion")
        cu = CliffordElement(
            self,
            {1 << t: c for t, c in enumerate(u.imaginary_coeffs()) if c.num},
        )
        return self.super_bracket(cu, self.omega())

    def w_basis(self) -> list[CliffordElement]:
        """The seven c_{e_i}, built once; the list is shared and read only."""
        if self._w_basis is None:
            self._w_basis = [
                self.c_of(self.octonions.imaginary_unit(i)) for i in range(1, 8)
            ]
        return self._w_basis

    def g2_kernel(self) -> list[CliffordElement]:
        """Basis of the annihilator of 1 inside the degree-2 component.

        The matrix sends a pair monomial to its spin action on the octonion
        unit; the kernel must come out 14-dimensional or WrongDimension is
        raised.
        """
        rows = linalg.zeros(8, 21)
        for t, mask in enumerate(PAIR_MASKS):
            r, c = self._columns(mask)[0]
            rows[r][t] = c
        kernel = linalg.nullspace(rows)
        if len(kernel) != 14:
            raise WrongDimension(
                f"annihilator of the unit has dimension {len(kernel)}, expected 14"
            )
        out = []
        for vec in kernel:
            coeffs = {m: c for m, c in zip(PAIR_MASKS, vec) if c.num}
            out.append(CliffordElement(self, coeffs))
        return out

