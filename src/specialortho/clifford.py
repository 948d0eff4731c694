"""Clifford algebra of the imaginary octonions and its spin representation.

The quadratic form is the negative of the octonion norm restricted to the
imaginaries, so each generator squares to -q(e_i) and distinct generators
anticommute.  Monomials are stored as 7-bit masks (bit i-1 for generator i);
folding a generator into a mask costs one popcount-style sign.  The spin
action sends a monomial to the composition of left multiplications on the
full octonions, an 8x8 matrix.

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
Matrix = list[list[Frac]]

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

    def scale(self, c: Frac) -> "CliffordElement":
        if c.is_zero():
            return CliffordElement(self.algebra)
        return CliffordElement(
            self.algebra, {m: c * v for m, v in self.coeffs.items()}
        )

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
        self._matrix_cache: dict[int, Matrix] = {}
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
        rem = right
        while rem:
            bit = rem & -rem
            rem ^= bit
            t = bit.bit_length() - 1
            above = mask >> (t + 1)
            swaps = bin(above).count("1")
            if swaps & 1:
                coeff = -coeff
            if mask & bit:
                # generator squares to -q_t
                coeff = coeff * (-self.qs[t])
                mask ^= bit
            else:
                mask |= bit
        out = (mask, coeff)
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

    def _generator_matrix(self, t: int) -> Matrix:
        # left multiplication by e_{t+1} on the octonions, in coordinates
        out = linalg.zeros(8, 8)
        for j in range(8):
            r, c = self.octonions.unit_product(t + 1, j)
            out[r][j] = c
        return out

    def _mono_matrix(self, mask: int) -> Matrix:
        got = self._matrix_cache.get(mask)
        if got is not None:
            return got
        if mask == 0:
            out = linalg.identity(8)
        else:
            bit = mask & -mask
            rest = mask ^ bit
            # the lowest generator is leftmost in the ordered product, so it
            # multiplies the remaining matrix product from the left
            out = linalg.mat_mul(
                self._generator_matrix(bit.bit_length() - 1), self._mono_matrix(rest)
            )
        self._matrix_cache[mask] = out
        return out

    def spinor_action(self, c: CliffordElement) -> Matrix:
        """8x8 matrix of c acting on the octonions by iterated left products."""
        out = linalg.zeros(8, 8)
        for mask, coeff in c.coeffs.items():
            mono = self._mono_matrix(mask)
            for r in range(8):
                row_o = out[r]
                row_m = mono[r]
                for s in range(8):
                    if row_m[s].num:
                        row_o[s] = row_o[s] + coeff * row_m[s]
        return out

    @cached_property
    def pair_traces(self) -> dict[tuple[int, int], Frac]:
        """Tr(rho(x) rho(y)) for every pair (x, y) of pair-monomial masks,
        read off the cached monomial matrices."""
        table = {}
        for a, x in enumerate(PAIR_MASKS):
            mx = self._mono_matrix(x)
            for y in PAIR_MASKS[a:]:
                table[(x, y)] = table[(y, x)] = linalg.trace_of_product(
                    mx, self._mono_matrix(y)
                )
        return table

    @cached_property
    def pair_commutators(self) -> dict[tuple[int, int], tuple[int, Frac]]:
        """[P_a, P_b] = c P_u for the pair monomials P = PAIR_MASKS, as (u, c)
        by positions (a, b) in both orders, where the commutator is nonzero.

        Both products of two monomials land on the monomial x xor y, so the
        commutator is the difference of their two coefficients there; on pair
        monomials it lands back on a pair monomial.
        """
        position = {m: t for t, m in enumerate(PAIR_MASKS)}
        table = {}
        for (a, x), (b, y) in combinations(enumerate(PAIR_MASKS), 2):
            mask, xy = self.mono_mul(x, y)
            c = xy - self.mono_mul(y, x)[1]
            if not c.num:
                continue
            if mask not in position:
                raise WrongDimension("commutator of pair monomials left the degree-2 span")
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
        rows = []
        for r in range(8):
            row = []
            for mask in PAIR_MASKS:
                mono = self._mono_matrix(mask)
                row.append(mono[r][0])
            rows.append(row)
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

