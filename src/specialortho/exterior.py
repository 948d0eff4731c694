"""Exterior powers of a quadratic space and the eta isomorphism.

A QuadraticSpace is a finite-dimensional space with a fixed ordered basis and
a symmetric nonsingular Gram matrix.  Degree-p exterior elements are stored
sparsely on strictly increasing 1-based multi-indices.  The bilinear form
extends to Lambda^p by Gram determinants, and eta identifies Lambda^p(V) with
Lambda^p(V*) through it; elements on the dual side carry a flag rather than a
separate type.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from . import linalg
from .errors import DegreeMismatch, ShapeMismatch, SingularMatrix
from .scalars import Frac, ONE, ZERO

MultiIndex = tuple[int, ...]


class QuadraticSpace:
    """Ordered basis plus a symmetric nonsingular bilinear form."""

    def __init__(self, labels: Sequence[str], gram: Sequence[Sequence[Frac]], name: str = ""):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.name = name or "V"
        if len(gram) != self.dim or any(len(r) != self.dim for r in gram):
            raise ShapeMismatch(f"gram matrix shape does not match dim {self.dim}")
        for i in range(self.dim):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ShapeMismatch(f"gram matrix of {self.name} is not symmetric")
        self.gram = [list(row) for row in gram]
        if linalg.det(self.gram).is_zero():
            raise SingularMatrix(f"gram matrix of {self.name} is singular")
        self.is_diagonal = all(
            self.gram[i][j].is_zero()
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )
        self.diag = [self.gram[i][i] for i in range(self.dim)] if self.is_diagonal else None
        self._lambda_gram_cache: dict[int, list[list[Frac]]] = {}

    def q(self, i: int) -> Frac:
        """Diagonal form value on 0-based basis index i."""
        return self.gram[i][i]

    def b(self, i: int, j: int) -> Frac:
        return self.gram[i][j]

    def basis_vector(self, i: int) -> list[Frac]:
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def pair(self, u: Sequence[Frac], v: Sequence[Frac]) -> Frac:
        """Bilinear form of two coordinate vectors."""
        s = ZERO
        if self.is_diagonal:
            for x, q, y in zip(u, self.diag, v):
                if x.num and y.num:
                    s = s + x * q * y
            return s
        for i, x in enumerate(u):
            if not x.num:
                continue
            row = self.gram[i]
            for j, y in enumerate(v):
                if y.num and row[j].num:
                    s = s + x * row[j] * y
        return s

    def q_product(self, index: MultiIndex) -> Frac:
        """Product of diagonal form values over a 1-based multi-index."""
        if not self.is_diagonal:
            raise ShapeMismatch("q_product needs a diagonal gram")
        out = ONE
        for i in index:
            out = out * self.diag[i - 1]
        return out

    def __repr__(self) -> str:
        return f"QuadraticSpace({self.name}, dim={self.dim})"


def all_multi_indices(n: int, p: int) -> tuple[MultiIndex, ...]:
    return tuple(combinations(range(1, n + 1), p))


def render_multi_index(index: MultiIndex) -> str:
    if not index:
        return "1"
    body = "".join(str(i) for i in index) if max(index) <= 9 else ",".join(
        str(i) for i in index
    )
    return "e_{%s}" % body


def merge_multi_indices(left: MultiIndex, right: MultiIndex):
    """Sign and sorted union of two disjoint multi-indices, or (0, None)."""
    if set(left) & set(right):
        return 0, None
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


def complement_index(index: MultiIndex, n: int) -> MultiIndex:
    inside = set(index)
    return tuple(i for i in range(1, n + 1) if i not in inside)


class ExteriorElement:
    """Sparse element of Lambda^p(V) (or of Lambda^p(V*) when dual=True)."""

    def __init__(self, space: QuadraticSpace, degree: int, coeffs=None, dual: bool = False):
        self.space = space
        self.degree = degree
        self.dual = dual
        self.coeffs: dict[MultiIndex, Frac] = {}
        if coeffs:
            for index, value in coeffs.items():
                if not value.is_zero():
                    self.coeffs[tuple(index)] = value

    @classmethod
    def basis(cls, space: QuadraticSpace, index: MultiIndex, dual: bool = False) -> "ExteriorElement":
        return cls(space, len(index), {tuple(index): ONE}, dual=dual)

    def _check_compatible(self, other: "ExteriorElement") -> None:
        if self.space is not other.space or self.degree != other.degree or self.dual != other.dual:
            raise DegreeMismatch("exterior elements from different spaces or degrees")

    def get(self, index: MultiIndex) -> Frac:
        return self.coeffs.get(tuple(index), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, ZERO) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return ExteriorElement(self.space, self.degree, out, self.dual)

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + (-other)

    def __neg__(self) -> "ExteriorElement":
        return self.scale(Frac.from_int(-1))

    def scale(self, c: Frac) -> "ExteriorElement":
        if c.is_zero():
            return ExteriorElement(self.space, self.degree, None, self.dual)
        return ExteriorElement(
            self.space, self.degree, {k: c * v for k, v in self.coeffs.items()}, self.dual
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return (
            self.space is other.space
            and self.degree == other.degree
            and self.dual == other.dual
            and self.coeffs == other.coeffs
        )

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for index in sorted(self.coeffs):
            name = render_multi_index(index)
            if self.dual:
                name += "*"
            parts.append(f"{self.coeffs[index].render()} {name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        side = "dual " if self.dual else ""
        return f"<{side}degree-{self.degree} element of {self.space.name}: {self.render()}>"


def wedge(x: ExteriorElement, y: ExteriorElement) -> ExteriorElement:
    """Exterior product; both factors on the same (primal or dual) side."""
    if x.space is not y.space or x.dual != y.dual:
        raise DegreeMismatch("wedge needs elements of one exterior algebra")
    out: dict[MultiIndex, Frac] = {}
    for I, a in x.coeffs.items():
        for J, b in y.coeffs.items():
            sign, merged = merge_multi_indices(I, J)
            if sign == 0:
                continue
            term = a * b if sign > 0 else -(a * b)
            s = out.get(merged, ZERO) + term
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return ExteriorElement(x.space, x.degree + y.degree, out, x.dual)


def _lambda_gram_entry(space: QuadraticSpace, I: MultiIndex, J: MultiIndex) -> Frac:
    sub = [[space.gram[i - 1][j - 1] for j in J] for i in I]
    return linalg.det(sub)


def _lambda_gram(space: QuadraticSpace, p: int) -> list[list[Frac]]:
    cached = space._lambda_gram_cache.get(p)
    if cached is None:
        idx = all_multi_indices(space.dim, p)
        cached = [[_lambda_gram_entry(space, I, J) for J in idx] for I in idx]
        space._lambda_gram_cache[p] = cached
    return cached


def gram_lambda(x: ExteriorElement, y: ExteriorElement) -> Frac:
    """Gram-determinant extension of the form to degree-p elements."""
    if x.space is not y.space or x.degree != y.degree:
        raise DegreeMismatch("gram_lambda needs equal degrees on one space")
    if x.dual != y.dual:
        raise DegreeMismatch("gram_lambda does not mix primal and dual sides")
    if x.dual:
        # transported form: B*(eta u, eta v) := B(u, v)
        return gram_lambda(eta_inv(x), eta_inv(y))
    s = ZERO
    if x.space.is_diagonal:
        for index, a in x.coeffs.items():
            b = y.coeffs.get(index)
            if b is not None:
                s = s + a * b * x.space.q_product(index)
        return s
    for I, a in x.coeffs.items():
        for J, b in y.coeffs.items():
            entry = _lambda_gram_entry(x.space, I, J)
            if not entry.is_zero():
                s = s + a * b * entry
    return s


def eta(x: ExteriorElement) -> ExteriorElement:
    """Index-lowering isomorphism Lambda^p(V) -> Lambda^p(V*)."""
    if x.dual:
        raise DegreeMismatch("eta applies to primal elements")
    space, p = x.space, x.degree
    if space.is_diagonal:
        out = {I: a * space.q_product(I) for I, a in x.coeffs.items()}
        return ExteriorElement(space, p, out, dual=True)
    idx = all_multi_indices(space.dim, p)
    gram = _lambda_gram(space, p)
    out = {}
    for col, J in enumerate(idx):
        s = ZERO
        for row, I in enumerate(idx):
            a = x.coeffs.get(I)
            if a is not None and gram[row][col].num:
                s = s + a * gram[row][col]
        if not s.is_zero():
            out[J] = s
    return ExteriorElement(space, p, out, dual=True)


def eta_inv(x: ExteriorElement) -> ExteriorElement:
    """Inverse of eta: raise a dual element back to Lambda^p(V)."""
    if not x.dual:
        raise DegreeMismatch("eta_inv applies to dual elements")
    space, p = x.space, x.degree
    if space.is_diagonal:
        out = {I: a / space.q_product(I) for I, a in x.coeffs.items()}
        return ExteriorElement(space, p, out, dual=False)
    idx = all_multi_indices(space.dim, p)
    gram = _lambda_gram(space, p)
    rhs = [x.coeffs.get(I, ZERO) for I in idx]
    from .scalars import solve_linear

    sol = solve_linear(gram, rhs)
    out = {I: c for I, c in zip(idx, sol) if not c.is_zero()}
    return ExteriorElement(space, p, out, dual=False)


def scalar_codomain() -> QuadraticSpace:
    """The field viewed as a 1-dimensional quadratic space (for scalar maps)."""
    return QuadraticSpace(("k",), [[ONE]], name="k")
