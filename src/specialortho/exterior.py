"""Quadratic spaces and the multi-indices of their exterior powers.

A QuadraticSpace is a finite-dimensional space with a fixed ordered basis and
a symmetric nonsingular Gram matrix.  The basis of Lambda^p is indexed by
strictly increasing 1-based multi-indices; alternating maps (altmap.AltMap)
are stored on them, and a scalar-valued AltMap (codomain K, the ground field)
also serves as the coefficient table of an element of Lambda^p on the basis
e_I.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import ShapeMismatch, SingularMatrix
from .scalars import Frac, ONE, ZERO, dot

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
                g, h = gram[i][j], gram[j][i]
                if (g.num or h.num) and g != h:
                    raise ShapeMismatch(f"gram matrix of {self.name} is not symmetric")
        self.gram = [list(row) for row in gram]
        self.is_diagonal = not any(
            g.num for i, row in enumerate(self.gram) for j, g in enumerate(row) if i != j
        )
        self.diag = [self.gram[i][i] for i in range(self.dim)] if self.is_diagonal else None
        if self.is_diagonal:
            singular = not all(d.num for d in self.diag)
        else:
            singular = linalg.det(self.gram).is_zero()
        if singular:
            raise SingularMatrix(f"gram matrix of {self.name} is singular")

    def basis_vector(self, i: int) -> list[Frac]:
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def pair(self, u: Sequence[Frac], v: Sequence[Frac]) -> Frac:
        """Bilinear form of two coordinate vectors."""
        if self.is_diagonal:
            diag = zip(u, self.diag, v)
            return dot((x * q, y) for x, q, y in diag if x.num and y.num)
        return dot(
            (x * b, y)
            for x, row in zip(u, self.gram)
            if x.num
            for b, y in zip(row, v)
            if b.num and y.num
        )

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


def complement_index(index: MultiIndex, n: int) -> MultiIndex:
    inside = set(index)
    return tuple(i for i in range(1, n + 1) if i not in inside)


# the ground field as a 1-dimensional quadratic space: the one codomain of
# every scalar-valued map
K = QuadraticSpace(("k",), [[ONE]], name="k")
