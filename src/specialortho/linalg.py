"""Dense exact linear algebra over the scalar field.

The trace of a product, and the reduced row echelon form, rank, nullspace
and determinant built on scalars.eliminate, the Gauss-Jordan elimination in
the field that scalars.solve_linear also uses: rref reads its reduced rows,
det multiplies its pivots.  Matrices are plain lists of lists of Frac.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Frac, ONE, ZERO, dot, eliminate

Matrix = list[list[Frac]]
Vector = list[Frac]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def trace_of_product(a: Sequence[Sequence[Frac]], b: Sequence[Sequence[Frac]]) -> Frac:
    """Tr(ab), one sum over the nonzero entries of a.  On the column lists
    of two actions it is the same trace, as Tr(AB) = Tr(B^T A^T)."""
    return dot((x, b[t][r]) for r, row in enumerate(a) for t, x in enumerate(row) if x.num)


def rref(rows: Sequence[Sequence[Frac]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R, pivots, _, _ = eliminate(rows)
    return R, pivots


def rank(rows: Sequence[Sequence[Frac]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Frac]]) -> list[Vector]:
    """Basis of the right kernel, one vector per free column: 1 there, and 0
    at the other free columns and at every column after its own."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    R, pivots = rref(rows)
    pivot_set = set(pivots)
    out = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -R[r][free]
        out.append(v)
    return out


def det(matrix: Sequence[Sequence[Frac]]) -> Frac:
    """Exact determinant: the sign of the row swaps times the pivots."""
    _, pivots, sign, values = eliminate(matrix, square=True)
    if len(pivots) < len(matrix):
        return ZERO
    d = ONE if sign > 0 else -ONE
    for v in values:
        d = d * v
    return d
