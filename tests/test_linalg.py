"""Echelon form, rank, nullspace, determinants; the dense matrix oracle.

The dense matrix products and subspace coordinates below are test code: the
oracle of build_so's closed brackets and form, of the spin action products
and of the g2 bracket table.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialortho.errors import SingularMatrix
from specialortho.exterior import all_multi_indices
from specialortho.linalg import det, nullspace, rank, rref
from specialortho.scalars import (
    ALPHA,
    L1,
    L2,
    L3,
    ONE,
    ZERO,
    Frac,
    dot,
    _P_ONE,
    _P_ZERO,
    _p_divexact,
    _p_lcm,
    _p_mul,
    rat,
    solve_linear,
)
from specialortho.suites import Workspace


def mat_vec(m, v):
    return [dot(zip(row, v)) for row in m]


def mat_mul(a, b):
    columns = list(zip(*b))
    return [[dot(zip(row, col)) for col in columns] for row in a]


class SubspaceCoords:
    """Coordinates with respect to a fixed independent list of vectors.

    Precomputes a transform T with T*A in reduced echelon form, where the
    columns of A are the basis vectors; express() is then one matrix-vector
    product plus a consistency check that the input lies in the span.
    """

    def __init__(self, basis, label=""):
        if not basis:
            raise SingularMatrix("empty basis")
        self.k = len(basis)
        self.n = len(basis[0])
        self.label = label
        aug = []
        for i in range(self.n):
            row = [basis[j][i] for j in range(self.k)]
            row.extend(ONE if t == i else ZERO for t in range(self.n))
            aug.append(row)
        R, pivots = rref(aug)
        if pivots[: self.k] != list(range(self.k)):
            raise SingularMatrix(f"dependent basis for {label or 'subspace'}")
        self.transform = [row[self.k :] for row in R]

    def express(self, v):
        w = mat_vec(self.transform, v)
        for r in range(self.k, self.n):
            if not w[r].is_zero():
                raise SingularMatrix(f"vector outside {self.label or 'subspace'} span")
        return w[: self.k]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def trace(m):
    s = ZERO
    for i, row in enumerate(m):
        s = s + row[i]
    return s


def test_rref_pivots():
    m = [[ONE, rat(2), rat(3)], [rat(2), rat(4), rat(6)], [ZERO, ONE, ONE]]
    R, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_nullspace_dimension_and_membership():
    m = [[ONE, rat(2), rat(3)], [rat(2), rat(4), rat(6)], [ZERO, ONE, ONE]]
    basis = nullspace(m)
    assert len(basis) == 1
    for v in basis:
        assert all(x == ZERO for x in mat_vec(m, v))


def test_det_diagonal_and_singular():
    assert det([[L1, ZERO], [ZERO, L2]]) == L1 * L2
    assert det([[ONE, ONE], [ONE, ONE]]) == ZERO
    assert det(identity(4)) == ONE


def test_det_symbolic_3x3_matches_cofactor():
    # the second pivot is l2 * (a + 1): elimination divides only by
    # denominators of the field's set
    m = [
        [L1, ONE, ZERO],
        [-L1 * L2, ALPHA * L2, ONE],
        [ONE, ZERO, L3],
    ]
    cofactor = (
        L1 * (ALPHA * L2 * L3 - ZERO)
        - ONE * (-L1 * L2 * L3 - ONE)
        + ZERO
    )
    assert det(m) == cofactor


def test_det_row_swap_sign():
    m = [[ZERO, ONE], [ONE, ZERO]]
    assert det(m) == rat(-1)


def test_trace_and_transpose():
    m = [[L1, ONE], [ZERO, L2]]
    assert trace(m) == L1 + L2
    assert transpose(m) == [[L1, ZERO], [ONE, L2]]
    assert mat_mul(identity(2), m) == m


def test_subspace_coords_roundtrip():
    b1 = [ONE, ZERO, L1]
    b2 = [ZERO, ONE, L2]
    coords = SubspaceCoords([b1, b2], label="test plane")
    v = [rat(3), rat(-2), rat(3) * L1 - rat(2) * L2]
    assert coords.express(v) == [rat(3), rat(-2)]


def test_subspace_coords_outside_span():
    coords = SubspaceCoords([[ONE, ZERO, ZERO]], label="axis")
    with pytest.raises(SingularMatrix):
        coords.express([ZERO, ONE, ZERO])


def test_subspace_coords_dependent_basis():
    with pytest.raises(SingularMatrix):
        SubspaceCoords([[ONE, ZERO], [rat(2), ZERO]])


# -- oracles for the elimination core -------------------------------------------
# det, solve_linear, rref and nullspace all run on one Gauss-Jordan
# elimination in the field.  The checks below compare them with a cofactor
# expansion and with fraction-free Bareiss elimination on the cleared
# integer-polynomial rows, the core the library used before; neither
# shares code with it.


def _p_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def bareiss(matrix, columns=(), square=False):
    """Fraction-free forward elimination: (rows, pivots, sign, den), with
    every entry of a pivot row a minor of the cleared matrix, so that the
    last pivot of a nonsingular square matrix is sign * den * det."""
    n = len(matrix[0]) if matrix else 0
    if columns:
        matrix = [[*row, *[col[i] for col in columns]] for i, row in enumerate(matrix)]
    rows = []
    den = _P_ONE
    for row in matrix:
        lcm = _P_ONE
        for f in row:
            if f.den != _P_ONE:
                lcm = _p_lcm(lcm, f.den)
        rows.append([_p_mul(f.num, _p_divexact(lcm, f.den)) for f in row])
        den = _p_mul(den, lcm)
    m, width = len(rows), n + len(columns)
    pivots, sign, prev = [], 1, _P_ONE
    for k in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][k]), None)
        if piv is None:
            if square:
                break
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        row_r, pk = rows[r], rows[r][k]
        for row_i in rows[r + 1 :]:
            rik = row_i[k]
            for j in range(k + 1, width):
                num = _p_sub(_p_mul(pk, row_i[j]), _p_mul(rik, row_r[j]))
                row_i[j] = _p_divexact(num, prev)
            row_i[k] = _P_ZERO
        pivots.append(k)
        prev = pk
    return rows, pivots, sign, den


def bareiss_det(matrix):
    n = len(matrix)
    rows, pivots, sign, den = bareiss(matrix, square=True)
    if len(pivots) < n:
        return ZERO
    d = Frac(rows[n - 1][n - 1], den)
    return d if sign > 0 else -d


def bareiss_rref(matrix):
    """The pivot rows over their pivots, then cleared upwards in the field."""
    polys, pivots, _, _ = bareiss(matrix)
    n = len(matrix[0]) if matrix else 0
    R = [[ZERO] * n for _ in matrix]
    for r, c in enumerate(pivots):
        R[r][c:] = [Frac(x, polys[r][c]) if x else ZERO for x in polys[r][c:]]
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        for i in range(r):
            f = R[i][c]
            R[i] = [a - f * b for a, b in zip(R[i], R[r])]
    return R, pivots


def bareiss_nullspace(matrix):
    n = len(matrix[0]) if matrix else 0
    R, pivots = bareiss_rref(matrix)
    out = []
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -R[r][free]
        out.append(v)
    return out


def bareiss_solve(matrix, columns):
    """Back-substitution over the eliminated rows, one solution per column,
    or None for a singular matrix."""
    n = len(matrix)
    aug, pivots, _, _ = bareiss(matrix, columns, square=True)
    if len(pivots) < n:
        return None
    solutions = []
    for c in range(len(columns)):
        x = [ZERO] * n
        for i in range(n - 1, -1, -1):
            s = Frac(aug[i][n + c], _P_ONE)
            for j in range(i + 1, n):
                s = s - Frac(aug[i][j], _P_ONE) * x[j]
            x[i] = s / Frac(aug[i][i], _P_ONE)
        solutions.append(x)
    return solutions


_ATOMS = (ZERO, ZERO, ONE, rat(-1), rat(2), rat(-3), L1, L2, ONE / L1)
_entries = st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=2).map(
    lambda terms: sum(terms, ZERO)
)


_CONSTANTS = st.sampled_from((0, 0, 1, -1, 2, -3))


def scaled_matrix(draw, n, scales):
    """D1 C D2 with C an n x n integer matrix and D1, D2 diagonal, drawn
    from scales: every minor, so every pivot, is an integer times a product
    of scales.  Sometimes singular, yet not sparse: C's last row is then in
    the span of its first rows."""
    c = [[draw(_CONSTANTS) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(_CONSTANTS)
        c[-1] = [x + k * y for x, y in zip(c[0], c[n - 2])]
    rows = [draw(scales) for _ in range(n)]
    cols = [draw(scales) for _ in range(n)]
    return [[r * x * s for x, s in zip(row, cols)] for r, row in zip(rows, c)]


# row and column scales from the denominator set, two with a + 1
_SCALES = st.sampled_from(
    (ONE, ONE, rat(-2), L1, L2, ONE / L1, ALPHA + 1, L2 / (ALPHA + 1) ** 2)
)


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = scaled_matrix(draw, n, _SCALES)
    b = [draw(_entries) for _ in range(n)]
    return m, b


# a rational times a Laurent monomial in l1, l2, l3, as the graded Grams hold
_monomials = st.builds(
    lambda c, e1, e2, e3: rat(c) * L1**e1 * L2**e2 * L3**e3,
    st.sampled_from((1, -1, 2, -3, 1, -1)),
    *[st.integers(min_value=-1, max_value=1)] * 3,
)


@st.composite
def graded_systems(draw):
    """A block-diagonal matrix of monomial blocks (one per grade), some
    singular, with its rows and columns permuted."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
    n = sum(sizes)
    m = [[ZERO] * n for _ in range(n)]
    start = 0
    for size in sizes:
        # homogeneous: entry (i, j) is c_ij times the monomials of row i
        # and column j
        block = scaled_matrix(draw, size, _monomials)
        for i, row in enumerate(block):
            m[start + i][start : start + size] = row
        start += size
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    m = [[m[r][c] for c in cols] for r in rows]
    b = [draw(_monomials) if draw(st.booleans()) else ZERO for _ in range(n)]
    return m, b


def laplace(m):
    if not m:
        return ONE
    total = ZERO
    for j, a in enumerate(m[0]):
        if a.num:
            term = a * laplace([row[:j] + row[j + 1 :] for row in m[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


@given(st.one_of(square_systems(), graded_systems()))
@settings(max_examples=120, deadline=None)
def test_elimination_core_against_oracle(system):
    m, b = system
    n = len(m)
    d = det(m)
    assert d == laplace(m) == bareiss_det(m)
    want = bareiss_solve(m, [b])
    if d.is_zero():
        assert want is None
        with pytest.raises(SingularMatrix):
            solve_linear(m, b)
    else:
        x = solve_linear(m, b)
        assert [x] == want
        assert mat_vec(m, x) == b
    R, pivots = rref(m)
    assert (R, pivots) == bareiss_rref(m)
    r = rank(m)
    assert (r == n) == (not d.is_zero())
    kernel = nullspace(m)
    assert kernel == bareiss_nullspace(m)
    assert len(kernel) == n - r
    for v in kernel:
        assert all(x.is_zero() for x in mat_vec(m, v))


@pytest.mark.parametrize(
    "bindings", [{}, dict(l1=rat(2), l2=rat(3), l3=rat(-5), alpha=rat(2))]
)
def test_workspace_grams_and_g2_moment_system_match_the_oracle(bindings):
    ws = Workspace(**bindings)
    for rep in (ws.g2_rep, ws.so7_rep, ws.family_rep):
        gram = rep.algebra_space.gram
        assert det(gram) == bareiss_det(gram)
        assert rref(gram) == bareiss_rref(gram)
    # the system moment_map solves for g2, whose Gram is not diagonal
    rep = ws.g2_rep
    space, gram = rep.space, rep.algebra_space.gram
    columns = [
        [space.pair(rep.act.table[a][i - 1], space.basis_vector(j - 1)) for a in range(14)]
        for i, j in all_multi_indices(7, 2)
    ]
    assert solve_linear(gram, columns) == bareiss_solve(gram, columns)
