"""Echelon form, rank, nullspace, determinants, subspace coordinates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specialortho.errors import SingularMatrix
from specialortho.linalg import (
    SubspaceCoords,
    det,
    identity,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    trace,
    transpose,
)
from specialortho.scalars import ALPHA, L1, L2, L3, ONE, ZERO, rat, solve_linear


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
    m = [
        [L1, ONE, ZERO],
        [ALPHA, L2, ONE],
        [ONE, ZERO, L3],
    ]
    cofactor = (
        L1 * (L2 * L3 - ZERO)
        - ONE * (ALPHA * L3 - ONE)
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


# -- oracle for the elimination core -------------------------------------------
# det, solve_linear, rank and nullspace all run on one fraction-free
# elimination; the checks below use only field arithmetic and a cofactor
# expansion, so they share no code with it.

_ATOMS = (ZERO, ZERO, ONE, rat(-1), rat(2), rat(-3), L1, L2, ONE / L1)
_entries = st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=2).map(
    lambda terms: sum(terms, ZERO)
)


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a last row in the span of the first rows: singular, yet not sparse
        c = draw(_entries)
        m[-1] = [x + c * y for x, y in zip(m[0], m[n - 2])]
    b = [draw(_entries) for _ in range(n)]
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


@given(square_systems())
@settings(max_examples=80, deadline=None)
def test_elimination_core_against_oracle(system):
    m, b = system
    n = len(m)
    d = det(m)
    assert d == laplace(m)
    if d.is_zero():
        with pytest.raises(SingularMatrix):
            solve_linear(m, b)
    else:
        assert mat_vec(m, solve_linear(m, b)) == b
    r = rank(m)
    assert (r == n) == (not d.is_zero())
    kernel = nullspace(m)
    assert len(kernel) == n - r
    for v in kernel:
        assert all(x.is_zero() for x in mat_vec(m, v))
