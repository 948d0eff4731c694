"""Quadratic spaces and multi-index combinatorics; the exterior product of
basis forms and index raising, on scalar-valued alternating maps."""

from __future__ import annotations

import pytest

from specialortho.altmap import AltMap, eta_inv, wedge_rel
from specialortho.errors import ShapeMismatch, SingularMatrix
from specialortho.exterior import (
    K,
    QuadraticSpace,
    all_multi_indices,
    complement_index,
    render_multi_index,
)
from specialortho.scalars import L1, L2, ONE, ZERO, rat


def diag_space(*qs, name="V"):
    n = len(qs)
    gram = [[qs[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return QuadraticSpace([f"e{i+1}" for i in range(n)], gram, name=name)


@pytest.fixture(scope="module")
def V3():
    return diag_space(ONE, L1, L2, name="V3")


def form(space, coeffs):
    """Scalar-valued map with the given values on increasing multi-indices."""
    degree = len(next(iter(coeffs)))
    return AltMap(space, K, degree, {I: [c] for I, c in coeffs.items()})


def wedge(x, y):
    return wedge_rel(x, y)


def test_space_validation():
    with pytest.raises(ShapeMismatch):
        QuadraticSpace(("x", "y"), [[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(SingularMatrix):
        QuadraticSpace(("x",), [[ZERO]])
    with pytest.raises(ShapeMismatch):
        QuadraticSpace(("x",), [[ONE, ZERO]])


def test_multi_index_rendering():
    assert render_multi_index((1, 2, 4, 7)) == "e_{1247}"
    assert render_multi_index(()) == "1"
    assert len(all_multi_indices(7, 3)) == 35
    assert complement_index((1, 2, 4, 7), 7) == (3, 5, 6)


def test_merge_sign(V3):
    e12 = form(V3, {(1, 2): ONE})
    e23 = form(V3, {(2, 3): ONE})
    e1, e2, e3 = (form(V3, {(i,): ONE}) for i in (1, 2, 3))
    assert wedge(e12, e3) == form(V3, {(1, 2, 3): ONE})
    assert wedge(e3, e12) == form(V3, {(1, 2, 3): ONE})
    assert wedge(e2, e1) == form(V3, {(1, 2): rat(-1)})
    assert wedge(e12, e23).is_zero()


def test_wedge_anticommutes_degree_one(V3):
    e1 = form(V3, {(1,): ONE})
    e2 = form(V3, {(2,): ONE})
    assert wedge(e1, e2) == form(V3, {(1, 2): ONE})
    assert wedge(e2, e1) == form(V3, {(1, 2): rat(-1)})
    assert wedge(e1, e1).is_zero()


def test_wedge_associative(V3):
    e1, e2, e3 = (form(V3, {(i,): ONE}) for i in (1, 2, 3))
    x = wedge(wedge(e1, e2), e3)
    y = wedge(e1, wedge(e2, e3))
    assert x == y
    assert x == form(V3, {(1, 2, 3): ONE})


def test_eta_roundtrip_diagonal(V3):
    # eta lowers e_I to q(e_I) e_I*; eta_inv must divide by q(e_I) again
    x = {(1, 2): rat(3), (2, 3): ONE / L1}
    lowered = form(V3, {I: c * V3.q_product(I) for I, c in x.items()})
    assert lowered.value((1, 2)) == [rat(3) * L1]
    assert eta_inv(lowered) == form(V3, x)
    f = form(V3, {(1, 3): L2, (2, 3): rat(5)})
    assert eta_inv(f).value((1, 3)) == [ONE]
    assert eta_inv(f).value((2, 3)) == [rat(5) / (L1 * L2)]


def test_eta_inv_shape_guards(V3):
    hyperbolic = QuadraticSpace(("u", "v"), [[ZERO, ONE], [ONE, ZERO]], name="H")
    with pytest.raises(ShapeMismatch):
        eta_inv(form(hyperbolic, {(1,): L1, (2,): rat(2)}))
    with pytest.raises(ShapeMismatch):
        eta_inv(AltMap(V3, V3, 1, {(1,): [ONE, ZERO, L1]}))
