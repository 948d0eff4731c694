"""The one-parameter family on the tensor product of two symplectic planes.

Two copies of sl2 act on V (x) W, a four-dimensional quadratic space with
(v1 (x) w1, v2 (x) w2) = -omega_V(v1, v2) omega_W(w1, w2).  The invariant
form on sl2(V) + sl2(W) carries weights 1/alpha and 1/beta; the moment map

    mu(v1 (x) w1, v2 (x) w2)
        = -(alpha mu_V(v1, v2) omega_W(w1, w2)
            + beta mu_W(w1, w2) omega_V(v1, v2))

is special orthogonal exactly when alpha + beta = -1, in which case the
derived covariants carry the overall factor 2 alpha + 1 and vanish at the
midpoint alpha = -1/2.
"""

from __future__ import annotations

from typing import Optional

from .altmap import AltMap, first_difference
from .errors import ZeroParameter
from .exterior import K, QuadraticSpace, all_multi_indices
from .quadlie import QuadLieRep, moment_map
from .scalars import Frac, ONE, ZERO, rat

Vector = list[Frac]

# sl2 in the ordered basis (h, e, f)
SL2_LABELS = ("h", "e", "f")
HALF = rat(1, 2)


def sl2_half_trace_gram() -> list[list[Frac]]:
    """K(x, y) = Tr(xy)/2 on the plane representation, in (h, e, f)."""
    return [
        [ONE, ZERO, ZERO],
        [ZERO, ZERO, HALF],
        [ZERO, HALF, ZERO],
    ]


def sl2_bracket_table() -> dict:
    """[h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return {
        (0, 1): {1: rat(2)},
        (0, 2): {2: rat(-2)},
        (1, 2): {0: ONE},
    }


def sl2_plane_action() -> list[list[Vector]]:
    """h, e, f on the plane basis (a1, a2) as their columns (x a1, x a2):
    h a1 = a1, h a2 = -a2, e a2 = a1, f a1 = a2, and e a1 = f a2 = 0."""
    h = [[ONE, ZERO], [ZERO, -ONE]]
    e = [[ZERO, ZERO], [ONE, ZERO]]
    f = [[ZERO, ONE], [ZERO, ZERO]]
    return [h, e, f]


def omega_plane(i: int, j: int) -> Frac:
    """omega(a1, a2) = 1 on 0-based plane indices."""
    if (i, j) == (0, 1):
        return ONE
    if (i, j) == (1, 0):
        return -ONE
    return ZERO


def mu_plane(i: int, j: int) -> Vector:
    """mu(a_i, a_j) in (h, e, f): the symmetric moment of sl2 on its plane,
    mu(v1, v2) v3 = -omega(v1, v3) v2 - omega(v2, v3) v1."""
    if i > j:
        i, j = j, i
    if (i, j) == (0, 0):
        return [ZERO, rat(-2), ZERO]
    if (i, j) == (0, 1):
        return [ONE, ZERO, ZERO]
    return [ZERO, ZERO, rat(2)]


def tensor_space() -> QuadraticSpace:
    """V (x) W with basis v_i (x) w_j in the order 11, 12, 21, 22."""
    gram = [[ZERO] * 4 for _ in range(4)]
    for a in range(4):
        ia, ja = divmod(a, 2)
        for b in range(4):
            ib, jb = divmod(b, 2)
            gram[a][b] = -omega_plane(ia, ib) * omega_plane(ja, jb)
    labels = tuple(f"v{i+1}w{j+1}" for i in range(2) for j in range(2))
    return QuadraticSpace(labels, gram, name="VxW")


def build_family(alpha: Frac, beta: Frac) -> QuadLieRep:
    """sl2(V) + sl2(W) on V (x) W with form K_V / alpha + K_W / beta."""
    if alpha.is_zero() or beta.is_zero():
        raise ZeroParameter("the family needs nonzero weights on both factors")
    space = tensor_space()
    base = sl2_half_trace_gram()
    gram = [[ZERO] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            if base[i][j].num:
                gram[i][j] = base[i][j] / alpha
                gram[3 + i][3 + j] = base[i][j] / beta
    labels = tuple(l + "V" for l in SL2_LABELS) + tuple(l + "W" for l in SL2_LABELS)
    algebra_space = QuadraticSpace(labels, gram, name="sl2+sl2")
    table = {}
    for (i, j), row in sl2_bracket_table().items():
        table[(i, j)] = dict(row)
        table[(3 + i, 3 + j)] = {3 + k: c for k, c in row.items()}
    plane = sl2_plane_action()
    # the column at v_a (x) w_b, position 2 a + b, is (x v_a) (x) w_b for X
    # acting through the V factor, and v_a (x) (y w_b) for Y through W
    basis = [divmod(t, 2) for t in range(4)]
    cols = [
        [[x[a][i] if j == b else ZERO for i, j in basis] for a, b in basis]
        for x in plane
    ] + [
        [[y[b][j] if i == a else ZERO for i, j in basis] for a, b in basis]
        for y in plane
    ]
    return QuadLieRep("family", algebra_space, table, cols, space)


def mu_family_expected(rep: QuadLieRep, alpha: Frac, beta: Frac) -> AltMap:
    """The displayed moment map as a map Lambda^2(V (x) W) -> sl2 + sl2."""
    space = rep.space
    algebra_space = rep.algebra_space
    coeffs = {}
    for index in all_multi_indices(4, 2):
        a, b = index[0] - 1, index[1] - 1
        ia, ja = divmod(a, 2)
        ib, jb = divmod(b, 2)
        out = [ZERO] * 6
        ww = omega_plane(ja, jb)
        if ww.num:
            for k, c in enumerate(mu_plane(ia, ib)):
                if c.num:
                    out[k] = -alpha * c * ww
        vv = omega_plane(ia, ib)
        if vv.num:
            for k, c in enumerate(mu_plane(ja, jb)):
                if c.num:
                    out[3 + k] = -beta * c * vv
        coeffs[index] = out
    return AltMap(space, algebra_space, 2, coeffs, name="mu_family_closed")


def psi_family_expected(rep: QuadLieRep, alpha: Frac) -> AltMap:
    """The displayed degree-3 covariant at beta = -1 - alpha.

    psi(v1 (x) w1, v2 (x) w2, v3 (x) w3) = 3 (2 alpha + 1) (
        omega_V(v1, v3) v2 (x) omega_W(w3, w2) w1
        + omega_V(v2, v3) v1 (x) omega_W(w1, w3) w2 )
    evaluated on basis tuples, where it agrees with the alternating map.
    """
    space = rep.space
    factor = rat(3) * (rat(2) * alpha + ONE)
    coeffs = {}
    for index in all_multi_indices(4, 3):
        a, b, c = (t - 1 for t in index)
        ia, ja = divmod(a, 2)
        ib, jb = divmod(b, 2)
        ic, jc = divmod(c, 2)
        out = [ZERO] * 4
        t1 = omega_plane(ia, ic) * omega_plane(jc, jb)
        if t1.num:
            out[2 * ib + ja] = out[2 * ib + ja] + factor * t1
        t2 = omega_plane(ib, ic) * omega_plane(ja, jc)
        if t2.num:
            out[2 * ia + jb] = out[2 * ia + jb] + factor * t2
        coeffs[index] = out
    return AltMap(space, space, 3, coeffs, name="psi_family_closed")


def quad_family_expected(rep: QuadLieRep, alpha: Frac) -> AltMap:
    """The displayed degree-4 invariant at beta = -1 - alpha.

    Q = -12 (2 alpha + 1) (
        omega_V(v2, v4) omega_V(v1, v3) omega_W(w4, w3) omega_W(w1, w2)
        + omega_V(v3, v4) omega_V(v1, v2) omega_W(w2, w4) omega_W(w1, w3) )
    """
    space = rep.space
    factor = rat(-12) * (rat(2) * alpha + ONE)
    coeffs = {}
    for index in all_multi_indices(4, 4):
        a, b, c, d = (t - 1 for t in index)
        ia, ja = divmod(a, 2)
        ib, jb = divmod(b, 2)
        ic, jc = divmod(c, 2)
        id_, jd = divmod(d, 2)
        value = factor * (
            omega_plane(ib, id_) * omega_plane(ia, ic)
            * omega_plane(jd, jc) * omega_plane(ja, jb)
            + omega_plane(ic, id_) * omega_plane(ia, ib)
            * omega_plane(jb, jd) * omega_plane(ja, jc)
        )
        coeffs[index] = [value]
    return AltMap(space, K, 4, coeffs, name="quad_family_closed")


def swap_family_witness(alpha: Frac, beta: Frac) -> Optional[str]:
    """Exchanging the tensor factors carries the (alpha, beta) moment map to
    the (beta, alpha) one: mu_ab(v, w) is mu_ba on the swapped arguments,
    with its two sl2 blocks exchanged."""
    mu_ab = moment_map(build_family(alpha, beta))
    mu_ba = moment_map(build_family(beta, alpha))
    # the swap sends v_i (x) w_j, at position 2 i + j, to position 2 j + i
    swapped = [mu_ba.domain.basis_vector(2 * (a % 2) + a // 2) for a in range(4)]
    coeffs = {}
    for a, b in all_multi_indices(4, 2):
        got = mu_ba.evaluate([swapped[a - 1], swapped[b - 1]])
        coeffs[(a, b)] = got[3:] + got[:3]
    return first_difference(AltMap(mu_ab.domain, mu_ab.codomain, 2, coeffs), mu_ab)
