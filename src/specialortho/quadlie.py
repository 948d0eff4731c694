"""Quadratic Lie algebra representations and their moment-map covariants.

SuperAlgebra is the one sparse bracket table of the package, with the one
graded Jacobi scan and the one form-invariance scan (on cleared integer
terms, by scalars.add_products, as moment_action).  A QuadLieRep packages
an algebra with invariant form (as a QuadraticSpace), its bracket table as a
purely even SuperAlgebra (``rep.algebra``), and its skew action on a
quadratic module as the bilinear map ``rep.act``; superalg builds the
exceptional superalgebras on top of ``rep.algebra``, and reads the identities
of the module (g with B_g, rho, mu) from the two scans of their assembly.
The moment map mu is solved from B_g(x, mu(v, w)) = B_V(rho(x) v, w); a
moment map is special orthogonal when

    mu(u, v) w + mu(u, w) v = (u, v) w + (u, w) v - 2 (v, w) u,

and in that case the degree-3 covariant psi and the degree-4 invariant Q
close the ladder of identities checked by mathews_status: the wedge and
composition identities relating mu, psi, Q, and the identity map.  psi, Q
and the octonion cyclic sums are shuffle products, by altmap.wedge_rel.  Each
identity is reported as a CheckRecord, built by run_check (timed) or
vacuous_check; the verification suites use the same two helpers.

The module also carries the closed-form values of these covariants on the
imaginary octonions and on the full octonions, and the decompositions of the
index-raised forms whose supports are Fano lines, their complements, and the
affine planes of the parallelepiped spanned by the three doubling steps.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import accumulate, combinations, product
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .altmap import (
    AltMap,
    PairingSpec,
    compose,
    eta_inv,
    first_difference,
    wedge_rel,
)
from .clifford import CliffordAlgebra, CliffordElement, PAIR_MASKS, _mask_to_tuple
from .errors import NotImaginary, ShapeMismatch, SingularMatrix, WrongDimension
from .exterior import K, QuadraticSpace, all_multi_indices, complement_index
from .octonions import OctonionAlgebra, fano_lines
from .scalars import (
    KEY_MASK,
    ROW_SHIFT,
    Frac,
    ONE,
    ZERO,
    add_products,
    clear_denominators,
    dot,
    flat_terms,
    rat,
    solve_linear,
    uncleared,
)

Vector = list[Frac]
Matrix = list[list[Frac]]


_SECTORS = ("EEE", "EEO", "EOO", "OOO")


class SuperAlgebra:
    """Finite-dimensional Lie superalgebra with a supersymmetric form.

    This is the one sparse bracket table of the package: a quadratic Lie
    algebra is the purely even case.  ``table`` holds the nonzero rows
    {k: coeff} of the brackets for index pairs i <= j over the concatenated
    even + odd basis.  The rows of the other order follow by
    super-antisymmetry: the (j, i) row is the (i, j) row itself when both
    are odd and its negation otherwise.  ``bracket`` hands out the Frac rows
    of both orders, built on its first call, so they are shared and read
    only.  The form is a full matrix, block-diagonal across the parity
    split, symmetric on the even part and antisymmetric on the odd part; the
    constructor checks it on its nonzero entries and their transposes, in
    the order of a full scan.  Both scans name basis triples (jacobi_text
    and invariance_text write them out) and read ``table`` cleared once
    (``scalars.clear_denominators``), each (j, i) row its (i, j) row with
    the integers negated or not, with no Frac sums.
    """

    def __init__(
        self,
        name: str,
        even_labels: Sequence[str],
        odd_labels: Sequence[str],
        brackets: dict,
        form: Matrix,
    ):
        self.name = name
        self.even_labels = tuple(even_labels)
        self.odd_labels = tuple(odd_labels)
        self.even_dim = len(self.even_labels)
        self.odd_dim = len(self.odd_labels)
        self.dim = self.even_dim + self.odd_dim
        self.labels = self.even_labels + self.odd_labels
        if len(form) != self.dim or any(len(r) != self.dim for r in form):
            raise ShapeMismatch("form matrix must cover the full basis")
        self.form = [list(r) for r in form]
        # a cell fails only where it or its transpose is nonzero: those
        # cells in row-major order, each checked as a dense scan would
        even = self.even_dim
        cells = set()
        for i, r in enumerate(self.form):
            for j, f in enumerate(r):
                if f.num:
                    cells.update(((i, j), (j, i)))
        for i, j in sorted(cells):
            if (i < even) != (j < even) and self.form[i][j].num:
                raise ShapeMismatch("form must vanish across the parity split")
            want = self.form[j][i]
            if i >= even and j >= even:
                want = -want
            if self.form[i][j] != want:
                raise ShapeMismatch("form is not supersymmetric")
        self.table: dict[tuple[int, int], dict[int, Frac]] = {}
        for (i, j), row in brackets.items():
            if i > j:
                raise ShapeMismatch("bracket keys must be non-decreasing pairs")
            if i == j and i < even:
                raise ShapeMismatch("an even element brackets itself to zero")
            cleaned = {k: c for k, c in row.items() if c.num}
            if cleaned:
                self.table[(i, j)] = cleaned
        self.odd_odd_scale: Optional[Frac] = None

    def parity(self, i: int) -> int:
        return 0 if i < self.even_dim else 1

    def bracket(self, i: int, j: int) -> dict[int, Frac]:
        """Sparse coordinates of [x_i, x_j]; the stored row, read only."""
        return self._rows.get((i, j), {})

    @cached_property
    def _rows(self) -> dict:
        # the signed rows of both orders: at i < j the (j, i) row is the
        # (i, j) row itself when both are odd, else its negation
        rows = dict(self.table)
        for (i, j), row in self.table.items():
            if i != j:
                rows[(j, i)] = row if i >= self.even_dim else {k: -c for k, c in row.items()}
        return rows

    # -- checks ---------------------------------------------------------

    @cached_property
    def _cleared_rows(self) -> dict:
        # table cleared once; each (j, i) row is the cleared (i, j) row,
        # negated unless both are odd (i <= j, so when i is odd)
        rows = clear_denominators(self.table)[1]
        for (i, j), row in list(rows.items()):
            if i != j:
                rows[(j, i)] = row if i >= self.even_dim else tuple((k, -v) for k, v in row)
        return rows

    def super_jacobi_check(self) -> dict:
        """Per parity sector of the graded Jacobi identity, the first failing
        index triple at each output basis index: {k: (x, y, z)}, where k is
        a coordinate at which J(x, y, z) is nonzero, in the order the scan
        meets them.  An empty dict means the sector is clean.

        J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]].  With a
        super-antisymmetric bracket J is graded-alternating, so it vanishes
        at a triple exactly when it vanishes at the sorted triple, and the
        sector depends only on the parities.  The scan therefore runs over
        x <= y <= z in lexicographic order, and the least triple of a
        sector is the first failure of a scan over every x and every pair
        y <= z.  At one triple the output indices are met in the order
        their terms first appear: those of [x,[y,z]], then of [[x,y],z],
        then of [y,[x,z]].

        Each term of J is a product of two table entries, so with the rows
        over one common denominator L, L^2 J(x,y,z) is a sum of products of
        integer numerators.  For each pair x <= y one dict holds it for every
        z >= y at once, keyed by z, the output index and the monomial, from
        one ``add_products`` call per term of J.  The flat terms of a are the
        terms of every row [a, z], sorted by z, with z's offset in the key
        (``scalars.flat_terms``), so [x,[y,z]] and [y,[x,z]] are the slices
        z >= y of the flat terms of y and of x against the rows of x and of
        y.  For [[x,y],z] the terms of [x,y], scaled by -1, meet the wide
        rows: that of m holds the terms of every row [m, z] with z >= y,
        each at its output z n + i, one copy per distinct start.  These
        layouts are made afresh by each scan; only the cleared rows are kept.
        """
        out: dict[str, dict[int, tuple[int, int, int]]] = {s: {} for s in _SECTORS}
        n = self.dim
        # rows[a][z]: the row [a, z], () where it is zero; at[a][y]: the
        # position in flat[a] and in the wide row of a of the first z >= y
        rows: list[list] = [[()] * n for _ in range(n)]
        for (a, z), row in self._cleared_rows.items():
            rows[a][z] = row
        step = n << ROW_SHIFT
        flat = [flat_terms((z * step, row) for z, row in enumerate(r)) for r in rows]
        at = [list(accumulate(map(len, r), initial=0)) for r in rows]
        # wide[y][m]: the table terms of the rows [m, z], z >= y, at z n + i
        wide: list[list] = [[()] * n for _ in range(n)]
        for m, r in enumerate(rows):
            terms = [(z * step + mk, v) for z, row in enumerate(r) for mk, v in row]
            start = suffix = None
            for y in range(n):
                if at[m][y] != start:
                    start = at[m][y]
                    suffix = terms[start:]
                wide[y][m] = suffix
        own = [flat[y][at[y][y] :] for y in range(n)]
        for x in range(n):
            px, rx = self.parity(x), rows[x]
            # -(-1)^{|x||y|} is 1 at odd x (and so odd y >= x), else -1
            signed = flat[x] if px else [(k, i, -c) for k, i, c in flat[x]]
            for y in range(x, n):
                # L^2 times [x,[y,z]], -[[x,y],z] and -(-1)^{|x||y|} [y,[x,z]]
                acc: dict = {}
                add_products(acc, own[y], rx)
                add_products(acc, flat_terms(((0, rx[y]),), -1), wide[y])
                add_products(acc, signed[at[x][y] :], rows[y])
                if not any(acc.values()):
                    continue
                # the failing (z, i) by increasing z, each z's i in the order met
                failing = [k >> ROW_SHIFT for k, v in acc.items() if v]
                for z, i in sorted((divmod(r, n) for r in failing), key=itemgetter(0)):
                    out[_SECTORS[px + self.parity(y) + self.parity(z)]].setdefault(i, (x, y, z))
        return out

    def form_invariance_witness(self) -> dict[str, tuple[int, int, int]]:
        """Per parity sector, the first basis triple (x, y, z) with
        B([x,y],z) != B(x,[y,z]) in the order of a scan over every triple;
        a sector without one is absent, so {} means the form is invariant.

        For each x only the (y, z) where a side can be nonzero are visited:
        B([x,y],z) is read from the stored rows [x,y] and the nonzero form
        entries, B(x,[y,z]) from the rows [y,z] with a term at an m where
        B(x, e_m) != 0.  On a graded table every failing z of one (x, y) has
        the parity of x + y, so the least triple over the sectors is the
        least failing z of the first failing (x, y).

        The table and the form are each put over one common denominator,
        L_t and L_f, so L_t L_f (B([x,y],z) - B(x,[y,z])) is a sum of
        products of integer numerators.  One dict per x holds it for every
        (y, z), from one ``add_products`` call per side: the flat terms of
        every row [x, y], y's offset in the key, against the cleared form,
        and the form row of x, scaled by -1, against the terms at each m of
        every row [y, z].
        """
        n = self.dim
        nonzero = {x: {z: f for z, f in enumerate(r) if f.num} for x, r in enumerate(self.form)}
        _, cleared = clear_denominators(nonzero)
        form = [cleared[x] for x in range(n)]
        # flat[x]: the flat terms of the rows [x, y], at y n; terms_at[m]:
        # the terms at m of every row [y, z], at y n + z
        flat: list[list] = [[] for _ in range(n)]
        terms_at: list[list] = [[] for _ in range(n)]
        for (a, b), row in self._cleared_rows.items():
            offset, pair = (b * n) << ROW_SHIFT, (a * n + b) << ROW_SHIFT
            left = flat[a]
            for mk, c in row:
                k, m = mk & KEY_MASK, mk >> ROW_SHIFT
                left.append((k + offset, m, c))
                terms_at[m].append((k + pair, c))
        out: dict[str, tuple[int, int, int]] = {}
        for x in range(n):
            acc: dict = {}
            add_products(acc, flat[x], form)
            add_products(acc, flat_terms(((0, form[x]),), -1), terms_at)
            for yz in sorted({k >> ROW_SHIFT for k, v in acc.items() if v}):
                y, z = divmod(yz, n)
                sector = _SECTORS[self.parity(x) + self.parity(y) + self.parity(z)]
                out.setdefault(sector, (x, y, z))
        return out

    def jacobi_text(self, triple: Optional[tuple]) -> Optional[str]:
        """``J(x, y, z) != 0`` for a basis triple, None for None."""
        if triple is None:
            return None
        return "J({}, {}, {}) != 0".format(*(self.labels[t] for t in triple))

    def invariance_text(self, triple: Optional[tuple]) -> Optional[str]:
        """``B([x,y],z) != B(x,[y,z])`` for a basis triple, None for None."""
        if triple is None:
            return None
        x, y, z = (self.labels[t] for t in triple)
        return f"B([{x},{y}],{z}) != B({x},[{y},{z}])"

    def __repr__(self) -> str:
        return f"SuperAlgebra({self.name}: {self.even_dim}|{self.odd_dim})"


class QuadLieRep:
    """A Lie algebra with invariant form acting skewly on a quadratic space.

    ``algebra`` is the Lie algebra as a purely even SuperAlgebra, named
    after ``algebra_space`` and with its gram matrix as the form;
    ``bracket_table`` gives the sparse rows {k: coeff} of [x_i, x_j], i < j.
    The action is given, for each algebra basis element x_a, as its columns
    rho(x_a) e_k, and stored as given as the PairingSpec ``act`` from g x V
    to V: ``act.table[a][k]`` is rho(x_a) e_k, a tuple, and
    ``act.rows[a][k]`` its integer terms over ``act.den``.  A moved action
    is a new QuadLieRep.
    """

    def __init__(
        self,
        name: str,
        algebra_space: QuadraticSpace,
        bracket_table: dict,
        action: Sequence[Sequence[Vector]],
        space: QuadraticSpace,
    ):
        self.name = name
        self.algebra_space = algebra_space
        self.space = space
        self.act = PairingSpec.action(algebra_space, space, action)
        self.algebra = SuperAlgebra(
            algebra_space.name,
            algebra_space.labels,
            (),
            bracket_table,
            algebra_space.gram,
        )

    @property
    def dim(self) -> int:
        return self.algebra_space.dim

    def __repr__(self) -> str:
        return (
            f"QuadLieRep({self.name}: dim {self.dim} acting on "
            f"{self.space.name} dim {self.space.dim})"
        )


# ---------------------------------------------------------------------------
# canonical so(V) data
# ---------------------------------------------------------------------------


def mu_can_value(space: QuadraticSpace, i: int, j: int, k: int) -> Vector:
    """mu_can(e_i, e_j) e_k = (e_i, e_k) e_j - (e_j, e_k) e_i (0-based)."""
    out = [ZERO] * space.dim
    bik = space.gram[i][k]
    bjk = space.gram[j][k]
    if bik.num:
        out[j] = out[j] + bik
    if bjk.num:
        out[i] = out[i] - bjk
    return out


def build_so(space: QuadraticSpace) -> tuple[QuadLieRep, AltMap]:
    """Fundamental representation of so(V) and the canonical moment map.

    The algebra basis is M_ij = mu_can(e_i, e_j) over increasing pairs, whose
    column k is mu_can_value(space, i, j, k).  With M_ba = -M_ab, M_aa = 0
    and B the Gram of V, the brackets and the form -Tr(xy)/2 are read off B:

        [M_ij, M_kl] = B_il M_kj + B_ik M_jl + B_jl M_ik + B_jk M_li,
        B_so(M_ij, M_kl) = B_ik B_jl - B_il B_jk,

    at most four terms, on four distinct basis elements.  Returns the
    representation together with mu_can as a map Lambda^2 V -> so(V), whose
    coefficients are exactly the basis vectors.
    """
    n, B = space.dim, space.gram
    pairs = list(combinations(range(n), 2))
    position = {pair: t for t, pair in enumerate(pairs)}
    table = {}
    for (a, (i, j)), (b, (k, l)) in combinations(enumerate(pairs), 2):
        row = {}
        for c, p, q in ((B[i][l], k, j), (B[i][k], j, l), (B[j][l], i, k), (B[j][k], l, i)):
            if c.num and p != q:
                row[position[min(p, q), max(p, q)]] = c if p < q else -c
        if row:
            table[(a, b)] = dict(sorted(row.items()))
    gram = [[B[i][k] * B[j][l] - B[i][l] * B[j][k] for k, l in pairs] for i, j in pairs]
    cols = [[mu_can_value(space, i, j, k) for k in range(n)] for i, j in pairs]
    labels = tuple(f"M{i+1}{j+1}" for i, j in pairs)
    so_space = QuadraticSpace(labels, gram, name=f"so({space.name})")
    rep = QuadLieRep(f"so({space.name})", so_space, table, cols, space)
    coeffs = {}
    for t, (i, j) in enumerate(pairs):
        vec = [ZERO] * len(pairs)
        vec[t] = ONE
        coeffs[(i + 1, j + 1)] = vec
    mu = AltMap(space, so_space, 2, coeffs, name="mu_can")
    return rep, mu


# ---------------------------------------------------------------------------
# moment maps and covariants
# ---------------------------------------------------------------------------


def moment_map(rep: QuadLieRep) -> AltMap:
    """Solve B_g(x_a, mu(e_i, e_j)) = B_V(rho(x_a) e_i, e_j) for all pairs.

    On a diagonal V the right side is one entry of the action column times
    q_j, a product only where that entry is nonzero; any other Gram pairs the
    whole column with e_j.
    """
    space, table = rep.space, rep.act.table
    indices = all_multi_indices(space.dim, 2)
    if space.is_diagonal:
        columns = []
        for i, j in indices:
            q = space.diag[j - 1]
            entries = (table[a][i - 1][j - 1] for a in range(rep.dim))
            columns.append([c * q if c.num else ZERO for c in entries])
    else:
        columns = [
            [space.pair(table[a][i - 1], space.basis_vector(j - 1)) for a in range(rep.dim)]
            for i, j in indices
        ]
    solutions = solve_linear(rep.algebra_space.gram, columns)
    coeffs = {index: sol for index, sol in zip(indices, solutions)}
    return AltMap(space, rep.algebra_space, 2, coeffs, name=f"mu[{rep.name}]")


class MomentAction:
    """The vectors mu(e_i, e_j) e_k of a moment map on 0-based module indices.

    mu is alternating, so only i < j is stored: ``vectors[(i, j)][k]`` is
    mu(e_i, e_j) e_k, and a pair where mu vanishes is absent.  The (j, i)
    vectors are the stored (i, j) ones read with the sign -1, which a reader
    applies where it compares (``signed``); no negation is stored.  The
    vectors are shared, read only.
    """

    def __init__(self, n: int, vectors: dict[tuple[int, int], list[Vector]]):
        self.n = n
        self.vectors = vectors

    def signed(self, i: int, j: int) -> tuple[int, Optional[list[Vector]]]:
        """(s, vectors) with mu(e_i, e_j) e_k = s * vectors[k] for every k,
        vectors None where mu(e_i, e_j) = 0."""
        if i <= j:
            return 1, self.vectors.get((i, j))
        return -1, self.vectors.get((j, i))

    def vector(self, i: int, j: int, k: int) -> Vector:
        """mu(e_i, e_j) e_k as a new list, the sign applied."""
        sign, vectors = self.signed(i, j)
        if vectors is None:
            return [ZERO] * self.n
        return list(vectors[k]) if sign > 0 else [-c for c in vectors[k]]


def moment_action(rep: QuadLieRep, mu: AltMap) -> MomentAction:
    """The MomentAction of mu: every mu(e_i, e_j) e_k, i < j.

    Each stored value mu(e_i, e_j) acts as integer terms: mu's cleared value
    (``AltMap.cleared``) against the cleared action rows, every column
    rho(x_a) e_k at once, one Frac per coordinate.
    """
    n = rep.space.dim
    den, values = mu.cleared
    # row a holds the columns k of rho(x_a) side by side, at rows k * n + r
    act = [
        [(((k * n) << ROW_SHIFT) + t, v) for k, col in enumerate(cols) for t, v in col]
        for cols in rep.act.rows
    ]
    vectors = {}
    for (i, j), value in values.items():
        acc: dict = {}
        add_products(acc, flat_terms(((0, value),)), act)
        flat = uncleared(acc, (den, rep.act.den), n * n)
        vectors[(i - 1, j - 1)] = [flat[k * n : (k + 1) * n] for k in range(n)]
    return MomentAction(n, vectors)


def check_special(
    rep: QuadLieRep, mu: AltMap, mu_act: Optional[MomentAction] = None
) -> tuple[bool, Optional[str]]:
    """Special orthogonality of the moment map, with the first witness.

    Checks mu(u,v) w + mu(u,w) v = (u,v) w + (u,w) v - 2 (v,w) u over basis
    triples in lexicographic order; returns (True, None) or (False, witness).
    ``mu_act`` is moment_action(rep, mu), built here when not given.  With
    mu(u,v) w = s A and mu(u,w) v = t B for the stored vectors A and B, the
    left side is s (A + s t B), so A + s t B is compared with s times the
    right side, read from the Gram and -2 times it, each scaled by s once:
    a sum only where A and B meet, a negation only where B stands alone
    and s != t.
    """
    space = rep.space
    n = space.dim
    if mu_act is None:
        mu_act = moment_action(rep, mu)
    forms = {
        1: (space.gram, _scaled(space.gram, rat(-2))),
        -1: (_scaled(space.gram, rat(-1)), _scaled(space.gram, rat(2))),
    }
    zero = [ZERO] * n
    for i in range(n):
        row = [mu_act.signed(i, k) for k in range(n)]
        for j in range(n):
            s, a = row[j]
            gram, twice = forms[s]
            gi, tj = gram[i], twice[j]
            for k in range(j, n):
                t, b = row[k]
                pairs = zip(a[k] if a else zero, b[j] if b else zero)
                if s == t:
                    lhs = [(p + q if p.num else q) if q.num else p for p, q in pairs]
                else:
                    lhs = [(p - q if p.num else -q) if q.num else p for p, q in pairs]
                rhs = [ZERO] * n
                if gi[j].num:
                    rhs[k] = gi[j]
                if gi[k].num:
                    rhs[j] = rhs[j] + gi[k] if rhs[j].num else gi[k]
                if tj[k].num:
                    rhs[i] = rhs[i] + tj[k] if rhs[i].num else tj[k]
                if lhs != rhs:
                    witness = (
                        f"(u,v,w) = (e{i+1}, e{j+1}, e{k+1}) of {space.name}"
                    )
                    return False, witness
    return True, None


def _scaled(matrix: Matrix, c: Frac) -> Matrix:
    """c times a matrix, a product only at its nonzero entries."""
    return [[c * x if x.num else x for x in row] for row in matrix]


class Covariants:
    """The moment map with its derived covariants on one representation.

    ``mu_act`` is the moment_action table of ``mu``, read by the special
    orthogonality check, the psi shortcut and the pointwise moment witnesses.
    ``special`` and ``witness`` are the result of check_special on ``mu``.
    The products that more than one check reads, ``mu_wedge_psi``,
    ``mu_compose_psi``, ``quad_wedge_id``, ``quad_wedge_mu`` and
    ``quad_wedge_quad``, are computed on first access and shared by the
    Mathews, Hodge and decomposition checks.
    """

    def __init__(
        self,
        rep: QuadLieRep,
        mu: AltMap,
        mu_act: MomentAction,
        psi: AltMap,
        quad: AltMap,
        special: bool,
        witness: Optional[str],
    ):
        self.rep = rep
        self.mu = mu
        self.mu_act = mu_act
        self.psi = psi
        self.quad = quad
        self.special = special
        self.witness = witness

    @cached_property
    def mu_wedge_psi(self) -> AltMap:
        """mu ^_rho psi."""
        return wedge_rel(self.mu, self.psi, self.rep.act)

    @cached_property
    def mu_compose_psi(self) -> AltMap:
        """mu o psi."""
        return compose(self.mu, self.psi)

    @cached_property
    def quad_wedge_id(self) -> AltMap:
        """Q ^ Id."""
        return wedge_rel(self.quad, AltMap.identity(self.rep.space))

    @cached_property
    def quad_wedge_mu(self) -> AltMap:
        """Q ^ mu."""
        return wedge_rel(self.quad, self.mu)

    @cached_property
    def quad_wedge_quad(self) -> AltMap:
        """Q ^ Q."""
        return wedge_rel(self.quad, self.quad)


def covariants(rep: QuadLieRep) -> Covariants:
    """Moment map, degree-3 covariant, and degree-4 invariant of rep.

    psi = mu ^_rho Id is mu(v1,v2) v3 + mu(v3,v1) v2 + mu(v2,v3) v1 and
    Q = Id ^_B psi the alternating sum of (v, psi(...)) over the four cyclic
    deletions.  The special orthogonality of mu is checked once here and
    carried in the result.  On a special moment map the closed shortcuts
    psi = 3(mu - mu_can) and Q = 4 (v1, psi(v2,v3,v4)) hold; the suites
    verify them as reported checks.
    """
    space = rep.space
    mu = moment_map(rep)
    ident = AltMap.identity(space)
    mu_act = moment_action(rep, mu)
    psi = wedge_rel(mu, ident, rep.act)
    quad = wedge_rel(ident, psi, PairingSpec.form(space))
    special, witness = check_special(rep, mu, mu_act)
    return Covariants(rep, mu, mu_act, psi, quad, special, witness)


# ---------------------------------------------------------------------------
# check records
# ---------------------------------------------------------------------------


class CheckRecord:
    """One verified identity: status plus optional witness and constant.

    ``elapsed`` is wall time in seconds; it is kept for interactive use and
    deliberately excluded from every serialized form so that reports stay
    byte-identical across runs.
    """

    def __init__(
        self,
        name: str,
        statement: str,
        status: str,  # "holds" | "fails" | "vacuous"
        witness: Optional[str] = None,
        constant: Optional[str] = None,
        elapsed: float = 0.0,
    ):
        self.name = name
        self.statement = statement
        self.status = status
        self.witness = witness
        self.constant = constant
        self.elapsed = elapsed

    def as_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.constant is not None:
            doc["constant"] = self.constant
        return doc

    def as_line(self) -> str:
        line = f"  [{self.status:<7}] {self.name}: {self.statement}"
        if self.constant is not None:
            line += f" | constant: {self.constant}"
        if self.witness is not None:
            line += f" | witness: {self.witness}"
        return line


Outcome = Union[Optional[str], tuple[Optional[str], Optional[str]]]


def run_check(name: str, statement: str, fn: Callable[[], Outcome]) -> CheckRecord:
    """Run one check under a timer and record its outcome.

    ``fn`` returns the first witness, or None when the identity holds; a check
    that also finds an exact constant returns the pair (witness, constant).
    All the work of the check happens inside ``fn``, so ``elapsed`` is its
    full cost.
    """
    t0 = time.perf_counter()
    outcome = fn()
    elapsed = time.perf_counter() - t0
    witness, constant = outcome if isinstance(outcome, tuple) else (outcome, None)
    return CheckRecord(
        name,
        statement,
        "fails" if witness else "holds",
        witness=witness or None,
        constant=constant,
        elapsed=elapsed,
    )


def vacuous_check(name: str, statement: str, reason: Optional[str] = None) -> CheckRecord:
    """A check that does not apply at this binding; ``reason``, if given, is
    reported as its witness."""
    return CheckRecord(name, statement, "vacuous", witness=reason)


# ---------------------------------------------------------------------------
# the ladder of wedge/composition identities
# ---------------------------------------------------------------------------


def mathews_status(cov: Covariants, prefix: str = "") -> list[CheckRecord]:
    """The four identities tying mu, psi, Q, and Id, with vacuity reporting.

    A rung whose degree exceeds the dimension of the module is vacuous and
    carries no witness.  Each record is named ``prefix`` plus the rung name.
    """
    rep, psi, quad = cov.rep, cov.psi, cov.quad
    space = rep.space

    def rung(
        name: str, statement: str, degree: int, witness: Callable[[], Optional[str]]
    ) -> CheckRecord:
        if degree > space.dim:
            return vacuous_check(prefix + name, statement)
        return run_check(prefix + name, statement, witness)

    return [
        rung(
            "wedge-mu-psi",
            "mu ^_rho psi = -(3/2) Q ^ Id",
            5,
            lambda: first_difference(cov.mu_wedge_psi, cov.quad_wedge_id.scale(rat(-3, 2))),
        ),
        rung(
            "compose-mu-psi",
            "mu o psi = 3 Q ^ mu",
            6,
            lambda: first_difference(cov.mu_compose_psi, cov.quad_wedge_mu.scale(rat(3))),
        ),
        rung(
            "compose-psi-psi",
            "psi o psi = -(27/2) Q ^ Q ^ Id",
            9,
            lambda: first_difference(
                compose(psi, psi),
                wedge_rel(cov.quad_wedge_quad, AltMap.identity(space)).scale(rat(-27, 2)),
            ),
        ),
        rung(
            "compose-quad-psi",
            "Q o psi = -54 Q ^ Q ^ Q",
            12,
            lambda: first_difference(
                compose(quad, psi), wedge_rel(cov.quad_wedge_quad, quad).scale(rat(-54))
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# the two octonion representations
# ---------------------------------------------------------------------------


def _trace_pairing(cliff: CliffordAlgebra, x: CliffordElement, y: CliffordElement) -> Frac:
    """Tr(rho(x) rho(y)) for degree-2 elements via the cached monomial
    traces, which vanish off the diagonal: a sum over the monomials x and y
    share, where the trace is nonzero."""
    table = cliff.pair_traces
    pairs = [
        (cx * cy, t)
        for m, cx in x.coeffs.items()
        if (cy := y.coeffs.get(m)) is not None and (t := table[m]).num
    ]
    return dot(pairs) if pairs else ZERO


def build_spinor_rep(cliff: CliffordAlgebra) -> QuadLieRep:
    """so(7) on the octonions: degree-2 monomials with form -(3/8) Tr.

    Brackets are the commutators of the pair monomials, one monomial each,
    read from ``cliff.pair_commutators``.
    """
    octs = cliff.octonions
    table = {
        (a, b): {u: c} for (a, b), (u, c) in cliff.pair_commutators.items() if a < b
    }
    traces = cliff.pair_traces
    gram = _scaled(
        [[traces[x] if x == y else ZERO for y in PAIR_MASKS] for x in PAIR_MASKS],
        rat(-3, 8),
    )
    labels = tuple(
        "s" + "".join(str(i) for i in _mask_to_tuple(m)) for m in PAIR_MASKS
    )
    algebra_space = QuadraticSpace(labels, gram, name="so7")
    cols = [cliff.spinor_action(x) for x in cliff.pair_basis()]
    return QuadLieRep("so7-spin", algebra_space, table, cols, octs.space_oct)


def build_g2_rep(cliff: CliffordAlgebra) -> tuple[QuadLieRep, list[CliffordElement]]:
    """The annihilator of the unit acting on imaginary octonions.

    Basis from the degree-2 kernel; each bracket is summed over the pair
    monomials from their commutator table, ``cliff.pair_commutators``.
    linalg.nullspace gives every kernel vector 1 at its own free column, and
    0 at the other free columns and after its own, so the coordinates of a
    bracket are its entries at the free columns, with no elimination, and the
    combination of kernel vectors with those coordinates has the bracket's
    own entry at every free column; unless it rebuilds the bracket at the
    other columns, SingularMatrix is raised.  The invariant form is -(1/3) Tr
    of the 7-dimensional action (which equals the 8-dimensional trace on the
    kernel); the action columns are cut from the spin columns after checking
    the unit row and column vanish.
    """
    octs = cliff.octonions
    kernel = cliff.g2_kernel()
    mask_pos = {m: t for t, m in enumerate(PAIR_MASKS)}
    coords = [{mask_pos[m]: c for m, c in x.coeffs.items()} for x in kernel]
    free = [max(x) for x in coords]  # each vector's last nonzero column
    free_set = set(free)
    commutators = cliff.pair_commutators
    table = {}
    for a, b in combinations(range(14), 2):
        terms: dict[int, list] = {}
        for s, cs in coords[a].items():
            for t, ct in coords[b].items():
                hit = commutators.get((s, t))
                if hit:
                    terms.setdefault(hit[0], []).append((cs * ct, hit[1]))
        comm = {u: dot(pairs) for u, pairs in terms.items()}
        row = {k: comm[f] for k, f in enumerate(free) if f in comm and comm[f].num}
        # the combination of kernel vectors with these coordinates, at the
        # columns that are not free
        spanned: dict[int, list] = {}
        for k, c in row.items():
            for u, x in coords[k].items():
                if u not in free_set:
                    spanned.setdefault(u, []).append((c, x))
        for u in (spanned.keys() | comm.keys()) - free_set:
            pairs = spanned.get(u)
            if (dot(pairs) if pairs else ZERO) != comm.get(u, ZERO):
                raise SingularMatrix("vector outside g2 kernel span")
        if row:
            table[(a, b)] = row
    third = rat(-1, 3)
    gram = [[ZERO] * 14 for _ in range(14)]
    for a in range(14):
        for b in range(a, 14):
            trace = _trace_pairing(cliff, kernel[a], kernel[b])
            if trace.num:
                gram[a][b] = gram[b][a] = third * trace
    labels = tuple(f"d{t+1}" for t in range(14))
    algebra_space = QuadraticSpace(labels, gram, name="g2")
    cols = []
    for x in kernel:
        full = cliff.spinor_action(x)
        if any(full[0][t].num or full[t][0].num for t in range(8)):
            raise WrongDimension("kernel element does not preserve the imaginary space")
        cols.append([col[1:] for col in full[1:]])
    rep = QuadLieRep("g2-im", algebra_space, table, cols, octs.space_im)
    return rep, kernel


# ---------------------------------------------------------------------------
# closed forms on the octonion modules
# ---------------------------------------------------------------------------


def psi_im_expected(octs: OctonionAlgebra) -> AltMap:
    """psi on imaginaries: -(3/4) of the associator."""
    coeffs = {}
    minus_three_quarters = rat(-3, 4)
    for index in all_multi_indices(7, 3):
        k, c = octs.unit_associator(*index)
        if not k and c.num:
            raise NotImaginary("associator of imaginaries must be imaginary")
        coeffs[index] = octs.from_term(k, minus_three_quarters * c).imaginary_coeffs()
    return AltMap(octs.space_im, octs.space_im, 3, coeffs, name="psi_im_closed")


def quad_im_expected(octs: OctonionAlgebra) -> AltMap:
    """Q on imaginaries: -3 B(v1, (v2, v3, v4))."""
    coeffs = {}
    minus_three = rat(-3)
    for index in all_multi_indices(7, 4):
        k, c = octs.unit_associator(*index[1:])
        if k == index[0]:
            coeffs[index] = [minus_three * octs.space_oct.diag[k] * c]
    return AltMap(octs.space_im, K, 4, coeffs, name="quad_im_closed")


def psi_oct_expected(octs: OctonionAlgebra) -> AltMap:
    """psi on the octonions: -(1/2) associator plus the associative form
    times the unit on imaginary triples; -(v1 x v2) when the unit enters."""
    coeffs = {}
    minus_half = rat(-1, 2)
    for index in all_multi_indices(8, 3):
        if index[0] == 1:
            # psi(1, u, v) = psi(u, v, 1) by cyclic evenness = -(u x v)
            k, c = octs.unit_cross(index[1] - 1, index[2] - 1)
            val = octs.from_term(k, -c)
        else:
            imaginary = tuple(t - 1 for t in index)
            k, c = octs.unit_associator(*imaginary)
            phi = octs.phi.value(imaginary)[0]
            val = octs.from_term(k, minus_half * c) + octs.from_term(0, phi)
        coeffs[index] = val.coeffs
    return AltMap(octs.space_oct, octs.space_oct, 3, coeffs, name="psi_oct_closed")


def quad_oct_expected(octs: OctonionAlgebra) -> AltMap:
    """Q on the octonions: (2/3) of the imaginary Q on imaginary quadruples,
    and Q(v1,v2,v3,1) = -4 phi(v1,v2,v3) when the unit enters."""
    coeffs = {}
    four, minus_two = rat(4), rat(-2)
    for index in all_multi_indices(8, 4):
        a, b, c, d = (t - 1 for t in index)
        if index[0] == 1:
            # moving the unit from slot 4 to slot 1 is an odd permutation
            coeffs[index] = [four * octs.phi.value((b, c, d))[0]]
        else:
            k, value = octs.unit_associator(b, c, d)
            if k == a:
                coeffs[index] = [minus_two * octs.space_oct.diag[a] * value]
    return AltMap(octs.space_oct, K, 4, coeffs, name="quad_oct_closed")


def _first_failing_triple(
    left: Callable, right: Callable, triples: Iterable[tuple[int, int, int]]
) -> Optional[str]:
    """The first (u,v,w) = (e_i, e_j, e_k) of ``triples``, positions in
    1..7, with left(i, j, k) != right(i, j, k), or None."""
    for i, j, k in triples:
        if left(i, j, k) != right(i, j, k):
            return f"(u,v,w) = (e{i}, e{j}, e{k})"
    return None


def _first_failing_term(mu_act: MomentAction, coefficient: Callable) -> Optional[str]:
    """The first (u,v,w) = (e_i, e_j, e_k) of the 343 basis triples of Im O,
    in product order, at which mu(e_i, e_j) e_k, read from the moment-action
    table ``mu_act``, is not the one term coefficient(i, j, k) e_t at
    t = i xor j xor k, or None.  At t = 0, the real unit, which Im O lacks,
    the whole vector must vanish, and ``coefficient`` is not called.  A
    vector read with the sign -1 is compared with the negated coefficient."""
    zero = [ZERO] * 7
    for i, j in product(range(1, 8), repeat=2):
        sign, vectors = mu_act.signed(i - 1, j - 1)
        for k in range(1, 8):
            got, t = vectors[k - 1] if vectors else zero, i ^ j ^ k
            if any(x.num for s, x in enumerate(got, 1) if s != t):
                return f"(u,v,w) = (e{i}, e{j}, e{k})"
            if t:
                want = coefficient(i, j, k)
                if got[t - 1] != (want if sign > 0 else -want):
                    return f"(u,v,w) = (e{i}, e{j}, e{k})"
    return None


def mu_im_pointwise_witness(octs: OctonionAlgebra, mu_act: MomentAction) -> Optional[str]:
    """mu(u, v) w = -(1/4)([w, [u, v]] + 3 (u, v, w)) on basis triples, with
    ``mu_act`` the moment_action table of mu on the imaginaries.  Both terms
    sit at e_{i xor j xor k}: [e_i, e_j] = a e_m and [e_k, e_m] = b e_t are
    read from ``octs.commutators``, and the associator is one term, so the
    closed side is one coefficient per triple."""
    comm = octs.commutators
    three, minus_quarter = rat(3), rat(-1, 4)

    def coefficient(i: int, j: int, k: int) -> Frac:
        assoc = octs.unit_associator(i, j, k)[1]
        return minus_quarter * (comm[i][j] * comm[k][i ^ j] + three * assoc)

    return _first_failing_term(mu_act, coefficient)


def mu_im_canonical_split_witness(
    octs: OctonionAlgebra, mu_act: MomentAction
) -> Optional[str]:
    """mu(u, v) w = (3/2) mu_can(u, v) w + (1/8) [w, [u, v]] on basis triples,
    with ``mu_act`` the moment_action table of mu on the imaginaries.  On a
    diagonal Gram, mu_can(e_i, e_j) e_k = (e_i, e_k) e_j - (e_j, e_k) e_i is
    nonzero only at k = i or k = j, at e_{i xor j xor k}, where the double
    commutator read from ``octs.commutators`` also sits, so the closed side
    is one coefficient per triple; any other Gram raises ShapeMismatch."""
    space = octs.space_im
    if not space.is_diagonal:
        raise ShapeMismatch("the canonical split is read on a diagonal Gram")
    comm = octs.commutators
    eighth, three_halves = rat(1, 8), rat(3, 2)

    def coefficient(i: int, j: int, k: int) -> Frac:
        double = eighth * (comm[i][j] * comm[k][i ^ j])
        can = mu_can_value(space, i - 1, j - 1, k - 1)[(i ^ j ^ k) - 1]
        return double + three_halves * can if can.num else double

    return _first_failing_term(mu_act, coefficient)


def cyclic_sum(octs: OctonionAlgebra, mu: AltMap) -> AltMap:
    """mu(u, v x w) + mu(v, w x u) + mu(w, u x v) on the imaginaries, for a
    degree-2 map mu on them: the shuffle product Id ^_mu cross."""
    ident = AltMap.identity(octs.space_im)
    return wedge_rel(ident, octs.cross, PairingSpec.alternating(mu))


def g2_cyclic_witness(octs: OctonionAlgebra, mu: AltMap) -> Optional[str]:
    """mu(u, v x w) + mu(v, w x u) + mu(w, u x v) = 0 on basis triples; the
    cyclic sum is alternating, so its 35 increasing values fix it."""
    cyclic = cyclic_sum(octs, mu)
    return first_difference(cyclic, cyclic.scale(ZERO))


def spinor_cyclic_witness(octs: OctonionAlgebra, mu: AltMap) -> Optional[str]:
    """mu(u, v x w) + cyclic = -(1/2) mu((u,v,w), 1) on imaginary triples.
    Both sides are alternating (O is alternative), so they are compared on
    the 35 increasing triples: the first failure of all 343 ordered ones.
    With (u,v,w) = c e_m, the closed side is (c/2) mu(1, e_m), mu's stored
    value at (1, m + 1)."""
    half = rat(1, 2)
    # mu on Im O: its stored value at (i, j), i > 1, is mu's at (i - 1, j - 1)
    coeffs = {(i - 1, j - 1): v for (i, j), v in mu.coeffs.items() if i > 1}
    cyclic = cyclic_sum(octs, AltMap(octs.space_im, mu.codomain, 2, coeffs))

    def closed_form(i: int, j: int, k: int) -> Vector:
        m, c = octs.unit_associator(i, j, k)
        c = half * c
        return [c * x if x.num else x for x in mu.value((1, m + 1))]

    return _first_failing_triple(
        lambda i, j, k: cyclic.value((i, j, k)),
        closed_form,
        combinations(range(1, 8), 3),
    )


def mu_oct_from_mu_im_witness(
    octs: OctonionAlgebra,
    cliff: CliffordAlgebra,
    kernel: list[CliffordElement],
    mu_im: AltMap,
    mu_oct: AltMap,
) -> Optional[str]:
    """mu_O(u, v) = (8/9) mu_Im(u, v) + (1/18) c_{u x v} inside the Clifford
    degree-2 component, and mu_O(u, 1) = (1/6) c_u, on basis elements.

    The so7 basis is PAIR_MASKS, so mu_O's stored values already are
    pair-monomial coordinates.  The right sides are read in the same
    coordinates from the g2 ``kernel`` vectors and from the seven c_{e_i} of
    ``cliff.w_basis()`` (c_u is linear in u), one ``dot`` per monomial that
    has a term."""

    def differs(got: Sequence[Frac], terms: dict[int, list]) -> bool:
        want = {m: dot(pairs) for m, pairs in terms.items()}
        return {m: c for m, c in want.items() if c.num} != {
            m: c for m, c in zip(PAIR_MASKS, got) if c.num
        }

    w = cliff.w_basis()
    minus_sixth, eight_ninths, eighteenth = rat(-1, 6), rat(8, 9), rat(1, 18)
    for i in range(1, 8):
        # stored coefficient is mu(1, u) = -mu(u, 1)
        terms = {m: [(minus_sixth, x)] for m, x in w[i - 1].coeffs.items()}
        if differs(mu_oct.value((1, i + 1)), terms):
            return f"mu(e{i}, 1) != (1/6) c_(e{i})"
        for j in range(i + 1, 8):
            t, c = octs.unit_cross(i, j)
            c = eighteenth * c
            terms = {m: [(c, x)] for m, x in w[t - 1].coeffs.items()}
            for a, x in zip(mu_im.value((i, j)), kernel):
                if a.num:
                    a = eight_ninths * a
                    for m, y in x.coeffs.items():
                        terms.setdefault(m, []).append((a, y))
            if differs(mu_oct.value((i + 1, j + 1)), terms):
                return f"mu(e{i}, e{j}) decomposition fails"
    return None


# ---------------------------------------------------------------------------
# decompositions of the index-raised covariants
# ---------------------------------------------------------------------------


def is_affine_plane(labels: Sequence[int]) -> bool:
    """Whether four basis labels of the octonions form an affine plane of the
    doubling parallelepiped: their zero-based offsets xor to zero."""
    if len(labels) != 4 or len(set(labels)) != 4:
        return False
    acc = 0
    for x in labels:
        acc ^= x - 1
    return acc == 0


class DecompositionTerm:
    """One term of an index-raised form: its coefficient at ``index`` and
    the support the term lies on."""

    def __init__(self, index: tuple[int, ...], coefficient: Frac, annotation: str):
        self.index = index
        self.coefficient = coefficient
        self.annotation = annotation


def _decompose(
    f: AltMap, supports: dict[frozenset, str], refusal: str
) -> list[DecompositionTerm]:
    """The terms of the index-raised f, in index order, one on each support:
    ``supports`` maps the label set of each expected support to the term's
    annotation, and an index on none of them raises ``refusal`` there."""
    out = []
    for index, vec in sorted(eta_inv(f).coeffs.items()):
        annotation = supports.get(frozenset(index))
        if annotation is None:
            raise WrongDimension(refusal.format(index))
        out.append(DecompositionTerm(index, vec[0], annotation))
    if len(out) != len(supports):
        raise WrongDimension(f"expected {len(supports)} terms, found {len(out)}")
    return out


def _braced(labels: Iterable[int]) -> str:
    return "{%s}" % ",".join(map(str, sorted(labels)))


def decompose_phi_dual(octs: OctonionAlgebra) -> list[DecompositionTerm]:
    """The seven terms of the index-raised associative form, one per line."""
    lines = {frozenset(l): "line " + _braced(l) for l in fano_lines(octs)}
    return _decompose(octs.phi, lines, "support {} is not a line")


def decompose_quad_im(
    octs: OctonionAlgebra, quad: AltMap
) -> list[DecompositionTerm]:
    """The seven terms of the raised imaginary Q; supports are complements of
    lines."""
    complements = {
        frozenset(complement_index(l, 7)): "complement of line " + _braced(l)
        for l in fano_lines(octs)
    }
    return _decompose(quad, complements, "complement of {} is not a line")


def decompose_quad_oct(quad: AltMap) -> list[DecompositionTerm]:
    """The fourteen terms of the raised octonion Q; supports are the affine
    planes of the doubling parallelepiped."""
    planes = {
        frozenset(p): "affine plane " + _braced(p)
        for p in combinations(range(1, 9), 4)
        if is_affine_plane(p)
    }
    return _decompose(quad, planes, "support {} is not an affine plane")
