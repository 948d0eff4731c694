"""Alternating multilinear maps and the operations that combine them.

An AltMap of degree p on a quadratic space V with values in a codomain U is
stored by its values on strictly increasing basis multi-indices, and
evaluate expands it multilinearly over the nonzero coordinates of its
arguments (basis arguments are the one-term case).  A
scalar-valued AltMap is also the one type for alternating forms and for the
coefficient tables of elements of Lambda^p(V); eta_inv raises the indices of
the one into the other on a diagonal space.  The two structural operations
follow the shuffle conventions without factorial normalization:

  wedge_rel(f, g, pairing): (p, q)-shuffle sum of pairing(f(...), g(...));
    for a scalar-valued f the pairing defaults to scalar multiplication on
    the codomain of g,
  compose(f, g): (q, ..., q)-shuffle sum of f(g(...), ..., g(...)); for a
    degree-2 f this is the wedge g ^_f g,

and hodge_dual inverts alpha ^_B (star f) = b_alt(alpha, f) * volume, where
b_alt(alpha, f) = sum over multi-indices I of B(alpha(e_I), f(e_I)) / q(e_I);
its re-verification reads the scalar wedge e_I ^ star of every multi-index
I from one shuffle and compares it with vol / q(e_I) f(e_I), the right side
that the dual itself was read from, computed once.
The shuffle kernel runs on integer terms: a PairingSpec clears its table
once and an AltMap its values once, on first use (so its coeffs must not
change after that); wedge_rel multiplies the cleared f and g by
scalars.add_products into one dict for every output multi-index, and turns
each output coordinate back into one Frac (scalars.clear_denominators and
uncleared).
first_difference names the least multi-index where two maps differ.  The
brute-force reference implementations (full symmetric-group sums divided by
the stabilizer order, through the field evaluation PairingSpec.apply) are
exported for oracle testing.

Spaces are compared by identity: two maps combine only when they were built
on the same QuadraticSpace object.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations
from math import factorial
from typing import Optional, Sequence

from .errors import ArityMismatch, ShapeMismatch, SingularPairing
from .exterior import (
    K,
    MultiIndex,
    QuadraticSpace,
    all_multi_indices,
    complement_index,
    render_multi_index,
)
from .scalars import (
    ROW_SHIFT,
    Frac,
    ONE,
    ZERO,
    add_products,
    clear_denominators,
    dot,
    flat_terms,
    uncleared,
)

Vector = list[Frac]


class PairingSpec:
    """A bilinear pairing U1 x U2 -> U3 given by its table on basis pairs.

    ``table[i][j]`` is the vector pairing(e_i, e_j).  The table is cleared
    once, at construction (``scalars.clear_denominators``): ``rows[i][j]``
    holds the nonzero entries of ``table[i][j]`` as integer terms over the
    one common denominator ``den``, which the shuffle kernel multiplies as
    ints and hands back to ``uncleared``; both are tuples, so neither can
    drift from the other.  ``apply``
    evaluates the table itself in the field, one ``dot`` per coordinate, and
    serves as the independent path of ``brute_wedge_rel``.
    """

    def __init__(
        self,
        left: QuadraticSpace,
        right: QuadraticSpace,
        result: QuadraticSpace,
        table: Sequence[Sequence[Sequence[Frac]]],
        name: str = "",
    ):
        self.left = left
        self.right = right
        self.result = result
        self.name = name or "pairing"
        if len(table) != left.dim or any(len(row) != right.dim for row in table):
            raise ShapeMismatch(f"{self.name}: table shape mismatch")
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.den, cleared = clear_denominators(
            {
                (i, j): {k: t for k, t in enumerate(v) if t.num}
                for i, row in enumerate(self.table)
                for j, v in enumerate(row)
            }
        )
        self.rows = tuple(
            tuple(cleared[(i, j)] for j in range(right.dim)) for i in range(left.dim)
        )

    def apply(self, x: Sequence[Frac], y: Sequence[Frac]) -> Vector:
        terms: dict[int, list] = {}
        for i, xi in enumerate(x):
            if not xi.num:
                continue
            for j, yj in enumerate(y):
                if not yj.num:
                    continue
                c = xi * yj
                for k, t in enumerate(self.table[i][j]):
                    if t.num:
                        terms.setdefault(k, []).append((c, t))
        out = [ZERO] * self.result.dim
        for k, pairs in terms.items():
            out[k] = dot(pairs)
        return out

    @classmethod
    def scalar_multiply(cls, space: QuadraticSpace) -> "PairingSpec":
        """K x V -> V, scalar multiplication."""
        table = [[space.basis_vector(j) for j in range(space.dim)]]
        return cls(K, space, space, table, name="scalar action")

    @classmethod
    def form(cls, space: QuadraticSpace) -> "PairingSpec":
        """V x V -> K through the bilinear form of V."""
        table = [
            [[space.gram[i][j]] for j in range(space.dim)] for i in range(space.dim)
        ]
        return cls(space, space, K, table, name=f"form on {space.name}")

    @classmethod
    def action(
        cls,
        algebra: QuadraticSpace,
        module: QuadraticSpace,
        columns: Sequence[Sequence[Sequence[Frac]]],
    ) -> "PairingSpec":
        """g x V -> V from the columns of the algebra basis: ``columns[a][j]``
        is rho(x_a) e_j, which is the table entry (a, j) as given."""
        if len(columns) != algebra.dim:
            raise ShapeMismatch("one list of columns per algebra basis element required")
        return cls(algebra, module, module, columns, name=f"action on {module.name}")

    @classmethod
    def alternating(cls, f: "AltMap") -> "PairingSpec":
        """V x V -> U from a degree-2 alternating map f: entry (i, j) is
        f(e_i, e_j), entry (j, i) its negation, and the diagonal is zero."""
        if f.degree != 2:
            raise ArityMismatch(f"a pairing needs a degree-2 map, got degree {f.degree}")
        n = f.domain.dim
        table = [[[ZERO] * f.codomain.dim] * n for _ in range(n)]
        for (i, j), value in f.coeffs.items():
            table[i - 1][j - 1] = value
            table[j - 1][i - 1] = [-c for c in value]
        return cls(f.domain, f.domain, f.codomain, table, name=f.name)


class AltMap:
    """Alternating p-linear map V^p -> U, stored on increasing multi-indices."""

    def __init__(
        self,
        domain: QuadraticSpace,
        codomain: QuadraticSpace,
        degree: int,
        coeffs: Optional[dict] = None,
        name: str = "",
    ):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.name = name
        self.coeffs: dict[MultiIndex, Vector] = {}
        if coeffs:
            for index, vec in coeffs.items():
                if any(c.num for c in vec):
                    self.coeffs[tuple(index)] = list(vec)

    @classmethod
    def identity(cls, space: QuadraticSpace) -> "AltMap":
        coeffs = {(i + 1,): space.basis_vector(i) for i in range(space.dim)}
        return cls(space, space, 1, coeffs, name="Id")

    @cached_property
    def cleared(self) -> tuple[dict, dict]:
        """The stored values over one common denominator, as the integer
        terms of ``scalars.clear_denominators`` keyed by multi-index.  Made
        on first use and kept: ``coeffs`` is not changed after it."""
        return clear_denominators(
            {I: {k: c for k, c in enumerate(v) if c.num} for I, v in self.coeffs.items()}
        )

    def value(self, index: MultiIndex) -> Vector:
        got = self.coeffs.get(tuple(index))
        return list(got) if got is not None else [ZERO] * self.codomain.dim

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: Frac) -> "AltMap":
        if c.is_zero():
            return AltMap(self.domain, self.codomain, self.degree, None, name=self.name)
        out = {k: [c * x for x in v] for k, v in self.coeffs.items()}
        return AltMap(self.domain, self.codomain, self.degree, out, name=self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltMap):
            return NotImplemented
        return (
            self.domain is other.domain
            and self.codomain is other.codomain
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def substitute(self, bindings) -> "AltMap":
        out = {k: [x.substitute(bindings) for x in v] for k, v in self.coeffs.items()}
        return AltMap(self.domain, self.codomain, self.degree, out, name=self.name)

    def evaluate(self, args: Sequence[Sequence[Frac]]) -> Vector:
        """Value on arbitrary coordinate vectors, by multilinear expansion.

        Each choice of one nonzero coordinate per argument, at distinct
        indices, contributes the product of the chosen coordinates times the
        stored value at the sorted multi-index, with the sign of the sort.
        Basis arguments make exactly one such choice, and its weight stays
        the object ONE, which is never multiplied out; the sign of the sort
        is applied by subtraction, not by a product with -1.
        """
        if len(args) != self.degree:
            raise ArityMismatch(
                f"degree-{self.degree} map evaluated on {len(args)} arguments"
            )
        terms = [((), ONE)]
        for vec in args:
            nonzero = [(i, c) for i, c in enumerate(vec, 1) if c.num]
            terms = [
                (index + (i,), c if weight is ONE else weight * c)
                for index, weight in terms
                for i, c in nonzero
                if i not in index
            ]
        out = [ZERO] * self.codomain.dim
        for index, weight in terms:
            got = self.coeffs.get(tuple(sorted(index)))
            if got is None:
                continue
            odd = _perm_sign(index) < 0
            for k, x in enumerate(got):
                if x.num:
                    if weight is not ONE:
                        x = weight * x
                    out[k] = out[k] - x if odd else out[k] + x
        return out

    def __repr__(self) -> str:
        return (
            f"<AltMap {self.name or '?'}: degree {self.degree}, "
            f"{self.domain.name} -> {self.codomain.name}, "
            f"{len(self.coeffs)} nonzero values>"
        )


def first_difference(got: AltMap, want: AltMap) -> Optional[str]:
    """None when got == want, else a witness naming the least multi-index
    at which their stored values differ.  Every identity between alternating
    maps that the suites report is checked here; maps of different shapes
    raise ShapeMismatch."""
    if (
        got.domain is not want.domain
        or got.codomain is not want.codomain
        or got.degree != want.degree
    ):
        raise ShapeMismatch("first_difference needs maps of one shape")
    for index in sorted(got.coeffs.keys() | want.coeffs.keys()):
        if got.coeffs.get(index) != want.coeffs.get(index):
            return "the two sides differ at " + render_multi_index(index)
    return None


def _shuffle_sign(positions: Sequence[int], p: int) -> int:
    # parity of the (p, q)-shuffle selecting `positions` for the first block
    total = sum(positions) - (p * (p - 1)) // 2
    return -1 if total % 2 else 1


def wedge_rel(f: AltMap, g: AltMap, pairing: Optional[PairingSpec] = None) -> AltMap:
    """Shuffle wedge of f and g relative to a bilinear pairing of codomains;
    without one, f must be scalar-valued and scales the values of g.

    f and g are read cleared (``AltMap.cleared``) and every product is
    taken in ``_shuffle_terms`` on integer terms, into one dict for all
    multi-indices T; each output coordinate is one Frac, over the product of
    the three common denominators.
    """
    if f.domain is not g.domain:
        raise ShapeMismatch("wedge_rel needs a common domain")
    pairing = pairing or PairingSpec.scalar_multiply(g.codomain)
    if pairing.left is not f.codomain or pairing.right is not g.codomain:
        raise ShapeMismatch("pairing does not match the codomains")
    p, q = f.degree, g.degree
    n = f.domain.dim
    result = AltMap(f.domain, pairing.result, p + q)
    if p + q > n or f.is_zero() or g.is_zero():
        return result
    lf, fc = f.cleared
    lg, gc = g.cleared
    dim = pairing.result.dim
    acc = _shuffle_terms(fc, gc, p, q, n, pairing.rows, dim)
    values = uncleared(acc, (lf, lg, pairing.den), dim << n)
    for T in all_multi_indices(n, p + q):
        r = _mask(T) * dim
        value = values[r : r + dim]
        if any(c.num for c in value):
            result.coeffs[T] = value
    return result


_BITS = tuple(1 << t >> 1 for t in range(64))


def _mask(index: MultiIndex) -> int:
    """The bit set of a multi-index: bit t - 1 for each t.  The masks of two
    disjoint multi-indices add to the mask of their union."""
    return sum(map(_BITS.__getitem__, index))


def _shuffle_terms(fc: dict, gc: dict, p: int, q: int, n: int, rows, dim: int) -> dict:
    """The shuffle products of cleared degree-p and degree-q values, as one
    dict of integer terms, the coordinate k of multi-index T at the row
    ``_mask(T) * dim + k``.  Each stored f(e_I) meets each stored g(e_J)
    with J disjoint from I: per I, the flat terms of every g(e_J) at the
    offset of T = I + J, signed by the shuffle, then one
    ``scalars.add_products`` call per term of f(e_I), scaled by it, against
    the pairing rows ``rows`` of its coordinate.  The shuffle is odd when an
    odd number of pairs j < i lie in J x I: the parity of the bits of J
    under the xor of the masks below each i.
    """
    masks = {J: _mask(J) for J in gc}
    acc: dict = {}
    for I, fI in fc.items():
        mask_i, below = _mask(I), 0
        for i in I:
            below ^= _BITS[i] - 1
        even, odd = [], []
        for J in combinations([i for i in range(1, n + 1) if i not in I], q):
            mask = masks.get(J)
            if mask is not None:
                block = ((mask_i | mask) * dim) << ROW_SHIFT, gc[J]
                (odd if (mask & below).bit_count() & 1 else even).append(block)
        signed = flat_terms(even) + flat_terms(odd, -1)
        for key, i, a in flat_terms(((0, fI),)):
            terms = signed if not key and a == 1 else [(key + k, j, a * c) for k, j, c in signed]
            add_products(acc, terms, rows[i])
    return acc


def _ordered_blocks(positions: tuple[int, ...], p: int, q: int):
    """All ways to split positions into p ordered increasing blocks of size q."""
    if p == 1:
        yield (positions,)
        return
    for first in combinations(positions, q):
        first_set = set(first)
        rest = tuple(x for x in positions if x not in first_set)
        for tail in _ordered_blocks(rest, p - 1, q):
            yield (first,) + tail


def compose(f: AltMap, g: AltMap) -> AltMap:
    """Shuffle composition: degree-p f applied to p copies of degree-q g.

    For p = 2 the (q, q)-shuffles are the ordered two-block splits, with the
    same signs, so f o g = g ^_f g with f as the pairing: that is mu o psi in
    the Mathews and Hodge checks.  The ordered-block loop below serves
    p != 2.  In the suites those are the rungs psi o psi and Q o psi, which
    are vacuous on every module (degrees 9 and 12), so only the tests reach
    the loop.
    """
    if g.codomain is not f.domain:
        raise ShapeMismatch("compose needs codomain of g equal to domain of f")
    p, q = f.degree, g.degree
    n = g.domain.dim
    result = AltMap(g.domain, f.codomain, p * q)
    if p * q > n or f.is_zero() or g.is_zero():
        return result
    if p == 2:
        return wedge_rel(g, g, PairingSpec.alternating(f))
    for T in all_multi_indices(n, p * q):
        acc = [ZERO] * f.codomain.dim
        touched = False
        for blocks in _ordered_blocks(T, p, q):
            gvals = []
            for block in blocks:
                got = g.coeffs.get(block)
                if got is None:
                    gvals = None
                    break
                gvals.append(got)
            if gvals is None:
                continue
            val = f.evaluate(gvals)
            if not any(c.num for c in val):
                continue
            sign = _perm_sign([x for block in blocks for x in block])
            touched = True
            if sign > 0:
                acc = [a + v for a, v in zip(acc, val)]
            else:
                acc = [a - v for a, v in zip(acc, val)]
        if touched and any(c.num for c in acc):
            result.coeffs[T] = acc
    return result


def eta_inv(f: AltMap) -> AltMap:
    """Raise the indices of a scalar-valued map on a diagonal space.

    The result is the coefficient table of eta^-1(f) in Lambda^p(V): its
    value on e_I is f(e_I) / q(e_I).
    """
    if f.codomain.dim != 1:
        raise ShapeMismatch("eta_inv needs a scalar-valued map")
    if not f.domain.is_diagonal:
        raise ShapeMismatch("eta_inv requires a diagonal domain gram")
    q_product = f.domain.q_product
    coeffs = {I: [vec[0] / q_product(I)] for I, vec in f.coeffs.items()}
    return AltMap(f.domain, f.codomain, f.degree, coeffs)


def volume_constant(volume: AltMap) -> Frac:
    """Coefficient of the full multi-index of a top-degree scalar form."""
    n = volume.domain.dim
    if volume.degree != n or volume.codomain.dim != 1:
        raise ShapeMismatch("volume must be a top-degree scalar form")
    full = tuple(range(1, n + 1))
    vec = volume.coeffs.get(full)
    if vec is None or vec[0].is_zero():
        raise SingularPairing("volume form vanishes at the top multi-index")
    return vec[0]


def hodge_dual(f: AltMap, volume: AltMap) -> AltMap:
    """The unique g with alpha ^_B g = b_alt(alpha, f) * volume for all alpha.

    alpha runs over degree-p maps into the codomain of f, the wedge pairs
    codomain values through the codomain form, and volume is a fixed
    top-degree scalar covariant.  At alpha = e_I x u only the shuffle of I
    with its complement J reaches the full multi-index, so the identity reads
    sign(I) B(u, g(e_J)) = B(u, f(e_I)) vol / q(e_I) for every u: each value
    g(e_J) = sign(I) vol / q(e_I) f(e_I) is read off, with no solve and no
    use of the codomain form.  The right sides vol / q(e_I) f(e_I) are
    computed once, from f, and g(e_J) is each one or its negation.  The
    defining identity is re-verified against those right sides for every
    basis alpha before returning (``_verify_hodge``); failure raises
    SingularPairing.
    """
    space = f.domain
    if volume.domain is not space:
        raise ShapeMismatch("volume lives on a different space")
    if not space.is_diagonal:
        raise ShapeMismatch("hodge_dual requires a diagonal domain gram")
    n, p = space.dim, f.degree
    rights = _hodge_right_sides(f, volume_constant(volume))
    star = AltMap(space, f.codomain, n - p)
    for J in all_multi_indices(n, n - p):
        I = complement_index(J, n)
        right = rights.get(I)
        if right is None:
            continue
        odd = _shuffle_sign([i - 1 for i in I], p) < 0
        star.coeffs[J] = [-x if odd and x.num else x for x in right]
    _verify_hodge(star, rights)
    return star


def _hodge_right_sides(f: AltMap, vol: Frac) -> dict[MultiIndex, Vector]:
    """vol / q(e_I) f(e_I) for every stored multi-index I of f, on a diagonal
    domain: the right side of the Hodge identity at alpha = e_I x u."""
    q_product = f.domain.q_product
    out = {}
    for I, fI in f.coeffs.items():
        scale = vol / q_product(I)
        out[I] = [scale * x if x.num else x for x in fI]
    return out


def _verify_hodge(star: AltMap, rights: dict[MultiIndex, Vector]) -> None:
    """Check alpha ^_B star = b_alt(alpha, f) * vol for every basis alpha,
    with ``rights`` the ``_hodge_right_sides`` of f and vol.

    At alpha = e_I x u_b both sides are B(u_b, .) of one vector: the scalar
    wedge w_I = (e_I ^ star)(e_1...e_n) on the left and the right side of I
    (zero where f(e_I) is) on the right.  The codomain Gram is nonsingular,
    so every b holds exactly when the two vectors are equal, and one wedge
    per I decides them all.  On a mismatch the first b whose Gram row
    separates the vectors is named.  The right sides come from f, never
    from star, so the check is not read off the values it checks.
    """
    space, codomain = star.domain, star.codomain
    n, width = space.dim, codomain.dim
    p = n - star.degree
    indices = all_multi_indices(n, p)
    dim = len(indices) * width
    # e_I is the integer term 1 at coordinate r, the rank of I, and the
    # pairing puts r and u_b at r * width + b: every w_I from one shuffle,
    # each at the row of the full mask
    rows = [[(((r * width + b) << ROW_SHIFT, 1),) for b in range(width)] for r in range(len(indices))]
    units = {I: ((r << ROW_SHIFT, 1),) for r, I in enumerate(indices)}
    den, cleared = star.cleared
    shift = (((1 << n) - 1) * dim) << ROW_SHIFT
    terms = _shuffle_terms(units, cleared, p, n - p, n, rows, dim)
    values = uncleared({k - shift: v for k, v in terms.items()}, (den,), dim)
    zero = [ZERO] * width
    for r, I in enumerate(indices):
        w = values[r * width : (r + 1) * width]
        want = rights.get(I, zero)
        if w == want:
            continue
        diff = [a - c for a, c in zip(w, want)]
        for b in range(codomain.dim):
            if codomain.pair(codomain.basis_vector(b), diff).num:
                raise SingularPairing(
                    "hodge dual failed re-verification at "
                    f"alpha = {render_multi_index(I)} x basis {b}"
                )


# -- brute-force reference implementations (oracles for the shuffle sums) ----


def brute_wedge_rel(
    f: AltMap, g: AltMap, pairing: Optional[PairingSpec] = None
) -> AltMap:
    """Full S_{p+q} sum divided by p! q!; must equal wedge_rel exactly."""
    pairing = pairing or PairingSpec.scalar_multiply(g.codomain)
    p, q = f.degree, g.degree
    n = f.domain.dim
    result = AltMap(f.domain, pairing.result, p + q)
    if p + q > n:
        return result
    norm = ONE / Frac.from_int(factorial(p) * factorial(q))
    for T in all_multi_indices(n, p + q):
        acc = [ZERO] * pairing.result.dim
        for perm in permutations(range(p + q)):
            sign = _perm_sign(perm)
            fargs = [f.domain.basis_vector(T[perm[r]] - 1) for r in range(p)]
            gargs = [f.domain.basis_vector(T[perm[p + r]] - 1) for r in range(q)]
            val = pairing.apply(f.evaluate(fargs), g.evaluate(gargs))
            if sign > 0:
                acc = [a + v for a, v in zip(acc, val)]
            else:
                acc = [a - v for a, v in zip(acc, val)]
        acc = [norm * a for a in acc]
        if any(c.num for c in acc):
            result.coeffs[T] = acc
    return result


def brute_compose(f: AltMap, g: AltMap) -> AltMap:
    """Full S_{pq} sum divided by (q!)^p; must equal compose exactly."""
    p, q = f.degree, g.degree
    n = g.domain.dim
    result = AltMap(g.domain, f.codomain, p * q)
    if p * q > n:
        return result
    norm = ONE / Frac.from_int(factorial(q) ** p)
    for T in all_multi_indices(n, p * q):
        acc = [ZERO] * f.codomain.dim
        for perm in permutations(range(p * q)):
            sign = _perm_sign(perm)
            gvals = []
            for b in range(p):
                args = [
                    g.domain.basis_vector(T[perm[b * q + r]] - 1) for r in range(q)
                ]
                gvals.append(g.evaluate(args))
            val = f.evaluate(gvals)
            if sign > 0:
                acc = [a + v for a, v in zip(acc, val)]
            else:
                acc = [a - v for a, v in zip(acc, val)]
        acc = [norm * a for a in acc]
        if any(c.num for c in acc):
            result.coeffs[T] = acc
    return result


def _perm_sign(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1
