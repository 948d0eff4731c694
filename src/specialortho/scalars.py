"""Exact arithmetic in the rational function field Q(l1, l2, l3, a).

Everything the library computes is a ``Frac``: a reduced fraction whose
numerator is a sparse integer polynomial in the four fixed variables.  There
is no floating point anywhere; equality of scalars is equality in the field.

The denominator set.  The paper divides only by the weights, alpha and
beta = -1 - alpha, so every denominator is c * l1^i l2^j l3^k a^m (a + 1)^r,
and a ``Frac`` stores it factored, as the triple ``den = (c, k, r)``: an int
c > 0, the packed key k of l1^i l2^j l3^k a^m and r >= 0.  ``Frac(num, den)``
takes an expanded denominator and ``/`` turns the divisor's numerator into
one; both split it with ``_split_den`` and refuse any other polynomial with
DenominatorOutsideSet.  Sums, products and lcms of triples are triples, so
nothing else checks.  ``render``, ``substitute``, ``**`` and ``/`` expand a
triple with ``_den_poly``.

Representation.  A polynomial is a dict mapping a packed exponent key to a
nonzero int coefficient.  The key packs the four exponents in 16-bit slots,
``e(l1) | e(l2)<<16 | e(l3)<<32 | e(a)<<48``, so monomial multiplication is
integer addition of keys.  Monomials are ordered by total degree, ties broken
by the packed key itself (which makes ``a`` weigh heaviest, then l3, l2, l1).

Exponent bound.  A slot holds exponents up to 65535.  ``parse`` refuses a
larger exponent, and any ``*``, ``/``, ``+`` or ``-`` whose operands' largest
exponents (over numerator and expanded denominator) sum past it
(ParseError); ``Frac.__pow__`` refuses a power whose exponent in some
variable would pass it (ExponentOverflow).  So text from outside cannot
reach a wrapped exponent.  Products inside the library stay unchecked:
multiplying two polynomials whose exponents in one variable sum past 65535
would carry into the next slot.  A product adds two numerator keys, and a
sum shifts each term by the common denominator's key less its own, so a
term of ``*``, ``+``, ``-`` or ``dot`` holds in a slot at most two
numerator exponents and the common denominator's.  The integer terms of
``clear_denominators`` are multiplied only in ``add_products``, which adds
three keys per product: a flat term's key is a cleared key, plus row
offsets that hold no monomial bits (``flat_terms``) and at most one more
cleared key by which its caller scaled it, and the table term adds the
third.  ``uncleared`` adds the triples of up to three common denominators.
``test_library_exponents_stay_small`` runs the symbolic ``verify all`` with
every ``_p_mul`` checked against the slot, every stored exponent (a
denominator's exponent of a is its key's plus r), cleared numerator and
common denominator against 2^14, every ``flat_terms`` offset against the
monomial bits, and every ``add_products`` product on its flat key and
table row; the largest exponent stored is 24, the largest cleared one 3,
the largest sum of three cleared keys 5.

Canonical form.  No integer, variable or factor a + 1 divides both the
numerator and c * x^k * (a + 1)^r, and c > 0.  A reduced fraction with a
positive denominator coefficient c is unique over the UFD Z[l1, l2, l3, a],
so two Fracs are equal in the field iff their numerator dicts and triples
are equal: ``==`` and ``hash`` are structural.  A denominator of 1 is the
shared ``_D_ONE``.

One reduce.  ``_over(num, c, k, r)`` is the reduced num / (c x^k (a + 1)^r).
A numerator of several terms is divided by its gcd with the denominator,
itself a member of the set: the factors a + 1 that divide num, which
``_p_gcd`` takes by synthetic division in a (``_a1_quotient``) only when
r > 0, times the monomial gcd of what is left with c x^k
(``_p_monomial_gcd``).  A one-term numerator goes to ``_term``: one int
gcd and one key minimum, as a + 1 divides no monomial.  ``_split_den``
takes the factors a + 1 of a divisor with the same ``_p_gcd``.  There is
no multivariate gcd.

One sum.  ``+``, ``-`` and ``dot(pairs)`` put their terms over ``_lcm`` of
the denominators (the int lcm of the c, the per-slot maximum of the keys
and the largest r), add them in one dict and reduce once with ``_over``, so
``dot`` normalizes once per result, not once per term, and equals the
pairwise sum dict for dict.

Products.  ``*`` multiplies the triples slot by slot and has one fork: two
one-term numerators, most products of a run, go to ``_term``; any other
pair goes through ``_p_mul`` to ``_over``.

Cleared rows.  ``clear_denominators`` puts rows of Fracs over the ``_lcm``
of their denominators as integer terms, so that a product of two entries
is one int product and one key sum.  ``flat_terms`` reads cleared rows at
row offsets as flat terms (key, row, coefficient), and ``add_products``,
the one product loop, multiplies them with a table of cleared rows: one
loop over the terms and one over each table row (the superalgebra scans,
the moment-action table and ``wedge_rel``).  ``uncleared`` turns the sums
back into one Frac per coordinate with ``_over``, over the product of the
common denominators.  ``eliminate`` is Gauss-Jordan over Frac, so its row
updates take the one-term paths on graded matrices; ``solve_linear`` reads
its solutions off the reduced right-hand columns.
"""

from __future__ import annotations

import re
import sys
from math import comb
from math import gcd as _int_gcd
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

from .errors import (
    DenominatorOutsideSet,
    DenominatorVanishes,
    DivisionByZero,
    ExponentOverflow,
    ParseError,
    SingularMatrix,
    TooManyDigits,
)

VARS = ("l1", "l2", "l3", "a")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_L_MASK = (1 << 48) - 1  # the slots of l1, l2 and l3

_P_ZERO: dict = {}
_P_ONE = {0: 1}
_P_MINUS_ONE = {0: -1}
_D_ONE = (1, 0, 0)  # the denominator 1 as a triple (c, k, r)

# ---------------------------------------------------------------------------
# polynomial layer: dict[int, int], no zero coefficients stored
# ---------------------------------------------------------------------------


def _key_degree(key: int) -> int:
    return (key & _MASK) + ((key >> 16) & _MASK) + ((key >> 32) & _MASK) + (key >> 48)


def _grlex(key: int) -> tuple[int, int]:
    return (_key_degree(key), key)


def _lead_key(p: dict) -> int:
    return max(p, key=_grlex)


def _key_min(k1: int, k2: int) -> int:
    # the per-slot minimum, each slot compared in place: masking the same
    # slot of both keys orders them as that slot's exponents
    a, b = k1 & 0xFFFF, k2 & 0xFFFF
    out = a if a < b else b
    a, b = k1 & 0xFFFF0000, k2 & 0xFFFF0000
    out |= a if a < b else b
    a, b = k1 & 0xFFFF00000000, k2 & 0xFFFF00000000
    out |= a if a < b else b
    a, b = k1 & 0xFFFF000000000000, k2 & 0xFFFF000000000000
    return out | (a if a < b else b)


def _p_max_exponent(p: dict) -> int:
    return max(((k >> sh) & _MASK for k in p for sh in (0, 16, 32, 48)), default=0)


def _p_neg(p: dict) -> dict:
    return {k: -c for k, c in p.items()}


def _p_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ka, ca), = a.items()
        if ka == 0 and ca == 1:
            return dict(b)
        return {kb + ka: cb * ca for kb, cb in b.items()}
    out: dict = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _p_int_mul(p: dict, n: int) -> dict:
    if n == 0:
        return {}
    if n == 1:
        return dict(p)
    return {k: c * n for k, c in p.items()}


def _p_monomial_gcd(p: dict, key: int, coeff: int) -> tuple[int, int]:
    """gcd of coeff * x^key and every term of a nonzero p, as (key, coeff > 0)."""
    g, m = abs(coeff), key
    for k, c in p.items():
        if g == 1 and not m:
            break
        if g != 1:
            g = _int_gcd(g, c)
        if m:
            m = _key_min(m, k)
    return m, g


# -- the denominator set: c * l1^i l2^j l3^k a^m (a + 1)^r ---------------------


def _a1_quotient(p: dict) -> dict | None:
    """p / (a + 1), or None when a + 1 does not divide p: the coefficient of
    each l-monomial, a polynomial in a, is divided synthetically, q_i = p_i -
    q_(i-1) from the lowest power up, exact iff p(a = -1) = 0."""
    by_l: dict = {}
    for k, c in p.items():
        by_l.setdefault(k & _L_MASK, {})[k >> 48] = c
    q = {}
    for m, col in by_l.items():
        top = max(col)
        carry = 0
        for i in range(min(col), top):
            carry = col.get(i, 0) - carry
            if carry:
                q[m | i << 48] = carry
        if col[top] != carry:
            return None
    return q


def _a1_power(r: int) -> dict:
    """(a + 1)^r, expanded."""
    return {i << 48: comb(r, i) for i in range(r + 1)}


def _p_gcd(p: dict, r: int) -> tuple[dict, int]:
    """The gcd of p with (a + 1)^r, the one factor of a set denominator that
    is not a monomial: (p / (a + 1)^s, s) for the largest s <= r with
    (a + 1)^s dividing p.  A monomial stops it, as a + 1 divides none."""
    s = 0
    while s < r and len(p) > 1:
        q = _a1_quotient(p)
        if q is None:
            break
        p, s = q, s + 1
    return p, s


def _split_den(den: dict) -> tuple[int, int, int]:
    """(c, k, r) with den = c * x^k * (a + 1)^r, c of either sign, or
    DenominatorOutsideSet: ``_p_gcd`` takes every factor a + 1 of a den of
    several terms, and a monomial must be left."""
    p, r = _p_gcd(den, _MASK) if len(den) > 1 else (den, 0)
    if len(p) != 1:
        raise DenominatorOutsideSet(
            f"denominator {_render_poly(den)} is not "
            "c * l1^i l2^j l3^k a^m (a + 1)^r"
        )
    [(k, c)] = p.items()
    return c, k, r


def _den_poly(den: tuple[int, int, int]) -> dict:
    """The triple (c, k, r) as the expanded polynomial c * x^k * (a + 1)^r."""
    c, k, r = den
    return _p_mul({k: c}, _a1_power(r)) if r else {k: c}


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

ScalarLike = Union["Frac", int]


class Frac:
    """A reduced fraction num / (c * x^k * (a + 1)^r) with ``den = (c, k, r)``;
    immutable by convention."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        """The reduced num / den for a polynomial den of the set, expanded."""
        if not den:
            raise DivisionByZero("denominator polynomial is zero")
        c, k, r = _split_den(den)
        if not num:
            self.num, self.den = _P_ZERO, _D_ONE
            return
        if c < 0:
            num, c = _p_neg(num), -c
        reduced = _over(num, c, k, r)
        self.num, self.den = reduced.num, reduced.den

    @staticmethod
    def _raw(num: dict, den: tuple[int, int, int]) -> "Frac":
        """Skip normalization; caller guarantees the pair is already canonical."""
        self = object.__new__(Frac)
        self.num, self.den = num, den
        return self

    @classmethod
    def from_int(cls, n: int) -> "Frac":
        if n == 0:
            return ZERO
        if n == 1:
            return ONE
        return cls._raw({0: n}, _D_ONE)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Frac":
        if f == 0:
            return ZERO
        return cls._raw({0: f.numerator}, (f.denominator, 0, 0))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        _, k, r = self.den
        return (not self.num or self.num.keys() == {0}) and not k and not r

    def lead_sign(self) -> int:
        """Sign of the leading numerator coefficient (denominator is positive)."""
        if not self.num:
            return 0
        return 1 if self.num[_lead_key(self.num)] > 0 else -1

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "Frac":
        # the operators call this only for an operand that is not a Frac
        if isinstance(x, int):
            return Frac.from_int(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        return _sum(((self.num, _P_ONE), (other.num, _P_ONE)), (self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "Frac":
        if not self.num:
            return self
        return Frac._raw(_p_neg(self.num), self.den)

    def __sub__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        return _sum(((self.num, _P_ONE), (other.num, _P_MINUS_ONE)), (self.den, other.den))

    def __rsub__(self, other: ScalarLike) -> "Frac":
        return (-self).__add__(other)

    def __mul__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        c1, k1, r1 = self.den
        c2, k2, r2 = other.den
        if len(n1) == 1 == len(n2):
            [(j1, v1)] = n1.items()
            [(j2, v2)] = n2.items()
            return _term(j1 + j2, v1 * v2, c1 * c2, k1 + k2, r1 + r2)
        return _over(_p_mul(n1, n2), c1 * c2, k1 + k2, r1 + r2)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            raise DivisionByZero(f"division by zero scalar (numerator {self.render()})")
        num, den = _den_poly(other.den), other.num
        if den[_lead_key(den)] < 0:
            num, den = _p_neg(num), _p_neg(den)
        return self.__mul__(Frac._raw(num, _split_den(den)))

    def __rtruediv__(self, other: ScalarLike) -> "Frac":
        other = Frac._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int) -> "Frac":
        if n < 0:
            return ONE / self.__pow__(-n)
        top = max(_p_max_exponent(self.num), _p_max_exponent(_den_poly(self.den)))
        if top * n > _MASK:
            raise ExponentOverflow(
                f"({self.render()})^{n} has an exponent above {_MASK}"
            )
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Frac):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == _D_ONE and (
                self.num == {0: other} if other else not self.num
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.num.items())), self.den))

    def substitute(
        self, bindings: Mapping[str, Union[int, str, Fraction, "Frac"]]
    ) -> "Frac":
        """Evaluate some variables at rational values; the rest stay symbolic.

        A value is an int or a Fraction (read by its numerator and
        denominator), a constant Frac, or a str that ``parse`` reads as one;
        the evaluation is exact on integer pairs.  Raises DenominatorVanishes
        if the denominator becomes identically zero.
        """
        if not bindings:
            return self
        subs: dict[int, tuple[int, int]] = {}
        for name, value in bindings.items():
            if name not in _VAR_INDEX:
                raise ParseError(f"unknown variable {name!r}")
            if isinstance(value, str):
                value = parse(value)
            if isinstance(value, Frac):
                if not value.is_constant():
                    raise ParseError(f"not a constant: {value.render()}")
                subs[_VAR_INDEX[name]] = (value.num.get(0, 0), value.den[0])
            else:
                subs[_VAR_INDEX[name]] = (value.numerator, value.denominator)
        dp, dd = _p_substitute(_den_poly(self.den), subs)
        if not dp:
            raise DenominatorVanishes(
                f"denominator of {self.render()} vanishes under "
                + ", ".join(f"{k}={v}" for k, v in sorted(bindings.items()))
            )
        np_, nd = _p_substitute(self.num, subs)
        return Frac(_p_int_mul(np_, dd), _p_int_mul(dp, nd))

    def render(self) -> str:
        num = _render_poly(self.num)
        if self.den == _D_ONE:
            return num
        den = _den_poly(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if _is_safe_denominator(den):
            return f"{num}/{_render_poly(den)}"
        return f"{num}/({_render_poly(den)})"

    def __repr__(self) -> str:
        return self.render()


def _p_substitute(p: dict, subs: dict[int, tuple[int, int]]) -> tuple[dict, int]:
    """Evaluate at the values n/d of subs, d > 0; returns (integer polynomial,
    positive integer denominator), reduced by the gcd of all its integers.

    Every term is put over one denominator D, the product of d^e over the
    highest exponent e of each substituted variable in p: the term c x^k
    becomes c * n^e * d^(e_max - e) per variable, over D.
    """
    top = {vi: max(((k >> _SHIFT * vi) & _MASK for k in p), default=0) for vi in subs}
    den = 1
    for vi, e in top.items():
        den *= subs[vi][1] ** e
    acc: dict[int, int] = {}
    for key, c in p.items():
        for vi, (n, d) in subs.items():
            e = (key >> _SHIFT * vi) & _MASK
            c *= n**e * d ** (top[vi] - e)
            key -= e << _SHIFT * vi
        c += acc.get(key, 0)
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    if not acc:
        return {}, 1
    g = _int_gcd(den, *acc.values())
    return {k: v // g for k, v in acc.items()}, den // g


ZERO = Frac._raw(_P_ZERO, _D_ONE)
ONE = Frac._raw(_P_ONE, _D_ONE)


def _term(key: int, v: int, c: int, k: int, r: int) -> Frac:
    """The reduced v * x^key / (c * x^k * (a + 1)^r) for v != 0 and c > 0:
    one int gcd and one key minimum, as a + 1 divides no monomial."""
    g = _int_gcd(v, c)
    if key and k:
        m = _key_min(key, k)
        key, k = key - m, k - m
    return Frac._raw({key: v // g}, _D_ONE if c == g and not k and not r else (c // g, k, r))


def _over(num: dict, c: int, k: int, r: int) -> Frac:
    """The reduced num / (c * x^k * (a + 1)^r) for a nonzero num and c > 0:
    the factors a + 1 they share (``_p_gcd``), then the monomial gcd of the
    rest; a one-term num goes to ``_term``."""
    if len(num) == 1:
        [(key, v)] = num.items()
        return _term(key, v, c, k, r)
    if r:
        num, s = _p_gcd(num, r)
        r -= s
    m, g = _p_monomial_gcd(num, k, c)
    if m or g != 1:
        num = {key - m: v // g for key, v in num.items()}
        c, k = c // g, k - m
    return Frac._raw(num, _D_ONE if c == 1 and not k and not r else (c, k, r))


def _lcm(dens: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The lcm of the denominators (c, k, r): the int lcm of the c, the
    per-slot maximum of the keys and the largest r."""
    dens = iter(dens)
    lc, lk, lr = next(dens, _D_ONE)
    for c, k, r in dens:
        if c != lc:
            lc = lc * c // _int_gcd(lc, c)
        if k != lk:
            lk = lk + k - _key_min(lk, k) if lk and k else lk | k
        if r > lr:
            lr = r
    return lc, lk, lr


def _sum(parts: Sequence[tuple[dict, dict]], dens: Sequence[tuple[int, int, int]]) -> Frac:
    """The reduced sum of n1 * n2 / den over the parts (n1, n2) and their
    denominators.

    The terms go over one common denominator, the ``_lcm`` of the
    triples, and the numerator sum is reduced once, by ``_over``.
    """
    lc, lk, lr = _lcm(dens)
    total: dict = {}
    get = total.get
    for (n1, n2), (c, k, r) in zip(parts, dens):
        # a one-term factor shifts and scales the other, as the common
        # denominator does
        if len(n1) < len(n2):
            n1, n2 = n2, n1
        shift, n = lk - k, lc // c
        if len(n2) == 1:
            [(k2, c2)] = n2.items()
            shift, n = shift + k2, n * c2
        else:
            n1 = _p_mul(n1, n2)
        if r != lr:
            n1 = _p_mul(n1, _a1_power(lr - r))
        for key, v in n1.items():
            key += shift
            v = get(key, 0) + v * n
            if v:
                total[key] = v
            else:
                del total[key]
    if not total:
        return ZERO
    return _over(total, lc, lk, lr)


ROW_SHIFT = 64
KEY_MASK = (1 << ROW_SHIFT) - 1


def clear_denominators(rows: Mapping) -> tuple[tuple[int, int, int], dict]:
    """Every entry of the sparse rows {i: Frac} over one common denominator.

    Returns (L, cleared).  L is the ``_lcm`` of the entries' denominators,
    a triple.  ``cleared[r]`` is row r as a tuple of integer terms: the term
    v * x^k of the numerator L * c of entry c at i is the pair ``((i <<
    ROW_SHIFT) + k, v)``.  A product of two terms is then one int multiply
    and one key sum, and a sum of two keys whose exponents stay below 2^15
    keeps each slot and the index.  Each numerator is multiplied by its
    factor L / den as in ``_sum``: by the missing powers of a + 1, then by
    one int and one key shift per term, made once per denominator; an entry
    over L itself keeps its numerator.
    """
    scale = {c.den: None for row in rows.values() for c in row.values()}
    den = lc, lk, lr = _lcm(scale)
    for c, k, r in scale:
        scale[c, k, r] = lk - k, lc // c, lr - r
    cleared = {}
    for r, row in rows.items():
        terms = []
        for i, c in row.items():
            shift, n, s = scale[c.den]
            num = _p_mul(c.num, _a1_power(s)) if s else c.num
            shift += i << ROW_SHIFT
            terms += [(k + shift, v * n) for k, v in num.items()]
        cleared[r] = tuple(terms)
    return den, cleared


def flat_terms(blocks: Iterable, sign: int = 1) -> list:
    """The flat terms of ``add_products`` from blocks (offset, terms) of
    cleared terms ``((i << ROW_SHIFT) + k, c)``: (offset + k, i, sign * c),
    block by block.  An offset holds only row-index bits: it moves the
    output row, never the monomial."""
    return [
        ((mk & KEY_MASK) + offset, mk >> ROW_SHIFT, sign * c)
        for offset, terms in blocks
        for mk, c in terms
    ]


def add_products(acc: dict, terms: Iterable, table: Sequence) -> None:
    """Add into acc the products of flat terms with a table of cleared rows:
    for each term (key, i, c) and each term (k, v) of ``table[i]``, c * v at
    k + key.  The key of a flat term carries its row offset and every
    monomial it was scaled by (``flat_terms``, then a caller's scale term),
    so a product adds at most three monomial keys, the table's the last.  A
    key whose sum cancels stays in acc, at 0, in the order first met.
    """
    get = acc.get
    for key, i, c in terms:
        for k, v in table[i]:
            k += key
            acc[k] = get(k, 0) + c * v


def uncleared(
    terms: Mapping[int, int], dens: Sequence[tuple[int, int, int]], dim: int
) -> list[Frac]:
    """The inverse of ``clear_denominators`` on one row: the vector of length
    dim whose entry i is the sum of v * x^k over the integer terms
    ``((i << ROW_SHIFT) + k, v)``, divided by the product of the common
    denominators ``dens``, each entry reduced once by ``_over``.
    """
    nums: dict = {}
    for mk, v in terms.items():
        if v:
            nums.setdefault(mk >> ROW_SHIFT, {})[mk & KEY_MASK] = v
    out = [ZERO] * dim
    lc, lk, lr = 1, 0, 0
    for c, k, r in dens:
        lc, lk, lr = lc * c, lk + k, lr + r
    for i, num in nums.items():
        out[i] = _over(num, lc, lk, lr)
    return out


def dot(pairs: Iterable[tuple[Frac, Frac]]) -> Frac:
    """The sum of a * b over the pairs, normalized once (see One sum).

    Zero operands are skipped, and a sum that cancels builds no Frac.
    """
    parts, dens = [], []
    for a, b in pairs:
        if a.num and b.num:
            c1, k1, r1 = a.den
            c2, k2, r2 = b.den
            parts.append((a.num, b.num))
            dens.append((c1 * c2, k1 + k2, r1 + r2))
    if not parts:
        return ZERO
    return _sum(parts, dens)


def var(name: str) -> Frac:
    if name not in _VAR_INDEX:
        raise ParseError(f"unknown variable {name!r}")
    return Frac._raw({1 << (16 * _VAR_INDEX[name]): 1}, _D_ONE)


L1, L2, L3, ALPHA = (var(n) for n in VARS)


def rat(p: int, q: int = 1) -> Frac:
    """The rational constant p/q, reduced by one integer gcd; ZeroDivisionError
    at q = 0."""
    if not q:
        raise ZeroDivisionError(f"rat({p}, 0)")
    if not p:
        return ZERO
    g = _int_gcd(p, q)
    if q < 0:
        g = -g
    return Frac._raw({0: p // g}, _D_ONE if q == g else (q // g, 0, 0))


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def _render_term(key: int, coeff: int) -> str:
    parts = []
    for vi, name in enumerate(VARS):
        e = (key >> (16 * vi)) & _MASK
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    mag = abs(coeff)
    if mag == 1 and parts:
        return "*".join(parts)
    try:
        digits = str(mag)
    except ValueError as err:
        raise TooManyDigits(
            f"a number has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print"
        ) from err
    return "*".join([digits] + parts)


def _render_poly(p: dict) -> str:
    if not p:
        return "0"
    keys = sorted(p, key=_grlex, reverse=True)
    out = []
    for i, k in enumerate(keys):
        c = p[k]
        body = _render_term(k, c)
        if i == 0:
            out.append("-" + body if c < 0 else body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _is_safe_denominator(p: dict) -> bool:
    """True when the rendered polynomial can follow '/' without parentheses."""
    if len(p) != 1:
        return False
    (k, c), = p.items()
    if c < 0:
        return False
    if k == 0:
        return True
    # a bare variable power like l1^2 is safe; a product or 2*a is not
    if c != 1:
        return False
    return sum(1 for sh in (0, 16, 32, 48) if (k >> sh) & _MASK) == 1


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character at {text[pos:]!r}")
            break
        if m.group(1) is not None:
            try:
                tokens.append(int(m.group(1)))
            except ValueError as err:
                raise TooManyDigits(
                    f"a number of {len(m.group(1))} digits is above the limit of "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from err
        elif m.group(2) is not None:
            tokens.append(m.group(2))
        else:
            tokens.append("^" if m.group(3) == "**" else m.group(3))
        pos = m.end()
    return tokens


def _refuse_carry(lhs: Frac, op: str, rhs: Frac) -> None:
    """ParseError unless ``lhs op rhs`` keeps every exponent within a slot.

    Each of + - * / multiplies numerators and denominators of the operands
    together, so the exponents of a product are bounded by the sum of the
    operands' largest exponents.
    """
    top = max(_p_max_exponent(lhs.num), _p_max_exponent(_den_poly(lhs.den))) + max(
        _p_max_exponent(rhs.num), _p_max_exponent(_den_poly(rhs.den))
    )
    if top > _MASK:
        raise ParseError(f"'{op}' could raise an exponent to {top}, above {_MASK}")


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Frac:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            _refuse_carry(value, op, rhs)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Frac:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            _refuse_carry(value, op, rhs)
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> Frac:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not isinstance(exp, int):
                raise ParseError("exponent must be a nonnegative integer")
            if exp > _MASK:
                raise ParseError(f"exponent {exp} is above {_MASK}")
            value = value**exp
        return value

    def atom(self) -> Frac:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if isinstance(tok, int):
            return Frac.from_int(tok)
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if isinstance(tok, str) and tok in _VAR_INDEX:
            return var(tok)
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str) -> Frac:
    """Parse an expression in l1, l2, l3, a with + - * / ^ and parentheses;
    a divisor outside the denominator set raises DenominatorOutsideSet."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens)
    value = parser.expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing tokens at {tokens[parser.pos:]!r}")
    return value


def render(x: Frac) -> str:
    return x.render()


# ---------------------------------------------------------------------------
# exact elimination (Gauss-Jordan in the field) and linear solving
# ---------------------------------------------------------------------------


def eliminate(
    matrix: Sequence[Sequence[Frac]],
    columns: Sequence[Sequence[Frac]] = (),
    square: bool = False,
):
    """Gauss-Jordan elimination in the field, behind solve_linear and linalg.

    Each row of ``matrix`` is extended by the entries of the right-hand
    ``columns``.  For each column of ``matrix`` in turn, the first remaining
    row with a nonzero entry there is the pivot row, a column with none is
    skipped; the pivot row is divided by its pivot and the column is cleared
    from every other row.  With ``square`` the elimination stops at the first
    column without a pivot, where a square matrix is singular.  Each update
    reads only the nonzero entries of the pivot row, so the one-term paths
    of Frac carry it on graded, sparse matrices.

    Returns ``(rows, pivots, sign, values)``: the reduced rows, the pivot
    column of each leading row, the sign of the row permutation and the
    pivots, whose product with the sign is the determinant of a square
    matrix with a pivot in every column.
    """
    n = len(matrix[0]) if matrix else 0
    rows = [[*row, *[col[i] for col in columns]] for i, row in enumerate(matrix)]
    m = len(rows)
    pivots: list[int] = []
    values: list[Frac] = []
    sign = 1
    for k in range(n):
        r = len(pivots)
        for piv in range(r, m):
            if rows[piv][k].num:
                break
        else:
            if square:
                break
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        row_r = rows[r]
        pk, row_r[k] = row_r[k], ONE
        values.append(pk)
        support = [j for j in range(k + 1, len(row_r)) if row_r[j].num]
        if support and pk != ONE:
            inverse = ONE / pk
            for j in support:
                row_r[j] = row_r[j] * inverse
        for i, row_i in enumerate(rows):
            f = row_i[k]
            if f.num and i != r:
                for j in support:
                    row_i[j] = row_i[j] - f * row_r[j]
                row_i[k] = ZERO
        pivots.append(k)
    return rows, pivots, sign, values


def solve_linear(
    matrix: Sequence[Sequence[Frac]],
    rhs: Union[Sequence[Frac], Sequence[Sequence[Frac]]],
):
    """Solve A x = b exactly for one vector b or a list of column vectors.

    Reduces the augmented rows with ``eliminate`` and reads the solutions
    off the reduced right-hand columns.  Raises SingularMatrix when a column
    has no pivot.  With a single vector rhs returns one solution vector; with
    a list of columns returns the list of solution vectors in the same order.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix):
        raise SingularMatrix("matrix is not square")
    single = bool(rhs) and isinstance(rhs[0], Frac)
    columns = [list(rhs)] if single else [list(c) for c in rhs]  # type: ignore[arg-type]
    for c in columns:
        if len(c) != n:
            raise SingularMatrix("right-hand side has wrong length")
    reduced, pivots, _, _ = eliminate(matrix, columns, square=True)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {len(pivots)}")
    solutions = [[row[n + c] for row in reduced] for c in range(len(columns))]
    return solutions[0] if single else solutions
