"""Exact arithmetic in the rational function field Q(l1, l2, l3, a).

Everything the library computes is a ``Frac``: a reduced fraction of sparse
integer polynomials in the four fixed variables.  There is no floating point
anywhere; equality of scalars is equality in the field.

The denominator set.  Every denominator is c * l1^i l2^j l3^k a^m (a + 1)^r,
as the paper divides only by the weights, alpha and beta = -1 - alpha.
``Frac(num, den)`` and ``/`` refuse any other with DenominatorOutsideSet;
sums, products and lcms stay in the set.  ``_p_gcd(p, den)`` strips from p
the factors a + 1 of den (``_a1_quotient``) and takes a monomial gcd of the
rest: there is no multivariate gcd.

Representation.  A polynomial is a dict mapping a packed exponent key to a
nonzero int coefficient.  The key packs the four exponents in 16-bit slots,
``e(l1) | e(l2)<<16 | e(l3)<<32 | e(a)<<48``, so monomial multiplication is
integer addition of keys.  Monomials are ordered by total degree, ties broken
by the packed key itself (which makes ``a`` weigh heaviest, then l3, l2, l1).

Exponent bound.  A slot holds exponents up to 65535.  ``parse`` refuses a
larger exponent, and any ``*``, ``/``, ``+`` or ``-`` whose operands' largest
exponents (over numerator and denominator) sum past it (ParseError);
``Frac.__pow__`` refuses a power whose exponent in some variable would pass
it (ExponentOverflow).  So text from outside cannot reach a wrapped exponent.
Products inside the library stay unchecked: multiplying two polynomials whose
exponents in one variable sum past 65535 would carry into the next slot.  The
fast paths and ``dot`` add at most four operand keys per slot, key sums and
common-denominator shifts alike.  The integer terms of ``clear_denominators``
are multiplied only in ``add_products``, which adds three keys per product:
a flat term's key is a cleared key, plus row offsets that hold no monomial
bits (``flat_terms``) and at most one more cleared key by which its caller
scaled it, and the table term adds the third.  ``uncleared`` adds the keys
of up to three common denominators.  ``test_library_exponents_stay_small``
runs the symbolic ``verify all`` with every ``_p_mul`` checked against the
slot, every stored exponent, cleared numerator and common denominator
against 2^14, every ``flat_terms`` offset against the monomial bits, and
every ``add_products`` product on its flat key and table row; the largest
exponent stored is 24, the largest cleared one 3, the largest sum of three
cleared keys 5.

Canonical form.  gcd(num, den) is a unit, and the leading coefficient of the
denominator is positive; the denominator is stored expanded, not factored.
Two Fracs are equal in the field iff their dicts are equal, so ``==`` and
``hash`` are structural.

Fast paths.  A product of two monomial fractions c1*m1/(e1*k1) and
c2*m2/(e2*k2), ints and rational constants included, is reduced by one
integer gcd of c1*c2 and e1*e2 and one per-slot exponent minimum of the key
sums.  A sum of two such fractions with equal numerator keys and equal
denominator keys, c1*m/(e1*k) + c2*m/(e2*k) (two rational constants
included), is (c1*e2 + c2*e1)*m/(e1*e2*k) reduced by one integer gcd, with
both keys kept: m and k share no variable in a reduced fraction, and a
denominator of 1 is the shared ``_P_ONE``.  ``dot(pairs)``
sums a * b over its pairs and normalizes once per result, not once per term:
the products with monomial denominators go over one common denominator (the
per-slot maximum of the keys, the integer lcm of the coefficients), and the
numerator sum is reduced by one integer gcd and one key minimum.  ``+`` and
``-`` of two monomial-denominator fractions are the two-term case.  None of
these calls ``_p_gcd``.  A reduced fraction with a positive leading
denominator coefficient is unique over the UFD Z[l1, l2, l3, a], so every
path gives exactly the canonical form of the general path, and ``dot``
equals the pairwise sum dict for dict.  ``clear_denominators`` puts rows of
Fracs over one common denominator as integer terms, scaling a numerator by
a monomial factor with one int multiply and one key sum per term, so that a
product of two entries is one int product and one key sum.  ``flat_terms``
reads cleared rows at row offsets as flat terms (key, row, coefficient),
and ``add_products``, the one product loop, multiplies them with a table of
cleared rows: one loop over the terms and one over each table row (the
superalgebra scans, the moment-action table and ``wedge_rel``).
``uncleared`` turns the sums back into one Frac per coordinate, over the
product of the common denominators: by one int gcd and one key minimum
when that product is a monomial, else by ``Frac(num, den)``.
``eliminate`` is Gauss-Jordan over Frac, so its row updates take these
fast paths on graded matrices; ``solve_linear`` reads its solutions off
the reduced right-hand columns.
"""

from __future__ import annotations

import re
import sys
from math import gcd as _int_gcd
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

from .errors import (
    DenominatorOutsideSet,
    DenominatorVanishes,
    DivisionByZero,
    ExponentOverflow,
    InexactDivision,
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
_A1 = {1 << 48: 1, 0: 1}  # a + 1

# ---------------------------------------------------------------------------
# polynomial layer: dict[int, int], no zero coefficients stored
# ---------------------------------------------------------------------------


def _key_degree(key: int) -> int:
    return (key & _MASK) + ((key >> 16) & _MASK) + ((key >> 32) & _MASK) + (key >> 48)


def _grlex(key: int) -> tuple[int, int]:
    return (_key_degree(key), key)


def _lead_key(p: dict) -> int:
    return max(p, key=_grlex)


def _key_divides(kd: int, kn: int) -> bool:
    return (
        (kd & _MASK) <= (kn & _MASK)
        and ((kd >> 16) & _MASK) <= ((kn >> 16) & _MASK)
        and ((kd >> 32) & _MASK) <= ((kn >> 32) & _MASK)
        and (kd >> 48) <= (kn >> 48)
    )


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


def _p_add(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


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


def _p_divexact(num: dict, den: dict) -> dict:
    """Exact division num / den; den must divide num in Z[l1,l2,l3,a]."""
    if not num:
        return {}
    if len(den) == 1:
        (kd, cd), = den.items()
        if kd == 0 and cd == 1:
            return dict(num)
        out = {}
        for k, c in num.items():
            if not (_key_divides(kd, k) and c % cd == 0):
                raise InexactDivision("inexact division")
            out[k - kd] = c // cd
        return out
    kd = _lead_key(den)
    cd = den[kd]
    r = dict(num)
    q: dict = {}
    while r:
        kr = _lead_key(r)
        cr = r[kr]
        if not (_key_divides(kd, kr) and cr % cd == 0):
            raise InexactDivision("inexact division")
        k = kr - kd
        c = cr // cd
        q[k] = c
        for k2, c2 in den.items():
            kk = k2 + k
            v = r.get(kk, 0) - c * c2
            if v:
                r[kk] = v
            elif kk in r:
                del r[kk]
    return q


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


def _split_den(den: dict) -> tuple[int, int, int]:
    """(r, k, c) with den = c * x^k * (a + 1)^r, or DenominatorOutsideSet."""
    r, p = 0, den
    while len(p) != 1:
        p = _a1_quotient(p)
        if p is None:
            raise DenominatorOutsideSet(
                f"denominator {_render_poly(den)} is not "
                "c * l1^i l2^j l3^k a^m (a + 1)^r"
            )
        r += 1
    [(k, c)] = p.items()
    return r, k, c


def _p_gcd(p: dict, den: dict) -> dict:
    """gcd of a nonzero p and a denominator of the set, with a positive
    leading coefficient: the factors a + 1 of den that divide p, times the
    monomial gcd of what is left of p with den's c * x^k."""
    g = _P_ONE
    r, k, c = _split_den(den)
    for _ in range(r):
        q = _a1_quotient(p)
        if q is None:
            break
        p, g = q, _p_mul(g, _A1)
    k, c = _p_monomial_gcd(p, k, c)
    return _p_mul(g, {k: c})


def _p_lcm(a: dict, b: dict) -> dict:
    """lcm of two denominators of the set with positive leading coefficients."""
    if a == b:
        return dict(a)
    return _p_mul(a, _p_divexact(b, _p_gcd(a, b)))


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

ScalarLike = Union["Frac", int]


class Frac:
    """A reduced fraction of integer polynomials; immutable by convention."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        if not den:
            raise DivisionByZero("denominator polynomial is zero")
        if not num:
            if len(den) != 1:
                _split_den(den)
            self.num, self.den = _P_ZERO, _P_ONE
        else:
            g = _p_gcd(num, den)
            if len(g) != 1 or 0 not in g or g[0] != 1:
                num = _p_divexact(num, g)
                den = _p_divexact(den, g)
            if den[_lead_key(den)] < 0:
                num = _p_neg(num)
                den = _p_neg(den)
            self.num, self.den = num, den

    @staticmethod
    def _raw(num: dict, den: dict) -> "Frac":
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
        return cls._raw({0: n}, _P_ONE)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Frac":
        if f == 0:
            return ZERO
        return cls._raw({0: f.numerator}, {0: f.denominator})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return (not self.num or self.num.keys() == {0}) and self.den.keys() == {0}

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
        return self._sum(other.num, other.den)

    __radd__ = __add__

    def _sum(self, n2: dict, d2: dict) -> "Frac":
        """self + n2/d2 for nonzero operands; __sub__ passes n2 negated."""
        n1, d1 = self.num, self.den
        if len(d1) != 1 or len(d2) != 1:
            g0 = _p_gcd(d1, d2)
            if g0 == _P_ONE:
                t = _p_add(_p_mul(n1, d2), _p_mul(n2, d1))
                return ZERO if not t else Frac._raw(t, _p_mul(d1, d2))
            d1r = _p_divexact(d1, g0)
            d2r = _p_divexact(d2, g0)
            t = _p_add(_p_mul(n1, d2r), _p_mul(n2, d1r))
            if not t:
                return ZERO
            g1 = _p_gcd(t, g0)
            if g1 != _P_ONE:
                t = _p_divexact(t, g1)
                g0 = _p_divexact(g0, g1)
            return Frac._raw(t, _p_mul(_p_mul(d1r, g0), d2r))
        [(j1, e1)] = d1.items()
        [(j2, e2)] = d2.items()
        if j1 == j2 and len(n1) == len(n2) == 1 and n1.keys() == n2.keys():
            # one monomial over one: x^k and x^j share no variable, so the
            # sum reduces by the int gcd alone and keeps both keys
            [(k, c1)] = n1.items()
            c = c1 * e2 + n2[k] * e1
            if not c:
                return ZERO
            e = e1 * e2
            g = _int_gcd(c, e)
            return Frac._raw({k: c // g}, _P_ONE if not j1 and e == g else {j1: e // g})
        return _monomial_sum([(n1, _P_ONE, j1, e1), (n2, _P_ONE, j2, e2)])

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
        return self._sum(_p_neg(other.num), other.den)

    def __rsub__(self, other: ScalarLike) -> "Frac":
        return (-self).__add__(other)

    def __mul__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if len(n1) == len(d1) == len(n2) == len(d2) == 1:
            [(k1, c1)] = n1.items()
            [(j1, e1)] = d1.items()
            [(k2, c2)] = n2.items()
            [(j2, e2)] = d2.items()
            c, e, k, j = c1 * c2, e1 * e2, k1 + k2, j1 + j2
            g = _int_gcd(c, e)
            if k and j:
                m = _key_min(k, j)
                k, j = k - m, j - m
            return Frac._raw({k: c // g}, _P_ONE if not j and e == g else {j: e // g})
        if d1 == _P_ONE and d2 == _P_ONE:
            return Frac._raw(_p_mul(n1, n2), _P_ONE)
        g1 = _p_gcd(n1, d2)
        if g1 != _P_ONE:
            n1 = _p_divexact(n1, g1)
            d2 = _p_divexact(d2, g1)
        g2 = _p_gcd(n2, d1)
        if g2 != _P_ONE:
            n2 = _p_divexact(n2, g2)
            d1 = _p_divexact(d1, g2)
        return Frac._raw(_p_mul(n1, n2), _p_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Frac":
        if type(other) is not Frac:
            other = Frac._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            raise DivisionByZero(f"division by zero scalar (numerator {self.render()})")
        num, den = other.den, other.num
        if den[_lead_key(den)] < 0:
            num, den = _p_neg(num), _p_neg(den)
        if len(den) != 1:
            _split_den(den)
        return self.__mul__(Frac._raw(num, den))

    def __rtruediv__(self, other: ScalarLike) -> "Frac":
        other = Frac._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int) -> "Frac":
        if n < 0:
            return ONE / self.__pow__(-n)
        if max(_p_max_exponent(self.num), _p_max_exponent(self.den)) * n > _MASK:
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
            return self.den == _P_ONE and (
                self.num == {0: other} if other else not self.num
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

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
        dp, dd = _p_substitute(self.den, subs)
        if not dp:
            raise DenominatorVanishes(
                f"denominator of {self.render()} vanishes under "
                + ", ".join(f"{k}={v}" for k, v in sorted(bindings.items()))
            )
        np_, nd = _p_substitute(self.num, subs)
        return Frac(_p_int_mul(np_, dd), _p_int_mul(dp, nd))

    def render(self) -> str:
        num = _render_poly(self.num)
        if self.den == _P_ONE:
            return num
        den = _render_poly(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if not _is_safe_denominator(self.den):
            den = f"({den})"
        return f"{num}/{den}"

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


ZERO = Frac._raw(_P_ZERO, _P_ONE)
ONE = Frac._raw(_P_ONE, _P_ONE)


def _monomial_sum(parts: list[tuple[dict, dict, int, int]]) -> Frac:
    """The reduced sum of n1 * n2 / (e * x^j) over parts (n1, n2, j, e), e > 0.

    The terms go over one common denominator, the ``_monomial_lcm`` of the
    e * x^j; the numerator sum is reduced once, by its gcd with that
    monomial: an int gcd and a key minimum.  One part is its own common
    denominator, and its product of nonzero numerators cannot cancel.
    """
    if not parts:
        return ZERO
    if len(parts) == 1:
        [(n1, n2, j, e)] = parts
        return _over_monomial(_p_mul(n1, n2), j, e)
    lk, lc = _monomial_lcm((j, e) for _, _, j, e in parts)
    total: dict = {}
    get = total.get
    for n1, n2, j, e in parts:
        if len(n1) == 1 == len(n2):
            [(k1, c1)] = n1.items()
            [(k2, c2)] = n2.items()
            terms: Iterable = ((k1 + k2, c1 * c2),)
        else:
            terms = _p_mul(n1, n2).items()
        shift, n = lk - j, lc // e
        for k, c in terms:
            k += shift
            v = get(k, 0) + c * n
            if v:
                total[k] = v
            else:
                del total[k]
    if not total:
        return ZERO
    return _over_monomial(total, lk, lc)


def _monomial_lcm(monomials: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The lcm lc * x^lk of the monomials e * x^j given as (j, e), e > 0:
    the per-slot maximum of the keys and the int lcm of the coefficients."""
    lk, lc = 0, 1
    for j, e in monomials:
        if j != lk:
            lk = lk + j - _key_min(lk, j) if lk and j else lk | j
        if e != lc:
            lc = lc * e // _int_gcd(lc, e)
    return lk, lc


def _over_monomial(num: dict, lk: int, lc: int) -> Frac:
    """The reduced fraction num / (lc * x^lk) for a nonzero num and lc > 0:
    one int gcd and one key minimum."""
    if len(num) == 1:
        [(k, c)] = num.items()
        g = _int_gcd(c, lc)
        if k and lk:
            m = _key_min(k, lk)
            k, lk = k - m, lk - m
        return Frac._raw({k: c // g}, _P_ONE if not lk and lc == g else {lk: lc // g})
    m, g = _p_monomial_gcd(num, lk, lc)
    if m or g != 1:
        num = {k - m: c // g for k, c in num.items()}
        lk, lc = lk - m, lc // g
    return Frac._raw(num, _P_ONE if not lk and lc == 1 else {lk: lc})


ROW_SHIFT = 64
KEY_MASK = (1 << ROW_SHIFT) - 1


def clear_denominators(rows: Mapping) -> tuple[dict, dict]:
    """Every entry of the sparse rows {i: Frac} over one common denominator.

    Returns (L, cleared).  L is the lcm of the entries' denominators: the
    monomial lcm when they are all monomials, else a fold of ``_p_lcm``,
    which divides by the set gcd ``_p_gcd``.
    ``cleared[r]`` is row r as a tuple of integer terms: the term v * x^k of
    the numerator L * c of entry c at i is the pair ``((i << ROW_SHIFT) + k,
    v)``.  A product of two terms is then one int multiply and one key sum,
    and a sum of two keys whose exponents stay below 2^15 keeps each slot
    and the index.  A numerator whose factor L / den is a monomial (every
    one when L is) is scaled by one int multiply and one key sum per term;
    an entry over L itself keeps its numerator.
    """
    # each entry's denominator key is made once, in the order of the rows
    dens = {}
    keys = []
    for row in rows.values():
        for c in row.values():
            key = tuple(c.den.items())
            if key not in dens:
                dens[key] = c.den
            keys.append(key)
    if all(len(d) == 1 for d in dens.values()):
        lk, lc = _monomial_lcm(d for (d,) in dens)
        den = {lk: lc}
        scale = {((j, e),): {lk - j: lc // e} for ((j, e),) in dens}
    else:
        den = _P_ONE
        for d in dens.values():
            den = _p_lcm(den, d)
        scale = {t: _p_divexact(den, d) for t, d in dens.items()}
    factors = map(scale.__getitem__, keys)
    cleared = {}
    for r, row in rows.items():
        terms = []
        for i, c in row.items():
            q = next(factors)
            if len(q) == 1:
                [(sk, sc)] = q.items()
                sk += i << ROW_SHIFT
                for k, v in c.num.items():
                    terms.append((k + sk, v * sc))
            else:
                terms += [((i << ROW_SHIFT) + k, v) for k, v in _p_mul(c.num, q).items()]
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


def uncleared(terms: Mapping[int, int], dens: Sequence[dict], dim: int) -> list[Frac]:
    """The inverse of ``clear_denominators`` on one row: the vector of length
    dim whose entry i is the sum of v * x^k over the integer terms
    ``((i << ROW_SHIFT) + k, v)``, divided by the product of the common
    denominators ``dens``.

    Each entry is reduced once: over a monomial product by one int gcd and
    one key minimum, over any other product by ``Frac(num, den)``.
    """
    nums: dict = {}
    for mk, v in terms.items():
        if v:
            nums.setdefault(mk >> ROW_SHIFT, {})[mk & KEY_MASK] = v
    out = [ZERO] * dim
    den = _P_ONE
    for d in dens:
        den = _p_mul(den, d)
    if len(den) == 1:
        [(lk, lc)] = den.items()
        for i, num in nums.items():
            out[i] = _over_monomial(num, lk, lc)
    else:
        for i, num in nums.items():
            out[i] = Frac(num, den)
    return out


def dot(pairs: Iterable[tuple[Frac, Frac]]) -> Frac:
    """The sum of a * b over the pairs, normalized once (see Fast paths).

    Zero operands are skipped, and a sum that cancels builds no Frac.
    Products with a denominator that is not a monomial are added with ``+``,
    which is called only when both sides can be nonzero.
    """
    parts = []
    rest = ZERO
    for a, b in pairs:
        if not a.num or not b.num:
            continue
        d1, d2 = a.den, b.den
        if len(d1) != 1 or len(d2) != 1:
            rest = rest + a * b if rest.num else a * b
            continue
        [(j1, e1)] = d1.items()
        [(j2, e2)] = d2.items()
        parts.append((a.num, b.num, j1 + j2, e1 * e2))
    if not parts:
        return rest
    return rest + _monomial_sum(parts) if rest.num else _monomial_sum(parts)


def var(name: str) -> Frac:
    if name not in _VAR_INDEX:
        raise ParseError(f"unknown variable {name!r}")
    return Frac._raw({1 << (16 * _VAR_INDEX[name]): 1}, _P_ONE)


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
    return Frac._raw({0: p // g}, {0: q // g})


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
    top = max(_p_max_exponent(lhs.num), _p_max_exponent(lhs.den)) + max(
        _p_max_exponent(rhs.num), _p_max_exponent(rhs.den)
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
    reads only the nonzero entries of the pivot row, so the Frac monomial
    fast paths carry it on graded, sparse matrices.

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
