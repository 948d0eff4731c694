"""Field arithmetic: worked constants, canonical form, parse/render, solving."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specialortho.errors import (
    DenominatorOutsideSet,
    DenominatorVanishes,
    DivisionByZero,
    ExponentOverflow,
    ParseError,
    SpecialOrthoError,
    SingularMatrix,
)
from specialortho import scalars as scalars_module
from specialortho.scalars import (
    ALPHA,
    Frac,
    L1,
    L2,
    L3,
    ONE,
    ZERO,
    _D_ONE,
    _P_ONE,
    _a1_quotient,
    _den_poly,
    _key_min,
    _lead_key,
    _p_gcd,
    _p_int_mul,
    _p_max_exponent,
    _p_monomial_gcd,
    _p_mul,
    _split_den,
    add_products,
    clear_denominators,
    dot,
    flat_terms,
    parse,
    rat,
    render,
    solve_linear,
    uncleared,
    var,
)


def test_rational_constants():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)
    assert rat(-3, -6) == rat(1, 2)
    assert rat(3, -6) == rat(-1, 2)


_signed_ints = st.integers(min_value=-10**30, max_value=10**30)


@given(_signed_ints, _signed_ints)
@example(0, -7)
@example(6, -4)
@example(-5, 1)
@settings(max_examples=300, deadline=None)
def test_rat_matches_the_fraction_oracle(p, q):
    # rat reduces by one integer gcd; Frac.from_fraction reads a Fraction
    if q == 0:
        with pytest.raises(ZeroDivisionError):
            rat(p, q)
        return
    got, want = rat(p, q), Frac.from_fraction(Fraction(p, q))
    assert (got.num, got.den) == (want.num, want.den)
    if p == 0:
        assert got is ZERO


def test_cancellation_to_one():
    assert L1 / L1 == ONE
    assert (L1 * L2 * L3) / (L3 * L2 * L1) == ONE


def test_alpha_shift_cancellation():
    # ((a+1)/a) * a == a + 1
    lhs = ((ALPHA + 1) / ALPHA) * ALPHA
    assert lhs == ALPHA + 1


def test_family_coefficient_vanishes_at_minus_half():
    c = rat(3) * (rat(2) * ALPHA + 1)
    assert c.substitute({"a": Fraction(-1, 2)}) == ZERO
    assert c.substitute({"a": "-1/2"}).is_zero()


def test_volume_constant_specializes():
    vol = rat(-42) * L1**2 * L2**2 * L3**2
    assert vol.substitute({"l1": 1, "l2": 1, "l3": 1}) == rat(-42)


def test_inverse_product_specializes():
    x = ONE / (L1 * L2 * L3)
    assert x.substitute({"l1": 1, "l2": 1, "l3": 1}) == ONE
    assert x.substitute({"l1": 2, "l2": 3}) == ONE / (rat(6) * L3)


def test_substitute_denominator_vanishes():
    x = ONE / (ALPHA + 1)
    with pytest.raises(DenominatorVanishes):
        x.substitute({"a": -1})


def test_substitute_unknown_variable():
    with pytest.raises(ParseError):
        ONE.substitute({"b": 1})


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        L1 / ZERO


def test_inexact_division_is_a_library_error():
    # the library divides a polynomial only by a + 1, and reports a remainder
    # as None, not by an assertion; a divisor that a + 1 does not reduce to
    # a monomial, at once (l1 + 1) or after one step (a^2 - 1 = (a + 1)(a -
    # 1)), raises a typed error
    assert _a1_quotient(L1.num) is None
    assert _a1_quotient(parse("a^2 + 1").num) is None
    assert _a1_quotient(parse("a^2 - 1").num) == parse("a - 1").num
    for divisor in ("l1 + 1", "a^2 - 1", "2*a + 1"):
        with pytest.raises(SpecialOrthoError):
            _split_den(parse(divisor).num)
    assert _split_den(parse("-3*l2*(a + 1)^2").num) == (-3, 1 << 16, 2)


def test_partial_fraction_identity():
    # 1/(a(a+1)) == 1/a - 1/(a+1)
    lhs = ONE / (ALPHA * (ALPHA + 1))
    rhs = ONE / ALPHA - ONE / (ALPHA + 1)
    assert lhs == rhs


def test_render_and_parse_roundtrip_examples():
    samples = [
        rat(147, 8),
        rat(-42) * L1**2 * L2**2 * L3**2,
        (ALPHA + 1) / ALPHA,
        rat(3) * (rat(2) * ALPHA + 1),
        ONE / (L1 * L2 * L3),
        ZERO,
        rat(-3, 4),
        L1 * L2 - L3**3,
    ]
    for x in samples:
        assert parse(render(x)) == x


def test_render_shapes():
    assert render(rat(147, 8)) == "147/8"
    assert render(ZERO) == "0"
    assert render(-L1) == "-l1"
    assert render(ONE / L1**2) == "1/l1^2"
    assert render((ALPHA + 1) / ALPHA) == "(a + 1)/a"
    assert render(rat(-42) * L1**2) == "-42*l1^2"


def test_parse_expressions():
    assert parse("3*(2*a + 1)") == rat(6) * ALPHA + 3
    assert parse("l1^2*l2 - 2") == L1**2 * L2 - 2
    assert parse("1/2 + 1/3") == rat(5, 6)
    assert parse("-a^2") == -(ALPHA**2)
    assert parse("2**3") == rat(8)
    with pytest.raises(ParseError):
        parse("l1 +")
    with pytest.raises(ParseError):
        parse("(l1")
    with pytest.raises(ParseError):
        parse("l4")
    with pytest.raises(ParseError):
        parse("")


def test_pow_and_bool():
    assert (L1 + 1) ** 0 == ONE
    assert (L1 + 1) ** 2 == L1 * L1 + 2 * L1 + 1
    assert L2 ** (-2) == ONE / L2**2
    assert bool(ZERO) is False and bool(L1) is True


def test_parse_refuses_exponent_overflow():
    # a 16-bit exponent slot must not carry l1^65536 into l2
    assert parse("l1^65535") == L1**65535
    with pytest.raises(ParseError):
        parse("l1^65536")
    with pytest.raises(ParseError):
        parse("2^65536")


@pytest.mark.parametrize(
    "text",
    ["l1^40000*l1^40000", "l1^40000/l1^40000", "l2^40000 + 1/l1^40000", "l1^65535 - l3"],
)
def test_parse_refuses_exponent_carry(text):
    # without the check, l1^40000*l1^40000 carried into l2 and read l1^14464*l2
    with pytest.raises(ParseError):
        parse(text)
    assert parse("l1^30000*l1^35535") == L1**65535


def test_pow_refuses_exponent_overflow():
    assert (ONE / L2) ** 65535 == ONE / L2**65535
    with pytest.raises(ExponentOverflow):
        L1**65536
    with pytest.raises(ExponentOverflow):
        (L1 * L2**2) ** 40000
    with pytest.raises(ExponentOverflow):
        (L1 / (ALPHA + 1)) ** -65536
    with pytest.raises(ExponentOverflow):
        parse("(l1^2)^40000")


def test_solve_identity_and_diagonal():
    eye = [[ONE, ZERO], [ZERO, ONE]]
    assert solve_linear(eye, [ONE, ONE]) == [ONE, ONE]
    diag = [[L1, ZERO], [ZERO, L2]]
    assert solve_linear(diag, [ONE, ONE]) == [ONE / L1, ONE / L2]


def test_diagonal_solve_divides_and_keeps_the_singular_text(monkeypatch):
    diag = [[L1, ZERO, ZERO], [ZERO, rat(-2, 3), ZERO], [ZERO, ZERO, L2 * (ALPHA + 1)]]
    cols = [[ONE, L3, ZERO], [ZERO, ZERO, ZERO], [L2, ONE / L1, L1 + L2]]
    want = [[b / diag[i][i] for i, b in enumerate(col)] for col in cols]
    # a diagonal system takes the one elimination path, which divides each
    # pivot row's right sides by its pivot
    systems, eliminate = [], scalars_module.eliminate

    def recorded(matrix, *args, **kwargs):
        systems.append(matrix)
        return eliminate(matrix, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(scalars_module, "eliminate", recorded)
        assert solve_linear(diag, cols) == want
        assert solve_linear(diag, cols[2]) == want[2]
    assert systems == [diag, diag]
    # one off-diagonal entry gives the same values where it does not reach them
    upper = [row[:] for row in diag]
    upper[0][2] = L3
    assert solve_linear(upper, cols)[1] == want[1]
    # a zero on the diagonal is eliminated, and refused as before
    with pytest.raises(SingularMatrix, match="^no pivot in column 1$"):
        solve_linear([[L1, ZERO], [ZERO, ZERO]], [ONE, ONE])


def test_solve_multiple_columns():
    m = [[L1, ONE], [ZERO, L2]]
    cols = [[ONE, ZERO], [ZERO, ONE]]
    inv_cols = solve_linear(m, cols)
    # m times each solution column gives the unit vectors back
    for col, expect in zip(inv_cols, [[ONE, ZERO], [ZERO, ONE]]):
        got = [
            m[0][0] * col[0] + m[0][1] * col[1],
            m[1][0] * col[0] + m[1][1] * col[1],
        ]
        assert got == expect


def test_solve_symbolic_dense():
    # the pivots l1, a + 1 and l3 * a / (l1 * (a + 1)) are in the
    # denominator set
    m = [
        [L1, -L1, ZERO],
        [ONE, ALPHA, L3],
        [ZERO, ONE / L1, L3 / L1],
    ]
    rhs = [ONE, ZERO, L2]
    x = solve_linear(m, rhs)
    for i in range(3):
        acc = ZERO
        for j in range(3):
            acc = acc + m[i][j] * x[j]
        assert acc == rhs[i]


def test_solve_singular():
    m = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(SingularMatrix):
        solve_linear(m, [ONE, ZERO])


def test_var_names():
    assert var("a") == ALPHA
    with pytest.raises(ParseError):
        var("x")


# -- property tests ----------------------------------------------------------

_small = st.integers(min_value=-4, max_value=4)


@st.composite
def scalars(draw):
    num = draw(_small)
    e1 = draw(st.integers(min_value=0, max_value=2))
    e2 = draw(st.integers(min_value=0, max_value=2))
    shift = draw(_small)
    base = rat(num) * L1**e1 * L2**e2 + rat(shift) * ALPHA
    if draw(st.booleans()):
        base = base + ONE / (ALPHA + 1)
    return base


@st.composite
def set_polynomials(draw):
    """c * l1^i l2^j l3^k a^m (a + 1)^r: the polynomials a scalar may divide by."""
    value = rat(draw(st.sampled_from([-6, -2, -1, 1, 3, 7])))
    for v in (L1, L2, L3, ALPHA):
        value = value * v ** draw(st.integers(min_value=0, max_value=2))
    return value * (ALPHA + 1) ** draw(st.integers(min_value=0, max_value=3))


@given(scalars(), scalars(), scalars(), set_polynomials())
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z, d):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == ZERO
    assert (x / d) * d == x
    assert (x + y) / d == x / d + y / d


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_canonical_form_stable(x):
    # rebuilding from the stored dicts must not change the representation
    y = Frac(dict(x.num), _den_poly(x.den))
    assert y.num == x.num and y.den == x.den
    assert parse(render(x)) == x
    assert hash(y) == hash(x)


_points = st.dictionaries(
    st.sampled_from(["l1", "l2", "l3", "a"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@given(scalars(), scalars(), set_polynomials(), _points)
@settings(max_examples=60, deadline=None)
def test_substitute_is_a_ring_homomorphism(x, y, d, point):
    # scalars() may carry the denominator a + 1
    assume(point.get("a") != -1)

    def at(z):
        return z.substitute(point)

    assert at(x + y) == at(x) + at(y)
    assert at(x - y) == at(x) - at(y)
    assert at(x * y) == at(x) * at(y)
    assert at(ONE) == ONE and at(ZERO) == ZERO
    if not at(d).is_zero():
        assert at(x / d) == at(x) / at(d)


@st.composite
def polynomials(draw):
    """Nonzero polynomials of up to three terms in all four variables."""
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from([-2, -1, 1, 3]),
                st.lists(st.sampled_from([L1, L2, L3, ALPHA]), max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    p = ZERO
    for c, factors in terms:
        term = rat(c)
        for v in factors:
            term = term * v
        p = p + term
    assume(not p.is_zero())
    return p


@given(polynomials(), set_polynomials(), set_polynomials())
# a + 1 divides a * c three times, b * c three times
@example(parse("1 - a^2"), parse("a + 1"), parse("(a + 1)^2*l2"))
@settings(max_examples=100, deadline=None)
def test_common_factor_cancels(a, b, c):
    # reduction must find every common factor, or equal values differ as dicts
    assert (a * c) / (b * c) == a / b


# -- the general gcd over Z[l1, l2, l3, a]: the oracle of the set gcd ----------
# The library divides only by c * l1^i l2^j l3^k a^m (a + 1)^r, stored as the
# triple (c, k, r), so its reduction strips factors a + 1 and takes a
# monomial gcd.  The primitive pseudo-remainder sequence below, the gcd the
# library used before, and the polynomial sum and exact division on expanded
# denominators share none of that code.


def _key_divides(kd, kn):
    return all((kd >> sh) & 0xFFFF <= (kn >> sh) & 0xFFFF for sh in (0, 16, 32, 48))


def _p_add(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _p_divexact(num, den):
    """Exact division num / den; den must divide num in Z[l1, l2, l3, a]."""
    kd = _lead_key(den)
    cd = den[kd]
    r = dict(num)
    q = {}
    while r:
        kr = _lead_key(r)
        cr = r[kr]
        if not (_key_divides(kd, kr) and cr % cd == 0):
            raise ArithmeticError("inexact division")
        k, c = kr - kd, cr // cd
        q[k] = c
        r = _p_sub(r, {k2 + k: c * c2 for k2, c2 in den.items()})
    return q


def _p_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _p_content(p):
    """The monomial content of a nonzero p: its largest monomial divisor."""
    return _p_monomial_gcd(p, next(iter(p)), 0)


def _sign_norm(p):
    if p and p[_lead_key(p)] < 0:
        return {k: -c for k, c in p.items()}
    return dict(p)


def _vars_present(p):
    mask = 0
    for k in p:
        for vi in range(4):
            if (k >> 16 * vi) & 0xFFFF:
                mask |= 1 << vi
    return mask


def _to_recursive(p, vi):
    """Split p as a univariate poly in variable vi with packed-poly coefficients."""
    sh = 16 * vi
    out = {}
    for k, c in p.items():
        d = (k >> sh) & 0xFFFF
        out.setdefault(d, {})[k - (d << sh)] = c
    return out


def _from_recursive(f, vi):
    return {k + (d << 16 * vi): c for d, coeff in f.items() for k, c in coeff.items()}


def _coeffs_gcd(f):
    g = {}
    for coeff in f.values():
        g = prs_gcd(g, coeff)
        if g == _P_ONE:
            return g
    return g


def _prem(F, G):
    """Pseudo-remainder of F by G, both univariate with packed-poly coefficients."""
    dG = max(G)
    lG = G[dG]
    R = dict(F)
    while R and max(R) >= dG:
        dR = max(R)
        lR = R[dR]
        new = {d: _p_mul(c, lG) for d, c in R.items() if d != dR}
        for d, c in G.items():
            if d != dG:
                d2 = d + dR - dG
                v = _p_sub(new.get(d2, {}), _p_mul(c, lR))
                if v:
                    new[d2] = v
                else:
                    new.pop(d2, None)
        R = new
    return R


def prs_gcd(a, b):
    """gcd in Z[l1, l2, l3, a] with a positive leading coefficient: the
    contents' gcd times the primitive PRS gcd in the lowest common variable."""
    if not a:
        return _sign_norm(b)
    if not b:
        return _sign_norm(a)
    ka, ca = _p_content(a)
    kb, cb = _p_content(b)
    gk, gc = _key_min(ka, kb), gcd(ca, cb)
    pa = {k - ka: c // ca for k, c in a.items()}
    pb = {k - kb: c // cb for k, c in b.items()}
    common = _vars_present(pa) & _vars_present(pb)
    if common == 0:
        return {gk: gc}
    vi = (common & -common).bit_length() - 1
    F, G = _to_recursive(pa, vi), _to_recursive(pb, vi)
    if max(F) < max(G):
        F, G = G, F
    contF, contG = _coeffs_gcd(F), _coeffs_gcd(G)
    cont = prs_gcd(contF, contG)
    F = {d: _p_divexact(c, contF) for d, c in F.items()}
    G = {d: _p_divexact(c, contG) for d, c in G.items()}
    while True:
        R = _prem(F, G)
        if not R:
            gpp = G
            break
        if max(R) == 0:
            gpp = {0: _P_ONE}
            break
        rc = _coeffs_gcd(R)
        F, G = G, {d: _p_divexact(c, rc) for d, c in R.items()}
    flat = _from_recursive(gpp, vi)
    fk, fc = _p_content(flat)
    flat = {k - fk: c // fc for k, c in flat.items()}
    return _sign_norm(_p_mul(_p_mul({gk: gc}, cont), flat))


def oracle_reduce(num, den):
    """num / den over the PRS gcd, with a positive leading denominator
    coefficient: the canonical form on expanded denominators."""
    if not num:
        return {}, _P_ONE
    g = prs_gcd(num, den)
    n, e = _p_divexact(num, g), _p_divexact(den, g)
    sign = 1 if e[_lead_key(e)] > 0 else -1
    return _p_int_mul(n, sign), _p_int_mul(e, sign)


def expanded(x):
    """A Frac as its numerator and expanded denominator."""
    return x.num, _den_poly(x.den)


@given(polynomials(), set_polynomials(), set_polynomials())
@example(parse("a^3 + a^2 - a - 1"), ONE, parse("-2*a^2 - 4*a - 2"))
@settings(max_examples=300, deadline=None)
def test_set_gcd_matches_the_prs_oracle(p, s, d):
    # a random numerator times a set polynomial, over a set denominator
    num, den = (p * s).num, d.num
    got = Frac(num, den)
    assert expanded(got) == oracle_reduce(num, den)
    c, k, r = got.den
    assert c > 0 and r >= 0 and (got.den == _D_ONE) == (got.den is _D_ONE)
    # the a + 1 step alone: the gcd of num with (a + 1)^r of the divisor
    r = _split_den(den)[2]
    q, t = _p_gcd(num, r)
    assert prs_gcd(num, _den_poly((1, 0, r))) == _den_poly((1, 0, t))
    assert _p_mul(q, _den_poly((1, 0, t))) == num


@st.composite
def set_fractions(draw):
    """(num, den) with den a set polynomial and num a random polynomial times
    another, so that monomials and powers of a + 1 may cancel."""
    return (draw(polynomials()) * draw(set_polynomials())).num, draw(set_polynomials()).num


def assert_canonical(got, num, den):
    """got is num / den in the canonical form: the same value by
    cross-multiplication, and reduced over c > 0.  The prime factors of
    c * x^k * (a + 1)^r are those of c, the variables of k and a + 1, so
    reduced means: no prime of c divides every coefficient of the
    numerator, each variable of k is missing from some numerator term, and
    the numerator does not vanish at a = -1 when r > 0."""
    n, d = expanded(got)
    assert _p_sub(_p_mul(n, den), _p_mul(num, d)) == {}
    c, k, r = got.den
    if not n:
        assert got.den == _D_ONE
        return
    assert c > 0 and gcd(c, *n.values()) == 1
    for sh in (0, 16, 32, 48):
        assert not (k >> sh) & 0xFFFF or any(not (key >> sh) & 0xFFFF for key in n)
    at_minus_one = {}
    for key, v in n.items():
        rest = key & ((1 << 48) - 1)
        at_minus_one[rest] = at_minus_one.get(rest, 0) + v * (-1) ** (key >> 48)
    assert not r or any(at_minus_one.values())


@given(st.lists(set_fractions(), min_size=2, max_size=3), set_polynomials(), set_polynomials())
@example([(parse("a^2 - 1").num, parse("(a + 1)^2").num), (L1.num, parse("a + 1").num)], ONE, ONE)
@settings(max_examples=100, deadline=None)
def test_operations_match_the_expanded_denominator_oracle(pairs, s, t):
    # every operation on the triples gives the canonical form of the same
    # operation on expanded numerator and denominator polynomials, and
    # clear_denominators the lcm of the PRS gcd
    xs = [Frac(n, d) for n, d in pairs]
    (n1, d1), (n2, d2) = pairs[:2]
    x, y = xs[:2]
    assert_canonical(x, n1, d1)
    assert_canonical(x + y, _p_add(_p_mul(n1, d2), _p_mul(n2, d1)), _p_mul(d1, d2))
    assert_canonical(x - y, _p_sub(_p_mul(n1, d2), _p_mul(n2, d1)), _p_mul(d1, d2))
    assert_canonical(x * y, _p_mul(n1, n2), _p_mul(d1, d2))
    # a divisor whose numerator is in the set too
    assert_canonical(x / (s / t), _p_mul(n1, t.num), _p_mul(d1, s.num))
    # dot of consecutive pairs, summed on expanded denominators
    num, den = {}, _P_ONE
    for (na, da), (nb, db) in zip(pairs, pairs[1:]):
        num = _p_add(_p_mul(num, _p_mul(da, db)), _p_mul(_p_mul(na, nb), den))
        den = _p_mul(den, _p_mul(da, db))
    assert_canonical(dot(zip(xs, xs[1:])), num, den)
    # one row over its common denominator, the PRS lcm, and back
    common, cleared = clear_denominators({0: dict(enumerate(xs))})
    lcm = _P_ONE
    for e in (_den_poly(c.den) for c in xs):
        lcm = _p_mul(lcm, _p_divexact(e, prs_gcd(lcm, e)))
    assert _den_poly(common) == lcm
    key_mask = (1 << scalars_module.ROW_SHIFT) - 1
    for i, c in enumerate(xs):
        got = {k & key_mask: v for k, v in cleared[0] if k >> scalars_module.ROW_SHIFT == i}
        assert got == _p_mul(c.num, _p_divexact(lcm, _den_poly(c.den)))
    back = uncleared(dict(cleared[0]), (common,), len(xs))
    for c, (n, d) in zip(back, pairs):
        assert_canonical(c, n, d)


def test_denominators_outside_the_set_are_refused():
    text = re.escape("denominator l1 + 1 is not c * l1^i l2^j l3^k a^m (a + 1)^r")
    for build in (
        lambda: Frac({0: 1}, (L1 + 1).num),
        lambda: ONE / (L1 + 1),
        lambda: 1 / (L1 + 1),
        lambda: -(L1 + 1) ** -1,
        lambda: parse("1/(l1+1)"),
        lambda: Frac({}, (L1 + 1).num),
    ):
        with pytest.raises(DenominatorOutsideSet, match=f"^{text}$"):
            build()
    assert issubclass(DenominatorOutsideSet, SpecialOrthoError)
    assert issubclass(DenominatorOutsideSet, ValueError)
    # any integer times a monomial times a power of a + 1 is a denominator,
    # and a numerator may have any factor
    d = 5 * L1 * (ALPHA + 1) ** 2
    assert (ONE / d).den == (5, 1, 2) and _den_poly((ONE / d).den) == d.num
    assert (L1 + 1) / d * d == L1 + 1


# -- the monomial-fraction and constant fast paths -----------------------------

_coefficients = st.integers(min_value=-12, max_value=12).filter(bool)
_monomial_keys = st.lists(
    st.integers(min_value=0, max_value=3), min_size=4, max_size=4
).map(lambda exps: sum(e << (16 * i) for i, e in enumerate(exps)))


@st.composite
def monomial_fractions(draw):
    """c*m / (e*k), normalized by the constructor."""
    return Frac(
        {draw(_monomial_keys): draw(_coefficients)},
        {draw(_monomial_keys): draw(_coefficients)},
    )


_constants = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(
    Frac.from_fraction
)
_operands = st.one_of(
    st.integers(min_value=-12, max_value=12),
    _constants,
    monomial_fractions(),
    st.sampled_from([ZERO, ONE]),
)


def _as_frac(x):
    return Frac.from_int(x) if isinstance(x, int) else x


@given(_operands, _operands)
@settings(max_examples=300, deadline=None)
def test_fast_paths_give_the_canonical_form(x, y):
    assume(isinstance(x, Frac) or isinstance(y, Frac))
    fx, fy = _as_frac(x), _as_frac(y)
    (nx, dx), (ny, dy) = expanded(fx), expanded(fy)
    product = Frac(_p_mul(nx, ny), _p_mul(dx, dy))
    got = x * y
    assert (got.num, got.den) == (product.num, product.den)
    total = Frac(_p_add(_p_mul(nx, dy), _p_mul(ny, dx)), _p_mul(dx, dy))
    got = x + y
    assert (got.num, got.den) == (total.num, total.den)
    minus_y = {k: -c for k, c in ny.items()}
    difference = Frac(_p_add(_p_mul(nx, dy), _p_mul(minus_y, dx)), _p_mul(dx, dy))
    got = x - y
    assert (got.num, got.den) == (difference.num, difference.den)


@st.composite
def same_monomial_pairs(draw):
    """c1*m/(e1*k) and c2*m/(e2*k): after the constructor's reduction both
    keep the same numerator key and the same denominator key."""
    m, k = draw(_monomial_keys), draw(_monomial_keys)
    return tuple(
        Frac({m: draw(_coefficients)}, {k: draw(_coefficients)}) for _ in range(2)
    )


_L1_HALF = Frac({1: 1}, {0: 2})  # l1/2
_L1_OVER_L2 = Frac({1: 3}, {1 << 16: 2})  # 3*l1 / (2*l2)


@given(same_monomial_pairs())
@example((_L1_OVER_L2, _L1_OVER_L2))  # x - y cancels
@example((_L1_OVER_L2, -_L1_OVER_L2))  # x + y cancels
@example((_L1_HALF, _L1_HALF))  # x + y = l1 over the shared _D_ONE
@example((Frac({1: 3}, {0: 2}), _L1_HALF))  # x - y = l1 over the shared _D_ONE
@settings(max_examples=300, deadline=None)
def test_same_monomial_sums_give_the_canonical_form(pair):
    # a sum of one-term fractions with equal keys: the canonical form of the
    # expanded oracle, ZERO itself when the sum cancels and the shared _D_ONE
    # as denominator 1
    x, y = pair
    assert x.num.keys() == y.num.keys() and x.den[1:] == y.den[1:]
    (nx, dx), (ny, dy) = expanded(x), expanded(y)
    minus_y = {k: -c for k, c in ny.items()}
    for got, n in ((x + y, ny), (x - y, minus_y)):
        want = Frac(_p_add(_p_mul(nx, dy), _p_mul(n, dx)), _p_mul(dx, dy))
        assert (got.num, got.den) == (want.num, want.den)
        if not got.num:
            assert got is ZERO
        if got.den == _D_ONE:
            assert got.den is _D_ONE


def test_same_monomial_sums_take_the_fast_path(monkeypatch):
    # a sum of one-term fractions multiplies no polynomials and takes no
    # gcd of polynomials: its one term is reduced by _term
    x, y = _L1_OVER_L2, Frac({1: -5}, {1 << 16: 4})  # 3*l1/(2*l2), -5*l1/(4*l2)
    want = Frac({1: 1}, {1 << 16: 4}), Frac({1: 11}, {1 << 16: 4})

    def refuse(*args):
        raise AssertionError("a same-monomial sum took a polynomial path")

    monkeypatch.setattr(scalars_module, "_p_mul", refuse)
    monkeypatch.setattr(scalars_module, "_p_gcd", refuse)
    assert (x + y, x - y) == want
    assert (_L1_HALF + _L1_HALF).den is _D_ONE
    assert x - x is ZERO


def test_fast_paths_need_no_polynomial_gcd(monkeypatch):
    x = Frac({1 | 2 << 16: -6}, {3 << 48: 4})  # -3*l1*l2^2 / (2*a^3)
    y = Frac({1 << 48: 10}, {1 | 1 << 32: 9})  # 10*a / (9*l1*l3)
    want = Frac({2 << 16: -5}, {1 << 32 | 2 << 48: 3})  # -5*l2^2 / (3*l3*a^2)
    # polynomial numerators over monomial denominators, built before the patch
    u = parse("(l1^2 + 2*l2*l1) / (6*l3)")
    v = parse("(l1*l2 - 3*a) / (4*l1*l3^2)")
    u_plus_v = parse("(2*l1^3*l3 + 4*l1^2*l2*l3 + 3*l1*l2 - 9*a) / (12*l1*l3^2)")
    u_minus_v = parse("(2*l1^3*l3 + 4*l1^2*l2*l3 - 3*l1*l2 + 9*a) / (12*l1*l3^2)")
    uv_plus_xy = u * v + x * y

    def no_division(p):
        raise AssertionError("a polynomial was divided by a + 1")

    # over monomial denominators the set gcd is a monomial gcd: it never
    # tries the polynomial division by a + 1
    monkeypatch.setattr(scalars_module, "_a1_quotient", no_division)
    assert (x * y).num == want.num and (x * y).den == want.den
    assert rat(1, 6) + rat(-5, 12) == rat(-1, 4)
    assert rat(2, 3) + rat(-2, 3) == ZERO
    assert u + v == u_plus_v and u - v == u_minus_v
    assert dot([(u, v), (x, y)]) == uv_plus_xy
    assert dot([(x, y), (-x, y), (u, ZERO)]) is ZERO


# -- dot: one normalization per sum -------------------------------------------

_dot_operands = st.one_of(
    st.just(ZERO),
    _constants,
    monomial_fractions(),
    # a two-term denominator, over which dot adds these products with +, or
    # a two-term numerator that may cancel it
    st.builds(
        lambda m, r: m * (ALPHA + 1) ** r, monomial_fractions(), st.sampled_from([-3, -2, -1, 1])
    ),
)


@given(st.lists(st.tuples(_dot_operands, _dot_operands), max_size=6))
@settings(max_examples=300, deadline=None)
def test_dot_is_the_pairwise_sum(pairs):
    want = ZERO
    for a, b in pairs:
        want = want + a * b
    got = dot(pairs)
    assert (got.num, got.den) == (want.num, want.den)


def test_dot_cancellation_builds_no_fraction():
    x = parse("3*l1^2/(2*a)")
    y = parse("l2/(5*l3)")
    pairs = [(x, y), (-x, y), (ZERO, x), (L1, L2 / L3), (L2, -L1 / L3)]
    assert dot(pairs) is ZERO
    assert dot([]) is ZERO
    mixed = [(ONE / (ALPHA + 1), L2), (L2, -ONE / (ALPHA + 1))]
    assert dot(mixed) == ZERO


@given(st.lists(st.lists(_dot_operands, max_size=4), max_size=4))
@settings(max_examples=200, deadline=None)
def test_clear_denominators_puts_each_row_over_one_denominator(entries):
    rows = {r: dict(enumerate(row)) for r, row in enumerate(entries)}
    den, cleared = clear_denominators(rows)
    assert cleared.keys() == rows.keys()
    fracs = [c for row in rows.values() for c in row.values()]
    # a power of a + 1 in the lcm only if some denominator has one
    assert (den[2] > 0) == any(c.den[2] > 0 for c in fracs)
    key_mask = (1 << scalars_module.ROW_SHIFT) - 1
    for r, row in rows.items():
        for i, c in row.items():
            num = {
                k & key_mask: v
                for k, v in cleared[r]
                if k >> scalars_module.ROW_SHIFT == i
            }
            assert Frac(num, _den_poly(den)) == c
            if c.den == den:
                assert num == c.num


@given(st.lists(st.lists(_dot_operands, max_size=4), max_size=4), _dot_operands)
@settings(max_examples=200, deadline=None)
def test_uncleared_inverts_clear_denominators(entries, scale):
    rows = {r: dict(enumerate(row)) for r, row in enumerate(entries)}
    den, cleared = clear_denominators(rows)
    s_den, s_cleared = clear_denominators({0: {0: scale}})
    s_terms = s_cleared[0]
    for r, row in rows.items():
        want = [row.get(i, ZERO) for i in range(4)]
        assert uncleared(dict(cleared[r]), (den,), 4) == want
        # the integer products with the terms of one more cleared scalar are
        # the products of the entries, over the product of the denominators
        terms = {}
        for k, v in cleared[r]:
            for ks, vs in s_terms:
                terms[k + ks] = terms.get(k + ks, 0) + v * vs
        assert uncleared(terms, (den, s_den), 4) == [c * scale for c in want]


@given(
    st.lists(st.lists(_dot_operands, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(_dot_operands, min_size=3, max_size=3), min_size=3, max_size=3),
    monomial_fractions(),
)
@settings(max_examples=200, deadline=None)
@example(blocks=[[ONE], [ONE]], table=[[ONE, ZERO, ZERO]] * 3, scale=L1)
def test_add_products_is_the_dot_of_each_block_with_the_table(blocks, table, scale):
    # block b sits at offset 3b rows: its flat terms carry that offset,
    # then the scale term, and uncleared reads its three products with the
    # table, times the scale, over the product of the three common
    # denominators
    shift = scalars_module.ROW_SHIFT
    b_den, b_cleared = clear_denominators(
        {b: dict(enumerate(v)) for b, v in enumerate(blocks)}
    )
    t_den, t_cleared = clear_denominators({i: dict(enumerate(r)) for i, r in enumerate(table)})
    s_den, s_cleared = clear_denominators({0: {0: scale}})
    [scale_term] = s_cleared[0]
    skey, s = scale_term
    flat = flat_terms(((3 * b) << shift, b_cleared[b]) for b in range(len(blocks)))
    terms = [(key + skey, i, s * c) for key, i, c in flat]
    acc: dict = {}
    add_products(acc, terms, [t_cleared[i] for i in range(3)])
    want = [
        scale * dot((c, table[i][k]) for i, c in enumerate(v))
        for v in blocks
        for k in range(3)
    ]
    assert uncleared(acc, (b_den, t_den, s_den), 3 * len(blocks)) == want


def test_library_exponents_stay_small(monkeypatch):
    """A symbolic ``verify all`` never carries an exponent across a key slot.

    Every ``_p_mul`` takes operands whose largest exponents sum to at most
    65535, and every exponent stored in a Frac stays below 2^14, a
    denominator's exponent of a read as its key's plus r, the exponent of the
    expanded polynomial.  The largest exponent the run stores is 24.  Every
    entry that ``clear_denominators`` hands to the superalgebra checks and
    to the shuffle kernel (``AltMap.cleared`` and the ``PairingSpec``
    tables), and each common denominator, also stays below 2^14, so the
    product of three common denominators in ``uncleared`` cannot carry.
    The largest cleared exponent is 3.  Every call of ``add_products``, the
    one place where cleared keys are added, is checked on its three keys
    per product: the largest exponents of the block terms, of the table
    rows they meet and of the scale term sum to at most 65535, the block
    offsets hold no monomial bits and the scale key no row-index bits, so
    no product carries into the next slot or into the row index.  The
    largest such sum in the run is 5.
    """
    from specialortho import altmap, quadlie
    from specialortho.suites import run_suite

    mul, init, raw = scalars_module._p_mul, Frac.__init__, Frac._raw

    def checked_mul(a, b):
        assert _p_max_exponent(a) + _p_max_exponent(b) <= 65535
        return mul(a, b)

    def den_exponent(den):
        _, k, r = den
        return max(_p_max_exponent({k: 1}), (k >> 48) + r)

    def check(x):
        assert max(_p_max_exponent(x.num), den_exponent(x.den)) < 1 << 14

    def checked_init(self, num, den):
        init(self, num, den)
        check(self)

    def checked_raw(num, den):
        out = raw(num, den)
        check(out)
        return out

    def checked_clear(calls):
        def checked(rows):
            den, cleared = clear(rows)
            assert den_exponent(den) < 1 << 14
            keys = {k & key_mask for row in cleared.values() for k, _ in row}
            top = _p_max_exponent(dict.fromkeys(keys, 1))
            assert top < 1 << 14
            calls.append((rows, top))
            return den, cleared

        return checked

    def exponent(key):
        return _p_max_exponent({key: 1})

    def checked_flat(blocks, sign=1):
        # an offset moves only the row index, never the monomial
        blocks = list(blocks)
        assert all(offset == offset & ~key_mask for offset, _ in blocks)
        return flat(blocks, sign)

    def checked_products(acc, terms, table):
        most = 0
        for key, i, _ in terms:
            assert key >= 0
            row_top = max((exponent(k & key_mask) for k, _ in table[i]), default=0)
            most = max(most, exponent(key & key_mask) + row_top)
        product_tops.append(most)
        assert product_tops[-1] <= 65535
        return products(acc, terms, table)

    clear, calls, kernel_calls = scalars_module.clear_denominators, [], []
    products, product_tops = scalars_module.add_products, []
    flat = scalars_module.flat_terms
    key_mask = (1 << scalars_module.ROW_SHIFT) - 1
    monkeypatch.setattr(scalars_module, "_p_mul", checked_mul)
    monkeypatch.setattr(Frac, "__init__", checked_init)
    monkeypatch.setattr(Frac, "_raw", staticmethod(checked_raw))
    monkeypatch.setattr(quadlie, "clear_denominators", checked_clear(calls))
    monkeypatch.setattr(altmap, "clear_denominators", checked_clear(kernel_calls))
    monkeypatch.setattr(quadlie, "add_products", checked_products)
    monkeypatch.setattr(altmap, "add_products", checked_products)
    monkeypatch.setattr(quadlie, "flat_terms", checked_flat)
    monkeypatch.setattr(altmap, "flat_terms", checked_flat)
    assert run_suite("all").ok
    # each assembly's table once, read by both of its scans, and its form
    # once; no Lie algebra g is scanned on its own
    assert len(calls) == 6
    assert sum(all(isinstance(key, tuple) for key in rows) for rows, _ in calls) == 3
    assert kernel_calls
    assert max(top for _, top in calls + kernel_calls) == 3
    assert max(product_tops) == 5
