"""Tests for exact cyclotomic arithmetic.

Oracles:
  * sympy's cyclotomic_poly / totient for the polynomial tables,
  * sympy polynomial remainder arithmetic for ring multiplication,
  * 100-digit mpmath evaluation for signs and enclosures.
"""
from __future__ import annotations

import functools
import math
import sys
import time
import weakref
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tilegate import exact
from tilegate.exact import (
    CycloReal,
    cos_pi,
    cyclotomic_polynomial,
    euler_phi,
    field_degree,
    sin_pi,
)
from tilegate.errors import (
    DomainError,
    FormatError,
    ModulusError,
    NonRealError,
    ResourceLimitError,
)
from tilegate.text import fraction_parts, parse_fraction
from tilegate.tiling import default_modulus, gen_trivial, verify

MODULI = [4, 8, 12, 16, 20, 24, 28, 36, 40, 48, 60]


def numeric(x: CycloReal, dps: int = 100) -> mpmath.mpf:
    with mpmath.workdps(dps):
        z = mpmath.mpf(0)
        for j, c in enumerate(x.num):
            if c:
                z += c * mpmath.cos(2 * mpmath.pi * j / x.modulus)
        return z / x.den


# -- polynomial tables -------------------------------------------------


@pytest.mark.parametrize("m", list(range(1, 130)) + [105, 210, 420, 4620, 18060, 30030])
def test_cyclotomic_polynomial_matches_sympy(m):
    ours = cyclotomic_polynomial(m)
    x = sympy.symbols("x")
    ref = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
    assert list(ours) == [int(c) for c in ref]


@pytest.mark.parametrize("m", list(range(1, 200)))
def test_euler_phi_matches_sympy(m):
    assert euler_phi(m) == sympy.totient(m)


def test_field_degree_validates_modulus():
    assert field_degree(4) == 2
    assert field_degree(40) == 16
    with pytest.raises(ModulusError):
        field_degree(10)
    with pytest.raises(ModulusError):
        field_degree(0)


def test_degree_limit_refused():
    # 4099 is prime, so phi(4 * 4099) = 2 * 4098 > 4096
    with pytest.raises(ResourceLimitError):
        field_degree(4 * 4099)
    # 10**16 + 61 is prime too, so trial division in euler_phi would take
    # seconds; the modulus bound refuses it before factoring
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        field_degree(20 * (10**16 + 61))
    assert time.perf_counter() - start < 1.0


def test_large_field_builds_quickly():
    # 18060 = 4*3*5*7*43: phi is within the limit and Phi_M is dense, so
    # building the field must not cost time or memory in proportion to M
    start = time.perf_counter()
    assert field_degree(18060) == 4032
    assert time.perf_counter() - start < 8.0


def _held_entries():
    # the coefficients the cached fields keep: Phi_M's and the series'
    return sum(len(f.poly) + len(f.inverse) for f in exact._fields.values())


def test_field_cache_stays_within_its_budget(monkeypatch):
    exact._field.cache_clear()
    try:
        # M/2 = 9030, 7770 and 6930: the budget holds all three, and one
        # lowered to 14000 holds no two
        for m in (18060, 15540, 13860):
            assert exact._field(m).half == m // 2
        assert list(exact._fields) == [18060, 15540, 13860]
        assert _held_entries() == 23730 <= exact.FIELD_CACHE_ENTRIES
        exact._field.cache_clear()
        monkeypatch.setattr(exact, "FIELD_CACHE_ENTRIES", 14000)
        for m in (18060, 15540, 13860):
            field = exact._field(m)
            assert exact._fields[m] is field
            assert _held_entries() <= exact.FIELD_CACHE_ENTRIES
        assert list(exact._fields) == [13860]
    finally:
        exact._field.cache_clear()


def test_field_cache_builds_each_small_field_once(monkeypatch):
    built = []

    class Counted(exact._Field):
        def __init__(self, modulus):
            built.append(modulus)
            super().__init__(modulus)

    exact._field.cache_clear()
    monkeypatch.setattr(exact, "_Field", Counted)
    try:
        for _ in range(2):
            for n in range(5, 13):
                assert verify(gen_trivial(n)).verdict
        assert sorted(built) == sorted(set(built))
        assert set(built) >= {default_modulus(n, Fraction(2, n)) for n in range(5, 13)}
    finally:
        exact._field.cache_clear()


def test_evicted_field_leaves_no_cosine_table(monkeypatch):
    exact._field.cache_clear()
    # a budget of nothing keeps only the newest field
    monkeypatch.setattr(exact, "FIELD_CACHE_ENTRIES", 0)
    try:
        x = cos_pi(1, 5, 20)
        boxes = x.enclosure(64), x.enclosure(128)
        field = weakref.ref(exact._fields[20])
        assert set(field().zeta) == {64, 128}
        cos_pi(1, 7, 28)
        assert list(exact._fields) == [28] and field() is None
        assert (x.enclosure(64), x.enclosure(128)) == boxes
    finally:
        exact._field.cache_clear()


def _packed(coeffs, width):
    # sum(c * 2**(8*width*i)) on Python ints
    return sum(c << 8 * width * i for i, c in enumerate(coeffs))


def _inverse_cyclotomic(m):
    # Psi_M = (x^M - 1) / Phi_M by long division on Python ints
    phi = cyclotomic_polynomial(m)
    n = len(phi) - 1
    rem, quot = [-1] + [0] * (m - 1) + [1], [0] * (m - n + 1)
    for k in range(m, n - 1, -1):
        t = quot[k - n] = rem[k]
        for i, c in enumerate(phi):
            rem[k - n + i] -= t * c
    assert not any(rem)
    return quot


@pytest.mark.parametrize("m", [4, 8, 12, 40, 60, 388, 420, 1260, 4620])
def test_reduction_table_is_built_in_int64(m):
    # what a field keeps to reduce: Phi_M below its top, dense and as its
    # nonzeros; the series 1/Phi_M mod x^k, k = M/2 - phi, for Barrett
    # division, which is -Psi_M's first k coefficients; growth, a bound
    # on what packed division does to a coefficient; and, per slot size
    # of an array, the two packed, built in int64 at 8-byte slots
    field = exact._Field(m)
    phi = cyclotomic_polynomial(m)
    n, k = field.degree, m // 2 - field.degree
    assert field.poly == phi[:-1]
    assert field.low == [(j, c) for j, c in enumerate(phi[:-1]) if c]
    assert len(field.poly) + len(field.inverse) == field.half == m // 2
    product = [0] * k  # Phi_M * series mod x^k
    for i, p in enumerate(phi[:k]):
        for j, q in enumerate(field.inverse[:k - i]):
            product[i + j] += p * q
    assert product == [1, *[0] * (k - 1)][:k]
    if m < 4620:
        assert field.inverse == [-c for c in _inverse_cyclotomic(m)[:k]]
    window = max(sum(map(abs, field.poly[i:i + k])) for i in range(n))
    assert field.growth >= 1 + sum(map(abs, field.inverse)) * window
    constants = field._constants(8)
    assert constants[1:3] == (_packed(field.poly, 8), _packed(field.inverse[::-1], 8))
    assert field.packed[8] is constants is field._constants(8)


@pytest.mark.parametrize("m", [12, 40, 420])
def test_reduction_table_falls_back_to_python_ints(m, monkeypatch):
    # slots past 8 bytes have no array type: their constants are packed on
    # Python ints, through int.to_bytes, and not kept, and a product whose
    # coefficients pass int64 takes such slots and equals the sparse path's
    field = exact._field(m)
    constants = field._constants(9)
    assert constants[1:3] == (_packed(field.poly, 9), _packed(field.inverse[::-1], 9))
    assert 9 not in field.packed
    x = cos_pi(1, m // 4, m) * 3 + Fraction(1, 2)
    y = sin_pi(1, m // 4, m) - 2
    big = [(j, t << 70) for j, t in x.pairs()]
    widths, width = [], exact._width
    monkeypatch.setattr(exact, "_width", lambda bound: widths.append(width(bound)) or widths[-1])
    monkeypatch.setattr(exact, "_SPARSE_WORK", -(1 << 60))
    packed = field.mul(big, y.pairs())
    assert widths and min(widths) > 8
    monkeypatch.setattr(exact, "_SPARSE_WORK", 1 << 60)
    assert packed == field.mul(big, y.pairs()) == \
        tuple(t << 70 for t in field.mul(x.pairs(), y.pairs()))


# -- trigonometric constructors ---------------------------------------


def test_known_rational_values():
    assert cos_pi(0, 1, 4) == 1
    assert cos_pi(1, 1, 4) == -1
    assert cos_pi(1, 2, 4).is_zero()
    assert cos_pi(1, 3, 12) == Fraction(1, 2)
    assert sin_pi(1, 6, 12) == Fraction(1, 2)
    assert sin_pi(1, 2, 4) == 1
    assert cos_pi(2, 3, 12) == Fraction(-1, 2)


def test_known_quadratic_values():
    # cos(pi/4)^2 = 1/2
    c = cos_pi(1, 4, 8)
    assert c * c == Fraction(1, 2)
    # (4*cos(pi/5) - 1)^2 = 5
    c5 = cos_pi(1, 5, 20)
    t = c5 * 4 - 1
    assert t * t == 5
    # cos(pi/12)^2 = (2 + sqrt(3))/4, so (4c^2 - 2)^2 = 3
    c12 = cos_pi(1, 12, 24)
    u = c12 * c12 * 4 - 2
    assert u * u == 3


def test_pythagorean_identity_small_denominators():
    for m in range(1, 25):
        modulus = math.lcm(4, 2 * m)
        for k in range(0, 2 * m + 1):
            c = cos_pi(k, m, modulus)
            s = sin_pi(k, m, modulus)
            assert c * c + s * s == 1


def test_modulus_precondition():
    with pytest.raises(ModulusError):
        cos_pi(1, 3, 8)
    with pytest.raises(ModulusError):
        sin_pi(1, 5, 12)
    with pytest.raises(DomainError):
        cos_pi(1, 0, 8)


def test_trig_numeric_agreement():
    for m in (5, 7, 9, 12):
        modulus = math.lcm(4, 2 * m)
        for k in range(1, 2 * m):
            c = cos_pi(k, m, modulus)
            s = sin_pi(k, m, modulus)
            assert abs(float(c) - math.cos(k * math.pi / m)) < 1e-12
            assert abs(float(s) - math.sin(k * math.pi / m)) < 1e-12


# -- canonical forms ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 6, 8, 10, 12, 15]),
    k=st.integers(min_value=-20, max_value=20),
)
def test_double_angle_rewrite_is_bitwise_canonical(m, k):
    modulus = math.lcm(4, 2 * m)
    c = cos_pi(k, m, modulus)
    lhs = cos_pi(2 * k, m, modulus)
    rhs = c * c * 2 - 1
    assert lhs.num == rhs.num and lhs.den == rhs.den and lhs.modulus == rhs.modulus


@settings(max_examples=100, deadline=None)
@given(
    m=st.sampled_from([4, 5, 6, 8, 10, 12]),
    j=st.integers(min_value=-15, max_value=15),
    k=st.integers(min_value=-15, max_value=15),
)
def test_angle_addition_rewrite_is_bitwise_canonical(m, j, k):
    modulus = math.lcm(4, 2 * m)
    lhs = cos_pi(j + k, m, modulus)
    rhs = (
        cos_pi(j, m, modulus) * cos_pi(k, m, modulus)
        - sin_pi(j, m, modulus) * sin_pi(k, m, modulus)
    )
    assert lhs.num == rhs.num and lhs.den == rhs.den


def test_zero_iff_all_coefficients_zero():
    x = cos_pi(1, 4, 8)
    d = x * x * 2 - 1
    assert d.is_zero() and d.num == (0, 0, 0, 0) and d.den == 1
    assert not x.is_zero()


# -- ring structure ------------------------------------------------------


def rationals():
    return st.fractions(
        min_value=-8, max_value=8, max_denominator=12
    )


@settings(max_examples=100, deadline=None)
@given(a=rationals(), b=rationals(), m=st.sampled_from(MODULI))
def test_from_rational_is_a_ring_embedding(a, b, m):
    fa = CycloReal.from_rational(a, m)
    fb = CycloReal.from_rational(b, m)
    assert (fa + fb).as_fraction() == a + b
    assert (fa * fb).as_fraction() == a * b
    assert (fa - fb).as_fraction() == a - b


def elements(modulus):
    base = [cos_pi(k, modulus // 2, modulus) for k in (1, 2, 3)]

    def build(coeffs):
        x = CycloReal.from_rational(coeffs[0], modulus)
        for c, b in zip(coeffs[1:], base):
            x = x + b * c
        return x

    return st.builds(build, st.lists(rationals(), min_size=4, max_size=4))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.sampled_from([8, 12, 20]))
def test_ring_axioms(data, m):
    x = data.draw(elements(m))
    y = data.draw(elements(m))
    z = data.draw(elements(m))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x
    assert (x - x).is_zero()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.sampled_from([8, 12, 20]))
def test_multiplication_matches_sympy_remainder(data, m):
    x = data.draw(elements(m))
    y = data.draw(elements(m))
    prod = x * y
    t = sympy.symbols("t")
    phi = sympy.Poly(sympy.cyclotomic_poly(m, t), t, domain="QQ")
    px = sympy.Poly([sympy.Rational(c, x.den) for c in x.num][::-1] or [0], t, domain="QQ")
    py = sympy.Poly([sympy.Rational(c, y.den) for c in y.num][::-1] or [0], t, domain="QQ")
    ref = (px * py).rem(phi)
    got = sympy.Poly(
        [sympy.Rational(c, prod.den) for c in prod.num][::-1] or [0], t, domain="QQ"
    )
    assert ref == got


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.sampled_from([8, 12, 20]), r=rationals())
def test_subtraction_and_rational_factors_match_general_forms(data, m, r):
    a = data.draw(elements(m))
    b = data.draw(elements(m))
    fr = CycloReal.from_rational(r, m)
    assert (a - b).key() == (a + (-b)).key()
    assert (fr - a).key() == (fr + (-a)).key() == (r - a).key()
    assert (a - r).key() == (a + (-fr)).key()
    # the product through the field multiplication, as for any two factors
    field = exact._field(m)
    general = CycloReal._make(m, *exact._normalize(field.mul(a.pairs(), fr.pairs()),
                                                   a.den * fr.den))
    assert (a * fr).key() == (fr * a).key() == (a * r).key() == general.key()
    # a rational factor of another modulus takes the general path
    other = CycloReal.from_rational(r, 3 * m)
    assert (a * other).modulus == 3 * m
    assert a * other == other * a == a * r


def test_huge_coefficients_fall_back_consistently():
    # forces the big-int path on the left; both sides must agree exactly
    c = cos_pi(1, 20, 40)
    big = 1 << 41
    lhs = (c * big) * (c * big)
    rhs = (c * c) * (big * big)
    assert lhs == rhs


def test_scalar_division():
    c = cos_pi(1, 5, 20)
    assert (c / 2) * 2 == c
    assert c / Fraction(3, 7) == c * Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        c / 0


# -- cross-modulus use ----------------------------------------------------


def test_mixed_modulus_arithmetic():
    a = cos_pi(1, 3, 12)
    b = cos_pi(1, 4, 8)
    s = a + b
    assert s.modulus == 24
    assert (s - b).modulus == 24
    assert s - b == a
    assert abs(float(s) - (math.cos(math.pi / 3) + math.cos(math.pi / 4))) < 1e-12


# -- reality, sign, enclosures -------------------------------------------


def test_non_real_vector_rejected():
    with pytest.raises(NonRealError):
        CycloReal(8, [0, 1, 0, 0])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.sampled_from([8, 12, 20, 28]),
    other=st.sampled_from([8, 12, 24]),
    k=st.integers(min_value=-30, max_value=30),
    r=rationals(),
)
def test_operations_keep_values_real(data, m, other, k, r):
    # reality is checked only in the constructor; this is the property
    # that lets sign() and enclosure() trust every other instance
    x = data.draw(elements(m))
    y = data.draw(elements(m))
    z = data.draw(elements(other))
    c, s = cos_pi(k, m // 2, m), sin_pi(k, m // 2, m)
    results = [
        x + y, x - y, x * y, -x, x * r, r - x, x + r,
        x + z, z - x, x * z,
        c, s, c * s, x * s + y * c,
    ]
    if r:
        results.append(x / r)
    for v in results:
        assert exact._field(v.modulus).conj(v.num) == v.num, v


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.sampled_from([8, 12, 20, 28, 188]),
    other=st.sampled_from([8, 12, 24]),
    k=st.integers(min_value=-30, max_value=30),
    r=rationals(),
)
def test_cached_pairs_are_the_nonzeros_of_num(data, m, other, k, r):
    # the pair list a product reads is num's nonzeros, ascending, for
    # elements from _make, from_obj, arithmetic, cos_pi and sin_pi, and
    # it is computed once: a boxed element and a second call agree
    x = data.draw(elements(m))
    y = data.draw(elements(m))
    z = data.draw(elements(other))
    c, s = cos_pi(k, m // 2, m), sin_pi(k, m // 2, m)
    results = [
        x, x + y, x - y, x * y, -x, x * r, x + z, x * z, c, s, c * s,
        CycloReal._make(m, x.num, x.den), CycloReal.from_obj(y.to_obj()),
        CycloReal.from_rational(r, m), CycloReal.zero(m),
    ]
    for v in results:
        v.float_box()
        expected = tuple((j, t) for j, t in enumerate(v.num) if t)
        assert v.pairs() == expected and v.pairs() is v.pairs(), v


def test_sign_of_zero_is_symbolic():
    c = cos_pi(1, 4, 8)
    z = c * c * 2 - 1
    assert z.sign() == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.sampled_from([8, 12, 20, 28]))
def test_sign_agrees_with_numeric_oracle(data, m):
    x = data.draw(elements(m))
    val = numeric(x)
    s = x.sign()
    if abs(val) > mpmath.mpf(10) ** -50:
        assert s == (1 if val > 0 else -1)
    else:
        assert s == 0 or abs(val) > 0


def test_enclosure_contains_value_and_shrinks():
    x = cos_pi(1, 7, 28) + cos_pi(3, 7, 28) * Fraction(2, 3)
    # the oracle value as an exact dyadic rational, within 1e-80 of truth
    val = Fraction(*mpmath.libmp.to_rational(numeric(x, dps=80)._mpf_))
    slack = Fraction(1, 10**70)
    widths = []
    for prec in (64, 128, 256):
        lo, hi = x.enclosure(prec)
        assert lo <= val + slack
        assert hi >= val - slack
        widths.append(hi - lo)
    assert widths[2] < widths[1] < widths[0]


def test_float_box_contains_value():
    x = cos_pi(2, 9, 36)
    lo, hi = x.float_box()
    val = float(numeric(x))
    assert lo <= val <= hi
    assert hi - lo < 1e-12


def test_float_box_of_a_value_past_the_float_range():
    # the upper endpoint rounds outward to inf, the lower to a float
    # below the largest one
    big = CycloReal.from_rational(10 ** 400, 4)
    assert big.float_box() == (math.nextafter(sys.float_info.max, 0), math.inf)
    assert (-big).float_box() == (-math.inf, -math.nextafter(sys.float_info.max, 0))
    assert float(big) == math.inf and float(-big) == -math.inf
    assert repr(big).endswith("~ inf)")


def test_total_order_witness():
    # cos is strictly decreasing on (0, pi)
    vals = [cos_pi(k, 9, 36) for k in range(1, 9)]
    for a, b in zip(vals, vals[1:]):
        assert (a - b).sign() == 1
        assert (b - a).sign() == -1
    for v in vals:
        assert (v - v).sign() == 0


def _mpmath_cosines(m, prec, js):
    # rational endpoints of mpmath's interval cosines of 2*pi*j/m
    iv = mpmath.iv
    saved = iv.prec
    try:
        iv.prec = prec
        return [
            tuple(Fraction(*mpmath.libmp.to_rational(e))
                  for e in iv.cos(2 * iv.pi * j / m)._mpi_)
            for j in js
        ]
    finally:
        iv.prec = saved


@pytest.mark.parametrize("prec", [64, 128, 1024, 4096])
@pytest.mark.parametrize("m", [4, 8, 12, 20, 188, 660, 1052, 8156])
def test_cos_table_encloses_mpmath_at_four_times_the_precision(m, prec):
    # each entry, asked for on its own on a fresh field, holds mpmath's
    # interval at 4 * prec bits and is at most 2**(1 - prec) wide; a large
    # field is sampled, up to its last entry, where the error bound is largest
    powers = exact._Field(m).powers(prec)
    n = field_degree(m)
    js = sorted({*range(0, n, max(1, n // 24)), *range(max(0, n - 3), n)})
    for j, (a, b) in zip(js, _mpmath_cosines(m, 4 * prec, js)):
        re, _, bound = powers[j]
        lo, hi = Fraction(re - bound, 2**powers.w), Fraction(re + bound, 2**powers.w)
        assert lo <= a <= b <= hi, (m, prec, j)
        assert 2 * bound <= 2 ** (powers.w + 1 - prec), (m, prec, j)


@pytest.mark.parametrize("m, prec", [(660, 128), (1052, 1024)])
def test_cosine_entries_do_not_depend_on_the_order_asked(m, prec):
    # a few entries asked for first build a few of the others, and equal
    # those of an ascending fill on another fresh field
    n = field_degree(m)
    sparse, filled = exact._Field(m).powers(prec), exact._Field(m).powers(prec)
    js = [n - 1, n // 3, 7, n - 2]
    picked = [sparse[j] for j in js]
    assert len(sparse) <= 2 + 2 * len(js) * n.bit_length() < n
    ascending = [filled[j] for j in range(n)]
    assert picked == [ascending[j] for j in js]
    assert [sparse[j] for j in range(n)] == ascending


def test_cos_table_time():
    # an ascending fill costs one product an entry
    start = time.perf_counter()
    powers = exact._Field(660).powers(4096)
    for j in range(field_degree(660)):
        powers[j]
    assert time.perf_counter() - start < 0.2


def test_deep_sign_builds_only_the_entries_it_uses():
    # x = cos(10 pi / 8156) - p / 2**12000, p the nearest integer: three
    # nonzero coefficients, separated from zero at 16384 bits on a field of
    # degree 4076
    with mpmath.workprec(12200):
        c = mpmath.cos(10 * mpmath.pi / 8156)
        p = int(mpmath.nint(c * 2**12000))
        want = int(mpmath.sign(c - mpmath.mpf(p) / 2**12000))
    exact._field.cache_clear()
    try:
        x = cos_pi(5, 4078, 8156) - Fraction(p, 2**12000)
        start = time.perf_counter()
        assert x.sign() == want != 0
        assert time.perf_counter() - start < 1
    finally:
        exact._field.cache_clear()


def test_prec_ceiling_stops_sign_and_float(monkeypatch):
    # cos(pi/5) = (1 + sqrt(5)) / 4 less its value rounded down to a
    # multiple of 2**-102: a value in (0, 2**-102), which no enclosure at
    # 64 bits separates from zero
    x = cos_pi(1, 5, 20) - Fraction(2**100 + math.isqrt(5 << 200), 2**102)
    monkeypatch.setattr(exact, "_PREC_CEILING", 64)
    with pytest.raises(ResourceLimitError):
        x.sign()
    with pytest.raises(ResourceLimitError):
        float(x)
    monkeypatch.undo()
    assert x.sign() == 1 and 0 < float(x) < 2.0**-102


@functools.lru_cache(maxsize=None)
def _reference_table(m, prec):
    return _mpmath_cosines(m, prec, range(field_degree(m)))


def _reference_enclosure(x, prec):
    lo = hi = Fraction(0)
    for c, (tl, th) in zip(x.num, _reference_table(x.modulus, prec)):
        lo += c * (tl if c > 0 else th)
        hi += c * (th if c > 0 else tl)
    return lo / x.den, hi / x.den


def _reference_sign(x):
    if x.is_zero():
        return 0
    prec = 64
    while True:
        lo, hi = _reference_enclosure(x, prec)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        prec *= 2


@st.composite
def wide_elements(draw):
    # sums of cosines with coefficients up to 10**200, some shifted by a
    # dyadic approximation of their value so that sign() must refine
    m = 4 * draw(st.integers(2, 97))
    big = st.integers(-10**200, 10**200) | st.integers(-9, 9)
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), big), min_size=1, max_size=6))
    x = CycloReal.zero(m)
    for k, c in terms:
        x = x + cos_pi(k, m // 2, m) * c
    x = x / draw(st.integers(1, 10**200) | st.integers(1, 9))
    bits = draw(st.sampled_from([None, 60, 100, 200]))
    if bits:
        with mpmath.workdps(400):
            approx = int(mpmath.nint(numeric(x, dps=400) * 2**bits))
        x = x - Fraction(approx, 2**bits)
    return x


def _reference_box(x):
    # each end of enclosure(64) through float(Fraction), one float
    # outward, from the largest float of its sign past the float range
    box = []
    for end, toward in zip(x.enclosure(64), (-math.inf, math.inf)):
        try:
            rounded = float(end)
        except OverflowError:
            rounded = sys.float_info.max if end > 0 else -sys.float_info.max
        box.append(math.nextafter(rounded, toward))
    return tuple(box)


@functools.lru_cache(maxsize=None)
def _fan_coordinates():
    # every coordinate of the fan of n = 47, at M = 188 and phi = 92
    return [c for tri in gen_trivial(47).triangles for v in tri.vertices for c in (v.x, v.y)]


@settings(max_examples=200, deadline=None)
@given(x=wide_elements() | st.integers(0, 563).map(lambda i: _fan_coordinates()[i])
       | st.sampled_from([1, -1]).map(lambda s: CycloReal.from_rational(s * 10**400, 4)))
def test_float_box_is_the_reference_box_bit_for_bit(x):
    # float_box rounds enclosure(64)'s integers by int true division; it
    # must give the very floats float(Fraction) gives, or a filter
    # decision, and so a pinned count, could move.  A fresh copy computes
    # its box; hex tells -0.0 from 0.0
    box = CycloReal._make(x.modulus, x.num, x.den).float_box()
    assert [e.hex() for e in box] == [e.hex() for e in _reference_box(x)]


@settings(max_examples=60, deadline=None)
@given(x=wide_elements())
def test_sign_enclosures_and_float_box_hold_the_value(x):
    # the value to 400 digits: its terms are below 10**202, so it is
    # within 10**-190 of the truth
    val = Fraction(*mpmath.libmp.to_rational(numeric(x, dps=400)._mpf_))
    slack = Fraction(1, 10**190)
    for lo, hi in (*(x.enclosure(prec) for prec in (64, 128, 256)), x.float_box()):
        assert lo - slack <= val <= hi + slack
    assert x.sign() == _reference_sign(x)


# -- serialization --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.sampled_from([8, 12, 20]))
def test_serialization_round_trip_is_bitwise(data, m):
    x = data.draw(elements(m))
    obj = x.to_obj()
    # the same value with each zero coefficient written over a drawn
    # denominator, which must leave the common denominator alone
    qs = data.draw(st.lists(st.integers(1, 10**30), min_size=len(obj["coeffs"]),
                            max_size=len(obj["coeffs"])))
    zeros = {**obj, "coeffs": [f"0/{q}" if c == "0" else c for c, q in zip(obj["coeffs"], qs)]}
    for doc in (obj, zeros):
        y = CycloReal.from_obj(doc)
        assert y.modulus == x.modulus and y.num == x.num and y.den == x.den


def test_from_obj_rejects_malformed_documents():
    good = cos_pi(1, 5, 20).to_obj()
    with pytest.raises(FormatError):
        CycloReal.from_obj({**good, "extra": 1})
    with pytest.raises(FormatError):
        CycloReal.from_obj({"modulus": 20})
    with pytest.raises(FormatError):
        CycloReal.from_obj({**good, "modulus": "20"})
    with pytest.raises(FormatError):
        CycloReal.from_obj({**good, "coeffs": good["coeffs"][:-1]})
    with pytest.raises(FormatError):
        CycloReal.from_obj({**good, "coeffs": ["bogus"] * len(good["coeffs"])})
    with pytest.raises(FormatError):
        CycloReal.from_obj({**good, "modulus": 10})
    # non-real coefficient vectors are data errors too
    bad = {"modulus": 8, "coeffs": ["0", "1", "0", "0"]}
    with pytest.raises(FormatError):
        CycloReal.from_obj(bad)


def test_coefficient_strings_are_reduced_fractions():
    x = cos_pi(1, 5, 20) * Fraction(2, 6)
    for c in x.to_obj()["coeffs"]:
        f = Fraction(c)
        assert str(f) == c
        assert parse_fraction(c, "coefficient") == f


_PART = 10**300 - 1  # the largest 300-digit integer


@settings(max_examples=200, deadline=None)
@given(num=st.integers(-_PART, _PART) | st.integers(-99, 99),
       den=st.integers(1, _PART) | st.integers(1, 99))
def test_parse_fraction_reads_what_str_writes(num, den):
    f = Fraction(num, den)
    assert parse_fraction(str(f), "coefficient") == f
    assert fraction_parts(str(f), "coefficient") == (f.numerator, f.denominator)
    # the parts as written, which only the Fraction view reduces
    text = f"{num}/{den}"
    assert fraction_parts(text, "coefficient") == (num, den)
    assert parse_fraction(text, "coefficient") == f


@pytest.mark.parametrize("text", ["1/0", "-3/000", "+1", " 1", "1 ", "1.5", "", "1/", "/2",
                                  "1" * 301, "1/" + "1" * 301, "\u0661", 7, None],
                         ids=["zero-den", "zeros-den", "plus", "lead-space", "trail-space",
                              "decimal", "empty", "no-den", "no-num", "301-digits",
                              "301-digit-den", "arabic-indic-digit", "int", "none"])
def test_both_views_refuse_bad_text_alike(text):
    errors = []
    for view in (fraction_parts, parse_fraction):
        with pytest.raises(FormatError) as info:
            view(text, "coefficient")
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("coefficient must be 'u' or 'u/v' with at most 300 ")


def test_immutability():
    c = cos_pi(1, 5, 20)
    with pytest.raises(AttributeError):
        c.den = 3
