"""Differential tests for the exact cross/dot kernel of the predicates.

The kernel (``_Field.det`` over the integer difference vectors of
``geometry._differences``) must give exactly what the CycloReal
expressions it replaced give: u x v, u . v and the rotated cross and dot
products, compared by canonical key.  Those expressions are kept here as
the oracle.  Points come from trivial and altitude-refined tilings,
moved by one rational affine map per draw, so coordinate denominators
mix and coefficients pass 2**63.

``det`` has two paths, products of the nonzero coefficients on Python
ints and products of packed integers (Kronecker substitution), chosen
per call by ``exact._SPARSE_WORK``, and so has ``reduce``, behind conj,
embed, cos_pi and sin_pi.  Each check runs with that bound at -2**60 and
at 2**60, which force one path and then the other.  Dense and sparse
vectors at composite moduli, and dense vectors with coefficients of 3,
60 and 1000 bits at moduli that reduce with few and with many degrees
above phi, are also checked against schoolbook products and long
division by Phi_M.  A triangle's kernel (Triangle._kernel: one
den, the three edge vectors and the cross product X of the two out of a
corner) must equal what _differences and _cross give corner by corner.
"""
from __future__ import annotations

import time
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilegate import exact
from tilegate import tiling as tiling_module
from tilegate.exact import CycloReal, _field, _normalize, cos_pi, cyclotomic_polynomial, sin_pi
from tilegate.geometry import (
    Point,
    Triangle,
    _cross,
    _differences,
    _turned,
    orientation,
    sign_dot,
)
from tilegate.tiling import Tiling, _rotation, angle_matches, gen_trivial


def refine(t: Tiling) -> Tiling:
    # split every triangle at the foot of the altitude from its right
    # corner R: with A the alpha corner and B the other end of the
    # hypotenuse, the foot is A + cos^2(alpha) (B - A)
    cos_a = cos_pi(t.alpha.numerator, 2 * t.alpha.denominator, t.modulus)
    cos2 = cos_a * cos_a
    tris = []
    for tri in t.triangles:
        kinds = tiling_module._corner_kinds(tri, t.alpha)
        a, b, r = (tri.vertices[kinds.index(k)] for k in ("alpha", "beta", "right"))
        h = Point(a.x + cos2 * (b.x - a.x), a.y + cos2 * (b.y - a.y))
        for half in (Triangle(a, h, r), Triangle(h, b, r)):
            p, q, s = half.vertices
            tris.append(half if half.orientation_sign() > 0 else Triangle(p, s, q))
    return Tiling(t.n, t.alpha, t.modulus, tris)


TILINGS = [gen_trivial(5), gen_trivial(9), refine(refine(gen_trivial(8))),
           refine(gen_trivial(12))]

BIG = 2 ** 64 + 13  # past int64 on its own, so the kernel runs on Python ints
scales = st.sampled_from([1, -1, Fraction(1, 3), Fraction(BIG, 5), Fraction(-7, BIG)]) | \
    st.fractions(-4, 4, max_denominator=9).filter(bool)
shifts = st.sampled_from([0, Fraction(BIG, 3), Fraction(-1, BIG)]) | \
    st.fractions(-3, 3, max_denominator=12)


def moved(p: Point, s: Fraction, tx: Fraction, ty: Fraction) -> Point:
    return Point(p.x * s + tx, p.y * s + ty)


@st.composite
def corners(draw):
    """A tiling and three points of it under one affine map: a triangle's
    vertices in their order, or any three vertices of the tiling."""
    t = draw(st.sampled_from(TILINGS))
    tris = t.triangles
    if draw(st.booleans()):
        pts = draw(st.sampled_from(tris)).vertices
    else:
        pts = [draw(st.sampled_from(tris)).vertices[draw(st.integers(0, 2))] for _ in range(3)]
    s, tx, ty = draw(scales), draw(shifts), draw(shifts)
    return t, [moved(p, s, tx, ty) for p in pts]


# _SPARSE_WORK values that force det and reduce onto packed ints, then
# onto the nonzero coefficients
PATHS = (-(1 << 60), 1 << 60)


def forced(work: int):
    return mock.patch.object(exact, "_SPARSE_WORK", work)


def value(modulus: int, num, den: int) -> CycloReal:
    return CycloReal._make(modulus, *_normalize(num, den))


def rotation(gamma: Fraction, modulus: int) -> tuple[CycloReal, CycloReal]:
    half = gamma / 2
    return (cos_pi(half.numerator, half.denominator, modulus),
            sin_pi(half.numerator, half.denominator, modulus))


# -- the oracle: the CycloReal expressions the kernel replaced --------------


def oracle_cross(a: Point, b: Point, c: Point) -> CycloReal:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def oracle_dot(a: Point, b: Point, c: Point) -> CycloReal:
    return (b.x - a.x) * (c.x - a.x) + (b.y - a.y) * (c.y - a.y)


def oracle_rotated(a: Point, b: Point, c: Point, cosg: CycloReal,
                   sing: CycloReal) -> tuple[CycloReal, CycloReal]:
    # cross(R u, v) and dot(R u, v), R the rotation by (cosg, sing)
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    rx = cosg * ux - sing * uy
    ry = sing * ux + cosg * uy
    return rx * vy - ry * vx, rx * vx + ry * vy


def oracle_angle_matches(tri: Triangle, i: int, gamma: Fraction) -> bool:
    a, b, c = (tri.vertices[(i + k) % 3] for k in range(3))
    cross, dot = oracle_rotated(a, b, c, *rotation(gamma, a.modulus))
    return cross.is_zero() and dot.sign() > 0


def schoolbook_det(modulus: int, a, b, c, d) -> tuple[int, ...]:
    # a*b - c*d by schoolbook products, then long division by the monic
    # Phi_M from the top: no folding, no packing and no series
    phi = cyclotomic_polynomial(modulus)
    n = len(phi) - 1
    v = [0] * (2 * n - 1)
    for x, y, s in ((a, b, 1), (c, d, -1)):
        for i, p in enumerate(x):
            if p:
                for j, q in enumerate(y):
                    v[i + j] += s * p * q
    for k in range(len(v) - 1, n - 1, -1):
        t = v[k]
        for i, f in enumerate(phi):
            v[k - n + i] -= t * f
    return tuple(v[:n])


# -- tests ------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(corners())
def test_kernel_cross_and_dot_equal_the_cyclotomic_expressions(drawn):
    t, (a, b, c) = drawn
    field, u, v, den = _differences(a, b, c)
    expected = oracle_cross(a, b, c), oracle_dot(a, b, c)
    for work in PATHS:
        with forced(work):
            cross = value(t.modulus, _cross(field, u, v), den * den)
            dot = value(t.modulus, _cross(field, u, _turned(v)), den * den)
            assert (cross.key(), dot.key()) == tuple(e.key() for e in expected)
            assert Triangle(a, b, c).twice_area().key() == cross.key()
            assert orientation(a, b, c) == cross.sign()
            assert sign_dot(a, b, c) == dot.sign()


@settings(max_examples=60, deadline=None)
@given(corners())
def test_kernel_rotated_products_equal_the_cyclotomic_expressions(drawn):
    # cross(R u, v) = cos*X - sin*D and dot(R u, v) = cos*D + sin*X, with
    # X = u x v and D = u . v from the kernel and cos, sin over one
    # denominator as angle_matches holds them
    t, (a, b, c) = drawn
    field, u, v, den = _differences(a, b, c)
    for gamma in (t.alpha, 1 - t.alpha, Fraction(1)):
        cosg, sing = rotation(gamma, t.modulus)
        cos_n, sin_n, _ = _rotation(gamma.numerator, gamma.denominator, t.modulus)
        scale = den * den * cosg.den * sing.den
        expected = tuple(e.key() for e in oracle_rotated(a, b, c, cosg, sing))
        for work in PATHS:
            with forced(work):
                x, d = _cross(field, u, v), _cross(field, u, _turned(v))
                cross = value(t.modulus, field.det(cos_n, x, sin_n, d), scale)
                dot = value(t.modulus, field.det(cos_n, d, [-s for s in sin_n], x), scale)
                assert (cross.key(), dot.key()) == expected


@settings(max_examples=60, deadline=None)
@given(corners())
def test_angle_matches_agrees_with_the_oracle_on_every_corner(drawn):
    t, pts = drawn
    if orientation(*pts) == 0:
        return
    tri = Triangle(*pts)
    for i in range(3):
        for gamma in (t.alpha, 1 - t.alpha, Fraction(1)):
            expected = oracle_angle_matches(tri, i, gamma)
            for work in PATHS:
                with forced(work):
                    assert angle_matches(tri, i, gamma) == expected


@settings(max_examples=60, deadline=None)
@given(corners(), st.booleans())
def test_triangle_kernel_equals_the_kernel_of_each_corner(drawn, filled_first):
    # in every rotation of the vertices, with the kernel filled before the
    # angle tests or by them: corner i's u = edges[i], v = -edges[i - 1]
    # and X are what _differences and _cross give for the vertices taken
    # from corner i, at the same den, and angle_matches agrees with the
    # oracle
    t, pts = drawn
    flat = orientation(*pts) == 0
    gammas = (t.alpha, 1 - t.alpha, Fraction(1))
    if not flat:
        tri = Triangle(*pts)
        expected = [[oracle_angle_matches(tri, i, g) for g in gammas] for i in range(3)]
    for shift in range(3):
        vs = pts[shift:] + pts[:shift]
        for work in PATHS:
            with forced(work):
                tri = Triangle(*vs)
                if filled_first:
                    tri._kernel()
                if not flat:
                    for i in range(3):
                        got = [angle_matches(tri, i, g) for g in gammas]
                        assert got == expected[(i + shift) % 3]
                field, den, edges, cross = tri._kernel()
                for i in range(3):
                    f, u, v, d = _differences(*(vs[(i + k) % 3] for k in range(3)))
                    assert (f, d) == (field, den)
                    back = edges[i - 1]
                    assert edges[i] == u and ([-t for t in back[0]], [-t for t in back[1]]) == v
                    assert _cross(field, u, v) == cross


def test_a_zero_factor_beside_one_past_int64_is_exact():
    # every factor's magnitude picks the slot width, not only the
    # products': a zero vector times one past 2**63 must not be packed in
    # 8-byte slots
    field = _field(12)
    zero, big, one = [0] * 4, [BIG, 0, -BIG, 1], [1, 0, 0, 0]
    for work in PATHS:
        with forced(work):
            assert field.det(zero, big, one, one) == (-1, 0, 0, 0)
            assert field.det(big, zero, zero, big) == (0,) * 4
            assert field.det(big, one, zero, big) == tuple(big)


# moduli with M/2 = phi, where det's fold leaves nothing to divide, and
# composite ones where division by Phi_M follows the fold
HALF_PHI_MODULI = (16, 32, 64)
DIVIDED_MODULI = (24, 28, 36, 60, 420, 660)


@st.composite
def composite_products(draw):
    # four vectors, some entries past 2**63 and some within int64 whose
    # products are not: dense, or a few nonzeros, whose reduction can read
    # more row entries than the default bound allows
    modulus = draw(st.sampled_from(HALF_PHI_MODULI + DIVIDED_MODULI))
    n = _field(modulus).degree
    entry = st.integers(-15, 15) | st.integers(-2 ** 40, 2 ** 40) | st.integers(-2 ** 70, 2 ** 70)
    if draw(st.booleans()):
        return modulus, [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(4)]
    vectors = []
    for _ in range(4):
        v = [0] * n
        for i, x in draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=6)).items():
            v[i] = x
        vectors.append(v)
    return modulus, vectors


@settings(max_examples=90, deadline=None)
@given(composite_products())
def test_products_at_composite_moduli_match_schoolbook_division(drawn):
    modulus, (a, b, c, d) = drawn
    field = _field(modulus)
    expected = schoolbook_det(modulus, a, b, c, d)
    assert field.det(a, b, c, d) == expected
    for work in PATHS:
        with forced(work):
            assert field.det(a, b, c, d) == expected
            assert field.mul(a, b) == schoolbook_det(modulus, a, b, [0], [0])


REDUCE_MODULI = (12, 16, 24, 188, 420, 660)


@st.composite
def reductions(draw):
    # a modulus, a vector to conjugate, a smaller field (4 | d | modulus)
    # and a vector of it to embed, and an angle k*pi/m with 2m | modulus
    modulus = draw(st.sampled_from(REDUCE_MODULI))
    entry = st.integers(-15, 15) | st.integers(-2 ** 70, 2 ** 70)
    a = draw(st.lists(entry, min_size=_field(modulus).degree, max_size=_field(modulus).degree))
    small = draw(st.sampled_from([d for d in range(4, modulus + 1, 4) if modulus % d == 0]))
    b = draw(st.lists(entry, min_size=_field(small).degree, max_size=_field(small).degree))
    m = draw(st.sampled_from([m for m in range(1, modulus // 2 + 1) if modulus % (2 * m) == 0]))
    return modulus, a, small, b, draw(st.integers(-3 * m, 3 * m)), m


@settings(max_examples=80, deadline=None)
@given(reductions())
def test_reduce_on_the_sparse_path_equals_the_packed_division(drawn):
    # conj, embed, cos_pi and sin_pi, with reduce forced onto packed ints
    # and then onto the nonzero coefficients; the sparse path never packs,
    # and the packed path does for cos(pi/(M/2)), whose zeta^(M/2 - 1) must
    # be divided out whenever M/2 > phi
    modulus, a, small, b, k, m = drawn
    field = _field(modulus)
    packed, reduce_packed = [], exact._Field._reduce_packed
    counted = mock.patch.object(exact._Field, "_reduce_packed",
                                lambda f, *args: packed.append(1) or reduce_packed(f, *args))
    results = []
    for work in PATHS:
        del packed[:]
        with forced(work), counted:
            results.append((field.conj(a), _field(small).embed(b, field),
                             cos_pi(k, m, modulus).key(), sin_pi(k, m, modulus).key(),
                             cos_pi(1, modulus // 2, modulus).key()))
        assert bool(packed) == (work < 0 and modulus // 2 > field.degree)
    assert results[0] == results[1]


def counting(monkeypatch) -> tuple[list, list]:
    # the packed products det computes, and the packed reductions
    products, reductions = [], []
    product, reduce_packed = exact._product, exact._Field._reduce_packed
    monkeypatch.setattr(exact, "_product", lambda *args: products.append(1) or product(*args))
    monkeypatch.setattr(exact._Field, "_reduce_packed",
                        lambda f, *args: reductions.append(1) or reduce_packed(f, *args))
    return products, reductions


def test_each_path_is_taken_at_the_default_bound(monkeypatch):
    # a fan's difference vectors stay on Python ints; a few nonzeros at
    # high degree at phi = 96 multiply on Python ints but need too many
    # long-division steps, so their reduction is packed; a dense product
    # is packed
    field, u, v, _ = _differences(*gen_trivial(29).triangles[5].vertices)
    products, reductions = counting(monkeypatch)
    assert field.modulus == 116 and any(_cross(field, u, v))
    assert (products, reductions) == ([], [])
    field = _field(420)
    high = [0] * 90 + [1, -2, 3, -4, 5, -6]
    ones = [0] * 95 + [1]
    assert field.det(high, high, ones, high) == schoolbook_det(420, high, high, ones, high)
    assert (products, reductions) == ([], [1])
    dense = list(range(1, 97))
    assert field.det(dense, dense, dense, ones) == schoolbook_det(420, dense, dense, dense, ones)
    assert (products, reductions) == ([1, 1], [1, 1])


def test_products_where_half_m_is_phi_divide_nothing(monkeypatch):
    # at M = 16, M/2 = phi = 8: det folds each product term onto the M/2
    # slots as it multiplies and returns them, so the dets of the 8-gon's
    # fan and of its refinements, sparse, never reach _reduce_list
    tilings = gen_trivial(8), refine(refine(gen_trivial(8)))
    divided, reduce_list = [], exact._Field._reduce_list
    monkeypatch.setattr(exact._Field, "_reduce_list",
                        lambda f, *args: divided.append(1) or reduce_list(f, *args))
    products, reductions = counting(monkeypatch)
    for t in tilings:
        for tri in t.triangles:
            field, u, v, _ = _differences(*tri.vertices)
            assert field.modulus == 16
            assert _cross(field, u, v) == schoolbook_det(16, u[0], v[1], u[1], v[0])
            assert _cross(field, u, _turned(v)) == \
                schoolbook_det(16, u[0], v[0], [-t for t in u[1]], v[1])
    assert (divided, products, reductions) == ([], [], [])
    # at M = 24, M/2 = 12 > phi = 8, the fold is followed by division
    top = [0] * 7 + [1]
    assert _field(24).mul(top, top) == schoolbook_det(24, top, top, [0], [0]) == (0, 0, -1) + (0,) * 5
    assert divided == [1]


def test_fan_products_at_1052_stay_on_python_ints(monkeypatch):
    # at M = 1052, the field of the fan of n = 263, Phi_M has 262 nonzeros
    # below its top, and each of the two degrees phi = 524 and 525 takes
    # that many multiply-adds to divide out: a fan difference still
    # multiplies and reduces on Python ints, and a product that reaches
    # both degrees with 144 products of its own, past the bound of
    # 96 + 524, is reduced packed
    field, u, v, _ = _differences(*gen_trivial(263).triangles[5].vertices)
    assert field.modulus == 1052 and len(field.low) == 262
    products, reductions = counting(monkeypatch)
    cross, dot = _cross(field, u, v), _cross(field, u, _turned(v))
    assert (products, reductions) == ([], [])
    assert any(cross) and any(dot)
    assert cross == schoolbook_det(1052, u[0], v[1], u[1], v[0])
    assert dot == schoolbook_det(1052, u[0], v[0], [-t for t in u[1]], v[1])
    wide = [0] * 262 + [3] * 12 + [0] * 250
    assert field.mul(wide, wide) == schoolbook_det(1052, wide, wide, [0], [0])
    assert (products, reductions) == ([], [1])


def schoolbook_reduce(modulus: int, terms) -> tuple[int, ...]:
    # sum(c * zeta^e) by long division of the length-M vector by Phi_M
    phi = cyclotomic_polynomial(modulus)
    n = len(phi) - 1
    v = [0] * modulus
    for e, c in terms:
        v[e % modulus] += c
    for k in range(modulus - 1, n - 1, -1):
        t = v[k]
        if t:
            for i, f in enumerate(phi):
                v[k - n + i] -= t * f
    return tuple(v[:n])


# moduli whose M/2 - phi degrees above phi are few (188 = 4*47 and
# 1604 = 4*401: two) and many (420, 660 and 4620: 114, 170 and 1350)
WIDE_MODULI = (188, 420, 660, 1604, 4620)


@pytest.mark.parametrize("modulus", WIDE_MODULI)
@pytest.mark.parametrize("bits", [3, 60, 1000])
def test_packed_products_match_schoolbook_division(modulus, bits):
    # dense factors of mixed signs, and a zero factor beside a wide one;
    # every call takes the packed path
    rng = Random(modulus * bits)
    n = _field(modulus).degree

    def dense():
        return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]

    a, b, c, d = dense(), dense(), dense(), dense()
    zero, wide = [0] * n, [0] * (n - 1) + [-(1 << 1000)]
    # the oracle takes seconds a dense 1000-bit product at large phi
    cases = [(a, b, wide, zero)]
    if modulus < 4620 or bits < 1000:
        cases.append((zero, wide, c, d))
    if modulus < 1604 or bits < 1000:
        cases.append((a, b, c, d))
    for case in cases:
        assert _field(modulus).det(*case) == schoolbook_det(modulus, *case)


@pytest.mark.parametrize("modulus", WIDE_MODULI)
def test_long_vectors_reduce_like_schoolbook_division(modulus):
    # conj and embed of dense vectors, whose exponents reach M - 1 and
    # whose reduction is packed, and reduce of every exponent below M
    rng = Random(modulus)
    field = _field(modulus)
    for bits in (3, 60, 1000) if modulus < 4620 else (3, 60):
        a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(field.degree)]
        assert field.conj(a) == schoolbook_reduce(modulus, [(-j, c) for j, c in enumerate(a)])
        small = _field(4 if modulus == 188 else 60 if modulus != 1604 else 4)
        b = a[:small.degree]
        step = modulus // small.modulus
        assert small.embed(b, field) == schoolbook_reduce(modulus, [(j * step, c) for j, c in enumerate(b)])
    terms = [(e, rng.randrange(-7, 8)) for e in range(modulus)]
    assert field.reduce(terms) == schoolbook_reduce(modulus, terms)


def test_a_wide_dense_det_finishes_quickly():
    # one det of dense 1000-bit factors at M = 1604 (phi = 800): packed,
    # it takes well under a second; on object arrays it took seconds
    rng = Random(1604)
    field = _field(1604)
    a, b, c, d = ([rng.randrange(-(1 << 1000), 1 << 1000) for _ in range(800)] for _ in range(4))
    start = time.perf_counter()
    field.det(a, b, c, d)
    assert time.perf_counter() - start < 2.0
