"""Differential tests for the exact cross/dot kernel of the predicates.

The kernel (``_Field.det`` over the integer difference vectors of
``geometry._differences``) must give exactly what the CycloReal
expressions it replaced give: u x v, u . v and the rotated cross and dot
products, compared by canonical key.  Those expressions are kept here as
the oracle.  Points come from trivial and altitude-refined tilings,
moved by one rational affine map per draw, so coordinate denominators
mix and coefficients pass 2**63.

``det`` has two paths, numpy convolutions and sparse Python ints, chosen
per call by ``exact._SPARSE_WORK``.  Each check runs with that bound at 0
and at 2**60, which force one path and then the other.  Dense and sparse
vectors at composite moduli are also checked against schoolbook products
and long division by Phi_M.  A triangle's kernel (Triangle._kernel: one
den, the three edge vectors and the cross product X of the two out of a
corner) must equal what _differences and _cross give corner by corner.
"""
from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
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


# _SPARSE_WORK values that force det onto numpy, then onto Python ints
PATHS = (0, 1 << 60)


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
    # Phi_M from the top: no reduction table and no numpy
    phi = cyclotomic_polynomial(modulus)
    n = len(phi) - 1
    v = [0] * (2 * n - 1)
    for x, y, s in ((a, b, 1), (c, d, -1)):
        for i, p in enumerate(x):
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
    # every factor's magnitude picks the dtype, not only the products': a
    # zero vector times one past 2**63 must not be converted to int64
    field = _field(12)
    zero, big, one = [0] * 4, [BIG, 0, -BIG, 1], [1, 0, 0, 0]
    for work in PATHS:
        with forced(work):
            assert field.det(zero, big, one, one) == (-1, 0, 0, 0)
            assert field.det(big, zero, zero, big) == (0,) * 4
            assert field.det(big, one, zero, big) == tuple(big)


@st.composite
def composite_products(draw):
    # four vectors at a composite modulus, some entries past 2**63 and some
    # within int64 whose products are not: dense, or a few nonzeros, whose
    # reduction can read more row entries than the default bound allows
    modulus = draw(st.sampled_from([420, 660]))
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


@settings(max_examples=30, deadline=None)
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


def test_each_path_is_taken_at_the_default_bound(monkeypatch):
    # a fan's difference vectors stay on Python ints; a few nonzeros at
    # high degree at phi = 96 multiply on Python ints but need too many
    # row entries, so _divide reduces them; a dense product takes numpy
    field, u, v, _ = _differences(*gen_trivial(29).triangles[5].vertices)
    convolved, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y: convolved.append(1) or convolve(x, y))
    divided, divide = [], exact._Field._divide
    monkeypatch.setattr(exact._Field, "_divide", lambda f, v: divided.append(1) or divide(f, v))
    assert field.modulus == 116 and any(_cross(field, u, v))
    assert (convolved, divided) == ([], [])
    field = _field(420)
    high = [0] * 90 + [1, -2, 3, -4, 5, -6]
    ones = [0] * 95 + [1]
    assert field.det(high, high, ones, high) == schoolbook_det(420, high, high, ones, high)
    assert (convolved, divided) == ([], [1])
    dense = list(range(1, 97))
    assert field.det(dense, dense, dense, ones) == schoolbook_det(420, dense, dense, dense, ones)
    assert (convolved, divided) == ([1, 1], [1, 1])


def test_sparse_columns_keep_their_rows_beside_dense_ones(monkeypatch):
    # at M = 1052, the field of the fan of n = 263, columns 0 and 1 of the
    # reduction table hold 262 nonzeros, past the bound, and the other 521
    # hold one: a fan difference still multiplies and reduces on Python
    # ints, and only a product that reaches a dense column goes to _divide
    field, u, v, _ = _differences(*gen_trivial(263).triangles[5].vertices)
    assert field.modulus == 1052
    assert [i for i, row in enumerate(field.rows) if not row] == [0, 1]
    convolved, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y: convolved.append(1) or convolve(x, y))
    divided, divide = [], exact._Field._divide
    monkeypatch.setattr(exact._Field, "_divide", lambda f, v: divided.append(1) or divide(f, v))
    cross, dot = _cross(field, u, v), _cross(field, u, _turned(v))
    assert (convolved, divided) == ([], [])
    assert any(cross) and any(dot)
    assert cross == schoolbook_det(1052, u[0], v[1], u[1], v[0])
    assert dot == schoolbook_det(1052, u[0], v[0], [-t for t in u[1]], v[1])
    # x^262 * x^262 = x^524, whose reduction is column 0
    half = [0] * 262 + [3] + [0] * 261
    assert field.mul(half, half) == schoolbook_det(1052, half, half, [0], [0])
    assert (convolved, divided) == ([], [1])
