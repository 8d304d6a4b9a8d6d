"""Differential tests for the exact cross/dot kernel of the predicates.

The kernel (``_Field.det`` over the integer difference vectors of
``geometry._differences``) must give exactly what the CycloReal
expressions it replaced give: u x v, u . v and the rotated cross and dot
products, compared by canonical key.  Those expressions are kept here as
the oracle.  Points come from trivial and altitude-refined tilings,
moved by one rational affine map per draw, so coordinate denominators
mix and coefficients pass 2**63.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tilegate import tiling as tiling_module
from tilegate.exact import CycloReal, _field, _normalize, cos_pi, sin_pi
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


# -- tests ------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(corners())
def test_kernel_cross_and_dot_equal_the_cyclotomic_expressions(drawn):
    t, (a, b, c) = drawn
    field, u, v, den = _differences(a, b, c)
    cross = value(t.modulus, _cross(field, u, v), den * den)
    dot = value(t.modulus, _cross(field, u, _turned(v)), den * den)
    assert cross.key() == oracle_cross(a, b, c).key()
    assert dot.key() == oracle_dot(a, b, c).key()
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
    x, d = _cross(field, u, v), _cross(field, u, _turned(v))
    for gamma in (t.alpha, 1 - t.alpha, Fraction(1)):
        cosg, sing = rotation(gamma, t.modulus)
        cos_n, sin_n, _ = _rotation(gamma, t.modulus)
        scale = den * den * cosg.den * sing.den
        cross = value(t.modulus, field.det(cos_n, x, sin_n, d), scale)
        dot = value(t.modulus, field.det(cos_n, d, [-s for s in sin_n], x), scale)
        expected = oracle_rotated(a, b, c, cosg, sing)
        assert (cross.key(), dot.key()) == tuple(e.key() for e in expected)


@settings(max_examples=60, deadline=None)
@given(corners())
def test_angle_matches_agrees_with_the_oracle_on_every_corner(drawn):
    t, pts = drawn
    if orientation(*pts) == 0:
        return
    tri = Triangle(*pts)
    for i in range(3):
        for gamma in (t.alpha, 1 - t.alpha, Fraction(1)):
            assert angle_matches(tri, i, gamma) == oracle_angle_matches(tri, i, gamma)


def test_a_zero_factor_beside_one_past_int64_is_exact():
    # every factor's magnitude picks the dtype, not only the products': a
    # zero vector times one past 2**63 must not be converted to int64
    field = _field(12)
    zero, big, one = [0] * 4, [BIG, 0, -BIG, 1], [1, 0, 0, 0]
    assert field.det(zero, big, one, one) == (-1, 0, 0, 0)
    assert field.det(big, zero, zero, big) == (0,) * 4
    assert field.det(big, one, zero, big) == tuple(big)
