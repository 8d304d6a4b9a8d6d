"""Tests for the exact geometric predicates.

Oracles: plain Fraction cross/dot arithmetic for rational inputs,
Sutherland-Hodgman clipping (exact Fractions) for interior overlap,
and 60-digit numeric evaluation for irrational polygon points.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilegate.errors import DomainError
from tilegate.exact import CycloReal, cos_pi, sin_pi
from tilegate.geometry import (
    Point,
    Triangle,
    _box_sign,
    _boxes_disjoint,
    _turn,
    box_columns,
    boxes_meeting,
    midpoint,
    on_open_segment,
    orientation,
    sign_dot,
    triangles_interior_disjoint,
)
from tilegate.tiling import angle_matches, gen_trivial


def rp(x, y, modulus=4) -> Point:
    # rational point
    return Point(
        CycloReal.from_rational(Fraction(x), modulus),
        CycloReal.from_rational(Fraction(y), modulus),
    )


def ngon_vertex(k: int, n: int, modulus: int) -> Point:
    return Point(cos_pi(2 * k, n, modulus), sin_pi(2 * k, n, modulus))


coords = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def cross_frac(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# -- points -----------------------------------------------------------------


def test_point_requires_shared_modulus():
    with pytest.raises(DomainError):
        Point(CycloReal.from_rational(1, 4), CycloReal.from_rational(1, 8))


def test_point_identity_and_midpoint():
    a, b = rp(0, 0), rp(1, 3)
    assert a.key() != b.key()
    assert midpoint(a, b) == rp(Fraction(1, 2), Fraction(3, 2))
    assert midpoint(a, b).key() == rp(Fraction(1, 2), Fraction(3, 2)).key()


# -- orientation and dot ------------------------------------------------------


def test_orientation_basics():
    a, b, c = rp(0, 0), rp(1, 0), rp(0, 1)
    assert orientation(a, b, c) == 1
    assert orientation(a, c, b) == -1
    assert orientation(a, b, rp(2, 0)) == 0
    assert orientation(a, a, c) == 0
    assert orientation(a, b, b) == 0


@settings(max_examples=200, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
def test_orientation_matches_fraction_oracle(ax, ay, bx, by, cx, cy):
    got = orientation(rp(ax, ay), rp(bx, by), rp(cx, cy))
    assert got == sign(cross_frac((ax, ay), (bx, by), (cx, cy)))


@settings(max_examples=200, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
def test_sign_dot_matches_fraction_oracle(ax, ay, bx, by, cx, cy):
    got = sign_dot(rp(ax, ay), rp(bx, by), rp(cx, cy))
    ref = (bx - ax) * (cx - ax) + (by - ay) * (cy - ay)
    assert got == sign(ref)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([5, 7, 9, 12]),
    ks=st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ),
)
def test_orientation_on_circle_points_matches_numeric(n, ks):
    i, j, k = (v % n for v in ks)
    modulus = math.lcm(4, 2 * n)
    pts = [ngon_vertex(v, n, modulus) for v in (i, j, k)]
    got = orientation(*pts)
    if len({i, j, k}) < 3:
        assert got == 0
        return
    with mpmath.workdps(60):
        zs = [mpmath.exp(2j * mpmath.pi * v / n) for v in (i, j, k)]
        cross = (zs[1].real - zs[0].real) * (zs[2].imag - zs[0].imag) - (
            zs[1].imag - zs[0].imag
        ) * (zs[2].real - zs[0].real)
        assert got == (1 if cross > 0 else -1)


def test_orientation_exact_zero_on_diameter():
    # center and two opposite vertices of a regular 10-gon are collinear
    modulus = 20
    center = rp(0, 0, modulus)
    v = ngon_vertex(1, 10, modulus)
    w = ngon_vertex(6, 10, modulus)  # antipode of vertex 1
    assert orientation(center, v, w) == 0
    assert on_open_segment(center, v, w)


MOD = 24


@st.composite
def cyclo_coord(draw, scale):
    # r0 + r1 * cos(k*pi/12) in Q(zeta_24); rational when r1 = 0
    r0, r1 = draw(coords), draw(coords)
    k = draw(st.integers(min_value=0, max_value=23))
    return (CycloReal.from_rational(r0, MOD) + cos_pi(k, 12, MOD) * r1) * scale


@st.composite
def triples(draw):
    """Three points, each at a scale 10**e, e in {-200, 0, 200}, where
    products of coordinates underflow or overflow to inf; c is free, or
    exactly on the line ab, or exactly on the perpendicular to ab through
    a."""

    def point():
        scale = Fraction(10) ** draw(st.sampled_from([-200, 0, 0, 200]))
        return Point(draw(cyclo_coord(scale)), draw(cyclo_coord(scale)))

    a, b = point(), point()
    t = draw(coords)
    ux, uy = b.x - a.x, b.y - a.y
    c = draw(st.sampled_from([
        point(), Point(a.x + ux * t, a.y + uy * t), Point(a.x - uy * t, a.y + ux * t)]))
    return a, b, c


@settings(max_examples=300, deadline=None)
@given(pts=triples())
def test_filtered_predicates_match_exact_signs(pts):
    for a, b, c in (pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
        ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
        assert orientation(a, b, c) == (ux * vy - uy * vx).sign()
        assert sign_dot(a, b, c) == (ux * vx + uy * vy).sign()


def test_overflowing_boxes_fall_through_to_exact():
    # at 10**200 both products of the cross product overflow to inf, so
    # the filter decides nothing and the exact path must
    big = Fraction(10) ** 200
    a, b, c = rp(0, 0), rp(big, big), rp(big, 2 * big)
    assert _box_sign(a, b, c, False) is None
    assert orientation(a, b, c) == 1 and orientation(a, c, b) == -1
    # one overflowed product against a finite one overflows the bound too
    assert _box_sign(a, b, c, True) is None and sign_dot(a, b, c) == 1
    assert _box_sign(a, rp(big, 0), rp(0, big), False) is None
    assert orientation(a, rp(big, 0), rp(0, big)) == 1
    # underflowed products are 0, which decides nothing
    tiny = Fraction(1, 10 ** 200)
    a, b, c = rp(0, 0), rp(tiny, 0), rp(2 * tiny, tiny)
    assert _box_sign(a, b, c, False) is None
    assert orientation(a, b, c) == 1 and sign_dot(b, a, c) == -1
    # a turned u with a bound past the float range is left undecided:
    # u = (2, 2) * 10**308 turned by 3*pi/4 is (-inf, +-inf) in floats
    huge = Fraction(10) ** 308
    a, b, c = rp(-huge, -huge, 8), rp(huge, huge, 8), rp(-huge - 1, -huge, 8)
    turn = _turn(cos_pi(3, 4, 8).float_box(), sin_pi(3, 4, 8).float_box())
    assert _box_sign(a, b, c, False, turn) is None
    assert _box_sign(a, b, c, True, turn) is None
    assert angle_matches(Triangle(a, b, c), 0, Fraction(3, 2))


@pytest.mark.parametrize("big", [Fraction(10) ** 160, Fraction(10) ** 400],
                         ids=["1e160", "1e400"])
def test_coordinates_past_the_float_range_are_decided_exactly(big):
    # at 10**160 the boxes are finite but a product of two coordinates
    # overflows, and at 10**400 a box has an infinite endpoint; a case the
    # filter leaves open goes to exact arithmetic instead of raising
    assert orientation(rp(0, 0), rp(big, 0), rp(0, 1)) == 1
    s = cos_pi(1, 12, MOD) * big
    pts = [rp(0, 0, MOD), rp(big, 0, MOD), rp(0, 1, MOD), rp(-big, big, MOD),
           Point(s, s * 2), Point(-s, CycloReal.from_rational(3, MOD))]
    for a, b, c in itertools.permutations(pts, 3):
        ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
        assert orientation(a, b, c) == (ux * vy - uy * vx).sign()
        assert sign_dot(a, b, c) == (ux * vx + uy * vy).sign()
    # the trivial 5-gon's first triangle, blown up by 10**400: same angles
    tri = gen_trivial(5).triangles[0]
    scaled = Triangle(*(Point(v.x * big, v.y * big) for v in tri.vertices))
    for i in range(3):
        for gamma in (Fraction(2, 5), Fraction(3, 5), Fraction(1)):
            assert angle_matches(scaled, i, gamma) == angle_matches(tri, i, gamma)
    assert [angle_matches(scaled, i, Fraction(1)) for i in range(3)] == [False, False, True]


# -- the filter -----------------------------------------------------------------
#
# _box_sign decides from an a-priori error bound on the centers of the
# boxes alone, so every sign it gives must be exact.


def nudged(p: Point, dx: int, dy: int) -> Point:
    # p moved by dx and dy ulps of its coordinates' floats
    return Point(p.x + Fraction(math.ulp(float(p.x))) * dx,
                 p.y + Fraction(math.ulp(float(p.y))) * dy)


ulps = st.sampled_from([-1, 0, 0, 1])
rotations = st.none() | st.integers(0, 23)


@st.composite
def shifted_triples(draw):
    """triples(), all three shifted by one vector, which keeps collinear and
    perpendicular points so, then c nudged by at most one ulp a
    coordinate.  A large shift makes the radii of the boxes, not the
    rounding of the differences, the main part of the bound."""
    a, b, c = draw(triples())
    t = draw(st.sampled_from([0, 0, 1000, 10 ** 9])) * draw(cyclo_coord(1))
    a, b, c = (Point(p.x + t, p.y + t * 3) for p in (a, b, c))
    return a, b, nudged(c, draw(ulps), draw(ulps))


def exact_float_point(x: float, y: float) -> Point:
    # the degenerate box of a float coordinate encloses it too, and leaves
    # the bound only the rounding of the differences and products to cover
    p = rp(Fraction(x), Fraction(y), MOD)
    p._box = ((x, x), (y, y))
    return p


@st.composite
def far_float_triples(draw):
    """a far from the origin, b near it, and c the float point nearest to
    the line ab near b, perhaps one ulp off it.  a's coordinates lie just
    above powers of two, and so do the differences from a, which then
    round by up to u times themselves, as their products may: the three
    points are collinear to far within those errors, which the bound
    must cover with nothing to spare from the radii."""
    rnd = draw(st.randoms(use_true_random=True))
    ax, ay = (rnd.choice([-1, 1]) * math.ldexp(1 + rnd.random() * 2.0 ** -20, rnd.randint(10, 30))
              for _ in range(2))
    bx, by = (-math.copysign(rnd.uniform(0.5, 1), v) for v in (ax, ay))
    lam = Fraction(rnd.uniform(-1, 1)) / max(abs(ax), abs(ay))
    c = (float(Fraction(bx) + lam * (Fraction(bx) - Fraction(ax))),
         float(Fraction(by) + lam * (Fraction(by) - Fraction(ay))))
    c = tuple(math.nextafter(v, math.inf * d) if d else v for v, d in zip(c, (draw(ulps), draw(ulps))))
    return exact_float_point(ax, ay), exact_float_point(bx, by), exact_float_point(*c)


@st.composite
def zero_triples(draw, scales):
    """Points at a scale drawn from scales, with u x v or u . v exactly 0
    after u is turned by k*pi/12, if k is set: c is on the line through a
    along the turned u, or on its perpendicular."""
    k = draw(rotations)
    scale = draw(st.sampled_from(scales))
    a, b = (Point(draw(cyclo_coord(scale)), draw(cyclo_coord(scale))) for _ in range(2))
    wx, wy = b.x - a.x, b.y - a.y
    if k is not None:
        cos, sin = cos_pi(k, 12, MOD), sin_pi(k, 12, MOD)
        wx, wy = cos * wx - sin * wy, sin * wx + cos * wy
    t = draw(coords)
    c = draw(st.sampled_from([Point(a.x + wx * t, a.y + wy * t), Point(a.x - wy * t, a.y + wx * t)]))
    return (a, b, c), k


# at 2**-515 or 2**-516 the products of differences fall near 2**-1025
# and the bound's own terms underflow
tiny_zero_triples = zero_triples([Fraction(1, 2 ** 515), Fraction(1, 2 ** 516)])


def exact_signs(a: Point, b: Point, c: Point, k: "int | None") -> tuple[int, int]:
    # signs of u x v and u . v, u = b - a turned first by k*pi/12 if k is set
    ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
    if k is not None:
        cos, sin = cos_pi(k, 12, MOD), sin_pi(k, 12, MOD)
        ux, uy = cos * ux - sin * uy, sin * ux + cos * uy
    return (ux * vy - uy * vx).sign(), (ux * vx + uy * vy).sign()


def rotation_boxes(k: int) -> tuple:
    return cos_pi(k, 12, MOD).float_box(), sin_pi(k, 12, MOD).float_box()


def check_filter(pts, k, boxes=None):
    # in each cyclic order, plain, turned and rotated by k*pi/12, its
    # cosine and sine enclosed in boxes or else in their own float boxes
    rot = None if k is None else _turn(*(boxes or rotation_boxes(k)))
    for a, b, c in (pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
        cross, dot = exact_signs(a, b, c, k)
        for turn, expected in ((False, cross), (True, dot)):
            got = _box_sign(a, b, c, turn, rot)
            assert got is None or got == expected != 0


@settings(max_examples=400, deadline=None)
@given(pts=shifted_triples(), k=rotations)
def test_first_filter_stage_gives_only_exact_signs(pts, k):
    check_filter(pts, k)


@settings(max_examples=400, deadline=None)
@given(tiny_zero_triples)
def test_first_filter_stage_near_the_subnormal_range_gives_only_exact_signs(drawn):
    check_filter(*drawn)


@settings(max_examples=1500, deadline=None)
@given(pts=far_float_triples(), k=st.none() | st.sampled_from([0, 6, 12, 18]))
def test_first_filter_stage_on_float_points_gives_only_exact_signs(pts, k):
    check_filter(pts, k)


# how far an end of a box moves out, as a share of the widest allowed:
# often all or none of it, so that the exact value sits in a corner
spreads = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)


def widened(draw, box: tuple[float, float], width: float) -> tuple[float, float]:
    # rounding is monotone, so lo - w <= lo and hi <= hi + w still enclose
    lo, hi = box
    wide = lo - width * draw(spreads), hi + width * draw(spreads)
    assert wide[0] <= lo <= hi <= wide[1]
    return wide


@st.composite
def loose_zero_triples(draw):
    """zero_triples at scale 1, each point's box widened at each end by
    its own amount up to 2**-30, 2**-10 or 1, and the boxes of the
    rotation's cosine and sine by up to 0.5: off-center enclosures, much
    looser than any float_box, that still enclose the exact values."""
    pts, k = draw(zero_triples([1]))
    width = draw(st.sampled_from([2.0 ** -30, 2.0 ** -10, 1.0]))
    for p in pts:
        p._box = tuple(widened(draw, box, width) for box in p.box())
    boxes = None if k is None else tuple(widened(draw, box, 0.5) for box in rotation_boxes(k))
    return pts, k, boxes


@settings(max_examples=300, deadline=None)
@given(loose_zero_triples())
def test_filter_on_loose_off_center_boxes_gives_only_exact_signs(drawn):
    check_filter(*drawn)


# -- segments ------------------------------------------------------------------


def test_on_open_segment():
    a, b = rp(0, 0), rp(4, 2)
    assert on_open_segment(rp(2, 1), a, b)
    assert not on_open_segment(a, a, b)
    assert not on_open_segment(b, a, b)
    assert not on_open_segment(rp(6, 3), a, b)
    assert not on_open_segment(rp(2, 2), a, b)


def test_on_open_segment_irrational_midpoint():
    modulus = 20
    v0 = ngon_vertex(0, 5, modulus)
    v1 = ngon_vertex(1, 5, modulus)
    m = midpoint(v0, v1)
    assert on_open_segment(m, v0, v1)
    assert not on_open_segment(v0, m, v1)


# -- triangles -------------------------------------------------------------------


def ccw_triangle(ax, ay, bx, by, cx, cy) -> Triangle:
    t = Triangle(rp(ax, ay), rp(bx, by), rp(cx, cy))
    if t.orientation_sign() < 0:
        t = Triangle(rp(ax, ay), rp(cx, cy), rp(bx, by))
    return t


def test_twice_area():
    t = ccw_triangle(0, 0, 1, 0, 0, 1)
    assert t.twice_area() == 1
    t2 = ccw_triangle(0, 0, 4, 0, 0, 3)
    assert t2.twice_area() == 12


@settings(max_examples=150, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
def test_twice_area_matches_shoelace_oracle(ax, ay, bx, by, cx, cy):
    t = Triangle(rp(ax, ay), rp(bx, by), rp(cx, cy))
    ref = cross_frac((ax, ay), (bx, by), (cx, cy))
    got = t.twice_area()
    if ref == 0:
        assert got.is_zero()
    else:
        assert got.as_fraction() == ref


# -- interior disjointness ---------------------------------------------------------


def _clip_halfplane(poly, p, q):
    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        c_side = cross_frac(p, q, cur)
        n_side = cross_frac(p, q, nxt)
        if c_side >= 0:
            out.append(cur)
        if (c_side >= 0) != (n_side >= 0):
            t = c_side / (c_side - n_side)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


def overlap_area_positive(t1, t2) -> bool:
    # exact Sutherland-Hodgman intersection of two CCW triangles
    poly = list(t1)
    for i in range(3):
        poly = _clip_halfplane(poly, t2[i], t2[(i + 1) % 3])
        if not poly:
            return False
    area = Fraction(0)
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        area += x1 * y2 - x2 * y1
    return area > 0


def test_interior_disjoint_cases():
    base = ccw_triangle(0, 0, 4, 0, 0, 4)
    assert not triangles_interior_disjoint(base, base)
    # shared edge
    assert triangles_interior_disjoint(base, ccw_triangle(4, 0, 0, 4, 4, 4))
    # vertex touch
    assert triangles_interior_disjoint(base, ccw_triangle(4, 0, 8, 0, 4, 4))
    # T-joint: vertex interior to an edge, outside
    assert triangles_interior_disjoint(base, ccw_triangle(2, 0, 3, -2, 1, -2))
    # contained medial triangle
    medial = ccw_triangle(2, 0, 2, 2, 0, 2)
    assert not triangles_interior_disjoint(base, medial)
    assert not triangles_interior_disjoint(medial, base)
    # proper overlap
    assert not triangles_interior_disjoint(base, ccw_triangle(1, 1, 5, 1, 1, 5))
    # far apart
    assert triangles_interior_disjoint(base, ccw_triangle(10, 10, 12, 10, 10, 12))


@settings(max_examples=250, deadline=None)
@given(
    ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords,
    dx=coords, dy=coords, ex=coords, ey=coords, fx=coords, fy=coords,
)
def test_interior_disjoint_matches_clipping_oracle(
    ax, ay, bx, by, cx, cy, dx, dy, ex, ey, fx, fy
):
    assume(cross_frac((ax, ay), (bx, by), (cx, cy)) != 0)
    assume(cross_frac((dx, dy), (ex, ey), (fx, fy)) != 0)
    t1 = ccw_triangle(ax, ay, bx, by, cx, cy)
    t2 = ccw_triangle(dx, dy, ex, ey, fx, fy)
    p1 = [(Fraction(v.x.as_fraction()), Fraction(v.y.as_fraction())) for v in t1.vertices]
    p2 = [(Fraction(v.x.as_fraction()), Fraction(v.y.as_fraction())) for v in t2.vertices]
    assert triangles_interior_disjoint(t1, t2) == (not overlap_area_positive(p1, p2))


def test_interior_disjoint_irrational_wedges():
    # adjacent and distant wedges of a regular 9-gon fan
    n, modulus = 9, 36
    center = rp(0, 0, modulus)
    wedges = [
        Triangle(center, ngon_vertex(k, n, modulus), ngon_vertex(k + 1, n, modulus))
        for k in range(n)
    ]
    for k in range(n):
        for j in range(k + 1, n):
            assert triangles_interior_disjoint(wedges[k], wedges[j])
        assert not triangles_interior_disjoint(wedges[k], wedges[k])


# a few endpoints, so that drawn boxes often share one and only touch
_ends = st.sampled_from([-math.inf, -1.0, -5e-324, 0.0, 5e-324, 1.0, 2.0, math.inf])


@st.composite
def _boxes(draw):
    xl, xh = sorted((draw(_ends), draw(_ends)))
    yl, yh = sorted((draw(_ends), draw(_ends)))
    return (xl, xh), (yl, yh)


@settings(max_examples=300, deadline=None)
@given(st.lists(_boxes(), max_size=12), _boxes())
def test_boxes_meeting_is_the_negation_of_boxes_disjoint(boxes, probe):
    # touching boxes, at a finite or an infinite end, meet
    expected = [j for j, box in enumerate(boxes) if not _boxes_disjoint(box, probe)]
    assert boxes_meeting(box_columns(boxes), probe) == expected


def test_triangle_modulus_mismatch():
    with pytest.raises(DomainError):
        Triangle(rp(0, 0, 4), rp(1, 0, 4), rp(0, 1, 8))
