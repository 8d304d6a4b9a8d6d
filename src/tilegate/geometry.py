"""Exact planar predicates over cyclotomic coordinates.

Each point carries a float box, an outward-rounded enclosure of its two
coordinates.  ``orientation`` and ``sign_dot`` first ask one filter,
:func:`_box_sign`, for the sign of a cross product of two difference
vectors, and compute it exactly only when the filter cannot decide.  The
filter is semi-static (Shewchuk, 1997; Bronnimann, Burnikel and Pion,
2001): each point caches the center of its box and one radius, and the
cross product of the centers, about twenty float operations, decides
when it exceeds an a-priori bound on its error built from the radii and
the unit roundoff (the derivation is in _box_sign's docstring).  On fans,
refined tilings and their mutants, each case it leaves open is an exact
zero, which no float filter decides, or a nonzero value below float
resolution; both go to exact arithmetic.  The dot product needs no
routine of its own: u . v is the cross product of u with v turned by
+90 degrees, (-v_y, v_x), and turning only negates, which is exact.

Every exact predicate goes through one kernel.  ``_differences`` scales
the six coordinates of a, b and c to one common denominator and returns
u = b - a and v = c - a as integer coefficient vectors; ``_Field.det``
computes a*b - c*d on such vectors, on Python ints.  It multiplies only
the nonzero coefficients, folding each term by zeta^(M/2) = -1 as it
goes, when those products and their reduction take few multiply-adds,
as they do for the sparse coordinates of fans and refined tilings;
dense vectors are packed into one integer each, so a product is one
big-int multiplication.  So u x v and u . v are one det
each, and a CycloReal is built only for a value that leaves the kernel:
an area, or a value whose sign is asked.  A Triangle runs _differences
once and keeps the result, its kernel: one den, its three edge vectors,
and the cross product X of the two edges out of a corner, which is the
same at every corner; X / den**2 is the triangle's doubled area.  The
angle tests of :mod:`tilegate.tiling` read u, v and X from it, and the
verifier's area check sums the X of all triangles on Python ints.  The
angle test's filter passes _box_sign an optional rotation, which
:func:`_turn` builds once per angle from the float boxes of its cosine
and sine: u is turned by it before the cross or dot product is taken.
An overflow makes the bound or the value inf or NaN, and then the
comparison that decides is false, so a product past the float range,
from coordinates of about 10**154 or more, or a box with an infinite
end, sends the case to exact arithmetic.

Two points are one when their keys, the coefficients and denominators
of both coordinates, are equal.  Each point hashes its key once, when it
is built, and the predicates, like the verifier's polygon-vertex test,
compare those hashes before the keys.  Equal keys have equal hashes, so
a differing hash proves two points distinct, and an equal one decides
nothing until the keys agree too.

A triangle's float box encloses its exact bounding box.  Two triangles
whose boxes are disjoint have disjoint interiors, so
``triangles_interior_disjoint`` answers them from the boxes alone.  For
many boxes at once, ``box_columns`` builds a sort-and-sweep index on
Python floats (Cohen, Lin, Manocha and Ponamgi, I-COLLIDE, 1995): the
boxes grouped by the binary exponent e of their width, fl(xh - xl) < 2**e,
each group sorted by xl.  ``boxes_meeting`` bisects each group on
[bxl - 2**e, bxh], the lower end rounded down, and gives the indices of
the boxes that meet one box, ascending.  The window is sound because
fl(xh - xl) < 2**e implies xh - xl <= 2**e: rounding is monotone and
2**e is a float.  An infinite width, or one of 2**1023 or more, has no
such bound, and its group is searched whole.  The test is exactly the
negation of the disjointness test, with closed comparisons, so boxes
that only touch meet.  The verifier's pair loop and point ledger use it
to skip triangles whose boxes prove them irrelevant.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import frexp, inf, lcm, ldexp, nextafter
from typing import Sequence

from .errors import DomainError
from .exact import CycloReal, _field, _Field, _normalize

Interval = tuple[float, float]


class Point:
    """An exact point; both coordinates share one cyclotomic modulus."""

    __slots__ = ("x", "y", "_key", "_hash", "_box", "_mid")

    def __init__(self, x: CycloReal, y: CycloReal) -> None:
        if x.modulus != y.modulus:
            raise DomainError(
                f"coordinate moduli differ: {x.modulus} vs {y.modulus}"
            )
        self.x = x
        self.y = y
        self._key = (x.num, x.den, y.num, y.den)
        self._hash = hash(self._key)
        self._box: tuple[Interval, Interval] | None = None
        self._mid: tuple[float, float, float] | None = None

    @property
    def modulus(self) -> int:
        return self.x.modulus

    def key(self) -> tuple:
        """Hashable exact identity (within a fixed modulus)."""
        return self._key

    def box(self) -> tuple[Interval, Interval]:
        if self._box is None:
            self._box = (self.x.float_box(), self.y.float_box())
        return self._box

    def _center(self) -> tuple[float, float, float]:
        # the center (mx, my) of the box and one radius r, rounded up,
        # with |x - mx| <= r and |y - my| <= r; halving each end before
        # the sum cannot overflow, and r absorbs what it rounds
        if self._mid is None:
            (xl, xh), (yl, yh) = self._box or self.box()
            mx, my = 0.5 * xl + 0.5 * xh, 0.5 * yl + 0.5 * yh
            self._mid = mx, my, nextafter(max(xh - mx, mx - xl, yh - my, my - yl), inf)
        return self._mid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __repr__(self) -> str:
        return f"Point({float(self.x):.6g}, {float(self.y):.6g})"


def midpoint(a: Point, b: Point) -> Point:
    half = Fraction(1, 2)
    return Point((a.x + b.x) * half, (a.y + b.y) * half)


# Round-to-nearest doubles: the unit roundoff u = 2**-53, and _ETA,
# eight times the most an underflowing product loses (2**-1075).  _K1
# covers the rounding of the bound's own evaluation with room to spare.
_U = 2.0 ** -53
_ETA = 2.0 ** -1072
_K1 = 1 + 2.0 ** -44
_K3 = 3 * _U * _K1


def _turn(cos_box: Interval, sin_box: Interval) -> tuple[float, float, float, float]:
    """A rotation for _box_sign, from the boxes of its cosine and sine:
    their centers cm, sm and the two coefficients kr, km of the error
    bound of a turned vector (see _box_sign), computed once per rotation."""
    (cl, ch), (sl, sh) = cos_box, sin_box
    cm, sm = 0.5 * cl + 0.5 * ch, 0.5 * sl + 0.5 * sh
    rr = nextafter(max(ch - cm, cm - cl, sh - sm, sm - sl), inf)
    kr = abs(cm) + abs(sm) + 2 * rr
    km = rr + 3 * _U * (max(abs(cm), abs(sm)) + rr)
    return cm, sm, kr, km


def _box_sign(
    a: Point, b: Point, c: Point, turn: bool,
    rot: tuple[float, float, float, float] | None = None,
) -> int | None:
    """Sign of u x v, u = b - a and v = c - a, or of u . v when turn is
    set, if the float boxes of a, b and c decide it; None otherwise.
    With a rotation rot, as _turn returns it, u is first turned by that
    angle.

    Each point is taken as its box's center and one radius r
    (Point._center): the exact point lies within r of the center in
    each coordinate.  In doubles _box_sign computes the differences
    ux, uy, vx, vy of the centers, p = ux*vy, q = uy*vx and d = p - q,
    and returns sign(d) when |d| exceeds E below.  Why that is the sign
    of the exact D = Ux*Vy - Uy*Vx: with R = ra + rb and S = ra + rc,
    each rounded difference is off by at most u times itself, so
    |Ux - ux| <= R + u*|ux|, and likewise for uy with R and for vx, vy
    with S.  Multiplying out,

        |D - (ux*vy - uy*vx)| <= (1 + u)(S*mu + R*mv) + 2*R*S + (2u + u^2) t

    with mu = |ux| + |uy|, mv = |vx| + |vy| and t = |ux*vy| + |uy*vx|.
    A rounded product x*y is off by at most u*|x*y|, plus 2**-1075
    where it underflows, so p - q is within u*t + 2**-1074 of
    ux*vy - uy*vx, and t <= (P + 2**-1074) / (1 - u) with
    P = |p| + |q|.  Rounding keeps the sign of p - q in d and changes
    its size by at most the factor 1 + u, so sign(d) = sign(D) whenever

        |d| > (1 + u) ((1 + u)(S*mu + R*mv + 2*R*S) + (3u + 5u^2) P + 2.01 * 2**-1075).

    E = _K1 (S*mu + R*(mv + 2S)) + _K3*P + _ETA exceeds that right side
    even as computed in doubles: the products and sums of nonnegative
    terms that make it up, R and S among them, lose at most a factor
    1 + u each, which the 2**-44 in _K1 and _K3 covers many times over,
    and four products lose at most 2**-1075 each to underflow, so 6.1
    times 2**-1075 is all _ETA must cover.  Turning v negates and swaps
    its coordinates, which changes no bound.

    A turned u: with a rotation's boxes centered at cm, sm, both within
    rr of the exact cosine and sine, the exact turned vector W differs
    from the computed w = (cm*ux - sm*uy, sm*ux + cm*uy) in each
    coordinate by at most

        (|cm| + |sm| + 2 rr) R + (rr + 3u (max(|cm|, |sm|) + rr)) mu + 4.01 * 2**-1075

    to first order in u: (|cm| + rr)(R + u|ux|) for the error of u, rr*|ux|
    for that of the cosine, the same for uy and the sine, and u times
    the two rounded products and their rounded sum, which underflow
    may move by 2**-1075 each, as it may the two products of the bound.
    The two coefficients are _turn's kr and km, and _K1 covers the
    higher orders, since the bound enters E only through R: the bound
    plus _ETA takes the place of R, and w that of u.  It stands for all
    of each coordinate's error, where R stood for only a part of it.

    The comparison E < |d| < inf is false when E or d is inf or NaN, so
    an overflow anywhere, or a box with an infinite end, leaves the sign
    open, and the caller computes it exactly.
    """
    ax, ay, ra = a._mid or a._center()
    bx, by, rb = b._mid or b._center()
    cx, cy, rc = c._mid or c._center()
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    r, s = ra + rb, ra + rc
    if rot is not None:
        cm, sm, kr, km = rot
        r = kr * r + km * (abs(ux) + abs(uy)) + _ETA
        ux, uy = cm * ux - sm * uy, sm * ux + cm * uy
    if turn:
        vx, vy = -vy, vx
    p, q = ux * vy, uy * vx
    d = p - q
    e = _K1 * (s * (abs(ux) + abs(uy)) + r * (abs(vx) + abs(vy) + 2 * s)) \
        + _K3 * (abs(p) + abs(q)) + _ETA
    if e < abs(d) < inf:
        return 1 if d > 0 else -1
    return None


Vector = tuple[Sequence[int], Sequence[int]]


def _difference(p: CycloReal, q: CycloReal, den: int) -> list[int]:
    # the coefficients of (q - p) * den, for den a multiple of both denominators
    fp, fq = den // p.den, den // q.den
    if fp == fq:
        return [(s - r) * fp for r, s in zip(p.num, q.num)]
    return [s * fq - r * fp for r, s in zip(p.num, q.num)]


def _differences(a: Point, b: Point, c: Point) -> tuple[_Field, Vector, Vector, int]:
    """The field of a, b and c, and u = b - a and v = c - a as integer
    coefficient vectors over one common denominator den, returned last."""
    if not a.modulus == b.modulus == c.modulus:
        raise DomainError("points must share a modulus")
    den = lcm(a.x.den, a.y.den, b.x.den, b.y.den, c.x.den, c.y.den)
    u = _difference(a.x, b.x, den), _difference(a.y, b.y, den)
    v = _difference(a.x, c.x, den), _difference(a.y, c.y, den)
    return _field(a.modulus), u, v, den


def _cross(field: _Field, u: Vector, v: Vector) -> tuple[int, ...]:
    # u x v = ux*vy - uy*vx
    return field.det(u[0], v[1], u[1], v[0])


def _turned(v: Vector) -> Vector:
    # v turned by +90 degrees, so that u . v = u x _turned(v)
    return [-t for t in v[1]], v[0]


def _sign(field: _Field, num: tuple[int, ...]) -> int:
    # sign of the element with coefficients num over any positive
    # denominator: over 1, num is already in normal form, zero included
    return CycloReal._make(field.modulus, num, 1).sign()


def orientation(a: Point, b: Point, c: Point) -> int:
    """+1 if a,b,c turn counterclockwise, -1 clockwise, 0 collinear."""
    ha, hb, hc = a._hash, b._hash, c._hash
    if (ha == hb and a._key == b._key or hb == hc and b._key == c._key
            or ha == hc and a._key == c._key):
        return 0
    s = _box_sign(a, b, c, False)
    if s is not None:
        return s
    field, u, v, _ = _differences(a, b, c)
    return _sign(field, _cross(field, u, v))


def sign_dot(a: Point, b: Point, c: Point) -> int:
    """Sign of (b - a) . (c - a)."""
    ha, hb, hc = a._hash, b._hash, c._hash
    if ha == hb and a._key == b._key or ha == hc and a._key == c._key:
        return 0
    if hb == hc and b._key == c._key:
        return 1  # |b - a|^2 with b != a
    s = _box_sign(a, b, c, True)
    if s is not None:
        return s
    field, u, v, _ = _differences(a, b, c)
    return _sign(field, _cross(field, u, _turned(v)))


def on_open_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on segment ab strictly between the endpoints."""
    hp = p._hash
    if hp == a._hash and p._key == a._key or hp == b._hash and p._key == b._key:
        return False
    return orientation(a, b, p) == 0 and sign_dot(p, a, b) < 0


class Triangle:
    """Three exact vertices; the verifier requires counterclockwise order.

    Like its float box, a triangle computes its exact kernel once, on
    first use (``_kernel``): the field, one common denominator den of its
    six coordinates, its three edge vectors over den, and X = u x v.  The
    edges out of corner i are u = edges[i] and v = -edges[i - 1], as
    _differences gives them for the vertices taken from corner i.  X is
    the same at every corner, since the cross product of consecutive
    edges does not change under a cyclic shift of the vertices, so one
    det serves the area and every angle test."""

    __slots__ = ("vertices", "_box", "_kern")

    def __init__(self, a: Point, b: Point, c: Point) -> None:
        if not (a.modulus == b.modulus == c.modulus):
            raise DomainError("triangle vertices must share a modulus")
        self.vertices = (a, b, c)
        self._box: tuple[Interval, Interval] | None = None
        self._kern: tuple | None = None

    def _kernel(self) -> tuple[_Field, int, tuple[Vector, Vector, Vector], tuple[int, ...]]:
        # (field, den, edges, X): with vertices a, b, c, the edges are
        # b - a, c - b and a - c over den, so corner i has u = edges[i]
        # and v = -edges[i - 1]
        if self._kern is None:
            field, u, v, den = _differences(*self.vertices)
            w = [q - p for p, q in zip(u[0], v[0])], [q - p for p, q in zip(u[1], v[1])]
            back = [-t for t in v[0]], [-t for t in v[1]]
            self._kern = field, den, (u, w, back), _cross(field, u, v)
        return self._kern

    def orientation_sign(self) -> int:
        a, b, c = self.vertices
        return orientation(a, b, c)

    def twice_area(self) -> CycloReal:
        field, den, _, cross = self._kern or self._kernel()
        return CycloReal._make(field.modulus, *_normalize(cross, den * den))

    def box(self) -> tuple[Interval, Interval]:
        if self._box is None:
            boxes = [v.box() for v in self.vertices]
            xs = [b[0] for b in boxes]
            ys = [b[1] for b in boxes]
            self._box = (
                (min(x[0] for x in xs), max(x[1] for x in xs)),
                (min(y[0] for y in ys), max(y[1] for y in ys)),
            )
        return self._box

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangle):
            return NotImplemented
        return self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"Triangle({', '.join(map(repr, self.vertices))})"


def _boxes_disjoint(t: tuple[Interval, Interval], u: tuple[Interval, Interval]) -> bool:
    (txl, txh), (tyl, tyh) = t
    (uxl, uxh), (uyl, uyh) = u
    return txh < uxl or uxh < txl or tyh < uyl or uyh < tyl


# widths from 2**1023 up, and infinite or NaN ones, have no float bound 2**e
_WIDEST = 2.0 ** 1023

BoxIndex = list[tuple[float, list[float], list[tuple[float, float, float, float, int]]]]


def box_columns(boxes: Sequence[tuple[Interval, Interval]]) -> BoxIndex:
    """The boxes as an index for boxes_meeting: one group per binary
    exponent e of their widths, |fl(xh - xl)| < 2**e, as math.frexp gives
    it, each group with its bound 2**e (inf for an unbounded width) and
    its boxes (xl, xh, yl, yh, index) sorted by xl, beside their xl."""
    groups: dict[float, list] = {}
    for i, ((xl, xh), (yl, yh)) in enumerate(boxes):
        w = abs(xh - xl)
        bound = ldexp(1.0, frexp(w)[1]) if w < _WIDEST else inf
        groups.setdefault(bound, []).append((xl, xh, yl, yh, i))
    index = []
    for bound, group in groups.items():
        group.sort()
        index.append((bound, [g[0] for g in group], group))
    return index


def boxes_meeting(index: BoxIndex, box: tuple[Interval, Interval]) -> list[int]:
    """Indices, ascending, of the boxes in ``index`` (see box_columns)
    that meet ``box``: exactly those that _boxes_disjoint does not
    separate from it, so boxes that only touch meet.  A box of a group
    with bound 2**e that meets it has xl >= xh - 2**e >= bxl - 2**e, so
    each bounded group is searched on [bxl - 2**e, bxh] (the module
    docstring says why the bound holds)."""
    (bxl, bxh), (byl, byh) = box
    hits: list[int] = []
    for bound, keys, group in index:
        lo = bisect_left(keys, nextafter(bxl - bound, -inf)) if bound < inf else 0
        hits += [i for xl, xh, yl, yh, i in group[lo:bisect_right(keys, bxh)]
                 if bxl <= xh and byl <= yh and yl <= byh]
    hits.sort()
    return hits


def _separated_by_edge(t: Triangle, u: Triangle) -> bool:
    # a counterclockwise triangle lies strictly left of each directed
    # edge, so an edge line with all of u on the closed right side
    # separates the interiors
    a, b, c = t.vertices
    x, y, z = u.vertices
    for p, q in ((a, b), (b, c), (c, a)):
        if orientation(p, q, x) <= 0 and orientation(p, q, y) <= 0 and orientation(p, q, z) <= 0:
            return True
    return False


def triangles_interior_disjoint(t: Triangle, u: Triangle) -> bool:
    """True iff the open interiors of two counterclockwise triangles do
    not meet (touching along points or edges is allowed).  Convexity
    makes the edge lines a complete set of separating-axis candidates."""
    if _boxes_disjoint(t.box(), u.box()):
        return True
    return _separated_by_edge(t, u) or _separated_by_edge(u, t)
