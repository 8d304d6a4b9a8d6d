"""Exact tilings of the canonical regular n-gon by similar right triangles.

The polygon is fixed once and for all: unit circumradius, centered at the
origin, one vertex on the positive x-axis.  A Tiling carries the polygon
parameter n, the smaller acute angle alpha (as a = 2*alpha/pi, in units of
the right angle), a cyclotomic modulus M, and the triangle list; every
coordinate is a CycloReal in Q(zeta_M).

verify() checks, in a fixed order, everything the impossibility argument
assumes about a genuine tiling: similarity of every triangle to the
(alpha, 1-alpha, right) shape, containment in the polygon, pairwise
interior disjointness, exact area coverage, and the per-point angle
ledger p*a + q*(1-a) + r = target.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, FormatError, StructuralError, echo
from .exact import CycloReal, _nonzeros, _normalize, _zeta_mean, cos_pi, field_degree, sin_pi
from .geometry import (
    Point,
    Triangle,
    _box_sign,
    _cross,
    _sign,
    _turn,
    box_columns,
    boxes_meeting,
    on_open_segment,
    orientation,
    triangles_interior_disjoint,
)
from .text import canonical_json, parse_fraction
from .vertex import (
    PointClass,
    PointKind,
    VertexSolution,
    as_fraction,
    check_polygon_n,
    point_target,
)

FORMAT_TAG = "tilegate-tiling/1"

_KIND_SLOT = {"alpha": 0, "beta": 1, "right": 2}


def default_modulus(n: int, alpha: Fraction) -> int:
    """The field rule, stated only here: Q(zeta_M) holds the n-gon's
    vertices and the rotations by alpha, 1-alpha and the right angle
    exactly when M is a multiple of lcm(2n, 4 * denominator(alpha))."""
    return math.lcm(2 * n, 4 * Fraction(alpha).denominator)


@lru_cache(maxsize=64)
def polygon_vertices(n: int, modulus: int) -> tuple[Point, ...]:
    """V_k = (cos(2k*pi/n), sin(2k*pi/n)) for k = 0..n-1, exact in the
    given modulus (which must be divisible by 2n)."""
    check_polygon_n(n)
    return tuple(
        Point(cos_pi(2 * k, n, modulus), sin_pi(2 * k, n, modulus))
        for k in range(n)
    )


class Tiling:
    """n, alpha (units of pi/2), modulus, and the triangle list.

    Construction checks n >= 5, alpha in (0, 1/2], a modulus that is a
    multiple of default_modulus(n, alpha) within the field degree limit,
    and every triangle counterclockwise with coordinates in that modulus,
    raising StructuralError (ResourceLimitError past the degree limit)
    naming any offending triangle.  So verify reports on every Tiling.
    A Tiling is immutable and compares by its four fields.
    """

    __slots__ = ("n", "alpha", "modulus", "triangles")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, n: int, alpha: Fraction, modulus: int,
                 triangles: Iterable[Triangle]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 5:
            raise StructuralError(
                f"polygon parameter must be an integer >= 5, got {echo(n)}")
        alpha = as_fraction(alpha, "smaller acute angle")
        if not 0 < alpha <= Fraction(1, 2):
            raise StructuralError(
                f"smaller acute angle must lie in (0, 1/2] right angles, got {echo(alpha)}")
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 1:
            raise StructuralError(
                f"modulus must be a positive integer, got {echo(modulus)}")
        req = default_modulus(n, alpha)
        if modulus % req:
            raise StructuralError(f"modulus {echo(modulus)} "
                                  f"is not divisible by {echo(req)}")
        field_degree(modulus)  # refuses a field over the degree limit
        try:
            items = iter(triangles)
        except TypeError:
            raise StructuralError(
                f"triangles must be an iterable of Triangles, got {echo(triangles)}") from None
        triangles = tuple(items)
        for i, tri in enumerate(triangles):
            if not isinstance(tri, Triangle):
                raise StructuralError(f"triangle {i} is not a Triangle")
            if tri.vertices[0].modulus != modulus:
                raise StructuralError(
                    f"triangle {i}: coordinate modulus {tri.vertices[0].modulus} "
                    f"differs from tiling modulus {modulus}")
            s = tri.orientation_sign()
            if s == 0:
                raise StructuralError(f"triangle {i} is degenerate")
            if s < 0:
                raise StructuralError(f"triangle {i} is not counterclockwise")
        for name, value in zip(self.__slots__, (n, alpha, modulus, triangles)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.alpha, self.modulus, self.triangles)
                == (other.n, other.alpha, other.modulus, other.triangles))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return self.__class__, (self.n, self.alpha, self.modulus, self.triangles)

    def __repr__(self) -> str:
        return (f"Tiling(n={self.n}, alpha={self.alpha}, "
                f"modulus={self.modulus}, triangles=<{len(self.triangles)}>)")

    def _header(self) -> dict:
        return {"format": FORMAT_TAG, "n": self.n, "alpha": str(self.alpha),
                "modulus": self.modulus}

    def to_obj(self) -> dict:
        """JSON-ready document in the tilegate-tiling/1 format.  Each
        distinct Point object is serialized once, so a point that several
        triangles share is one list object at each of its places."""
        return {**self._header(),
                "triangles": [{"v": vs} for vs in _vertex_forms(self, _point_obj)]}

    @classmethod
    def from_obj(cls, obj: object) -> "Tiling":
        """Parse a tilegate-tiling/1 document; strict about keys.

        One CycloReal per distinct scalar text, its modulus plus its
        coefficient strings: a scalar whose text matches an earlier one's
        reuses that CycloReal, so it is parsed, checked and boxed once.
        A pair of such shared scalars is one shared Point.  Every check
        runs on the first occurrence, so an error names the same triangle
        and vertex, in the same words, as if each scalar were read on
        its own."""
        if not isinstance(obj, dict):
            raise FormatError("tiling document must be a JSON object")
        expected = {"format", "n", "alpha", "modulus", "triangles"}
        missing = expected - obj.keys()
        unknown = obj.keys() - expected
        if missing:
            raise FormatError(f"missing keys: {sorted(missing)}")
        if unknown:
            raise FormatError(f"unknown keys: {echo(sorted(unknown))}")
        if obj["format"] != FORMAT_TAG:
            raise FormatError(
                f"unsupported format tag {echo(obj['format'])}")
        n, modulus = obj["n"], obj["modulus"]
        alpha = parse_fraction(obj["alpha"], "alpha")
        cls(n, alpha, modulus, ())  # refuse a bad header before any coordinate
        raw = obj["triangles"]
        if not isinstance(raw, list):
            raise FormatError("triangles must be a list")
        triangles = []
        scalars: dict[tuple, CycloReal] = {}
        shared: dict[tuple[int, int], Point] = {}
        for i, item in enumerate(raw):
            if not isinstance(item, dict) or len(item) != 1 or "v" not in item:
                raise FormatError(f"triangle {i}: expected an object with key 'v'")
            v = item["v"]
            if not isinstance(v, list) or len(v) != 3:
                raise FormatError(f"triangle {i}: 'v' must list three vertices")
            points = []
            for j, pair in enumerate(v):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise FormatError(
                        f"triangle {i} vertex {j}: expected [x, y]")
                x, y = _load_scalar(pair[0], scalars), _load_scalar(pair[1], scalars)
                # the pair's Point holds x and y, so their ids stay unique
                point = shared.get((id(x), id(y)))
                if point is None:
                    if x.modulus != modulus or y.modulus != modulus:
                        raise FormatError(
                            f"triangle {i} vertex {j}: coordinate modulus differs "
                            f"from file modulus {echo(modulus)}")
                    point = shared[id(x), id(y)] = Point(x, y)
                points.append(point)
            triangles.append(Triangle(*points))
        return cls(n, alpha, modulus, triangles)


def _load_scalar(obj: object, scalars: dict) -> CycloReal:
    # CycloReal.from_obj(obj), shared through scalars by text: (modulus,
    # *coeffs).  A dict of two entries, an int modulus and a coeffs list,
    # has just the keys from_obj asks for.  A text is stored only once its
    # scalar has loaded, when every coefficient was a str, and only a str
    # equals a str, so the coefficients need no type test here
    if type(obj) is dict and len(obj) == 2:
        modulus, coeffs = obj.get("modulus"), obj.get("coeffs")
        if type(modulus) is int and type(coeffs) is list:
            text = (modulus, *coeffs)
            try:
                scalar = scalars.get(text)
            except TypeError:  # an unhashable coefficient, which cannot load
                return CycloReal.from_obj(obj)
            if scalar is None:
                scalar = scalars[text] = CycloReal.from_obj(obj)
            return scalar
    return CycloReal.from_obj(obj)


def _point_obj(v: Point) -> list:
    # the [x, y] form of a point, in documents and in ledgers alike
    return [v.x.to_obj(), v.y.to_obj()]


def _vertex_forms(tiling: Tiling, form) -> Iterator[list]:
    # each triangle's vertices as form(point), the one walk to_obj and
    # save_tiling share: form runs once per distinct Point object, so a
    # point that several triangles share is one form at each of its places
    forms: dict[int, object] = {}
    for tri in tiling.triangles:
        for v in tri.vertices:
            if id(v) not in forms:
                forms[id(v)] = form(v)
        yield [forms[id(v)] for v in tri.vertices]


def save_tiling(tiling: Tiling, path: str) -> None:
    """Write the canonical text of tiling.to_obj(): sorted keys, no
    spaces, one trailing newline, the bytes of json.dumps(obj,
    sort_keys=True, separators=(",", ":")) + "\n".  text.canonical_json
    writes the header ("triangles" sorts last) and, in to_obj's walk, the
    [x, y] text of each distinct Point object once; the file is written
    triangle by triangle, so the whole text is never held in memory at
    once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(tiling._header())[:-1] + ',"triangles":[')
        for i, vs in enumerate(_vertex_forms(tiling, lambda v: canonical_json(_point_obj(v)))):
            fh.write(('{"v":[' if not i else ',{"v":[') + ",".join(vs) + "]}")
        fh.write("]}\n")


def load_tiling(path: str) -> Tiling:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # JSONDecodeError, bad UTF-8 and over-long integers are all
        # ValueErrors; deep nesting exhausts the recursion limit
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    return Tiling.from_obj(obj)


def gen_trivial(n: int) -> Tiling:
    """The trivial tiling: join the center to every vertex and drop the
    apothem in each central triangle, giving 2n congruent right triangles
    with smaller acute angle pi/n (a = 2/n).

    V_k = (cos, sin)(2k*pi/n) is (zeta^a + zeta^-a, zeta^(M/4-a) +
    zeta^-(M/4-a)) / 2 with a = kM/n, so the foot of the apothem, the
    midpoint of V_k and V_(k+1), is one reduction per coordinate."""
    check_polygon_n(n)
    alpha = Fraction(2, n)
    modulus = default_modulus(n, alpha)
    verts = polygon_vertices(n, modulus)
    zero = CycloReal.zero(modulus)
    center = Point(zero, zero)
    step, quarter = modulus // n, modulus // 4
    triangles = []
    for k in range(n):
        v0, v1 = verts[k], verts[(k + 1) % n]
        a, b = k * step, (k + 1) * step
        foot = Point(_zeta_mean(modulus, a, b), _zeta_mean(modulus, quarter - a, quarter - b))
        triangles.append(Triangle(center, v0, foot))
        triangles.append(Triangle(center, foot, v1))
    return Tiling(n, alpha, modulus, triangles)


@lru_cache(maxsize=256)
def _rotation(num: int, den: int, modulus: int) -> tuple[tuple, tuple, tuple]:
    # the cosine and sine of gamma*pi/2 = (gamma/2)*pi, gamma = num/den in
    # lowest terms, as pair lists over one positive denominator, which
    # scales every exact test alike, and the rotation for the filter, from
    # their float boxes; keyed on ints, which hash faster than a Fraction
    half = Fraction(num, 2 * den)
    cosg = cos_pi(half.numerator, half.denominator, modulus)
    sing = sin_pi(half.numerator, half.denominator, modulus)
    cos_n = tuple((j, t * sing.den) for j, t in cosg.pairs())
    sin_n = tuple((j, t * cosg.den) for j, t in sing.pairs())
    return cos_n, sin_n, _turn(cosg.float_box(), sing.float_box())


def angle_matches(tri: Triangle, corner_index: int, gamma: Fraction) -> bool:
    """Exact test that the interior angle at the given corner equals
    gamma*pi/2.

    Square-root-free: with u, v the edge vectors out of the corner, the
    counterclockwise rotation R by gamma*pi/2 must satisfy
    cross(R u, v) = 0 and dot(R u, v) > 0.

    Filter first: the float boxes of the three vertices, u turned by the
    boxes of cos and sin, decide most corners that do not match, and
    then nothing exact is computed.  Only a corner whose boxes cannot
    exclude cross(R u, v) = 0 takes the exact zero test, and the sign of
    dot(R u, v) is asked of the boxes before it is computed exactly.
    The exact tests never build R u.  They read the corner's edges u and
    v and X = u x v from the triangle's kernel (Triangle._kernel,
    computed once per triangle and shared by its three corners and its
    area), and compute D = u . v with one det of the kernel in
    tilegate.geometry; then
    cross(R u, v) = cos*X - sin*D and dot(R u, v) = cos*D + sin*X,
    one more det each.  The right angle needs neither identity:
    cross(R u, v) = -D and dot(R u, v) = X.
    """
    if type(corner_index) is not int or corner_index not in (0, 1, 2):
        raise DomainError(f"corner index must be 0, 1 or 2, got {echo(corner_index)}")
    gamma = as_fraction(gamma, "angle")
    # on the lowest-terms numerator and denominator, cheaper than Fraction's
    # comparisons: 0 < gamma < 2, and gamma == 1
    num, den = gamma.numerator, gamma.denominator
    if not 0 < num < 2 * den:
        raise DomainError(f"angle must lie in (0, 2) right angles, got {echo(gamma)}")
    a = tri.vertices[corner_index]
    b = tri.vertices[(corner_index + 1) % 3]
    c = tri.vertices[(corner_index + 2) % 3]
    right = num == den
    if right:
        rot = None
    else:
        cos_n, sin_n, rot = _rotation(num, den, a.modulus)
    # is cross(R u, v) nonzero?  For the right angle that is u . v, which
    # _box_sign gives when turn is set
    if _box_sign(a, b, c, right, rot) is not None:
        return False
    field, _, edges, cross = tri._kern or tri._kernel()
    # u = edges[i] and v = -edges[i - 1] = -(ex, ey), so v turned by
    # +90 degrees, (-vy, vx), is (ey, -ex)
    u, (ex, ey) = edges[corner_index], edges[corner_index - 1]
    dot = _cross(field, u, (ey, [(j, -t) for j, t in ex]))
    if not right:
        x, d = _nonzeros(cross), _nonzeros(dot)
        if any(field.det(cos_n, x, sin_n, d)):
            return False
    elif any(dot):
        return False
    s = _box_sign(a, b, c, not right, rot)
    if s is None:
        s = _sign(field, cross if right
                  else field.det(cos_n, d, [(j, -t) for j, t in sin_n], x))
    return s > 0


_RIGHT_ANGLE = Fraction(1)


def _corner_kinds(tri: Triangle, alpha: Fraction) -> "tuple[str, str, str] | str":
    """('alpha'|'beta'|'right') per corner, or a failure description.

    Only two corners are tested exactly: once the right corner and an
    alpha corner are confirmed, the third angle is pi - pi/2 - alpha*pi/2
    because the angles of a triangle sum to pi.  For alpha = 1/2 the two
    acute corners coincide in size; the first one found counts as alpha.
    """
    # a triangle, which Tiling keeps non-degenerate, has at most one right corner
    right = [i for i in range(3) if angle_matches(tri, i, _RIGHT_ANGLE)]
    if not right:
        return "no right corner"
    kinds = [""] * 3
    kinds[right[0]] = "right"
    j, k = [i for i in range(3) if i != right[0]]
    if angle_matches(tri, j, alpha):
        kinds[j], kinds[k] = "alpha", "beta"
    elif angle_matches(tri, k, alpha):
        kinds[k], kinds[j] = "alpha", "beta"
    else:
        return f"no corner has angle {alpha}*pi/2"
    return tuple(kinds)


class CheckResult(NamedTuple):
    """Outcome of one verification stage."""

    status: str
    detail: str | None = None

    def to_obj(self) -> dict:
        return {"status": self.status, "detail": self.detail}


class LedgerEntry(NamedTuple):
    """One meeting point: its class and the incident corner counts."""

    point: Point
    point_class: PointClass
    solution: VertexSolution

    def to_obj(self) -> dict:
        return {
            "point": _point_obj(self.point),
            "class": str(self.point_class),
            "solution": list(self.solution),
        }


class VerificationReport(NamedTuple):
    """Check table, point ledger, corner-count certificate, verdict."""

    checks: dict[str, CheckResult]
    ledger: tuple[LedgerEntry, ...]
    certificate: tuple[int, int, int]
    verdict: bool

    @property
    def first_failure(self) -> "str | None":
        for name in CHECK_ORDER:
            if self.checks[name].status == "fail":
                return name
        return None

    def to_obj(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "checks": {name: self.checks[name].to_obj() for name in CHECK_ORDER},
            "certificate": list(self.certificate),
            "ledger": [entry.to_obj() for entry in self.ledger],
        }


def _classify(pt: Point, tiling: Tiling, polygon: tuple[Point, ...],
              boxes) -> PointClass:
    # boxes indexes the triangles' float boxes, as box_columns builds it.
    # A point on an open side lies in the side's exact bounding box,
    # which the triangle's float box encloses, so only the triangles
    # whose boxes meet the point's can count it
    n = tiling.n
    h, key = pt._hash, pt._key
    if any(h == v._hash and key == v._key for v in polygon):
        return PointClass(PointKind.POLYGON_VERTEX)
    if any(on_open_segment(pt, polygon[i], polygon[(i + 1) % n]) for i in range(n)):
        return PointClass(PointKind.POLYGON_SIDE_INTERIOR)
    flat = 0
    for k in boxes_meeting(boxes, pt.box()):
        vs = tiling.triangles[k].vertices
        for i in range(3):
            if on_open_segment(pt, vs[i], vs[(i + 1) % 3]):
                flat += 1
                break  # a point interior to two sides of one triangle is impossible
    if flat:
        return PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, flat)
    return PointClass(PointKind.FREE_INTERIOR)


def classify_point(pt: Point, tiling: Tiling) -> PointClass:
    """Class of a triangle-vertex point: polygon vertex, polygon side
    interior, interior point on k open triangle sides, or free interior.

    Open sides exclude their endpoints, so a shared corner does not make
    a point lie "on" the sides meeting there.
    """
    key = pt.key()
    if not any(key == v.key() for tri in tiling.triangles for v in tri.vertices):
        raise DomainError("point is not a vertex of any triangle in the tiling")
    polygon = polygon_vertices(tiling.n, tiling.modulus)
    boxes = box_columns([tri.box() for tri in tiling.triangles])
    return _classify(pt, tiling, polygon, boxes)


class _VerifyRun:
    """What the stages of one verify call share: the tiling, its polygon,
    and what earlier stages derived for later ones."""

    def __init__(self, tiling: Tiling, polygon: tuple[Point, ...]) -> None:
        self.tiling = tiling
        self.polygon = polygon
        self.certificate: tuple[int, int, int] = (0, 0, 0)
        # distinct vertex points, in first-occurrence order: key -> (point,
        # first owning triangle, incident (alpha, beta, right) corner counts)
        self.points: dict = {}
        self.ledger: tuple[LedgerEntry, ...] = ()

    @cached_property
    def boxes(self):
        """The triangles' float boxes, indexed by box_columns."""
        return box_columns([tri.box() for tri in self.tiling.triangles])


def _check_similarity(run: _VerifyRun) -> "str | None":
    # on pass, also fills in the certificate and the points' incident corners
    counts = [0, 0, 0]
    for idx, tri in enumerate(run.tiling.triangles):
        kinds = _corner_kinds(tri, run.tiling.alpha)
        if isinstance(kinds, str):
            return f"triangle {idx}: {kinds}"
        for v, kind in zip(tri.vertices, kinds):
            slot = _KIND_SLOT[kind]
            counts[slot] += 1
            run.points.setdefault(v.key(), (v, idx, [0, 0, 0]))[2][slot] += 1
    run.certificate = tuple(counts)
    return None


def _check_containment(run: _VerifyRun) -> "str | None":
    polygon, n = run.polygon, run.tiling.n
    for pt, owner, _ in run.points.values():
        if not all(orientation(polygon[i], polygon[(i + 1) % n], pt) >= 0
                   for i in range(n)):
            return (f"triangle {owner}: vertex ({float(pt.x):.6g}, "
                    f"{float(pt.y):.6g}) lies outside the polygon")
    return None


def _check_non_overlap(run: _VerifyRun) -> "str | None":
    # a pair whose float boxes are disjoint has disjoint interiors, so
    # testing only the pairs whose boxes meet, in (i, j) order, finds
    # the same first overlapping pair as testing them all
    tris = run.tiling.triangles
    for i, tri in enumerate(tris):
        for j in boxes_meeting(run.boxes, tri.box()):
            if j > i and not triangles_interior_disjoint(tri, tris[j]):
                return f"triangles {i} and {j} have overlapping interiors"
    return None


def _twice_area_sum(triangles, modulus: int) -> CycloReal:
    # the sum of tri.twice_area(), each being its kernel's X over den**2:
    # the X of one den add up on Python ints, and each sum is one CycloReal
    sums: dict[int, list[int]] = {}
    for tri in triangles:
        _, den, _, cross = tri._kern or tri._kernel()
        acc = sums.get(den)
        sums[den] = list(cross) if acc is None else [s + x for s, x in zip(acc, cross)]
    total = CycloReal.zero(modulus)
    for den, num in sums.items():
        total = total + CycloReal._make(modulus, *_normalize(num, den * den))
    return total


def _check_area_cover(run: _VerifyRun) -> "str | None":
    n, modulus = run.tiling.n, run.tiling.modulus
    # the polygon is n isosceles triangles with unit legs and apex angle
    # 2*pi/n at the center
    poly_area2 = sin_pi(2, n, modulus) * n
    total2 = _twice_area_sum(run.tiling.triangles, modulus)
    gap = poly_area2 - total2
    if gap.is_zero():
        return None
    return (f"triangle areas differ from the polygon area (gap ~ {float(gap):.6g} "
            "in doubled-area units)")


def _check_point_ledger(run: _VerifyRun) -> "str | None":
    # on failure the ledger keeps the entries up to the failing point
    alpha, n = run.tiling.alpha, run.tiling.n
    entries = []
    detail = None
    for pt, _, (p, q, r) in run.points.values():
        pclass = _classify(pt, run.tiling, run.polygon, run.boxes)
        entries.append(LedgerEntry(pt, pclass, VertexSolution(p, q, r)))
        total = p * alpha + q * (1 - alpha) + r
        target = point_target(pclass, n)
        if total != target:
            detail = (f"point ({float(pt.x):.6g}, {float(pt.y):.6g}) [{pclass}]: "
                      f"corners (p={p}, q={q}, r={r}) fill {total} of target {target}")
            break
    run.ledger = tuple(entries)
    return detail


_STAGES = (
    ("similarity", _check_similarity),
    ("containment", _check_containment),
    ("non_overlap", _check_non_overlap),
    ("area_cover", _check_area_cover),
    ("point_ledger", _check_point_ledger),
)

CHECK_ORDER = tuple(name for name, _ in _STAGES)


def verify(tiling: Tiling) -> VerificationReport:
    """Run the five checks in order, stopping at the first failure.

    similarity: every triangle has corner angles {alpha, 1-alpha, 1}*pi/2.
    containment: every triangle vertex is inside or on the polygon; the
      polygon is convex, so the triangles then lie inside it.
    non_overlap: pairwise open interiors are disjoint.
    area_cover: triangle areas sum exactly to the polygon area, which
      with containment and disjointness proves coverage.
    point_ledger: at every distinct triangle-vertex point the incident
      corners satisfy p*a + q*(1-a) + r = target(class).

    Later checks are reported as skipped once one fails.  The certificate
    counts (alpha, beta, right) corners over all triangles whenever
    similarity passes.  Every constructed Tiling gets a report.

    The two stages that look at many triangles at once first filter by
    float box.  The boxes are computed once per call, and
    geometry.boxes_meeting gives, for one box, the triangles whose boxes
    meet it, touching included.  non_overlap tests only the pairs whose
    boxes meet, in the same (i, j) order, so it reports the same first
    overlapping pair.  point_ledger looks for a point on the open sides
    of only the triangles whose boxes meet the point's.  Both filters
    are exact: triangles with disjoint boxes have disjoint interiors,
    and a point on a side lies in the side's box.
    """
    run = _VerifyRun(tiling, polygon_vertices(tiling.n, tiling.modulus))
    checks = dict.fromkeys(CHECK_ORDER, CheckResult("skipped"))
    for name, stage in _STAGES:
        detail = stage(run)
        checks[name] = CheckResult("pass" if detail is None else "fail", detail)
        if detail is not None:
            break
    verdict = all(result.status == "pass" for result in checks.values())
    return VerificationReport(checks, run.ledger, run.certificate, verdict)


def regularity_class(tiling: Tiling, report: VerificationReport) -> frozenset:
    """Which of the regularity conditions hold at every ledger point:
    'a1' (p = q), 'a2' (p = r), 'a3' (q = r).  Empty set: irregular.

    Defined only for verified tilings with alpha != 1/2 (for the
    isosceles shape the two acute angle kinds coincide and the counts
    are not well defined).
    """
    if not report.verdict:
        raise DomainError("regularity is defined only for tilings that verify")
    if tiling.alpha == Fraction(1, 2):
        raise DomainError("regularity is not defined for alpha = 1/2")
    conditions = {
        "a1": lambda s: s.p == s.q,
        "a2": lambda s: s.p == s.r,
        "a3": lambda s: s.q == s.r,
    }
    return frozenset(
        label for label, holds in conditions.items()
        if all(holds(entry.solution) for entry in report.ledger)
    )
