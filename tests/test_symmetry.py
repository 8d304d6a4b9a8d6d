"""Symmetries of the regular n-gon as an oracle for verify.

A rotation by 2*pi*k/n and the reflection (x, y) -> (x, -y) map the
canonical n-gon onto itself and keep every length and every angle.  The
rotation keeps orientation and the reflection reverses it, so a
reflected triangle lists its vertices in reverse order to stay
counterclockwise.  Listing the triangles in another order, or starting
each triangle at another vertex, changes nothing geometric either.
verify's answer depends only on geometry:

- similarity asks each triangle for its corner angles;
- containment asks each distinct point for its side of each polygon edge;
- non_overlap asks each pair of triangles whether their interiors meet;
- area_cover compares a sum of areas with the polygon's area;
- point_ledger asks each distinct point for its class and its corners.

Each stage's pass or fail is a property of a set of triangles, pairs or
points, or of a sum, and each of these is mapped onto itself by the
transforms.  So the verdict and the first failing check stay.  The
certificate counts (alpha, beta, right) corners over all triangles, so it
stays whenever similarity passes.  A verified tiling keeps the multiset of
its point classes.  For alpha != 1/2 the kinds of the two acute corners
differ, so the corner counts (p, q, r) at each point stay too, and with
them regularity_class.  For alpha = 1/2 the first acute corner found
counts as alpha, so vertex order may move counts between p and q.

The transforms are exact in the tiling's field: the rotation is
(x, y) -> (c*x - s*y, s*x + c*y) with (c, s) = polygon_vertices(n, M)[k].
Their images have other magnitudes and other nonzero patterns than any
generator gives, so the float filter and the exact fallbacks meet new
inputs.  Details name triangle indices and coordinates, which the
transforms move, so they are not compared.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import altitude_split, refined
from tilegate.errors import StructuralError
from tilegate.exact import CycloReal
from tilegate.geometry import Point, Triangle
from tilegate.tiling import Tiling, gen_trivial, polygon_vertices, regularity_class, verify

BASES = {
    **{f"fan-{n}": (lambda n=n: gen_trivial(n)) for n in (5, 7, 8, 12, 15)},
    "refined-8": lambda: refined(8, 48, 2),
    "refined-12": lambda: altitude_split(gen_trivial(12), range(0, 24, 3)),
}


@lru_cache(maxsize=None)
def base(name: str) -> Tiling:
    return BASES[name]()


def with_triangles(t: Tiling, triangles) -> Tiling:
    return Tiling(t.n, t.alpha, t.modulus, list(triangles))


def image(t: Tiling, k: int, reflect: bool, turns, order) -> Tiling:
    # rotate by 2*pi*k/n, then reflect in the x-axis if asked; turn the
    # vertex list of triangle i by turns[i] and list the triangles in order
    corner = polygon_vertices(t.n, t.modulus)[k]
    c, s = corner.x, corner.y
    images: dict[int, Point] = {}

    def move(p: Point) -> Point:
        if id(p) not in images:
            x, y = c * p.x - s * p.y, s * p.x + c * p.y
            images[id(p)] = Point(x, -y if reflect else y)
        return images[id(p)]

    tris = []
    for tri, turn in zip(t.triangles, turns):
        vs = [move(v) for v in tri.vertices]
        if reflect:
            vs.reverse()
        tris.append(Triangle(*vs[turn:], *vs[:turn]))
    return with_triangles(t, [tris[i] for i in order])


def mutant(t: Tiling, kind: str, idx: int, k: int, dx: Fraction, dy: Fraction) -> Tiling:
    # "nudge" moves vertex k of triangle idx by (dx, dy), "shift" moves the
    # whole triangle, "delete" drops it
    tris = list(t.triangles)
    if kind == "delete":
        del tris[idx]
        return with_triangles(t, tris)
    ex, ey = CycloReal.from_rational(dx, t.modulus), CycloReal.from_rational(dy, t.modulus)
    vs = list(tris[idx].vertices)
    for j in (k,) if kind == "nudge" else range(3):
        vs[j] = Point(vs[j].x + ex, vs[j].y + ey)
    tris[idx] = Triangle(*vs)
    return with_triangles(t, tris)


steps = st.fractions(min_value=Fraction(-1, 8), max_value=Fraction(1, 8), max_denominator=64)


@st.composite
def cases(draw, name):
    t = base(name)
    kind = draw(st.sampled_from(["none", "nudge", "shift", "delete"]))
    if kind != "none":
        idx = draw(st.integers(0, len(t.triangles) - 1))
        dx, dy = draw(steps), draw(steps)
        assume(kind == "delete" or dx or dy)
        try:
            t = mutant(t, kind, idx, draw(st.integers(0, 2)), dx, dy)
        except StructuralError:  # flipped or degenerate: no Tiling
            assume(False)
    size = len(t.triangles)
    k = draw(st.integers(0, t.n - 1))
    reflect = draw(st.booleans())
    turns = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    order = draw(st.permutations(range(size)))
    return t, image(t, k, reflect, turns, order)


@pytest.mark.parametrize("name", sorted(BASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_symmetries_keep_what_verify_reports(name, data):
    t, moved = data.draw(cases(name))
    before, after = verify(t), verify(moved)
    assert (after.verdict, after.first_failure) == (before.verdict, before.first_failure)
    if before.checks["similarity"].status == "pass":
        assert after.certificate == before.certificate
    if before.verdict:
        classes = [Counter(str(e.point_class) for e in r.ledger) for r in (before, after)]
        assert classes[0] == classes[1]
        if t.alpha != Fraction(1, 2):
            assert regularity_class(moved, after) == regularity_class(t, before)


def test_the_transforms_reach_every_polygon_symmetry():
    # the images of the fan's center-vertex-foot triangles under the 2n
    # transforms are the 2n triangles of the fan, each once
    t = base("fan-7")
    tri = t.triangles[0]
    seen = set()
    for k in range(7):
        for reflect in (False, True):
            moved = image(with_triangles(t, [tri]), k, reflect, [0], [0]).triangles[0]
            seen.add(frozenset(v.key() for v in moved.vertices))
    assert seen == {frozenset(v.key() for v in u.vertices) for u in t.triangles}
