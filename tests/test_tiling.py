"""Tests for the tiling data model, generator, verifier and file format.

The verifier is cross-checked against hand-computed ledgers for the
trivial tiling, an altitude-split variant that creates a T-joint, and
mutation oracles (deletions, vertex moves) that must never pass.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilegate import tiling as tiling_module
from tilegate.classify import Outcome, impossibility_audit
from tilegate.errors import (
    DomainError,
    FormatError,
    ModulusError,
    ResourceLimitError,
    StructuralError,
)
from tilegate.exact import (
    PHI_LIMIT,
    CycloReal,
    _field,
    cos_pi,
    euler_phi,
    field_degree,
    sin_pi,
)
from tilegate.geometry import Point, Triangle, on_open_segment, triangles_interior_disjoint
from tilegate.text import parse_fraction
from tilegate.tiling import (
    CHECK_ORDER,
    Tiling,
    VerificationReport,
    angle_matches,
    classify_point,
    default_modulus,
    gen_trivial,
    load_tiling,
    polygon_vertices,
    regularity_class,
    save_tiling,
    verify,
)
from tilegate.vertex import (
    PointClass,
    PointKind,
    VertexSolution,
    check_polygon_n,
    enumerate_solutions,
    point_target,
)


def rp(x, y, modulus) -> Point:
    return Point(
        CycloReal.from_rational(Fraction(x), modulus),
        CycloReal.from_rational(Fraction(y), modulus),
    )


def shifted(pt: Point, dx: Fraction, dy: Fraction) -> Point:
    m = pt.modulus
    return Point(
        pt.x + CycloReal.from_rational(dx, m),
        pt.y + CycloReal.from_rational(dy, m),
    )


def replace_vertex(t: Tiling, tri_idx: int, v_idx: int, pt: Point) -> Tiling:
    tri = t.triangles[tri_idx]
    vs = list(tri.vertices)
    vs[v_idx] = pt
    tris = list(t.triangles)
    tris[tri_idx] = Triangle(*vs)
    return Tiling(t.n, t.alpha, t.modulus, tris)


def altitude_split(t: Tiling, indices) -> Tiling:
    # split each listed triangle, in place, at the foot of the altitude
    # from its right corner R: with A the alpha corner and B the other
    # end of the hypotenuse, the foot is A + cos^2(alpha) (B - A), and
    # both halves are similar to the triangle
    cos_a = cos_pi(t.alpha.numerator, 2 * t.alpha.denominator, t.modulus)
    cos2 = cos_a * cos_a
    tris = list(t.triangles)
    for idx in sorted(set(indices), reverse=True):
        vs = tris[idx].vertices
        kinds = tiling_module._corner_kinds(tris[idx], t.alpha)
        ia, ib, ir = (kinds.index(k) for k in ("alpha", "beta", "right"))
        a, b, r = vs[ia], vs[ib], vs[ir]
        h = Point(a.x + cos2 * (b.x - a.x), a.y + cos2 * (b.y - a.y))
        if (ib - ia) % 3 == 1:  # (A, B, R) is counterclockwise
            tris[idx : idx + 1] = [Triangle(a, h, r), Triangle(h, b, r)]
        else:
            tris[idx : idx + 1] = [Triangle(a, r, h), Triangle(h, r, b)]
    return Tiling(t.n, t.alpha, t.modulus, tris)


def refined(n: int, size: int, seed: int) -> Tiling:
    # the trivial tiling split at random triangles until it has `size`
    t = gen_trivial(n)
    rng = random.Random(seed)
    while len(t.triangles) < size:
        count = min(size - len(t.triangles), len(t.triangles))
        t = altitude_split(t, rng.sample(range(len(t.triangles)), count))
    return t


# -- generator ---------------------------------------------------------------


def test_gen_trivial_examples():
    t5 = gen_trivial(5)
    assert len(t5.triangles) == 10
    assert t5.alpha == Fraction(2, 5)
    assert t5.modulus == 20
    t8 = gen_trivial(8)
    assert len(t8.triangles) == 16
    assert t8.alpha == Fraction(1, 4)
    assert t8.modulus == 16
    t6 = gen_trivial(6)
    assert len(t6.triangles) == 12
    assert t6.alpha == Fraction(1, 3)


def test_gen_trivial_domain():
    with pytest.raises(DomainError):
        gen_trivial(4)
    for bad in ("8", 8.0, True):
        with pytest.raises(DomainError):
            gen_trivial(bad)


def test_polygon_vertices_on_unit_circle():
    for n in (5, 8, 12):
        m = default_modulus(n, Fraction(2, n))
        verts = polygon_vertices(n, m)
        assert len(verts) == n
        assert verts[0] == rp(1, 0, m)
        for v in verts:
            assert (v.x * v.x + v.y * v.y).as_fraction() == 1
    with pytest.raises(DomainError):
        polygon_vertices(3, 12)


def test_default_modulus_examples():
    assert default_modulus(8, Fraction(1, 4)) == 16
    assert default_modulus(5, Fraction(2, 5)) == 20
    for n in range(5, 30):
        m = default_modulus(n, Fraction(2, n))
        a = Fraction(2, n)
        assert m % 4 == 0 and m % (2 * n) == 0 and m % (2 * a.denominator) == 0


# -- structural validation ------------------------------------------------------


def test_tiling_structural_errors():
    t = gen_trivial(5)
    with pytest.raises(StructuralError):
        Tiling(4, Fraction(2, 5), 20, t.triangles)
    with pytest.raises(StructuralError):
        Tiling(5, Fraction(3, 5), 20, t.triangles)  # alpha > 1/2
    with pytest.raises(StructuralError):
        Tiling(5, Fraction(0), 20, t.triangles)
    with pytest.raises(StructuralError):
        Tiling(5, Fraction(2, 5), 12, t.triangles)  # 10 does not divide 12
    with pytest.raises(StructuralError, match="triangle 0"):
        Tiling(5, Fraction(2, 5), 40, t.triangles)  # coordinate modulus 20
    degenerate = Triangle(rp(0, 0, 20), rp(1, 0, 20), rp(2, 0, 20))
    with pytest.raises(StructuralError, match="degenerate"):
        Tiling(5, Fraction(2, 5), 20, [degenerate])
    clockwise = Triangle(rp(0, 0, 20), rp(0, 1, 20), rp(1, 0, 20))
    with pytest.raises(StructuralError, match="counterclockwise"):
        Tiling(5, Fraction(2, 5), 20, [clockwise])
    with pytest.raises(StructuralError):
        Tiling(5, Fraction(2, 5), 20, ["nope"])


@st.composite
def _modulus_cases(draw):
    # a shape, and a modulus built from one part of the field rule, from
    # the whole rule, or from the weaker lcm(4, 2n, 2 * denominator(alpha))
    n = draw(st.integers(5, 40))
    v = draw(st.integers(2, 40))
    alpha = Fraction(draw(st.integers(1, v // 2)), v)
    den = alpha.denominator
    base = draw(st.sampled_from(
        [default_modulus(n, alpha), 2 * n, 4 * den, math.lcm(4, 2 * n, 2 * den)]))
    return n, alpha, base * draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(_modulus_cases())
def test_tiling_accepts_exactly_the_moduli_of_the_field_rule(case):
    n, alpha, modulus = case
    if modulus % default_modulus(n, alpha):
        with pytest.raises(StructuralError, match="is not divisible by"):
            Tiling(n, alpha, modulus, [])
        return
    if euler_phi(modulus) > PHI_LIMIT:
        with pytest.raises(ResourceLimitError):
            Tiling(n, alpha, modulus, [])
        return
    try:
        Tiling(n, alpha, modulus, [])
        # what verify needs of the field: the vertices and the rotations
        polygon_vertices(n, modulus)
        for gamma in (alpha, 1 - alpha, Fraction(1)):
            tiling_module._rotation(gamma.numerator, gamma.denominator, modulus)
    finally:
        # fields up to degree PHI_LIMIT are large; keep memory flat
        _field.cache_clear()
        polygon_vertices.cache_clear()
        tiling_module._rotation.cache_clear()


def test_tiling_refuses_moduli_without_a_field():
    # each passes the divisibility rule, but verify could build no field
    with pytest.raises(StructuralError, match="positive integer"):
        Tiling(5, Fraction(2, 5), 0, [])
    with pytest.raises(StructuralError, match="positive integer"):
        Tiling(5, Fraction(2, 5), -20, [])
    with pytest.raises(ResourceLimitError):
        Tiling(5, Fraction(2, 5), 20 * (10**16 + 61), [])


@pytest.mark.parametrize("call, error", [
    (lambda: field_degree(4 * 10**5000), ResourceLimitError),
    (lambda: check_polygon_n(-10**5000), DomainError),
    (lambda: Tiling(-10**5000, Fraction(2, 5), 20, []), StructuralError),
    (lambda: Tiling(5, Fraction(10**5000), 20, []), StructuralError),
    (lambda: enumerate_solutions(1, Fraction(10**5000)), DomainError),
    (lambda: impossibility_audit(8, Fraction(1, 10**5000)), DomainError),
    (lambda: impossibility_audit(8, Fraction(10**5000)), DomainError),
    (lambda: angle_matches(gen_trivial(8).triangles[0], 0, Fraction(10**5000)),
     DomainError),
], ids=["field_degree", "check_polygon_n", "Tiling", "Tiling_alpha",
        "enumerate_solutions", "audit_in_range", "audit_out_of_range",
        "angle_matches"])
def test_errors_on_huge_ints_stay_short(call, error):
    # str and repr of an int over 4300 digits raise ValueError; the
    # messages name such a value by its type instead
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 300


# -- angle predicate -------------------------------------------------------------


def test_angle_matches_trivial_corners():
    t = gen_trivial(8)
    tri = t.triangles[0]  # (center, vertex, apothem foot)
    assert angle_matches(tri, 0, Fraction(1, 4))
    assert angle_matches(tri, 1, Fraction(3, 4))
    assert angle_matches(tri, 2, Fraction(1))
    # a corner matches at most one of gamma, 1-gamma for gamma != 1/2
    for i in range(3):
        hits = [
            angle_matches(tri, i, g)
            for g in (Fraction(1, 4), Fraction(3, 4))
        ]
        assert sum(hits) <= 1
    assert not angle_matches(tri, 0, Fraction(1, 2))


def _exact_angle_matches(tri, corner_index, gamma):
    # angle_matches without its float filter: rotation and exact
    # arithmetic only
    a = tri.vertices[corner_index]
    b = tri.vertices[(corner_index + 1) % 3]
    c = tri.vertices[(corner_index + 2) % 3]
    half = gamma / 2
    cosg = cos_pi(half.numerator, half.denominator, a.modulus)
    sing = sin_pi(half.numerator, half.denominator, a.modulus)
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    rx = cosg * ux - sing * uy
    ry = sing * ux + cosg * uy
    if not (rx * vy - ry * vx).is_zero():
        return False
    return (rx * vx + ry * vy).sign() > 0


@lru_cache(maxsize=None)
def _trivial(n):
    return gen_trivial(n)


def _tiny_offset(modulus, j, bits):
    # (cos t - x, sin t - y), t = 2*pi*j/modulus and x, y its roundings to
    # bits bits: irrational unless cos t and sin t are rational, and
    # shorter than 2**-bits, so no float box separates it from zero
    def rounding_error(value):
        lo, _ = value.enclosure(256)
        return value - round(lo * 2**bits) / Fraction(2**bits)

    return (rounding_error(cos_pi(j, modulus // 2, modulus)),
            rounding_error(sin_pi(j, modulus // 2, modulus)))


_small = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def _angle_cases(draw):
    """(triangle, alpha, the angle each corner must match or None).

    Either a triangle of the trivial 5-, 12- or 47-gon tiling, or a right
    triangle built with corners exactly at alpha, the right angle and
    1 - alpha in Q(zeta_24) or the phi = 92 field of the 47-gon, at a
    scale of 10**-200, 1 or 10**200 where the float boxes underflow or
    overflow; then perhaps one vertex moved by an irrational offset below
    2**-60 of the scale, or put on the corner before it, and the vertex
    order perhaps reversed."""
    if draw(st.booleans()):
        t = _trivial(draw(st.sampled_from([5, 12, 47])))
        tri = t.triangles[draw(st.integers(0, len(t.triangles) - 1))]
        return tri, t.alpha, None
    modulus, alpha = draw(st.sampled_from([
        (24, Fraction(1, 3)), (24, Fraction(1, 6)), (24, Fraction(1, 2)),
        (188, Fraction(2, 47)), (188, Fraction(23, 47))]))
    scale = Fraction(10) ** draw(st.sampled_from([-200, 0, 200]))
    base = [CycloReal.from_rational(draw(_small) * scale, modulus) for _ in range(2)]
    # from a, the leg ab points along theta = 2*pi*k/modulus and the
    # hypotenuse ac, of length h, along theta + alpha*pi/2; ab has length
    # cos(alpha*pi/2) * h, so the right corner is b
    k = draw(st.integers(0, modulus - 1))
    h = draw(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)) * scale
    dx, dy = cos_pi(k, modulus // 2, modulus), sin_pi(k, modulus // 2, modulus)
    ca = cos_pi(alpha.numerator, 2 * alpha.denominator, modulus)
    sa = sin_pi(alpha.numerator, 2 * alpha.denominator, modulus)
    ex, ey = ca * dx - sa * dy, sa * dx + ca * dy
    a = Point(*base)
    b = Point(base[0] + dx * ca * h, base[1] + dy * ca * h)
    c = Point(base[0] + ex * h, base[1] + ey * h)
    vertices = [a, b, c]
    change = draw(st.sampled_from(["none", "move", "coincide"]))
    if change != "none":
        i = draw(st.integers(0, 2))
        if change == "move":
            ox, oy = _tiny_offset(modulus, draw(st.integers(0, modulus - 1)),
                                  draw(st.integers(61, 110)))
            vertices[i] = Point(vertices[i].x + ox * scale, vertices[i].y + oy * scale)
        else:
            vertices[i] = vertices[i - 1]
    expected = (alpha, Fraction(1), 1 - alpha) if change == "none" else None
    if draw(st.booleans()):
        vertices.reverse()
        expected = None
    return Triangle(*vertices), alpha, expected


@settings(max_examples=200, deadline=None)
@given(_angle_cases())
def test_filtered_angle_matches_equal_the_exact_predicate(case):
    tri, alpha, expected = case
    gammas = {Fraction(1), alpha, 1 - alpha}
    for i in range(3):
        for gamma in gammas:
            assert angle_matches(tri, i, gamma) == _exact_angle_matches(tri, i, gamma)
    if expected is not None:  # the built counterclockwise right triangle
        assert all(angle_matches(tri, i, g) for i, g in enumerate(expected))


def test_angle_matches_errors():
    tri = gen_trivial(8).triangles[0]
    with pytest.raises(DomainError):
        angle_matches(tri, 3, Fraction(1, 4))
    with pytest.raises(DomainError):
        angle_matches(tri, 0, Fraction(0))
    with pytest.raises(DomainError):
        angle_matches(tri, 0, Fraction(2))
    # cos(pi/4) needs modulus divisible by 8; 20 is not
    tri20 = Triangle(rp(0, 0, 20), rp(1, 0, 20), rp(0, 1, 20))
    with pytest.raises(ModulusError):
        angle_matches(tri20, 1, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda tri: Tiling(5, float("nan"), 20, []),
    lambda tri: Tiling(5, None, 20, []),
    lambda tri: Tiling(5, float("inf"), 20, []),
    lambda tri: angle_matches(tri, 0, "x"),
    lambda tri: angle_matches(tri, 1.0, 1),
], ids=["alpha-nan", "alpha-none", "alpha-inf", "gamma-text", "corner-float"])
def test_non_numbers_are_refused_with_domain_error(call):
    with pytest.raises(DomainError):
        call(gen_trivial(8).triangles[0])


# -- verifier on honest tilings -----------------------------------------------------


def test_verify_trivial_ledger():
    n = 8
    t = gen_trivial(n)
    rep = verify(t)
    assert rep.verdict
    assert all(rep.checks[name].status == "pass" for name in CHECK_ORDER)
    assert rep.certificate == (2 * n, 2 * n, 2 * n)
    assert len(rep.ledger) == 2 * n + 1
    by_class = {}
    for entry in rep.ledger:
        by_class.setdefault(entry.point_class.kind, []).append(entry.solution)
    assert by_class[PointKind.FREE_INTERIOR] == [VertexSolution(2 * n, 0, 0)]
    assert by_class[PointKind.POLYGON_VERTEX] == [VertexSolution(0, 2, 0)] * n
    assert by_class[PointKind.POLYGON_SIDE_INTERIOR] == [VertexSolution(0, 0, 2)] * n
    # certificate equals the ledger column sums
    sums = [sum(e.solution[i] for e in rep.ledger) for i in range(3)]
    assert tuple(sums) == rep.certificate


def test_verify_report_serialization():
    rep = verify(gen_trivial(5))
    obj = rep.to_obj()
    assert obj["verdict"] == "pass"
    assert list(obj["checks"]) == list(CHECK_ORDER)
    assert obj["certificate"] == [10, 10, 10]
    assert len(obj["ledger"]) == 11
    assert obj["ledger"][0]["class"] == "FreeInterior"
    json.dumps(obj)  # must be JSON-ready


def test_altitude_split_creates_t_joint():
    t = altitude_split(gen_trivial(8), [0])
    assert len(t.triangles) == 17
    rep = verify(t)
    assert rep.verdict
    assert rep.certificate == (17, 17, 17)
    joints = [
        e for e in rep.ledger
        if e.point_class.kind is PointKind.TRIANGLE_SIDE_INTERIOR
    ]
    assert len(joints) == 1
    assert joints[0].point_class.flat_sides == 1
    assert joints[0].solution == VertexSolution(0, 0, 2)
    sums = [sum(e.solution[i] for e in rep.ledger) for i in range(3)]
    assert tuple(sums) == rep.certificate


def test_round_trip_through_file(tmp_path):
    t = gen_trivial(7)
    path = tmp_path / "t7.json"
    save_tiling(t, str(path))
    first = path.read_bytes()
    save_tiling(t, str(path))
    assert path.read_bytes() == first  # byte-stable writer
    back = load_tiling(str(path))
    assert back == t
    assert verify(back).verdict


# sha256 over the bytes save_tiling writes for gen_trivial(n), n = 5..50,
# one file after another, as json.dump wrote them before save_tiling
# encoded a triangle at a time
TRIVIAL_5_TO_50_SHA256 = "2d413e2137c3ece6e3a1eefd06d47c15c77379d3bfdc7d2d779d973583ba14d3"


def test_saved_trivial_files_are_pinned(tmp_path):
    path = tmp_path / "t.json"
    digest = hashlib.sha256()
    for n in range(5, 51):
        save_tiling(gen_trivial(n), str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TRIVIAL_5_TO_50_SHA256


@pytest.mark.parametrize("t", [refined(8, 100, 1), Tiling(8, Fraction(1, 4), 16, ())],
                         ids=["refined", "no-triangles"])
def test_saved_file_is_the_canonical_json_text(tmp_path, t):
    path = tmp_path / "t.json"
    save_tiling(t, str(path))
    canonical = json.dumps(t.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == canonical.encode()
    assert load_tiling(str(path)) == t


def test_verifier_auditor_coherence():
    for n in (5, 8, 12):
        t = gen_trivial(n)
        assert verify(t).verdict
        verdict = impossibility_audit(n, t.alpha)
        assert verdict.outcome is Outcome.NOT_EXCLUDED


# -- verifier on mutants ---------------------------------------------------------


def test_deletion_fails_area_cover():
    t = gen_trivial(5)
    mutant = Tiling(t.n, t.alpha, t.modulus, t.triangles[1:])
    rep = verify(mutant)
    assert not rep.verdict
    assert rep.first_failure == "area_cover"
    for name in ("similarity", "containment", "non_overlap"):
        assert rep.checks[name].status == "pass"
    assert rep.checks["point_ledger"].status == "skipped"


def test_empty_tiling_fails_area_cover():
    rep = verify(Tiling(5, Fraction(2, 5), 20, []))
    assert not rep.verdict
    assert rep.first_failure == "area_cover"


REFINED_8, REFINED_12 = refined(8, 64, 1), refined(12, 64, 1)


@pytest.mark.parametrize("t, index, gap", [
    (gen_trivial(8), 3, "0.353553"),
    (REFINED_8, 5, "0.0441942"),
    (REFINED_12, 0, "0.217628"),
    (REFINED_12, 63, "0.00112182"),
])
def test_deletion_detail_text_is_unchanged(t, index, gap):
    # the texts that the shoelace sum and a CycloReal sum of twice_area gave
    mutant = Tiling(t.n, t.alpha, t.modulus, t.triangles[:index] + t.triangles[index + 1:])
    rep = verify(mutant)
    assert rep.first_failure == "area_cover"
    assert rep.checks["area_cover"].detail == (
        f"triangle areas differ from the polygon area (gap ~ {gap} in doubled-area units)")


def test_polygon_area_closed_form_equals_the_shoelace_sum():
    # area_cover's n * sin(2*pi/n), against twice the shoelace area
    for n in range(5, 61):
        base = default_modulus(n, Fraction(2, n))
        for modulus in (base, 2 * base):
            polygon = polygon_vertices(n, modulus)
            shoelace = CycloReal.zero(modulus)
            for i in range(n):
                a, b = polygon[i], polygon[(i + 1) % n]
                shoelace = shoelace + (a.x * b.y - b.x * a.y)
            assert sin_pi(2, n, modulus) * n == shoelace, (n, modulus)


def scattered(t: Tiling) -> Tiling:
    # each triangle moved by its own rational scale and shift, so that
    # the triangles' common denominators differ
    tris = []
    for k, tri in enumerate(t.triangles):
        s, d = Fraction(1, k % 5 + 2), Fraction(k % 7, 3 * (k % 4) + 1)
        tris.append(Triangle(*(Point(p.x * s + d, p.y * s - d) for p in tri.vertices)))
    return Tiling(t.n, t.alpha, t.modulus, tris)


@pytest.mark.parametrize("t", [REFINED_8, REFINED_12, scattered(REFINED_12)],
                         ids=["refined-8", "refined-12", "scattered"])
def test_area_sum_on_ints_equals_the_cyclotomic_sum(t):
    tris = [Triangle(*tri.vertices) for tri in t.triangles]  # kernels not yet filled
    got = tiling_module._twice_area_sum(tris, t.modulus)
    expected = CycloReal.zero(t.modulus)
    for tri in t.triangles:
        expected = expected + tri.twice_area()
    assert got.key() == expected.key()
    if t.n == 12:  # the 12-gon's tilings carry several denominators
        assert len({tri._kernel()[1] for tri in tris}) > 2


def test_centroid_move_fails_similarity_first():
    # moving one vertex to the triangle's centroid destroys the angles,
    # so under the fixed check order the failure surfaces at similarity
    t = gen_trivial(5)
    a, b, c = t.triangles[0].vertices
    centroid = Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
    mutant = replace_vertex(t, 0, 2, centroid)
    rep = verify(mutant)
    assert not rep.verdict
    assert rep.first_failure == "similarity"
    assert "triangle 0" in rep.checks["similarity"].detail


def test_translated_triangle_fails_containment():
    # translating a whole triangle preserves its angles, so the failure
    # surfaces at containment, not similarity
    t = gen_trivial(5)
    moved = Triangle(*(shifted(v, Fraction(2), Fraction(0))
                       for v in t.triangles[0].vertices))
    tris = list(t.triangles)
    tris[0] = moved
    rep = verify(Tiling(t.n, t.alpha, t.modulus, tris))
    assert not rep.verdict
    assert rep.first_failure == "containment"
    assert "triangle 0" in rep.checks["containment"].detail


def test_duplicated_triangle_fails_non_overlap():
    t = gen_trivial(5)
    rep = verify(Tiling(t.n, t.alpha, t.modulus, t.triangles + t.triangles[:1]))
    assert not rep.verdict
    assert rep.first_failure == "non_overlap"
    assert "10" in rep.checks["non_overlap"].detail


def test_wrong_target_fails_point_ledger(monkeypatch):
    # a genuine tiling always satisfies the ledger, so the stage is reached
    # as first failure only by demanding a wrong target for one point class
    def wrong_target(pc, n):
        target = point_target(pc, n)
        return target + 1 if pc.kind is PointKind.POLYGON_SIDE_INTERIOR else target

    monkeypatch.setattr(tiling_module, "point_target", wrong_target)
    rep = verify(gen_trivial(5))
    assert not rep.verdict
    assert rep.first_failure == "point_ledger"
    for name in CHECK_ORDER[:-1]:
        assert rep.checks[name].status == "pass"
    assert rep.checks["point_ledger"].detail == (
        "point (0.654508, 0.475528) [PolygonSideInterior]: "
        "corners (p=0, q=0, r=2) fill 2 of target 3")
    # the ledger stops at the failing point: centre, vertex 0, foot 0
    assert [str(e.point_class) for e in rep.ledger] == [
        "FreeInterior", "PolygonVertex", "PolygonSideInterior"]
    assert rep.ledger[-1].solution == VertexSolution(0, 0, 2)
    assert rep.certificate == (10, 10, 10)


@settings(max_examples=15, deadline=None)
@given(
    tri_idx=st.integers(min_value=0, max_value=15),
    v_idx=st.integers(min_value=0, max_value=2),
    num=st.integers(min_value=-4, max_value=4),
    den=st.sampled_from([16, 32, 64, 128]),
    axis=st.booleans(),
)
def test_single_vertex_perturbations_never_pass(tri_idx, v_idx, num, den, axis):
    if num == 0:
        return
    t = gen_trivial(8)
    delta = Fraction(num, den)
    pt = t.triangles[tri_idx].vertices[v_idx]
    moved = shifted(pt, delta, Fraction(0)) if axis else shifted(pt, Fraction(0), delta)
    try:
        mutant = replace_vertex(t, tri_idx, v_idx, moved)
    except StructuralError:
        return  # flipped or flattened the triangle: rejected even earlier
    rep = verify(mutant)
    assert not rep.verdict
    assert rep.first_failure in CHECK_ORDER


# -- point classification ----------------------------------------------------------


def test_classify_point_trivial():
    t = gen_trivial(8)
    center = t.triangles[0].vertices[0]
    vertex = t.triangles[0].vertices[1]
    foot = t.triangles[0].vertices[2]
    assert classify_point(center, t).kind is PointKind.FREE_INTERIOR
    assert classify_point(vertex, t).kind is PointKind.POLYGON_VERTEX
    assert classify_point(foot, t).kind is PointKind.POLYGON_SIDE_INTERIOR
    with pytest.raises(DomainError):
        classify_point(rp(0, Fraction(1, 3), t.modulus), t)


def test_classify_point_two_flat_sides():
    # P = (1/2, 0) is a vertex of the third triangle and lies interior to
    # one open side of each of the first two: k = 2, target 0
    m = 20
    t_a = Triangle(rp(0, 0, m), rp(1, 0, m), rp(0, 1, m))
    t_b = Triangle(rp(1, 0, m), rp(0, 0, m), rp(Fraction(1, 2), Fraction(-1, 2), m))
    t_c = Triangle(
        rp(Fraction(1, 2), 0, m),
        rp(Fraction(3, 4), Fraction(1, 4), m),
        rp(Fraction(1, 4), Fraction(1, 4), m),
    )
    t = Tiling(5, Fraction(2, 5), m, [t_a, t_b, t_c])
    pc = classify_point(rp(Fraction(1, 2), 0, m), t)
    assert pc.kind is PointKind.TRIANGLE_SIDE_INTERIOR
    assert pc.flat_sides == 2


def test_classify_point_equals_the_ledger_class():
    t = refined(8, 100, 1)
    rep = verify(t)
    assert rep.verdict
    kinds = Counter(e.point_class.kind for e in rep.ledger)
    assert kinds[PointKind.TRIANGLE_SIDE_INTERIOR] > 0  # T-junctions
    for entry in rep.ledger:
        assert classify_point(entry.point, t) == entry.point_class


# -- the box filter of the two quadratic stages --------------------------------------


def _quadratic_non_overlap(t: Tiling) -> "str | None":
    # the non_overlap stage without the box filter: every pair, in (i, j) order
    tris = t.triangles
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            if not triangles_interior_disjoint(tris[i], tris[j]):
                return f"triangles {i} and {j} have overlapping interiors"
    return None


def _quadratic_classify(pt: Point, t: Tiling, polygon) -> PointClass:
    # the ledger's point class without the box filter: every triangle's sides
    n = t.n
    if any(pt.key() == v.key() for v in polygon):
        return PointClass(PointKind.POLYGON_VERTEX)
    if any(on_open_segment(pt, polygon[i], polygon[(i + 1) % n]) for i in range(n)):
        return PointClass(PointKind.POLYGON_SIDE_INTERIOR)
    flat = 0
    for tri in t.triangles:
        vs = tri.vertices
        if any(on_open_segment(pt, vs[i], vs[(i + 1) % 3]) for i in range(3)):
            flat += 1
    if flat:
        return PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, flat)
    return PointClass(PointKind.FREE_INTERIOR)


@st.composite
def _filter_cases(draw):
    # the trivial tiling split at drawn triangles, which leaves
    # T-junctions, perhaps with one triangle duplicated or moved onto
    # others, or with some moved past the float range, where their boxes
    # get infinite ends
    t = gen_trivial(draw(st.sampled_from([5, 8, 12])))
    for _ in range(draw(st.integers(0, 2))):
        size = len(t.triangles)
        t = altitude_split(t, draw(st.lists(st.integers(0, size - 1), max_size=size)))
    tris = list(t.triangles)
    k = draw(st.integers(0, len(tris) - 1))
    mutant = draw(st.sampled_from(["none", "duplicate", "shift", "far"]))
    if mutant == "duplicate":
        tris.insert(draw(st.integers(0, len(tris))), tris[k])
    elif mutant == "shift":
        d = [Fraction(draw(st.integers(-8, 8)), 64) for _ in range(2)]
        tris[k] = Triangle(*(shifted(v, *d) for v in tris[k].vertices))
    elif mutant == "far":
        d = [Fraction(draw(st.sampled_from([-1, 0, 1])) * 10**400) for _ in range(2)]
        moved = draw(st.sets(st.integers(0, len(tris) - 1), min_size=1))
        tris = [Triangle(*(shifted(v, *d) for v in tri.vertices)) if i in moved else tri
                for i, tri in enumerate(tris)]
    return Tiling(t.n, t.alpha, t.modulus, tris)


@settings(max_examples=40, deadline=None)
@given(_filter_cases())
# a T-junction on the x-axis, where zero coordinates make thin boxes
@example(altitude_split(gen_trivial(8), [0]))
def test_box_filter_equals_the_quadratic_stages(t):
    run = tiling_module._VerifyRun(t, polygon_vertices(t.n, t.modulus))
    assert tiling_module._check_non_overlap(run) == _quadratic_non_overlap(t)
    points = {v.key(): v for tri in t.triangles for v in tri.vertices}
    for pt in points.values():
        assert (tiling_module._classify(pt, t, run.polygon, run.boxes)
                == _quadratic_classify(pt, t, run.polygon))


def test_verify_makes_a_linear_number_of_pair_and_side_tests(monkeypatch):
    # a quadratic pair loop makes T(T - 1)/2 = 130,816 disjointness tests
    # here, and a quadratic ledger scan more side tests still
    t = refined(8, 512, 1)
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (triangles_interior_disjoint, on_open_segment):
        monkeypatch.setattr(tiling_module, fn.__name__, counted(fn))
    assert verify(t).verdict
    size = len(t.triangles)
    assert 0 < calls["triangles_interior_disjoint"] <= 25 * size
    assert 0 < calls["on_open_segment"] <= 25 * size


# -- regularity --------------------------------------------------------------------


def test_regularity_trivial_is_empty():
    t = gen_trivial(8)
    rep = verify(t)
    assert regularity_class(t, rep) == frozenset()


def test_regularity_conditions_on_synthetic_ledger():
    t = gen_trivial(8)
    rep = verify(t)
    entries = [
        type(rep.ledger[0])(rep.ledger[0].point, rep.ledger[0].point_class, sol)
        for sol in (VertexSolution(1, 1, 2), VertexSolution(3, 3, 2))
    ]
    synthetic = VerificationReport(rep.checks, tuple(entries), rep.certificate, True)
    assert regularity_class(t, synthetic) == frozenset({"a1"})


def test_regularity_errors():
    t = gen_trivial(8)
    rep = verify(t)
    failed = verify(Tiling(t.n, t.alpha, t.modulus, t.triangles[1:]))
    with pytest.raises(DomainError):
        regularity_class(t, failed)
    half = Tiling(8, Fraction(1, 2), 16, [])
    with pytest.raises(DomainError):
        regularity_class(half, rep)


# -- structural aborts in verify -----------------------------------------------------


def test_verify_modulus_cannot_express_alpha():
    # modulus 20 holds the coordinates but not cos(pi/4), so similarity
    # could not be tested: the tiling is refused at construction
    tri = Triangle(rp(0, 0, 20), rp(1, 0, 20), rp(0, 1, 20))
    with pytest.raises(StructuralError, match="modulus 20 is not divisible by 40"):
        Tiling(5, Fraction(1, 2), 20, [tri])


# -- file format strictness ----------------------------------------------------------


def good_doc():
    return gen_trivial(5).to_obj()


def test_from_obj_round_trip():
    t = gen_trivial(5)
    assert Tiling.from_obj(good_doc()) == t


def test_from_obj_rejects_bad_documents():
    with pytest.raises(FormatError):
        Tiling.from_obj([])
    doc = good_doc()
    del doc["alpha"]
    with pytest.raises(FormatError, match="missing"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["extra"] = 1
    with pytest.raises(FormatError, match="unknown"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["format"] = "tilegate-tiling/2"
    with pytest.raises(FormatError, match="format"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["alpha"] = "0.4"
    with pytest.raises(FormatError, match="alpha"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["alpha"] = 0.4
    with pytest.raises(FormatError, match="alpha"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["n"] = "5"
    with pytest.raises(StructuralError, match="polygon parameter"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["triangles"] = {}
    with pytest.raises(FormatError):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["triangles"][0]["w"] = 1
    with pytest.raises(FormatError, match="triangle 0"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["triangles"][0]["v"] = doc["triangles"][0]["v"][:2]
    with pytest.raises(FormatError, match="three"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["triangles"][0]["v"][0] = doc["triangles"][0]["v"][0][:1]
    with pytest.raises(FormatError, match="vertex 0"):
        Tiling.from_obj(doc)
    doc = good_doc()
    doc["modulus"] = 40
    with pytest.raises(FormatError, match="modulus"):
        Tiling.from_obj(doc)


@pytest.mark.parametrize("key, value, message", [
    ("n", 4, "polygon parameter must be an integer >= 5"),
    ("modulus", 30, "modulus 30 is not divisible by 20"),
])
def test_from_obj_refuses_a_bad_header_before_any_coordinate(key, value, message):
    doc = good_doc()
    doc[key] = value
    doc["triangles"][0]["v"][0][0] = "not a scalar"
    with pytest.raises(StructuralError, match=message):
        Tiling.from_obj(doc)


def test_from_obj_structural_violation():
    doc = good_doc()
    doc["alpha"] = "3/5"
    with pytest.raises(StructuralError):
        Tiling.from_obj(doc)


@pytest.mark.parametrize("n", [5, 8, 47])
def test_from_obj_builds_one_point_per_distinct_pair(n):
    # the centre, n polygon vertices and n apothem feet
    doc = json.loads(json.dumps(gen_trivial(n).to_obj()))
    t = Tiling.from_obj(doc)
    assert len({id(v) for tri in t.triangles for v in tri.vertices}) == 2 * n + 1
    assert t == gen_trivial(n)


def test_to_obj_writes_every_coefficient_as_str_fraction():
    t = gen_trivial(9)
    expected = [
        [[{"modulus": c.modulus, "coeffs": [str(Fraction(v, c.den)) for v in c.num]}
          for c in (p.x, p.y)] for p in tri.vertices]
        for tri in t.triangles
    ]
    assert [tri["v"] for tri in t.to_obj()["triangles"]] == expected


def _malform_repeated_pair(doc, i, j, coord):
    # put coord in place of x at every occurrence of triangle i vertex j's
    # pair; return how many there are
    pair = copy.deepcopy(doc["triangles"][i]["v"][j])
    count = 0
    for tri in doc["triangles"]:
        for k, v in enumerate(tri["v"]):
            if v == pair:
                tri["v"][k] = [coord, pair[1]]
                count += 1
    return count


def test_repeated_malformed_pair_is_reported_at_its_first_occurrence():
    # polygon vertex 1 first occurs as vertex 2 of triangle 1, then again
    # in triangle 2
    doc = json.loads(json.dumps(gen_trivial(5).to_obj()))
    other_field = {"modulus": 40, "coeffs": ["0"] * 16}
    assert _malform_repeated_pair(doc, 1, 2, other_field) == 2
    with pytest.raises(FormatError) as info:
        Tiling.from_obj(doc)
    assert str(info.value) == ("triangle 1 vertex 2: coordinate modulus "
                               "differs from file modulus 20")
    doc = json.loads(json.dumps(gen_trivial(5).to_obj()))
    bad_coeff = {"modulus": 20, "coeffs": ["1/0"] + ["0"] * 7}
    assert _malform_repeated_pair(doc, 1, 2, bad_coeff) == 2
    with pytest.raises(FormatError, match="^coefficient must be .* got '1/0'$"):
        Tiling.from_obj(doc)


def per_coefficient_from_obj(doc) -> Tiling:
    # every coefficient parsed on its own, every pair its own Point
    def scalar(obj):
        return CycloReal(obj["modulus"], [parse_fraction(c, "coefficient") for c in obj["coeffs"]])
    return Tiling(doc["n"], parse_fraction(doc["alpha"], "alpha"), doc["modulus"],
                  [Triangle(*(Point(scalar(x), scalar(y)) for x, y in tri["v"]))
                   for tri in doc["triangles"]])


def test_load_builds_one_scalar_per_distinct_scalar_text(tmp_path, monkeypatch):
    # 564 scalars in 95 distinct pairs, but only 140 distinct scalar texts
    # (modulus and coefficient strings): distinct pairs share scalars,
    # the centre's 0 among them
    path = tmp_path / "t47.json"
    save_tiling(gen_trivial(47), str(path))
    scalars = [scalar for tri in json.loads(path.read_text())["triangles"]
               for pair in tri["v"] for scalar in pair]
    texts = {(scalar["modulus"], *scalar["coeffs"]) for scalar in scalars}
    assert (len(scalars), len(texts)) == (564, 140)
    from_obj = CycloReal.from_obj.__func__
    parsed = []
    loads = []  # (text, parses, distinct coefficient texts) per call

    def counting_parse(text, what):
        parsed.append(text)
        return parse_fraction(text, what)

    def counting_from_obj(cls, obj):
        before = len(parsed)
        scalar = from_obj(cls, obj)
        loads.append(((obj["modulus"], *obj["coeffs"]), len(parsed) - before,
                      len(set(obj["coeffs"]))))
        return scalar

    monkeypatch.setattr("tilegate.exact.parse_fraction", counting_parse)
    monkeypatch.setattr(CycloReal, "from_obj", classmethod(counting_from_obj))
    assert load_tiling(str(path)) == gen_trivial(47)
    assert sorted(text for text, _, _ in loads) == sorted(texts)
    assert all(parses <= distinct for _, parses, distinct in loads)


@pytest.mark.parametrize("fault", [
    lambda scalar: {**scalar, "modulus": 20.0},
    lambda scalar: {**scalar, "modulus": True},
    lambda scalar: {**scalar, "extra": 1},
    lambda scalar: {**scalar, "coeffs": [scalar["coeffs"][:1], *scalar["coeffs"][1:]]},
], ids=["float-modulus", "bool-modulus", "extra-key", "list-coefficient"])
def test_look_alike_of_a_loaded_scalar_gives_its_own_error(fault):
    # polygon vertex 0's x loads in triangle 0; its last occurrence, in
    # triangle 9, is a copy with one fault, which the loader must not
    # mistake for the scalar it resembles
    doc = json.loads(json.dumps(gen_trivial(5).to_obj()))
    good = doc["triangles"][0]["v"][1][0]
    assert doc["triangles"][9]["v"][2][0] == good
    bad = doc["triangles"][9]["v"][2][0] = fault(good)
    with pytest.raises(FormatError) as ours:
        Tiling.from_obj(doc)
    with pytest.raises(FormatError) as alone:
        CycloReal.from_obj(bad)
    assert str(ours.value) == str(alone.value)


def big_coefficient_tiling() -> Tiling:
    # gen_trivial(5) moved by (d, -d): d's denominator has 296 digits, and
    # the constant coefficient of every moved coordinate about as many
    d = Fraction(1, 7 ** 350)
    t = gen_trivial(5)
    moved = {}
    for tri in t.triangles:
        for v in tri.vertices:
            moved.setdefault(id(v), shifted(v, d, -d))
    return Tiling(5, t.alpha, t.modulus,
                  [Triangle(*(moved[id(v)] for v in tri.vertices)) for tri in t.triangles])


@pytest.mark.parametrize("t", [gen_trivial(5), gen_trivial(12), gen_trivial(47),
                               refined(8, 100, 1), big_coefficient_tiling()],
                         ids=["trivial-5", "trivial-12", "trivial-47", "refined", "300-digit"])
def test_from_obj_equals_a_per_coefficient_parse(t):
    doc = json.loads(json.dumps(t.to_obj()))
    assert Tiling.from_obj(doc) == per_coefficient_from_obj(doc) == t


@pytest.mark.parametrize("bad", ["1/0", "0.5", "x" * 400, 0, None])
def test_repeated_bad_coefficient_gives_the_per_coefficient_error(bad):
    # the bad value replaces one coefficient of x at three vertices, none
    # in triangles 0 to 2, and is reported as a parse of each would be
    doc = json.loads(json.dumps(gen_trivial(7).to_obj()))
    for i, j in ((3, 1), (5, 2), (9, 0)):
        doc["triangles"][i]["v"][j][0]["coeffs"][1] = bad
    with pytest.raises(FormatError) as ours:
        Tiling.from_obj(copy.deepcopy(doc))
    with pytest.raises(FormatError) as reference:
        per_coefficient_from_obj(doc)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value).startswith(
        "coefficient must be 'u' or 'u/v' with at most 300 ASCII digits a part "
        "and v nonzero, got ")


def test_load_tiling_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    for payload in (b"{not json",
                    b"[" * 100_000,  # RecursionError in the decoder
                    b'{"format": "\xff"}',  # not UTF-8
                    b'{"n": ' + b"9" * 5000 + b"}"):  # over int()'s digit limit
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="JSON"):
            load_tiling(str(path))
