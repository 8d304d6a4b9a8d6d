"""Tests for vertex equation enumeration and the lemma audits.

The enumeration oracle is an independent full scan over the cube
p, q, r <= ceil(S / min(a, 1-a, 1)); the small-range audit oracle
re-runs each sweep with plain Fraction arithmetic, and the sweeps over
every u/v up to max_den, which the closed-form audits replaced, are the
differential oracle for those.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilegate import vertex
from tilegate.classify import impossibility_audit
from tilegate.errors import DomainError, ResourceLimitError, TilegateError
from tilegate.vertex import (
    L5_SIZE_LIMIT,
    LEMMA4_EXCEPTIONS,
    MAX_DEN_LIMIT,
    SOLUTIONS_LIMIT,
    AngleFamily,
    AuditCase,
    AuditReport,
    PointClass,
    PointKind,
    VertexSolution,
    allowed_angles,
    audit_lemma,
    corner_families,
    enumerate_solutions,
    point_target,
)
from tilegate.vertex import _corner_solutions, _corner_target, _q_over_p


def oracle_solutions(target: Fraction, a: Fraction) -> set[tuple[int, int, int]]:
    # independent full-cube scan over the cleared-denominator equation
    d = math.lcm(a.denominator, target.denominator)
    ap, bq, cr, t = int(a * d), int((1 - a) * d), d, int(target * d)
    bound = math.ceil(target / min(a, 1 - a, Fraction(1))) + 1
    return {
        (p, q, r)
        for p in range(bound)
        for q in range(bound)
        for r in range(bound)
        if ap * p + bq * q + cr * r == t
    }


def angles(max_den=20):
    return st.fractions(
        min_value=Fraction(1, max_den), max_value=Fraction(max_den - 1, max_den),
        max_denominator=max_den,
    )


# -- enumerate_solutions --------------------------------------------------


def test_enumeration_examples():
    assert enumerate_solutions(Fraction(3, 2), Fraction(1, 4)) == (
        (0, 2, 0),
        (2, 0, 1),
        (3, 1, 0),
        (6, 0, 0),
    )
    assert enumerate_solutions(Fraction(3, 2), Fraction(1, 5)) == ()
    assert VertexSolution(0, 6, 0) in enumerate_solutions(Fraction(4), Fraction(1, 3))


@settings(max_examples=150, deadline=None)
@given(
    a=angles(),
    target=st.fractions(min_value=0, max_value=5, max_denominator=12),
)
def test_enumeration_matches_brute_force_oracle(a, target):
    got = enumerate_solutions(target, a)
    assert set(map(tuple, got)) == oracle_solutions(target, a)
    assert list(got) == sorted(got)


@settings(max_examples=100, deadline=None)
@given(a=angles(), target=st.fractions(min_value=0, max_value=5, max_denominator=12))
def test_solutions_satisfy_their_equation(a, target):
    for p, q, r in enumerate_solutions(target, a):
        assert p * a + q * (1 - a) + r == target
        assert p >= 0 and q >= 0 and r >= 0


def test_enumeration_refuses_a_target_over_the_limit():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="over the limit"):
        enumerate_solutions(Fraction(3000), Fraction(1, 3))
    assert time.perf_counter() - start < 1.0
    # the widest call the tests make: target 5 at a = 19/20
    assert (5 * 20 + 1) * (5 + 1) <= SOLUTIONS_LIMIT
    assert enumerate_solutions(Fraction(5), Fraction(19, 20))
    # a 5000-digit target fails short, not on printing the count
    with pytest.raises(ResourceLimitError) as info:
        enumerate_solutions(Fraction(10**5000), Fraction(1, 3))
    assert len(str(info.value)) < 300


def test_enumeration_domain_errors():
    with pytest.raises(DomainError):
        enumerate_solutions(Fraction(3, 2), Fraction(0))
    with pytest.raises(DomainError):
        enumerate_solutions(Fraction(3, 2), Fraction(1))
    with pytest.raises(DomainError):
        enumerate_solutions(Fraction(3, 2), Fraction(7, 5))
    with pytest.raises(DomainError):
        enumerate_solutions(Fraction(-1), Fraction(1, 4))


# -- point classes ---------------------------------------------------------


def test_point_targets():
    assert point_target(PointClass(PointKind.POLYGON_VERTEX), 8) == Fraction(3, 2)
    assert point_target(PointClass(PointKind.POLYGON_VERTEX), 5) == Fraction(6, 5)
    assert point_target(PointClass(PointKind.POLYGON_SIDE_INTERIOR), 8) == 2
    assert point_target(PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 1), 8) == 2
    assert point_target(PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 2), 17) == 0
    assert point_target(PointClass(PointKind.FREE_INTERIOR), 8) == 4
    assert point_target(PointClass(PointKind.FREE_INTERIOR), 200) == 4


def test_point_class_validation():
    with pytest.raises(DomainError):
        PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 0)
    with pytest.raises(DomainError):
        PointClass(PointKind.FREE_INTERIOR, 1)
    with pytest.raises(DomainError):
        point_target(PointClass(PointKind.FREE_INTERIOR), 4)
    assert str(PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 2)) == "TriangleSideInterior(2)"
    assert str(PointClass(PointKind.POLYGON_VERTEX)) == "PolygonVertex"


def test_value_types_keep_their_repr_hash_and_rule():
    # the repr strings are part of the interface, so they are pinned
    corner = PointClass(PointKind.POLYGON_VERTEX)
    assert repr(corner) == ("PointClass(kind=<PointKind.POLYGON_VERTEX: "
                            "'PolygonVertex'>, flat_sides=0)")
    family = corner_families(8)[0]
    assert repr(family) == "AngleFamily(numerator=Fraction(3, 2), label='(2-4/8)')"
    for a, b in ((corner, PointClass(PointKind.POLYGON_VERTEX, 0)),
                 (PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 2),
                  PointClass(kind=PointKind.TRIANGLE_SIDE_INTERIOR, flat_sides=2)),
                 (family, AngleFamily(Fraction(3, 2), "(2-4/8)"))):
        assert a == b and hash(a) == hash(b)
    flat = PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 2)
    assert flat._replace(flat_sides=3) == PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 3)
    for build in (lambda: flat._replace(flat_sides=0),
                  lambda: corner._replace(flat_sides=1),
                  lambda: corner._replace(kind=PointKind.TRIANGLE_SIDE_INTERIOR),
                  lambda: PointClass._make((PointKind.FREE_INTERIOR, 1)),
                  lambda: PointClass(PointKind.TRIANGLE_SIDE_INTERIOR)):
        with pytest.raises(DomainError):
            build()


# -- corner families --------------------------------------------------------


def test_corner_families_examples():
    f1, f2 = corner_families(8)
    assert (f1.numerator, f2.numerator) == (Fraction(3, 2), Fraction(1, 2))
    f1, f2 = corner_families(5)
    assert (f1.numerator, f2.numerator) == (Fraction(6, 5), Fraction(1, 5))
    f1, f2 = corner_families(12)
    assert (f1.numerator, f2.numerator) == (Fraction(5, 3), Fraction(2, 3))
    with pytest.raises(DomainError):
        corner_families(4)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=5, max_value=200), s=st.integers(min_value=1, max_value=50))
def test_family_membership_round_trip(n, s):
    for family in corner_families(n):
        assert family.parameter_for(family.numerator / s) == s


def test_family_non_membership():
    f1, f2 = corner_families(28)
    assert f2.parameter_for(Fraction(3, 7)) == 2
    assert f1.parameter_for(Fraction(3, 7)) is None
    assert f2.instance_label(2) == "(1-4/28)/2"
    assert f1.parameter_for(Fraction(0)) is None
    # s would be below 1
    assert f2.parameter_for(Fraction(12, 7)) is None


def test_allowed_angles():
    assert allowed_angles(8) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
    assert allowed_angles(5) == (Fraction(2, 5), Fraction(4, 5), Fraction(3, 5))
    assert allowed_angles(14) == (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))


# -- corner outcomes ---------------------------------------------------------


def corner_step(n: int, a: Fraction) -> str:
    # the corner analysis is the first step of every audit trace for a < 1/2
    return impossibility_audit(n, a).trace[0].kind


def test_corner_outcome_examples():
    assert corner_step(8, Fraction(1, 8)) == "corner_strict"
    assert corner_step(8, Fraction(1, 5)) == "corner_unsolvable"
    assert corner_step(8, Fraction(1, 4)) == "corner_violation"


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=5, max_value=60), a=angles())
def test_corner_outcome_consistent_with_enumeration(n, a):
    if not 0 < a < Fraction(1, 2):
        a = Fraction(1, 3 + a.denominator)
    sols = enumerate_solutions(2 - Fraction(4, n), a)
    if not sols:
        assert corner_step(n, a) == "corner_unsolvable"
    elif all(s.p > s.q for s in sols):
        assert corner_step(n, a) == "corner_strict"
    else:
        assert corner_step(n, a) == "corner_violation"


def test_lemma3_family_members_never_violate():
    # a = 3/(2s) inside (0,1/2) must give AllStrict or NoSolutions for
    # S=3/2 -- except s=6, where the member is the excluded value 1/4
    for s in range(2, 101):
        a = Fraction(3, 2 * s)
        if not 0 < a < Fraction(1, 2) or a == Fraction(1, 4):
            continue
        sols = enumerate_solutions(Fraction(3, 2), a)
        assert all(sol.p > sol.q for sol in sols)
    assert corner_step(8, Fraction(3, 12)) == "corner_violation"


# -- audits -------------------------------------------------------------------


def naive_audit_l3(max_den):
    bad = []
    for v in range(3, max_den + 1):
        for u in range(1, v):
            a = Fraction(u, v)
            if a.denominator != v or not a < Fraction(1, 2) or a == Fraction(1, 4):
                continue
            sols = enumerate_solutions(Fraction(3, 2), a)
            for s in sols:
                if s.p <= s.q:
                    bad.append((a, s))
            if sols and (Fraction(3, 2) / a).denominator != 1:
                bad.append((a, None))
    return bad


def naive_audit_l4(max_den, exceptions=LEMMA4_EXCEPTIONS):
    bad = []
    for v in range(3, max_den + 1):
        for u in range(1, v):
            a = Fraction(u, v)
            if a.denominator != v or not a < Fraction(1, 2) or a in exceptions:
                continue
            for s in enumerate_solutions(Fraction(4), a):
                if s.p < s.q:
                    bad.append((a, s))
    return bad


def naive_audit_l5(ns, max_den):
    bad = []
    for n in ns:
        allowed = set(allowed_angles(n))
        f1, f2 = corner_families(n)
        for v in range(3, max_den + 1):
            for u in range(1, v):
                a = Fraction(u, v)
                if a.denominator != v or not a < Fraction(1, 2) or a in allowed:
                    continue
                sols = enumerate_solutions(2 - Fraction(4, n), a)
                for s in sols:
                    if s.p <= s.q:
                        bad.append((n, a, s))
                if sols and f1.parameter_for(a) is None and f2.parameter_for(a) is None:
                    bad.append((n, a, None))
    return bad


def test_audit_l3_small_range_matches_naive():
    report = audit_lemma("L3", max_den=40)
    assert report.passed
    assert naive_audit_l3(40) == []
    assert [tuple(w.solution) for w in report.witnesses] == [(0, 2, 0)]


def test_audit_l4_small_range_matches_naive():
    report = audit_lemma("L4", max_den=40)
    assert report.passed
    assert naive_audit_l4(40) == []
    assert len(report.witnesses) == 5
    witnessed = {w.a: w.solution for w in report.witnesses}
    assert set(witnessed) == set(LEMMA4_EXCEPTIONS)
    for a, sol in witnessed.items():
        assert sol.q > sol.p
        assert sol.p * a + sol.q * (1 - a) + sol.r == 4


@pytest.mark.parametrize("kept", [
    frozenset(),
    frozenset({Fraction(1, 4), Fraction(2, 5)}),
    LEMMA4_EXCEPTIONS - {Fraction(3, 7)},
], ids=["none", "two", "four"])
def test_audit_l4_reports_planted_counterexamples(kept, monkeypatch):
    # with fewer exceptions listed, each dropped one shows its q > p
    # solutions as counterexamples, the same ones the naive sweep finds
    monkeypatch.setattr("tilegate.vertex.LEMMA4_EXCEPTIONS", kept)
    report = audit_lemma("L4", max_den=40)
    got = [(case.a, case.solution) for case in report.counterexamples]
    assert got == sorted(naive_audit_l4(40, kept))
    assert {a for a, _ in got} == LEMMA4_EXCEPTIONS - kept
    assert {w.a for w in report.witnesses} == kept


def test_audit_l4_reports_a_listed_exception_without_q_over_p(monkeypatch):
    monkeypatch.setattr("tilegate.vertex.LEMMA4_EXCEPTIONS", LEMMA4_EXCEPTIONS | {Fraction(1, 7)})
    report = audit_lemma("L4", max_den=40)
    assert report.counterexamples == (
        AuditCase(Fraction(1, 7), None, None, "listed exception admits no q > p"),)
    assert len(report.witnesses) == 5


def test_audit_l5_small_range_matches_naive():
    report = audit_lemma("L5", ns=range(5, 40), max_den=25)
    assert report.passed
    assert naive_audit_l5(range(5, 40), 25) == []


def test_audit_l6_passes_away_from_28():
    ns = [n for n in range(5, 120) if n != 28]
    report = audit_lemma("L6", ns=ns)
    assert report.passed
    # membership pairs the paper proof pins down, e.g. a=1/3 at n=12
    hits = {(w.n, w.a) for w in report.witnesses}
    assert (12, Fraction(1, 3)) in hits
    assert (20, Fraction(2, 5)) in hits


def test_audit_l6_counterexample_at_28():
    report = audit_lemma("L6", ns=[28])
    assert not report.passed
    assert len(report.counterexamples) == 1
    case = report.counterexamples[0]
    assert case.n == 28 and case.a == Fraction(3, 7)
    assert "(1-4/28)/2" in case.detail


def test_audit_dispatcher_errors():
    with pytest.raises(DomainError):
        audit_lemma("L3")
    with pytest.raises(DomainError):
        audit_lemma("L3", max_den=2)
    with pytest.raises(DomainError):
        audit_lemma("L5", max_den=10)
    with pytest.raises(DomainError):
        audit_lemma("L6", ns=[])
    for ns in ([4], [5.5, 6], [6, "7"], [True, 6]):
        with pytest.raises(DomainError):
            audit_lemma("6", ns=ns)
    with pytest.raises(DomainError):
        audit_lemma("L7", max_den=10)


def test_audit_max_den_limit():
    for lemma, ns in (("L3", None), ("L4", None), ("L5", [5])):
        for max_den in (MAX_DEN_LIMIT + 1, 10 ** 4000):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError):
                audit_lemma(lemma, max_den=max_den, ns=ns)
            assert time.perf_counter() - start < 1.0


def test_audit_l5_size_limit():
    # six n values at the max_den cap are over len(ns) * max_den**2 <=
    # L5_SIZE_LIMIT, and are refused before any angle is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=str(L5_SIZE_LIMIT)):
        audit_lemma("L5", max_den=MAX_DEN_LIMIT, ns=range(5, 11))
    assert time.perf_counter() - start < 1.0
    # repeated n values count once
    assert audit_lemma("L5", max_den=100, ns=[8] * 5000).passed


def test_audit_report_serialization():
    report = audit_lemma("L6", ns=[28])
    obj = report.to_obj()
    assert obj["lemma"] == "L6"
    assert obj["passed"] is False
    assert obj["counterexamples"][0]["a"] == "3/7"
    assert obj["counterexamples"][0]["n"] == 28
    report = audit_lemma("L3", max_den=20)
    obj = report.to_obj()
    assert obj["passed"] is True and obj["counterexamples"] == []
    assert obj["witnesses"][0]["solution"] == [0, 2, 0]


# -- the integer arithmetic against the Fraction forms it replaced ----------


def fraction_enumerate_solutions(target, a):
    # enumerate_solutions as it stood with Fraction products
    a = Fraction(a)
    target = Fraction(target)
    if not 0 < a < 1:
        raise DomainError("a")
    if target < 0:
        raise DomainError("target")
    scale = math.lcm(a.denominator, target.denominator)
    a_coef, b_coef, total = int(a * scale), int((1 - a) * scale), int(target * scale)
    if (total // b_coef + 1) * (total // scale + 1) > SOLUTIONS_LIMIT:
        raise ResourceLimitError("pairs")
    out = []
    for q in range(total // b_coef + 1):
        rem = total - b_coef * q
        for r in range(rem // scale + 1):
            rest = rem - scale * r
            if rest % a_coef == 0:
                out.append(VertexSolution(rest // a_coef, q, r))
    return tuple(sorted(out))


def outcome(fn, *args):
    try:
        return fn(*args)
    except TilegateError as exc:
        return type(exc)


HUGE = st.integers(min_value=1, max_value=10 ** 60)


@settings(max_examples=300, deadline=None)
@given(
    target=st.one_of(
        st.fractions(min_value=-1, max_value=6, max_denominator=30),
        st.builds(Fraction, st.integers(min_value=-(10 ** 60), max_value=10 ** 60), HUGE),
        st.builds(lambda k, d: Fraction(k, d), st.integers(0, 40), HUGE),
    ),
    a=st.one_of(angles(), st.builds(lambda u, w: Fraction(u, u + w), HUGE, HUGE)),
)
def test_integer_enumeration_matches_the_fraction_form(target, a):
    assert outcome(enumerate_solutions, target, a) == outcome(fraction_enumerate_solutions, target, a)


def test_non_numbers_raise_domain_error():
    with pytest.raises(DomainError):
        impossibility_audit(7, float("nan"))
    with pytest.raises(DomainError):
        enumerate_solutions(float("inf"), Fraction(1, 3))
    with pytest.raises(DomainError):
        enumerate_solutions(Fraction(1), None)
    with pytest.raises(DomainError):
        impossibility_audit(7, "1/0")
    for lemma, ns, max_den in (("3", None, 100.0), ("5", [5], "7"), ("4", None, True)):
        with pytest.raises(DomainError):
            audit_lemma(lemma, ns=ns, max_den=max_den)
    # a short message, not a ValueError from printing 5000 digits
    with pytest.raises(DomainError) as info:
        audit_lemma("3", max_den=-(10 ** 5000))
    assert len(str(info.value)) < 100


# -- the audits visit only the (q, r) that can be reported -----------------


def scaled(target, a):
    # the coefficients of p*a + q*(1-a) + r = target with denominators cleared
    d = math.lcm(a.denominator, target.denominator)
    return int(a * d), int((1 - a) * d), d, int(target * d)


def violators(a_coef, b_coef, c_coef, total, strict=None):
    # the (p, q, r) >= 0 with a_coef*p + b_coef*q + c_coef*r == total, for
    # a_coef + b_coef == c_coef: every one (strict None), or those with
    # p < q (strict) or p <= q.  For the rest m = total - c_coef*r the
    # equation reads c_coef*q - m = a_coef*(q - p), so p < q exactly when
    # c_coef*q > m, p <= q exactly when c_coef*q >= m, and p >= 0 exactly
    # when b_coef*q <= m: only the q between those bounds are visited
    out = []
    for r in range(total // c_coef + 1):
        rem = total - c_coef * r
        lo = 0 if strict is None else rem // c_coef + 1 if strict else -(-rem // c_coef)
        for q in range(lo, rem // b_coef + 1):
            rest = rem - b_coef * q
            if rest % a_coef == 0:
                out.append((rest // a_coef, q, r))
    return out


@settings(max_examples=400, deadline=None)
@given(
    a=angles(40),
    target=st.one_of(
        st.sampled_from([Fraction(4), Fraction(3, 2)]),
        st.integers(1, 300).map(lambda n: 2 - Fraction(4, n)),
        st.fractions(min_value=0, max_value=8, max_denominator=30),
    ),
)
def test_violator_windows_are_the_enumeration_and_its_filters(a, target):
    # a runs over (0, 1), past the a < 1/2 the audits sweep; targets below 0
    # (2 - 4/n at n = 1) have no solutions.  The unfiltered window is the
    # whole enumeration
    sols = enumerate_solutions(target, a) if target >= 0 else ()
    coefs = scaled(target, a)
    assert tuple(map(VertexSolution._make, sorted(violators(*coefs)))) == sols
    assert sorted(violators(*coefs, strict=True)) == [tuple(s) for s in sols if s.p < s.q]
    assert sorted(violators(*coefs, strict=False)) == [tuple(s) for s in sols if s.p <= s.q]


def test_one_corner_target():
    # the polygon vertex's target, the first corner family's numerator and
    # the audit's corner_target text are one fraction, 2 - 4/n in lowest terms
    corner = PointClass(PointKind.POLYGON_VERTEX)
    for n in range(5, 401):
        target = 2 - Fraction(4, n)
        assert point_target(corner, n) == target
        assert corner_families(n)[0].numerator == target
        data = impossibility_audit(n, Fraction(1, 2)).trace[0].data
        assert data["corner_target"] == str(target)


def test_violator_windows_of_the_lemmas():
    # the (q, r) the module docstring lists are the ones reported over
    # every a < 1/2 with v <= 60, the excluded and exceptional a included
    def pairs(target, strict):
        seen = set()
        for v in range(3, 61):
            for u in range(1, (v + 1) // 2):
                seen |= {(q, r) for _, q, r in violators(*scaled(target, Fraction(u, v)), strict)}
        return seen
    assert pairs(Fraction(4), True) == {(5, 0), (6, 0), (7, 0), (4, 1), (5, 1), (3, 2)}
    assert pairs(Fraction(3, 2), False) == {(2, 0)}
    assert set().union(*(pairs(2 - Fraction(4, n), False) for n in range(5, 61))) == {
        (2, 0), (3, 0), (1, 1)}


# -- L5 visits only the denominators that can carry a corner solution ------


def test_corner_equation_needs_n_to_divide_4v():
    # independent of the audit loop: every coefficient of
    # n*(p*u + q*(v-u) + r*v) = (2n-4)*v is a multiple of n
    for n in range(5, 61):
        target = 2 - Fraction(4, n)
        for v in range(2, 61):
            if 4 * v % n == 0:
                continue
            for u in range(1, v):
                if math.gcd(u, v) == 1:
                    assert enumerate_solutions(target, Fraction(u, v)) == ()


def full_sweep_audit_l5(ns, max_den, pairs=None):
    # the L5 sweep as it stood before it skipped denominators: every
    # (u, v) in pairs, by default every reduced u/v < 1/2, for every n
    if pairs is None:
        pairs = [(u, v) for v in range(3, max_den + 1) for u in range(1, (v - 1) // 2 + 1)
                 if math.gcd(u, v) == 1]
    bad = []
    for n in ns:
        for u, v in pairs:
            if u * n == 2 * v or u * n == 4 * v or 3 * n * u == (n + 4) * v:
                continue
            total = (2 * n - 4) * v
            a_coef = n * u
            b_coef = n * (v - u)
            c_coef = n * v
            any_sol = False
            for q in range(total // b_coef + 1):
                rem = total - b_coef * q
                for r in range(rem // c_coef + 1):
                    rest = rem - c_coef * r
                    if rest % a_coef == 0:
                        any_sol = True
                        p = rest // a_coef
                        if p <= q:
                            bad.append(AuditCase(Fraction(u, v), n, VertexSolution(p, q, r), "p <= q"))
            in_family_1 = total % a_coef == 0
            in_family_2 = ((n - 4) * v) % a_coef == 0
            if any_sol and not in_family_1 and not in_family_2:
                bad.append(AuditCase(Fraction(u, v), n, None, "a is in neither corner family"))
    return AuditReport(
        "L5",
        {"n": [ns[0], ns[-1]], "max_den": max_den, "target": "2-4/n"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        (),
    )


@pytest.mark.parametrize("ns, max_den", [
    (range(5, 201), 100),
    ([28], 400),
    (range(8, 41, 4), 400),
    ([2 ** 52 + 3, 2 ** 61 + 1, 10 ** 30], 60),
])
def test_audit_l5_matches_the_full_sweep(ns, max_den):
    start = time.perf_counter()
    report = audit_lemma("L5", ns=ns, max_den=max_den)
    assert time.perf_counter() - start < 1.0
    assert report.to_obj() == full_sweep_audit_l5(sorted(set(ns)), max_den).to_obj()


# -- the closed form against the sweeps it replaced ---------------------------


def reduced_angles(max_den):
    # all u/v in lowest terms with 0 < u/v < 1/2, v <= max_den
    return [(u, v) for v in range(3, max_den + 1) for u in range(1, (v - 1) // 2 + 1)
            if math.gcd(u, v) == 1]


def sweep_audit_l3(max_den, pairs=None):
    # the L3 audit as a sweep over every (u, v) in pairs, by default every
    # reduced u/v < 1/2 up to max_den
    bad = []
    for u, v in reduced_angles(max_den) if pairs is None else pairs:
        if 4 * u == v:
            continue
        # 3/2 = p u/v + q (v-u)/v + r, scaled by 2v
        coefs = (2 * u, 2 * (v - u), 2 * v, 3 * v)
        of_form = (3 * v) % (2 * u) == 0
        if of_form or violators(*coefs):
            a = Fraction(u, v)
            for sol in violators(*coefs, strict=False):
                bad.append(AuditCase(a, None, VertexSolution._make(sol), "p <= q"))
            if not of_form:
                bad.append(AuditCase(a, None, None, "a is not of the form 3/(2s)"))
    witnesses = [AuditCase(Fraction(1, 4), None, VertexSolution._make(sol),
                           "q > p at excluded a = 1/4")
                 for sol in violators(2, 6, 8, 12, strict=True)]
    return AuditReport(
        "L3",
        {"max_den": max_den, "a": "(0,1/2) minus {1/4}", "target": "3/2"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(sorted(witnesses, key=AuditCase.sort_key)),
    )


def sweep_audit_l4(max_den):
    bad = []
    # the listed exceptions as they stand at call time
    exceptions = sorted(vertex.LEMMA4_EXCEPTIONS)
    skipped = {(e.numerator, e.denominator) for e in exceptions}
    for u, v in reduced_angles(max_den):
        if (u, v) in skipped:
            continue
        # 4 = p u/v + q (v-u)/v + r, scaled by v
        for sol in violators(u, v - u, v, 4 * v, strict=True):
            bad.append(AuditCase(Fraction(u, v), None, VertexSolution._make(sol), "q > p"))
    witnesses = []
    for e in exceptions:
        u, v = e.numerator, e.denominator
        violating = violators(u, v - u, v, 4 * v, strict=True)
        if violating:
            witnesses.append(AuditCase(
                e, None, VertexSolution._make(min(violating)), f"q > p at exceptional a = {e}"))
        else:
            bad.append(AuditCase(e, None, None, "listed exception admits no q > p"))
    return AuditReport(
        "L4",
        {"max_den": max_den, "a": "(0,1/2) minus exceptions", "target": "4"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(witnesses),
    )


def sweep_audit_l5(ns, max_den, pairs=None):
    # the L5 audit as a sweep over the (u, v) in pairs, by default every
    # reduced u/v < 1/2 up to max_den, visiting at each n only the v that
    # n // gcd(n, 4) divides
    numerators = {}
    for u, v in reduced_angles(max_den) if pairs is None else pairs:
        numerators.setdefault(v, []).append(u)
    bad = []
    for n in ns:
        step = n // math.gcd(n, 4)
        for v in range(step, max_den + 1, step):
            # 2 - 4/n = p u/v + q (v-u)/v + r, scaled by n*v
            total = (2 * n - 4) * v
            c_coef = n * v
            for u in numerators.get(v, ()):
                if u * n == 2 * v or u * n == 4 * v or 3 * n * u == (n + 4) * v:
                    continue
                a_coef = n * u
                b_coef = c_coef - a_coef
                in_family = total % a_coef == 0 or (n - 4) * v % a_coef == 0
                if in_family or violators(a_coef, b_coef, c_coef, total):
                    a = Fraction(u, v)
                    for sol in violators(a_coef, b_coef, c_coef, total, strict=False):
                        bad.append(AuditCase(a, n, VertexSolution._make(sol), "p <= q"))
                    if not in_family:
                        bad.append(AuditCase(a, n, None, "a is in neither corner family"))
    return AuditReport(
        "L5",
        {"n": [ns[0], ns[-1]], "max_den": max_den, "target": "2-4/n"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        (),
    )


def sweep_audit_l6(ns):
    # the L6 audit at every n of the range
    ns = sorted(set(ns))
    bad, witnesses = [], []
    exceptions = sorted(vertex.LEMMA4_EXCEPTIONS)
    for n in ns:
        allowed = set(allowed_angles(n))
        for e in exceptions:
            for family in corner_families(n):
                s = family.parameter_for(e)
                if s is not None:
                    case = AuditCase(e, n, None, f"family {family.instance_label(s)}")
                    (witnesses if e in allowed or 1 - e in allowed else bad).append(case)
    return AuditReport(
        "L6",
        {"n": [ns[0], ns[-1]], "exceptional": [str(e) for e in exceptions]},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(sorted(witnesses, key=AuditCase.sort_key)),
    )


def test_audit_l3_and_l4_equal_the_sweeps():
    for max_den in [*range(3, 61), 100, 200, 2000]:
        assert audit_lemma("L3", max_den=max_den) == sweep_audit_l3(max_den)
        assert audit_lemma("L4", max_den=max_den) == sweep_audit_l4(max_den)


def test_audit_l5_equals_the_sweep():
    ns = list(range(5, 201))
    for max_den in [*range(3, 61), 100, 200]:
        assert audit_lemma("L5", ns=ns, max_den=max_den) == sweep_audit_l5(ns, max_den)


@pytest.mark.parametrize("planted", [
    None,
    frozenset({Fraction(1, 9), Fraction(2, 11), Fraction(5, 12), Fraction(7, 30)}),
], ids=["listed", "planted"])
def test_audit_l6_equals_the_sweep(planted, monkeypatch):
    # the bound on n holds for the listed exceptions and for others
    if planted is not None:
        monkeypatch.setattr("tilegate.vertex.LEMMA4_EXCEPTIONS", LEMMA4_EXCEPTIONS | planted)
    for ns in (range(5, 5000), [8], [28, 10 ** 30], range(29, 200), range(200, 4, -3),
               range(5, 200, 7)):
        assert audit_lemma("L6", ns=ns) == sweep_audit_l6(ns)
    if planted is None:
        visited = {case.n for case in audit_lemma("L6", ns=range(5, 5000)).witnesses}
        assert visited | {28} == {5, 6, 7, 8, 10, 12, 14, 16, 20, 28}


def check_closed_form_at(target, a, found):
    # a is in the set exactly when it has a solution p < q, with the same
    # solutions; off the integers these are also the solutions p <= q
    sols = enumerate_solutions(target, a)
    got = found.get((a.numerator, a.denominator), [])
    assert got == [tuple(s) for s in sols if s.p < s.q]
    if target.denominator > 1:
        assert got == [tuple(s) for s in sols if s.p <= s.q]
    else:
        # the precondition: p = q = S - r solves every a at an integer S
        assert {tuple(s) for s in sols if s.p == s.q} == {
            (target - r, target - r, r) for r in range(int(target) + 1)}


def closed_form(target):
    # the set at target, each key checked to be a reduced u/v < 1/2 whose
    # v is below 2t, as a = (q - S + r)/(q - p) with q - p < 2S makes it
    t = target.numerator
    found = _q_over_p(t, target.denominator)
    for u, v in found:
        assert 0 < 2 * u < v < 2 * t and math.gcd(u, v) == 1
    return found


@settings(max_examples=300, deadline=None)
@given(target=st.fractions(min_value=0, max_value=7, max_denominator=12), data=st.data())
def test_closed_form_is_the_enumeration_filtered(target, data):
    found = closed_form(target)
    members = [Fraction(u, v) for u, v in found]
    bound = max(3, 2 * target.numerator)
    a = data.draw(st.one_of(
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=bound)
        .filter(lambda a: 0 < a < Fraction(1, 2)),
        *([st.sampled_from(members)] if members else [])))
    check_closed_form_at(target, a, found)


def test_closed_form_lists_every_angle_of_small_targets():
    # every a < 1/2 that can be a member, for each t/d <= 3 with d <= 6
    for d in range(1, 7):
        for t in range(3 * d + 1):
            if math.gcd(t, d) == 1:
                target = Fraction(t, d)
                found = closed_form(target)
                for v in range(3, 2 * t):
                    for u in range(1, (v + 1) // 2):
                        if math.gcd(u, v) == 1:
                            check_closed_form_at(target, Fraction(u, v), found)


def test_closed_form_sets_of_l3_and_l4():
    assert _q_over_p(3, 2) == {(1, 4): [(0, 2, 0)]}
    assert {Fraction(u, v) for u, v in _q_over_p(4, 1)} == LEMMA4_EXCEPTIONS


def test_corner_solutions_equal_the_enumeration():
    # the per-target table and the three p > q forms give every corner solution
    _q_over_p.cache_clear()
    for n in range(5, 61):
        target = 2 - Fraction(4, n)
        t, d = _corner_target(n)
        for v in range(3, 121):
            for u in range(1, (v + 1) // 2):
                if math.gcd(u, v) == 1:
                    assert _corner_solutions(t, d, u, v) == enumerate_solutions(
                        target, Fraction(u, v)), (n, u, v)
    assert _q_over_p.cache_info().currsize == 56


def test_one_table_serves_every_classification_path():
    # L5 builds one table per n; the impossibility audit at the same n and
    # a repeated L3 or L4 audit read the cached tables, each audit once,
    # and build none
    _q_over_p.cache_clear()
    audit_lemma("L5", ns=range(5, 41), max_den=40)
    assert _q_over_p.cache_info().misses == 36
    audits = 0
    for n in range(5, 41):
        for v in range(3, 41):
            for u in range(1, (v + 1) // 2):
                if math.gcd(u, v) == 1:
                    impossibility_audit(n, Fraction(u, v))
                    audits += 1
    assert _q_over_p.cache_info()[:2] == (audits, 36)
    audit_lemma("L3", max_den=40)
    audit_lemma("L4", max_den=40)
    hits, misses = _q_over_p.cache_info()[:2]
    audit_lemma("L3", max_den=2000)
    audit_lemma("L4", max_den=2000)
    assert _q_over_p.cache_info()[:2] == (hits + 2, misses)


def test_audit_l5_skips_only_unsolvable_denominators_below_5():
    # Lemma 5 holds from n = 5 on, so its reports there are empty.  Below 5
    # the corner equation has solutions with p <= q at many u/v, odd and
    # even v alike, so these reports are long and show every v the sweep
    # visits (n = 4 and 2 take every v, n = 3 every third).
    for n in (1, 2, 3, 4):
        report = sweep_audit_l5([n], 60)
        assert report.to_obj() == full_sweep_audit_l5([n], 60).to_obj()
        if n > 1:
            assert report.counterexamples


def every_angle_pair(max_den):
    return [(u, v) for v in range(2, max_den + 1) for u in range(1, v)]


def test_audit_l5_visits_every_solvable_denominator():
    # Over every u/v < 1, reduced or not, the corner equation has
    # solutions with p <= q from n = 5 on as well, so with the sweep fed
    # every pair the reports show which v it visits at each n
    pairs = every_angle_pair(40)
    assert {case.a.denominator for case in sweep_audit_l5([9], 40, pairs).counterexamples} == {
        9, 18, 27, 36}
    for n in range(5, 41):
        report = sweep_audit_l5([n], 40, pairs)
        assert report.counterexamples
        assert report.to_obj() == full_sweep_audit_l5([n], 40, pairs).to_obj()


def test_closed_form_reports_every_pair_it_is_fed(monkeypatch):
    # the L3 and L5 reports, fed in place of the closed form every u/v < 1,
    # reduced or not, with its solutions p <= q, are the sweeps' reports
    # over the same pairs: counterexamples and all
    pairs = every_angle_pair(40)

    def every_pair(t, d):
        found = {}
        for u, v in pairs:
            sols = enumerate_solutions(Fraction(t, d), Fraction(u, v))
            if any(s.p <= s.q for s in sols):
                found[(u, v)] = [tuple(s) for s in sols if s.p <= s.q]
        return found

    monkeypatch.setattr("tilegate.vertex._q_over_p", every_pair)
    report = audit_lemma("L3", max_den=24)
    assert (Fraction(5, 8), None) in [(case.a, case.solution) for case in report.counterexamples]
    assert report == sweep_audit_l3(24, every_angle_pair(24))
    details = set()
    for n in range(5, 41):
        for max_den in {40, max(3, n // math.gcd(n, 4))}:
            report = audit_lemma("L5", ns=[n], max_den=max_den)
            assert report == sweep_audit_l5([n], max_den, pairs)
            details |= {case.detail for case in report.counterexamples}
    assert details == {"p <= q", "a is in neither corner family"}


def test_audit_l3_reports_every_pair_it_is_fed():
    # Lemma 3 holds on the reduced a < 1/2, so its reports there are empty;
    # fed every u/v < 1, the sweep must report what a full enumeration
    # finds, the "not of the form 3/(2s)" cases included (a = 5/8: (0, 4, 0))
    expected = []
    for u, v in every_angle_pair(24):
        if 4 * u == v:
            continue
        a = Fraction(u, v)
        sols = enumerate_solutions(Fraction(3, 2), a)
        expected += [(a, s) for s in sols if s.p <= s.q]
        if sols and (Fraction(3, 2) / a).denominator != 1:
            expected.append((a, None))
    report = sweep_audit_l3(24, every_angle_pair(24))
    got = [(case.a, case.solution) for case in report.counterexamples]
    assert (Fraction(5, 8), None) in got
    assert got == sorted(expected, key=lambda c: (c[0], c[1] or VertexSolution(0, 0, 0)))
