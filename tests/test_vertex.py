"""Tests for vertex equation enumeration and the lemma audits.

The enumeration oracle is an independent full scan over the cube
p, q, r <= ceil(S / min(a, 1-a, 1)); the small-range audit oracle
re-runs each sweep with plain Fraction arithmetic.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tilegate.vertex import _audit_l5


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


def naive_audit_l4(max_den):
    bad = []
    for v in range(3, max_den + 1):
        for u in range(1, v):
            a = Fraction(u, v)
            if a.denominator != v or not a < Fraction(1, 2) or a in LEMMA4_EXCEPTIONS:
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


def full_sweep_audit_l5(ns, max_den):
    # the L5 sweep as it stood before it skipped denominators: every
    # reduced u/v < 1/2 for every n
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


def test_audit_l5_skips_only_unsolvable_denominators_below_5():
    # Lemma 5 holds from n = 5 on, so its reports there are empty.  Below 5
    # the corner equation has solutions with p <= q at many u/v, odd and
    # even v alike, so these reports are long and show every v the sweep
    # visits (n = 4 and 2 take every v, n = 3 every third).
    for n in (1, 2, 3, 4):
        report = _audit_l5([n], 60)
        assert report.to_obj() == full_sweep_audit_l5([n], 60).to_obj()
        if n > 1:
            assert report.counterexamples
