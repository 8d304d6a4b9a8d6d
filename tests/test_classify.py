"""Tests for the candidate classification and the impossibility audit."""
from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilegate.classify import (
    Outcome,
    Provenance,
    TraceStep,
    Verdict,
    alpha_str,
    candidates,
    impossibility_audit,
)
from tilegate.cli import _emit_json, main
from tilegate.errors import DomainError
from tilegate.vertex import (
    allowed_angles,
    audit_lemma,
    corner_families,
    enumerate_solutions,
)


def test_alpha_rendering():
    assert alpha_str(Fraction(2, 5)) == "pi/5"
    assert alpha_str(Fraction(1, 4)) == "pi/8"
    assert alpha_str(Fraction(1, 2)) == "pi/4"
    assert alpha_str(Fraction(4, 9)) == "2pi/9"
    assert alpha_str(Fraction(3, 5)) == "3pi/10"
    assert alpha_str(Fraction(2, 26)) == "pi/26"
    assert alpha_str(Fraction(2)) == "pi"


# -- candidates -------------------------------------------------------------


def test_candidates_examples():
    c8 = candidates(8)
    assert c8.provenance is Provenance.COROLLARY_8GON
    assert c8.angles() == (Fraction(1, 4), Fraction(1, 2))
    assert all(c.feasible for c in c8.candidates)

    c26 = candidates(26)
    assert c26.provenance is Provenance.THEOREM_1
    assert c26.angles() == (Fraction(1, 13),)

    c9 = candidates(9)
    assert c9.provenance is Provenance.COROLLARY_N9
    assert c9.angles() == (Fraction(2, 9), Fraction(4, 9))

    c5 = candidates(5)
    assert c5.provenance is Provenance.THEOREM_2
    assert c5.angles() == (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    assert [c.feasible for c in c5.candidates] == [True, False, False]

    for bad in (4, 8.0, "8", True):
        with pytest.raises(DomainError):
            candidates(bad)


def test_candidates_piecewise_table():
    for n in range(5, 201):
        cs = candidates(n)
        if n >= 25 and n not in (30, 42):
            assert cs.provenance is Provenance.THEOREM_1
            assert cs.angles() == (Fraction(2, n),)
        elif n in (30, 42) or (9 <= n <= 24 and n not in (12, 14, 20)):
            assert cs.provenance is Provenance.COROLLARY_N9
            assert cs.angles() == (Fraction(2, n), Fraction(4, n))
        elif n == 8:
            assert cs.provenance is Provenance.COROLLARY_8GON
            assert cs.angles() == (Fraction(1, 4), Fraction(1, 2))
        else:
            assert n in (5, 6, 7, 12, 14, 20)
            assert cs.provenance is Provenance.THEOREM_2
            assert cs.angles() == tuple(sorted(set(allowed_angles(n))))


def test_candidates_feasibility_flags():
    for n in range(5, 60):
        for c in candidates(n).candidates:
            assert c.feasible == (c.a <= Fraction(1, 2))


def test_candidate_precedence_is_subset_of_weaker_statements():
    # every emitted set sits inside the three-element set, and the
    # Theorem 1 singleton sits inside the two-element corollary set
    for n in range(5, 201):
        cs = candidates(n)
        assert set(cs.angles()) <= set(allowed_angles(n)) | {Fraction(1, 2)}
        if cs.provenance is Provenance.THEOREM_1:
            assert set(cs.angles()) <= {Fraction(2, n), Fraction(4, n)}


def test_candidates_serialization():
    obj = candidates(5).to_obj()
    assert obj["n"] == 5
    assert obj["provenance"] == "Theorem2"
    assert obj["candidates"][0] == {"a": "2/5", "alpha": "pi/5", "feasible": True}


# -- impossibility audit ------------------------------------------------------


def test_audit_corner_unsolvable():
    v = impossibility_audit(8, Fraction(1, 5))
    assert v.outcome is Outcome.IMPOSSIBLE
    assert [s.kind for s in v.trace] == ["corner_unsolvable"]


def test_audit_counting_route():
    v = impossibility_audit(8, Fraction(1, 8))
    assert v.outcome is Outcome.IMPOSSIBLE
    assert [s.kind for s in v.trace] == [
        "corner_strict",
        "interior_count",
        "boundary_count",
        "global_count",
    ]
    assert v.trace[0].lemma == "L5"
    assert v.trace[1].lemma == "L4" and v.trace[1].point_class == "FreeInterior"


def test_audit_allowed_value_not_excluded():
    v = impossibility_audit(8, Fraction(1, 4))
    assert v.outcome is Outcome.NOT_EXCLUDED
    assert v.trace[-1].kind == "corner_violation"


def test_audit_28_escape():
    v = impossibility_audit(28, Fraction(3, 7))
    assert v.outcome is Outcome.NOT_EXCLUDED
    assert v.trace[-1].kind == "exceptional_escape"
    assert "(1-4/28)/2" in v.trace[-1].data["families"]


def test_audit_exceptional_complement_cases():
    for n, a in ((5, Fraction(1, 5)), (7, Fraction(3, 7))):
        v = impossibility_audit(n, a)
        assert v.outcome is Outcome.IMPOSSIBLE
        assert v.trace[-1].kind == "exceptional_complement"
        assert v.trace[-1].lemma == "L6"
        assert Fraction(v.trace[-1].data["complement"]) == 1 - a


def test_audit_isosceles_step():
    v = impossibility_audit(8, Fraction(1, 2))
    assert v.outcome is Outcome.NOT_EXCLUDED
    assert v.trace[0].kind == "isosceles_corner"
    v = impossibility_audit(9, Fraction(1, 2))
    assert v.outcome is Outcome.IMPOSSIBLE
    assert v.trace[0].kind == "isosceles_corner"
    v = impossibility_audit(12, Fraction(1, 2))
    assert v.outcome is Outcome.IMPOSSIBLE
    # a = 1/2 never reaches the corner equation; only n = 8 has a corner
    # 2 - 4/n that is a multiple of 1/2
    for n in range(5, 300):
        v = impossibility_audit(n, Fraction(1, 2))
        assert [s.kind for s in v.trace] == ["isosceles_corner"]
        assert (v.outcome is Outcome.NOT_EXCLUDED) == (n == 8), n
        target = str(Fraction(2 * n - 4, n))
        assert v.trace[0].data == {"corner_target": target}
        assert f"angle {target} " in v.trace[0].claim


_BIG = "100000000000000000...0000000000000000000"


@pytest.mark.parametrize("n, a, message", [
    (True, Fraction(1, 5), "n must be an integer, got True"),
    (8.0, Fraction(1, 5), "n must be an integer, got 8.0"),
    ("8", Fraction(1, 5), "n must be an integer, got '8'"),
    (4, Fraction(1, 5), "n must be at least 5, got 4"),
    (10 ** 300, Fraction(1, 5), f"n has over 300 digits, got {_BIG}"),
    (8, Fraction(0), "a must lie in (0, 1/2], got 0"),
    (8, Fraction(3, 5), "a must lie in (0, 1/2], got 3/5"),
    (8, Fraction(1, 10 ** 300), f"a has over 300 digits a part, got 1/{_BIG}"),
    (8, 1, "a must lie in (0, 1/2], got 1"),
    (8, "0.6", "a must lie in (0, 1/2], got 3/5"),
    (8, "x", "a must be a rational number, got 'x'"),
    # the order of the checks: a's type, then n, then a's range and size
    (True, "x", "a must be a rational number, got 'x'"),
    (4, Fraction(3, 5), "n must be at least 5, got 4"),
    (10 ** 300, Fraction(1, 10 ** 300), f"n has over 300 digits, got {_BIG}"),
], ids=["n=True", "n=8.0", "n='8'", "n=4", "n=10**300", "a=0", "a=3/5",
        "a=1/10**300", "a=int", "a=str", "a=non-number",
        "a-type-before-n", "n-before-a-range", "n-before-a-size"])
def test_audit_domain_errors(n, a, message):
    with pytest.raises(DomainError) as info:
        impossibility_audit(n, a)
    assert type(info.value) is DomainError
    assert str(info.value) == message


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 10 ** 6), st.data())
def test_audit_corner_check_on_ints_equals_the_fraction_enumeration(n, data):
    # a random u/v, or a member (2-4/n)/s or (1-4/n)/s of a corner family,
    # where the corner solutions with p > q lie
    target = Fraction(2 * n - 4, n)
    a = data.draw(st.one_of(
        st.builds(lambda v, u: Fraction(u % ((v - 1) // 2) + 1, v),
                  st.integers(3, 10 ** 3), st.integers(0, 10 ** 3)),
        st.builds(lambda s: target / s, st.integers(1, 10 ** 9)),
        st.builds(lambda s: (target - 1) / s, st.integers(1, 10 ** 9)),
    ).filter(lambda a: 2 * a < 1))
    sols = enumerate_solutions(target, a)
    verdict = impossibility_audit(n, a)
    first = verdict.trace[0]
    assert (verdict.n, verdict.a) == (n, a)
    if not sols:
        assert verdict.outcome is Outcome.IMPOSSIBLE
        assert [s.kind for s in verdict.trace] == ["corner_unsolvable"]
        assert first.data == {"corner_target": str(target)}
        assert first.claim == (f"no (p, q, r) solves p*a + q*(1-a) + r = "
                               f"{target} at a = {a}")
    else:
        strict = all(s.p > s.q for s in sols)
        assert first.kind == ("corner_strict" if strict else "corner_violation")
        assert first.data["solutions"] == [list(s) for s in sols]


@pytest.mark.parametrize("call", [
    lambda n: impossibility_audit(n, Fraction(1, 3)),
    lambda n: audit_lemma("6", ns=[n]),
    lambda n: candidates(n).to_obj(),
], ids=["impossibility_audit", "audit_lemma", "candidates"])
def test_n_over_300_digits_is_a_domain_error(call):
    # reports print n, and str() refuses an int of more than 4300 digits
    for n in (10 ** 300, 10 ** 5000):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="n has over 300 digits"):
            call(n)
        assert time.perf_counter() - start < 1.0
    call(10 ** 300 - 1)


def test_audit_grid_matches_allowed_set():
    # Impossible exactly off the allowed set (small grid; the acceptance
    # suite runs the full one)
    for n in range(5, 28):
        allowed = set(allowed_angles(n))
        for v in range(3, 21):
            for u in range(1, (v - 1) // 2 + 1):
                a = Fraction(u, v)
                if a.denominator != v:
                    continue
                verdict = impossibility_audit(n, a)
                if a in allowed:
                    assert verdict.outcome is Outcome.NOT_EXCLUDED, (n, a)
                else:
                    assert verdict.outcome is Outcome.IMPOSSIBLE, (n, a)


def test_audit_traces_are_replayable():
    cases = [(8, Fraction(1, 8)), (8, Fraction(1, 5)), (5, Fraction(1, 5)),
             (17, Fraction(3, 17)), (12, Fraction(1, 7))]
    for n, a in cases:
        verdict = impossibility_audit(n, a)
        sols = enumerate_solutions(2 - Fraction(4, n), a)
        for step in verdict.trace:
            if step.kind == "corner_unsolvable":
                assert not sols
            if step.kind == "corner_strict":
                assert sols and all(s.p > s.q for s in sols)
                assert [list(s) for s in sols] == step.data["solutions"]
                hits = [
                    fam.instance_label(fam.parameter_for(a))
                    for fam in corner_families(n)
                    if fam.parameter_for(a) is not None
                ]
                assert hits == step.data["families"]


def test_verdict_serialization():
    obj = impossibility_audit(8, Fraction(1, 5)).to_obj()
    assert obj["outcome"] == "Impossible"
    assert obj["n"] == 8 and obj["a"] == "1/5" and obj["alpha"] == "pi/10"
    assert obj["trace"][0]["kind"] == "corner_unsolvable"
    assert set(obj["trace"][0]) == {"kind", "claim", "lemma", "point_class", "data"}


def test_trace_step_defaults():
    s = TraceStep("x", "y")
    assert s.to_obj() == {"kind": "x", "claim": "y", "lemma": None,
                          "point_class": None, "data": {}}


def test_report_types_are_immutable_tuples_in_field_order():
    verdict = impossibility_audit(8, Fraction(1, 8))
    step = verdict.trace[0]
    assert TraceStep._fields == ("kind", "claim", "lemma", "point_class", "data")
    assert Verdict._fields == ("n", "a", "outcome", "trace")
    n, a, outcome, trace = verdict
    assert (n, a, outcome, trace) == (8, Fraction(1, 8), Outcome.IMPOSSIBLE, verdict.trace)
    assert tuple(step) == (step.kind, step.claim, step.lemma, step.point_class, step.data)
    for obj, name in ((step, "claim"), (step, "data"), (verdict, "outcome"), (verdict, "a")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert verdict._replace(n=9).n == 9 and verdict.n == 8
    assert step._asdict()["kind"] == "corner_strict"


# -- golden output -------------------------------------------------------------

# sha256 over the --json bytes of impossibility_audit on the criterion-6 grid,
# in grid order, then of each GOLDEN_LEMMAS run as [argv, exit code, stdout].
# The CLI corpus pins only n <= 12 and v <= 20.
GOLDEN_DIGEST = "49ef51c867fbcdc6dbe2896854c04fa14288ac8e0a8a8459765964182c364117"

GOLDEN_LEMMAS = (
    ["lemmas", "--which", "3", "--max-den", "200", "--json"],
    ["lemmas", "--which", "4", "--max-den", "200", "--json"],
    ["lemmas", "--which", "5", "--max-den", "100", "--n-range", "5..200", "--json"],
)


def criterion_6_grid():
    for n in range(5, 28):
        for v in range(3, 61):
            for u in range(1, (v + 1) // 2 + 1):
                if gcd(u, v) == 1 and 2 * u < v:
                    yield n, Fraction(u, v)
    yield 28, Fraction(3, 7)


def test_golden_audit_grid_and_lemma_reports(capsys):
    digest = hashlib.sha256()
    for n, a in criterion_6_grid():
        _emit_json(impossibility_audit(n, a).to_obj())  # as `audit --json` prints it
    digest.update(capsys.readouterr().out.encode())
    for argv in GOLDEN_LEMMAS:
        code = main(argv)
        out, err = capsys.readouterr()
        assert err == "", (argv, err)
        digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
