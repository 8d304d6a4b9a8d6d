"""Per-n candidate angles and the mechanized impossibility audit.

``candidates`` reports, for each n, the strongest published restriction
on the smaller acute angle of a tiling triangle.  ``impossibility_audit``
replays the counting argument for a concrete (n, a): corner analysis,
then the interior/boundary angle counts, then the global contradiction.
The auditor's only positive outcome is NotExcluded; it never claims a
tiling exists.

The corner check, where most audits end, runs on ints: the audit writes
the text of a and of the corner target 2 - 4/n from their lowest-terms
ints, and vertex._corner_solutions reads the corner solutions off the
closed form: the per-target table of those with p <= q, and two
divisibility tests for those with p > q.  So an audit that stops at
corner_unsolvable builds no Fraction.  Those solutions also name the corner
family that an audit reaching corner_strict reports.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, echo
from .text import FRACTION_DIGITS_BOUND, FRACTION_DIGITS_LIMIT
from .vertex import (
    LEMMA4_EXCEPTIONS,
    _corner_solutions,
    _corner_target,
    allowed_angles,
    as_fraction,
    check_polygon_n,
)


def alpha_str(a: Fraction) -> str:
    """Render the angle a (in right-angle units) as a multiple of pi,
    e.g. a = 2/5 -> 'pi/5'."""
    a = a if isinstance(a, Fraction) else Fraction(a)
    num, den = a.numerator, a.denominator
    # num/den = a/2 in lowest terms
    if num % 2:
        den *= 2
    else:
        num //= 2
    if num == den == 1:
        return "pi"
    if num == 1:
        return f"pi/{den}"
    return f"{num}pi/{den}"


class Provenance(Enum):
    THEOREM_1 = "Theorem1"
    COROLLARY_N9 = "Corollary_n9"
    THEOREM_2 = "Theorem2"
    COROLLARY_8GON = "Corollary_8gon"


class Candidate(NamedTuple):
    a: Fraction
    feasible: bool

    def to_obj(self) -> dict:
        return {"a": str(self.a), "alpha": alpha_str(self.a), "feasible": self.feasible}


class CandidateSet(NamedTuple):
    n: int
    provenance: Provenance
    candidates: tuple[Candidate, ...]

    def angles(self) -> tuple[Fraction, ...]:
        return tuple(c.a for c in self.candidates)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "provenance": self.provenance.value,
            "candidates": [c.to_obj() for c in self.candidates],
        }


_HALF = Fraction(1, 2)


def _candidate_set(n: int, values, provenance: Provenance) -> CandidateSet:
    out = tuple(Candidate(a, a <= _HALF) for a in sorted(set(values)))
    return CandidateSet(n, provenance, out)


def candidates(n: int) -> CandidateSet:
    """The candidate smaller angles for a regular n-gon, under the
    strongest statement whose hypothesis covers n."""
    check_polygon_n(n)
    if n >= 25 and n not in (30, 42):
        return _candidate_set(n, [Fraction(2, n)], Provenance.THEOREM_1)
    if n >= 9 and n not in (12, 14, 20):
        return _candidate_set(
            n, [Fraction(2, n), Fraction(4, n)], Provenance.COROLLARY_N9
        )
    if n == 8:
        return _candidate_set(
            n, [Fraction(1, 4), Fraction(1, 2)], Provenance.COROLLARY_8GON
        )
    return _candidate_set(n, allowed_angles(n), Provenance.THEOREM_2)


# -- the impossibility auditor ---------------------------------------------


class Outcome(Enum):
    IMPOSSIBLE = "Impossible"
    NOT_EXCLUDED = "NotExcluded"


class TraceStep(NamedTuple):
    kind: str
    claim: str
    lemma: str | None = None
    point_class: str | None = None
    data: dict | None = None

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "claim": self.claim,
            "lemma": self.lemma,
            "point_class": self.point_class,
            "data": self.data or {},
        }


class Verdict(NamedTuple):
    n: int
    a: Fraction
    outcome: Outcome
    trace: tuple[TraceStep, ...]

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "a": str(self.a),
            "alpha": alpha_str(self.a),
            "outcome": self.outcome.value,
            "trace": [s.to_obj() for s in self.trace],
        }


# the counting route after corner_strict, the same for every n and a
_COUNTING_STEPS = (
    TraceStep(
        "interior_count",
        "p >= q at every interior point not on a side (target 4)",
        lemma="L4",
        point_class="FreeInterior",
    ),
    TraceStep(
        "boundary_count",
        "substituting r-2 for r: p >= q at every point interior to a "
        "polygon side (target 2) or to k triangle sides (target 4-2k)",
        lemma="L4",
        point_class="PolygonSideInterior/TriangleSideInterior",
    ),
    TraceStep(
        "global_count",
        "summing over all points, the count of smaller acute angles "
        "strictly exceeds the count of larger ones, but every triangle "
        "contributes exactly one of each: contradiction",
    ),
)


def _corner_verdict(n: int, a: Fraction, outcome: Outcome, kind: str, claim: str,
                    data: dict) -> Verdict:
    # a verdict decided at the polygon corner, in one step
    return Verdict(n, a, outcome, (TraceStep(kind, claim, point_class="PolygonVertex",
                                             data=data),))


def impossibility_audit(n: int, a: Fraction) -> Verdict:
    """Replay the counting argument for smaller angle a in a regular
    n-gon.  Impossible means the argument rules a tiling out;
    NotExcluded means it does not apply (and says nothing more)."""
    a = as_fraction(a, "a")
    check_polygon_n(n)
    u, v = a.numerator, a.denominator
    if not 0 < 2 * u <= v:  # 0 < a <= 1/2
        raise DomainError(f"a must lie in (0, 1/2], got {echo(a)}")
    if v >= FRACTION_DIGITS_BOUND:  # the trace prints a
        raise DomainError(f"a has over {FRACTION_DIGITS_LIMIT} digits a part, got {echo(a)}")

    # 2 - 4/n = t/d in lowest terms with d >= 2, and v >= 2u >= 2: both print as Fractions do
    t, d = _corner_target(n)
    target_text, a_text = f"{t}/{d}", f"{u}/{v}"

    if 2 * u == v:
        # right isosceles tiles: every angle is a multiple of pi/4, so
        # the polygon corner 2-4/n must be a multiple of 1/2
        if d <= 2:
            claim = (f"a = 1/2: corner angle {target_text} is a multiple of 1/2, "
                     f"so right isosceles corners fit (n = {n})")
            outcome = Outcome.NOT_EXCLUDED
        else:
            claim = (f"a = 1/2: every angle is a multiple of 1/2, but the corner "
                     f"angle {target_text} is not, so no corner configuration exists")
            outcome = Outcome.IMPOSSIBLE
        return _corner_verdict(n, a, outcome, "isosceles_corner", claim,
                               {"corner_target": target_text})

    sols = _corner_solutions(t, d, u, v)
    if not sols:
        return _corner_verdict(
            n, a, Outcome.IMPOSSIBLE, "corner_unsolvable",
            f"no (p, q, r) solves p*a + q*(1-a) + r = {target_text} at a = {a_text}",
            {"corner_target": target_text})

    solutions = [list(s) for s in sols]
    if (violating := next((s for s in sols if s[0] <= s[1]), None)) is not None:
        return _corner_verdict(
            n, a, Outcome.NOT_EXCLUDED, "corner_violation",
            f"corner solution {violating} has p <= q; the counting "
            f"argument does not apply", {"solutions": solutions})

    # every corner solution has p > q, so Lemma 5 pins a to a corner
    # family, which the solutions name (vertex._corner_solutions): (s, 0, 0)
    # puts a in (2-4/n)/s, and (s, 0, 1), beside (s + 1, 1, 0), in (1-4/n)/s
    families = [f"({head}-4/{n})/{sol[0]}" for head, tail in ((2, (0, 0)), (1, (0, 1)))
                for sol in sols if sol[1:] == tail]
    strict = TraceStep(
        "corner_strict", f"every corner solution has p > q, and a = {a_text} lies in {families}",
        lemma="L5", point_class="PolygonVertex",
        data={"solutions": solutions, "families": families})

    if a not in LEMMA4_EXCEPTIONS:
        return Verdict(n, a, Outcome.IMPOSSIBLE, (strict, *_COUNTING_STEPS))

    # exceptional a: the interior counts can fail, fall back to the
    # family analysis of the exceptional values
    allowed = allowed_angles(n)
    data = {"allowed": [str(v) for v in allowed], "families": families}
    if (1 - a) in allowed:
        kind, outcome = "exceptional_complement", Outcome.IMPOSSIBLE
        claim = (f"a = {a_text} is exceptional and lies in a corner family; the "
                 f"family analysis places only its complement 1-a = {1 - a} in "
                 f"the allowed set, so the smaller angle a itself stays excluded")
        data["complement"] = str(1 - a)
    else:
        kind, outcome = "exceptional_escape", Outcome.NOT_EXCLUDED
        claim = (f"a = {a_text} is exceptional and neither a nor 1-a = {1 - a} is in the "
                 f"allowed set; the family analysis yields no contradiction")
    return Verdict(n, a, outcome, (strict, TraceStep(kind, claim, lemma="L6", data=data)))
