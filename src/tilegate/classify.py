"""Per-n candidate angles and the mechanized impossibility audit.

``candidates`` reports, for each n, the strongest published restriction
on the smaller acute angle of a tiling triangle.  ``impossibility_audit``
replays the counting argument for a concrete (n, a): corner analysis,
then the interior/boundary angle counts, then the global contradiction.
The auditor's only positive outcome is NotExcluded; it never claims a
tiling exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError, echo
from .text import FRACTION_DIGITS_LIMIT
from .vertex import (
    LEMMA4_EXCEPTIONS,
    allowed_angles,
    as_fraction,
    check_polygon_n,
    corner_families,
    enumerate_solutions,
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


@dataclass(frozen=True)
class Candidate:
    a: Fraction
    feasible: bool

    def to_obj(self) -> dict:
        return {"a": str(self.a), "alpha": alpha_str(self.a), "feasible": self.feasible}


@dataclass(frozen=True)
class CandidateSet:
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

_A_DENOMINATOR_BOUND = 10 ** FRACTION_DIGITS_LIMIT  # the trace prints a


class Outcome(Enum):
    IMPOSSIBLE = "Impossible"
    NOT_EXCLUDED = "NotExcluded"


@dataclass(frozen=True)
class TraceStep:
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


@dataclass(frozen=True)
class Verdict:
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


def impossibility_audit(n: int, a: Fraction) -> Verdict:
    """Replay the counting argument for smaller angle a in a regular
    n-gon.  Impossible means the argument rules a tiling out;
    NotExcluded means it does not apply (and says nothing more)."""
    a = as_fraction(a, "a")
    check_polygon_n(n)
    if not 0 < 2 * a.numerator <= a.denominator:  # 0 < a <= 1/2
        raise DomainError(f"a must lie in (0, 1/2], got {echo(a)}")
    if a.denominator >= _A_DENOMINATOR_BOUND:
        raise DomainError(f"a has over {FRACTION_DIGITS_LIMIT} digits a part, got {echo(a)}")

    corner_target = Fraction(2 * n - 4, n)
    steps: list[TraceStep] = []

    def verdict(outcome: Outcome) -> Verdict:
        return Verdict(n, a, outcome, tuple(steps))

    if a == _HALF:
        # right isosceles tiles: every angle is a multiple of pi/4, so
        # the polygon corner 2-4/n must be a multiple of 1/2
        if (2 * corner_target).denominator == 1:
            steps.append(TraceStep(
                "isosceles_corner",
                f"a = 1/2: corner angle {corner_target} is a multiple of 1/2, "
                f"so right isosceles corners fit (n = {n})",
                point_class="PolygonVertex",
                data={"corner_target": str(corner_target)},
            ))
            return verdict(Outcome.NOT_EXCLUDED)
        steps.append(TraceStep(
            "isosceles_corner",
            f"a = 1/2: every angle is a multiple of 1/2, but the corner "
            f"angle {corner_target} is not, so no corner configuration exists",
            point_class="PolygonVertex",
            data={"corner_target": str(corner_target)},
        ))
        return verdict(Outcome.IMPOSSIBLE)

    sols = enumerate_solutions(corner_target, a)
    if not sols:
        steps.append(TraceStep(
            "corner_unsolvable",
            f"no (p, q, r) solves p*a + q*(1-a) + r = {corner_target} at a = {a}",
            point_class="PolygonVertex",
            data={"corner_target": str(corner_target)},
        ))
        return verdict(Outcome.IMPOSSIBLE)

    violating = next((s for s in sols if s.p <= s.q), None)
    if violating is not None:
        steps.append(TraceStep(
            "corner_violation",
            f"corner solution {tuple(violating)} has p <= q; the counting "
            f"argument does not apply",
            point_class="PolygonVertex",
            data={"solutions": [list(s) for s in sols]},
        ))
        return verdict(Outcome.NOT_EXCLUDED)

    # every corner solution has p > q: Lemma 5 pins a to a corner family
    families = [fam.instance_label(s) for fam in corner_families(n)
                if (s := fam.parameter_for(a)) is not None]
    steps.append(TraceStep(
        "corner_strict",
        f"every corner solution has p > q, and a = {a} lies in "
        f"{families or 'no corner family'}",
        lemma="L5",
        point_class="PolygonVertex",
        data={
            "solutions": [list(s) for s in sols],
            "families": families,
        },
    ))

    if a not in LEMMA4_EXCEPTIONS:
        steps.append(TraceStep(
            "interior_count",
            "p >= q at every interior point not on a side (target 4)",
            lemma="L4",
            point_class="FreeInterior",
        ))
        steps.append(TraceStep(
            "boundary_count",
            "substituting r-2 for r: p >= q at every point interior to a "
            "polygon side (target 2) or to k triangle sides (target 4-2k)",
            lemma="L4",
            point_class="PolygonSideInterior/TriangleSideInterior",
        ))
        steps.append(TraceStep(
            "global_count",
            "summing over all points, the count of smaller acute angles "
            "strictly exceeds the count of larger ones, but every triangle "
            "contributes exactly one of each: contradiction",
        ))
        return verdict(Outcome.IMPOSSIBLE)

    # exceptional a: the interior counts can fail, fall back to the
    # family analysis of the exceptional values
    allowed = allowed_angles(n)
    if (1 - a) in allowed:
        steps.append(TraceStep(
            "exceptional_complement",
            f"a = {a} is exceptional and lies in a corner family; the "
            f"family analysis places only its complement 1-a = {1 - a} in "
            f"the allowed set, so the smaller angle a itself stays excluded",
            lemma="L6",
            data={
                "allowed": [str(v) for v in allowed],
                "complement": str(1 - a),
                "families": families,
            },
        ))
        return verdict(Outcome.IMPOSSIBLE)

    steps.append(TraceStep(
        "exceptional_escape",
        f"a = {a} is exceptional and neither a nor 1-a = {1 - a} is in the "
        f"allowed set; the family analysis yields no contradiction",
        lemma="L6",
        data={
            "allowed": [str(v) for v in allowed],
            "families": families,
        },
    ))
    return verdict(Outcome.NOT_EXCLUDED)
