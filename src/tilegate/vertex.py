"""Vertex angle equations: complete enumeration and lemma audits.

Angles are Fractions in units of the right angle (pi/2 == 1).  A right
triangle with smaller acute angle ``a`` contributes angles ``a``,
``1-a`` and ``1``.  At each point of a tiling the incident angles sum
to a target ``S`` determined by where the point sits, so the
non-negative integer solutions of ``p*a + q*(1-a) + r = S`` drive both
the angle classification and the tiling verifier.

The audit functions check the four counting facts the classification
rests on.  L3, L4 and L5 read finite sets, listed in closed form, that
cover every denominator, and report on the angles with denominator up
to max_den:

  L3: S = 3/2, 0 < a < 1/2, a != 1/4  ->  p > q and a = 3/(2s).
  L4: S = 4, 0 < a < 1/2, a outside the exceptional set  ->  p >= q.
  L5: S = 2-4/n, a not an allowed angle for n  ->  p > q and a in one
      of the two corner families.
  L6: exceptional a lying in a corner family  ->  a or 1-a is an
      allowed angle for n (fails exactly at n = 28).

L3, L4 and L5 report only the solutions with p < q or p <= q, and those
lie in a finite window.  For any a > 0 the equation reads

  q - (S - r) = a*(q - p),

so q - (S - r) and q - p have the same sign:

  p < q   exactly when   q > S - r,
  p <= q  exactly when   q >= S - r.

And p >= 0 gives q*(1-a) <= S - r; with a < 1/2, 1-a > 1/2, so
q < 2*(S - r) unless q = 0.  At each r, then, only a q in
[S - r, 2*(S - r)) can be reported:

  L4 (S = 4, p < q)          (5..7, 0), (4..5, 1) and (3, 2): six pairs
  L3 (S = 3/2, p <= q)       the single pair (2, 0)
  L5 (S = 2 - 4/n, p <= q)   q in {2, 3} at r = 0 and q = 1 at r = 1,
                             fewer for n <= 8

Each (p, q, r) with p < q there fixes a = (q - S + r)/(q - p), and that
a is below 1/2 exactly when p < 2*(S - r) - q.  So the a in (0, 1/2)
with a solution p < q form a finite set, and _q_over_p lists it with its
solutions by looping over r, the q window and those p.  When S is not an
integer the same set holds every solution p <= q, because p = q forces
q = S - r.  (At an integer S, p = q = S - r solves the equation for
every a, so there the p <= q set is not finite.)  _q_over_p keeps each
set in one bounded cache, a table per target that the L3, L4 and L5
audits and the impossibility audit all read.

The audits test the rest of each statement on that set alone.  A solution
with p > q has q < S - r, that is q + r < S:

  L3: S = 3/2 leaves (q, r) in {(0, 0), (1, 0), (0, 1)}, and p*a = 3/2,
      (p - 1)*a = 1/2 or p*a = 1/2 makes a = 3/(2s) with s = p, 3(p - 1)
      or 3p.
  L5: S = 2 - 4/n lies in [6/5, 2) for n >= 5, which leaves the same
      (q, r), and p*a = 2 - 4/n, (p - 1)*a = 1 - 4/n or p*a = 1 - 4/n puts
      a in one of the two corner_families(n).

So an a that has a solution but is not of the form 3/(2s), or is in
neither corner family, has one with p <= q, and lies in the set.  The
impossibility audit reads every corner solution the same way: those with
p <= q from the set, and the rest from the three (q, r) (_corner_solutions).

L6 visits only the n where an exception can lie in a corner family.  The
family numerators 2 - 4/n and 1 - 4/n reduce to t/d and t'/d with
d = n/gcd(n, 4) (see _corner_target; gcd(n - 4, n) = gcd(4, n) too).  In
lowest terms t/(d*s) has the denominator d*s/gcd(t, s), a multiple of d,
so an exception u/v in a family at n needs n/gcd(n, 4) to divide v, and
n <= 4*v.  For the five exceptions that leaves n in {5, 6, 7, 8, 10, 12,
14, 16, 20, 28}.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import DomainError, ResourceLimitError, echo
from .text import FRACTION_DIGITS_BOUND, FRACTION_DIGITS_LIMIT

# Largest max_den the L3, L4 and L5 audits accept, and largest
# len(ns) * max_den**2 the L5 audit accepts.
MAX_DEN_LIMIT = 2000
L5_SIZE_LIMIT = 2 * 10 ** 7

# Most (q, r) pairs enumerate_solutions may try; about 0.05 s at the
# limit on a 2-vCPU Xeon VM (target 257, a = 1/3).  Nothing in the
# package calls it: the audits read the closed-form sets.
SOLUTIONS_LIMIT = 10 ** 5

# Values of a for which S = 4 admits q > p (stored, not re-derived;
# each audit exhibits a violating solution to prove membership).
LEMMA4_EXCEPTIONS: frozenset[Fraction] = frozenset(
    (Fraction(1, 4), Fraction(1, 5), Fraction(2, 5), Fraction(3, 7), Fraction(1, 3))
)


def check_polygon_n(n: int) -> None:
    """Reject a polygon parameter that is not an int (bool included),
    is below 5, which no statement here covers, or has more than
    FRACTION_DIGITS_LIMIT digits, the cap on a: reports print n and
    fractions built from it, and str() refuses an int of more than 4300
    digits.  The bound is compared as an int, so no n is printed whole."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {echo(n)}")
    if n < 5:
        raise DomainError(f"n must be at least 5, got {echo(n)}")
    if n >= FRACTION_DIGITS_BOUND:
        raise DomainError(f"n has over {FRACTION_DIGITS_LIMIT} digits, got {echo(n)}")


def as_fraction(value: object, what: str) -> Fraction:
    """value as a Fraction, or DomainError where Fraction() refuses it
    (nan, an infinity, a non-number)."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise DomainError(f"{what} must be a rational number, got {echo(value)}") from None


class VertexSolution(NamedTuple):
    p: int
    q: int
    r: int


def enumerate_solutions(target: Fraction, a: Fraction) -> tuple[VertexSolution, ...]:
    """All (p, q, r) with p*a + q*(1-a) + r = target, lexicographic."""
    a = as_fraction(a, "a")
    target = as_fraction(target, "target")
    u, v = a.numerator, a.denominator
    if not 0 < u < v:
        raise DomainError(f"a must lie in (0, 1), got {echo(a)}")
    t, d = target.numerator, target.denominator
    if t < 0:
        raise DomainError(f"target must be non-negative, got {echo(target)}")
    scale = math.lcm(v, d)
    k = scale // v
    a_coef, b_coef = u * k, (v - u) * k
    total = t * (scale // d)
    pairs = (total // b_coef + 1) * (total // scale + 1)
    if pairs > SOLUTIONS_LIMIT:
        raise ResourceLimitError(
            f"enumeration would try {echo(pairs)} (q, r) pairs, over the "
            f"limit {SOLUTIONS_LIMIT}")
    out = []
    for r in range(total // scale + 1):
        rem = total - scale * r
        for q in range(rem // b_coef + 1):
            rest = rem - b_coef * q
            if rest % a_coef == 0:
                out.append(VertexSolution(rest // a_coef, q, r))
    return tuple(sorted(out))


# -- point classes -------------------------------------------------------


class PointKind(Enum):
    POLYGON_VERTEX = "PolygonVertex"
    POLYGON_SIDE_INTERIOR = "PolygonSideInterior"
    TRIANGLE_SIDE_INTERIOR = "TriangleSideInterior"
    FREE_INTERIOR = "FreeInterior"


class _PointClassFields(NamedTuple):
    kind: PointKind
    flat_sides: int = 0


class PointClass(_PointClassFields):
    """Where a tiling point sits; flat_sides counts the open triangle
    sides passing through it (TriangleSideInterior only)."""

    __slots__ = ()

    def __new__(cls, kind: PointKind, flat_sides: int = 0) -> PointClass:
        if kind is PointKind.TRIANGLE_SIDE_INTERIOR:
            if flat_sides < 1:
                raise DomainError("TriangleSideInterior needs at least one flat side")
        elif flat_sides:
            raise DomainError(f"{kind.value} does not carry flat sides")
        return super().__new__(cls, kind, flat_sides)

    @classmethod
    def _make(cls, iterable) -> PointClass:
        # _replace builds through _make, which would skip __new__
        return cls(*iterable)

    def __str__(self) -> str:
        if self.kind is PointKind.TRIANGLE_SIDE_INTERIOR:
            return f"{self.kind.value}({self.flat_sides})"
        return self.kind.value


def _corner_target(n: int) -> tuple[int, int]:
    # 2 - 4/n = (2n - 4)/n as t/d in lowest terms.  gcd(2n - 4, n) =
    # gcd(4, n): a common divisor of 2n - 4 and n divides 2n - (2n - 4) = 4,
    # and a common divisor of 4 and n divides 2n - 4.  d >= 2 for n >= 5
    g = math.gcd(4, n)
    return (2 * n - 4) // g, n // g


def point_target(pc: PointClass, n: int) -> Fraction:
    """Angle sum, in units of pi/2, required at a point of class pc.

    A full turn is 4; each flat side through the point removes two
    straight angles (the r-shift), and a polygon corner contributes its
    interior angle 2 - 4/n.
    """
    check_polygon_n(n)
    if pc.kind is PointKind.POLYGON_VERTEX:
        return Fraction(*_corner_target(n))
    if pc.kind is PointKind.POLYGON_SIDE_INTERIOR:
        return Fraction(2)
    if pc.kind is PointKind.TRIANGLE_SIDE_INTERIOR:
        return Fraction(4 - 2 * pc.flat_sides)
    return Fraction(4)


# -- corner families -----------------------------------------------------


def _family_index(t: int, d: int, u: int, v: int) -> int | None:
    # the integer s >= 1 with (t/d)/s == u/v, for d, u, v > 0, or None
    s, rest = divmod(t * v, d * u)
    return s if rest == 0 and s >= 1 else None


class AngleFamily(NamedTuple):
    """Angles of the form numerator/s for positive integers s."""

    numerator: Fraction
    label: str

    def parameter_for(self, a: Fraction) -> int | None:
        """The s with numerator/s == a, or None if a is not a member."""
        if a <= 0:
            return None
        return _family_index(self.numerator.numerator, self.numerator.denominator,
                             a.numerator, a.denominator)

    def instance_label(self, s: int) -> str:
        return f"{self.label}/{s}"


def corner_families(n: int) -> tuple[AngleFamily, AngleFamily]:
    """The two families that corner solutions confine a to."""
    check_polygon_n(n)
    return (
        AngleFamily(Fraction(*_corner_target(n)), f"(2-4/{n})"),
        AngleFamily(Fraction(n - 4, n), f"(1-4/{n})"),
    )


def allowed_angles(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three-angle set {2/n, 4/n, 1/3 + 4/(3n)} in right-angle units."""
    check_polygon_n(n)
    return (Fraction(2, n), Fraction(4, n), Fraction(1, 3) + Fraction(4, 3 * n))


# -- audits --------------------------------------------------------------


class AuditCase(NamedTuple):
    """One exhibited (input, solution) pair from an audit sweep."""

    a: Fraction
    n: int | None
    solution: VertexSolution | None
    detail: str

    def to_obj(self) -> dict:
        return {
            "a": str(self.a),
            "n": self.n,
            "solution": list(self.solution) if self.solution is not None else None,
            "detail": self.detail,
        }

    def sort_key(self) -> tuple:
        return (self.n or 0, self.a, self.solution or VertexSolution(0, 0, 0))


class AuditReport(NamedTuple):
    lemma_id: str
    parameter_range: dict
    counterexamples: tuple[AuditCase, ...]
    witnesses: tuple[AuditCase, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_obj(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "range": self.parameter_range,
            "passed": self.passed,
            "counterexamples": [c.to_obj() for c in self.counterexamples],
            "witnesses": [w.to_obj() for w in self.witnesses],
        }


def _check_max_den(max_den: int) -> None:
    # The audits read the closed-form sets, so max_den no longer bounds
    # their cost: on a 2-vCPU Xeon VM, at any max_den, L3 and L4 take
    # about 0.005 and 0.02 ms and L5 about 2.6 us per n with the tables
    # built, 0.6 us per n once they are cached.  MAX_DEN_LIMIT
    # and L5_SIZE_LIMIT stay as the interface: the same arguments are
    # accepted and the same ones exit 2 as when the audits swept every
    # u/v up to max_den.
    if not isinstance(max_den, int) or isinstance(max_den, bool):
        raise DomainError(f"max_den must be an integer, got {echo(max_den)}")
    if max_den < 3:
        raise DomainError(f"max_den {echo(max_den)} admits no angles in (0, 1/2)")
    if max_den > MAX_DEN_LIMIT:
        raise ResourceLimitError(f"max_den exceeds the limit {MAX_DEN_LIMIT}")


@lru_cache(maxsize=256)
def _q_over_p(t: int, d: int) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    # every a = u/v in (0, 1/2), in lowest terms, with a solution p < q of
    # p*a + q*(1-a) + r = t/d, for t/d >= 0 in lowest terms, mapped to all
    # such (p, q, r) in order.  For d > 1 these are also all the solutions
    # with p <= q; see the module docstring.  m = d*(S - r), and
    # a = (d*q - m)/(d*(q - p)), where d*q - m = d*(q + r) - t is prime
    # to d, as t is.  Built on the first read of each target; callers
    # share the cached dict and lists and must not change them
    found: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for r in range(t // d + 1):
        m = t - d * r
        for q in range(m // d + 1, -(-2 * m // d)):
            over = d * q - m
            for p in range(-(-(2 * m - d * q) // d)):
                g = math.gcd(over, q - p)
                found.setdefault((over // g, d * (q - p) // g), []).append((p, q, r))
    for sols in found.values():
        sols.sort()
    return found


def _corner_solutions(t: int, d: int, u: int, v: int) -> tuple[tuple[int, int, int], ...]:
    # enumerate_solutions(t/d, u/v) for t/d = 2 - 4/n in lowest terms with
    # n >= 5 and u/v in (0, 1/2) in lowest terms: the p <= q solutions
    # from the target's table, and the p > q ones from the three (q, r)
    # the module docstring's L5 paragraph leaves, p*a = t/d at (0, 0) and
    # (p - 1)*a = (t - d)/d at (1, 0) or p*a = (t - d)/d at (0, 1)
    du = d * u
    k, rest = divmod((t - d) * v, du)
    strict = [] if rest else [(k, 0, 1), (k + 1, 1, 0)]
    if not t * v % du:
        strict.append((t * v // du, 0, 0))
    sols = _q_over_p(t, d).get((u, v), ())
    return tuple(sorted([*sols, *strict])) if strict else tuple(sols)


def _n_range(ns: Iterable[int]) -> list[int] | range:
    # sorted distinct n values of an audit range, each checked before
    # sorting compares them.  A range of step 1, as the command line
    # passes, is sorted and distinct already, and a member fails the check
    # only if its first member does or its last one is too large
    if isinstance(ns, range) and ns.step == 1:
        if not ns:
            raise DomainError("empty n range")
        check_polygon_n(ns[0])
        check_polygon_n(ns[-1])
        return ns
    ns = list(ns)
    for n in ns:
        check_polygon_n(n)
    if not ns:
        raise DomainError("empty n range")
    return sorted(set(ns))


def _audit_l3(max_den: int) -> AuditReport:
    bad: list[AuditCase] = []
    table = _q_over_p(3, 2)
    for (u, v), sols in table.items():
        if v > max_den or 4 * u == v:
            continue
        # every p <= q is a counterexample, and so is an a not of the form
        # 3/(2s), which has a solution only if it has one with p <= q
        a = Fraction(u, v)
        bad += (AuditCase(a, None, VertexSolution._make(sol), "p <= q") for sol in sols)
        if _family_index(3, 2, u, v) is None:
            bad.append(AuditCase(a, None, None, "a is not of the form 3/(2s)"))
    # the table lists 1/4's solutions p < q in order
    return AuditReport(
        "L3",
        {"max_den": max_den, "a": "(0,1/2) minus {1/4}", "target": "3/2"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(AuditCase(Fraction(1, 4), None, VertexSolution._make(sol),
                        "q > p at excluded a = 1/4") for sol in table[(1, 4)]),
    )


def _audit_l4(max_den: int) -> AuditReport:
    bad: list[AuditCase] = []
    exceptions = sorted(LEMMA4_EXCEPTIONS)
    skipped = {(e.numerator, e.denominator) for e in exceptions}
    table = _q_over_p(4, 1)
    for (u, v), sols in table.items():
        if v > max_den or (u, v) in skipped:
            continue
        a = Fraction(u, v)
        bad += (AuditCase(a, None, VertexSolution._make(sol), "q > p") for sol in sols)
    witnesses: list[AuditCase] = []
    for e in exceptions:
        violating = table.get((e.numerator, e.denominator))
        if violating:
            witnesses.append(AuditCase(
                e, None, VertexSolution._make(violating[0]), f"q > p at exceptional a = {e}"))
        else:
            bad.append(AuditCase(e, None, None, "listed exception admits no q > p"))
    return AuditReport(
        "L4",
        {"max_den": max_den, "a": "(0,1/2) minus exceptions", "target": "4"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(witnesses),
    )


def _audit_l5(ns: list[int], max_den: int) -> AuditReport:
    bad: list[AuditCase] = []
    for n in ns:
        t, d = _corner_target(n)
        # a solution needs n | 4v, that is d | v: no v <= max_den has one
        if d > max_den:
            continue
        for (u, v), sols in _q_over_p(t, d).items():
            # skip the allowed set {2/n, 4/n, (n+4)/(3n)}
            if (v > max_den or u * n == 2 * v or u * n == 4 * v
                    or 3 * n * u == (n + 4) * v):
                continue
            # every p <= q is a counterexample, and so is an a outside
            # (2-4/n)/s and (1-4/n)/s, which has a solution only if it has
            # one with p <= q
            a = Fraction(u, v)
            bad += (AuditCase(a, n, VertexSolution._make(sol), "p <= q") for sol in sols)
            if _family_index(t, d, u, v) is None and _family_index(t - d, d, u, v) is None:
                bad.append(AuditCase(a, n, None, "a is in neither corner family"))
    return AuditReport(
        "L5",
        {"n": [ns[0], ns[-1]], "max_den": max_den, "target": "2-4/n"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        (),
    )


def _audit_l6(ns: Iterable[int]) -> AuditReport:
    ns = _n_range(ns)
    bad: list[AuditCase] = []
    witnesses: list[AuditCase] = []
    exceptions = sorted(LEMMA4_EXCEPTIONS)
    # an exception u/v lies in a corner family at n only if
    # n // gcd(n, 4) divides v, so n <= 4v (module docstring)
    dens = {e.denominator for e in exceptions}
    for n in ns[:bisect_right(ns, 4 * max(dens, default=0))]:
        step = n // math.gcd(n, 4)
        if all(v % step for v in dens):
            continue
        allowed = set(allowed_angles(n))
        families = corner_families(n)
        for e in exceptions:
            for family in families:
                s = family.parameter_for(e)
                if s is None:
                    continue
                case = AuditCase(e, n, None, f"family {family.instance_label(s)}")
                if e in allowed or (1 - e) in allowed:
                    witnesses.append(case)
                else:
                    bad.append(case)
    return AuditReport(
        "L6",
        {"n": [ns[0], ns[-1]], "exceptional": [str(e) for e in exceptions]},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(sorted(witnesses, key=AuditCase.sort_key)),
    )


def audit_lemma(
    lemma_id: str,
    *,
    max_den: int | None = None,
    ns: Iterable[int] | None = None,
) -> AuditReport:
    """Check one of the four lemmas: L3, L4 and L5 over every a in
    (0, 1/2) with denominator up to max_den, read off the finite
    closed-form sets, and L6 over the n in ns.  See the module docstring
    for the statements and the proofs."""
    key = str(lemma_id).upper()
    if key in ("3", "L3", "4", "L4"):
        if max_den is None:
            raise DomainError("L3/L4 audits need max_den")
        _check_max_den(max_den)
        return _audit_l3(max_den) if key in ("3", "L3") else _audit_l4(max_den)
    if key in ("5", "L5"):
        if ns is None or max_den is None:
            raise DomainError("L5 audit needs both ns and max_den")
        _check_max_den(max_den)
        ns = _n_range(ns)
        size = len(ns) * max_den ** 2
        if size > L5_SIZE_LIMIT:
            raise ResourceLimitError(f"L5 audit size len(ns) * max_den**2 = {size} "
                                     f"exceeds the limit {L5_SIZE_LIMIT}")
        return _audit_l5(ns, max_den)
    if key in ("6", "L6"):
        if ns is None:
            raise DomainError("L6 audit needs ns")
        return _audit_l6(ns)
    raise DomainError(f"unknown lemma id {lemma_id!r}")
