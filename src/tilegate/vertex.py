"""Vertex angle equations: complete enumeration and lemma audits.

Angles are Fractions in units of the right angle (pi/2 == 1).  A right
triangle with smaller acute angle ``a`` contributes angles ``a``,
``1-a`` and ``1``.  At each point of a tiling the incident angles sum
to a target ``S`` determined by where the point sits, so the
non-negative integer solutions of ``p*a + q*(1-a) + r = S`` drive both
the angle classification and the tiling verifier.

The audit functions confirm, over finite parameter ranges, the four
counting facts the classification rests on:

  L3: S = 3/2, 0 < a < 1/2, a != 1/4  ->  p > q and a = 3/(2s).
  L4: S = 4, 0 < a < 1/2, a outside the exceptional set  ->  p >= q.
  L5: S = 2-4/n, a not an allowed angle for n  ->  p > q and a in one
      of the two corner families.
  L6: exceptional a lying in a corner family  ->  a or 1-a is an
      allowed angle for n (fails exactly at n = 28).

L3, L4 and L5 report only the solutions with p < q or p <= q, and the
sweeps visit only the (q, r) where those can lie.  For any a > 0 the
equation reads

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

The sweeps clear denominators: a'*p + b'*q + c*r = T with a' + b' = c.
For the rest m = T - c*r the identity reads c*q - m = a'*(q - p), so
p < q exactly when c*q > m, p <= q exactly when c*q >= m, and p >= 0
exactly when b'*q <= m.  _violators visits only the q between those
bounds, which holds for any 0 < a < 1.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, ResourceLimitError, echo
from .text import FRACTION_DIGITS_BOUND, FRACTION_DIGITS_LIMIT

# Largest max_den the L3, L4 and L5 audits accept, and largest
# len(ns) * max_den**2 the L5 audit accepts.
MAX_DEN_LIMIT = 2000
L5_SIZE_LIMIT = 2 * 10 ** 7

# Most (q, r) pairs enumerate_solutions and solutions_on_ints may try;
# about 0.05 s at the limit on a 2-vCPU Xeon VM (target 257, a = 1/3).
# classify and vertex call them with target below 2 and a <= 1/2, at
# most 15 pairs.
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


def _violators(a_coef: int, b_coef: int, c_coef: int, total: int,
               strict: bool | None = None) -> list[tuple[int, int, int]]:
    # the (p, q, r) >= 0 with a_coef*p + b_coef*q + c_coef*r == total, for
    # a_coef + b_coef == c_coef: every one (strict None), or those with
    # p < q (strict) or p <= q, whose q window comes from the identity in
    # the module docstring
    out = []
    for r in range(total // c_coef + 1):
        rem = total - c_coef * r
        lo = 0 if strict is None else rem // c_coef + 1 if strict else -(-rem // c_coef)
        for q in range(lo, rem // b_coef + 1):
            rest = rem - b_coef * q
            if rest % a_coef == 0:
                out.append((rest // a_coef, q, r))
    return out


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
    return solutions_on_ints(u, v, t, d)


def solutions_on_ints(u: int, v: int, t: int, d: int) -> tuple[VertexSolution, ...]:
    """enumerate_solutions at a = u/v and target = t/d, for ints with
    0 < u < v, t >= 0 and d > 0, which it does not check."""
    scale = math.lcm(v, d)
    k = scale // v
    a_coef, b_coef = u * k, (v - u) * k
    total = t * (scale // d)
    pairs = (total // b_coef + 1) * (total // scale + 1)
    if pairs > SOLUTIONS_LIMIT:
        raise ResourceLimitError(
            f"enumeration would try {echo(pairs)} (q, r) pairs, over the "
            f"limit {SOLUTIONS_LIMIT}")
    sols = _violators(a_coef, b_coef, scale, total)
    if not sols:
        return ()
    return tuple(map(VertexSolution._make, sorted(sols)))


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


class AngleFamily(NamedTuple):
    """Angles of the form numerator/s for positive integers s."""

    numerator: Fraction
    label: str

    def parameter_for(self, a: Fraction) -> int | None:
        """The s with numerator/s == a, or None if a is not a member."""
        if a <= 0:
            return None
        s, rest = divmod(self.numerator.numerator * a.denominator,
                         self.numerator.denominator * a.numerator)
        return s if rest == 0 and s >= 1 else None

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
    # _reduced_angles yields about 0.15 * max_den**2 pairs (608,293 at
    # MAX_DEN_LIMIT), so the audits grow about fourfold per doubling.  L5
    # tests, per n, the pairs whose v is a multiple of n // gcd(n, 4), at
    # most half of them.  On a 2-vCPU Xeon VM, L3 and L4 each take about
    # 1 s at MAX_DEN_LIMIT, and L5 about 0.013 s at 196 * 100**2 and about
    # 1 s at L5_SIZE_LIMIT with n = 5, 6, 8, 12, 16, the five n with the
    # most such pairs.
    if not isinstance(max_den, int) or isinstance(max_den, bool):
        raise DomainError(f"max_den must be an integer, got {echo(max_den)}")
    if max_den < 3:
        raise DomainError(f"max_den {echo(max_den)} admits no angles in (0, 1/2)")
    if max_den > MAX_DEN_LIMIT:
        raise ResourceLimitError(f"max_den exceeds the limit {MAX_DEN_LIMIT}")


def _reduced_angles(max_den: int) -> Iterator[tuple[int, int]]:
    # all u/v in lowest terms with 0 < u/v < 1/2, v <= max_den
    return (
        (u, v)
        for v in range(3, max_den + 1)
        for u in range(1, (v - 1) // 2 + 1)
        if math.gcd(u, v) == 1
    )


def _n_range(ns: Iterable[int]) -> list[int]:
    # sorted distinct n values of an audit range, each checked before
    # sorting compares them
    ns = list(ns)
    for n in ns:
        check_polygon_n(n)
    if not ns:
        raise DomainError("empty n range")
    return sorted(set(ns))


def _audit_l3(max_den: int) -> AuditReport:
    bad: list[AuditCase] = []
    for u, v in _reduced_angles(max_den):
        if 4 * u == v:
            continue
        # 3/2 = p u/v + q (v-u)/v + r, scaled by 2v
        coefs = (2 * u, 2 * (v - u), 2 * v, 3 * v)
        # a = 3/(2s) solves it with (s, 0, 0); any other a that admits
        # a solution is a counterexample, and so is each p <= q
        of_form = (3 * v) % (2 * u) == 0
        if of_form or _violators(*coefs):
            a = Fraction(u, v)
            for sol in _violators(*coefs, strict=False):
                bad.append(AuditCase(a, None, VertexSolution._make(sol), "p <= q"))
            if not of_form:
                bad.append(AuditCase(a, None, None, "a is not of the form 3/(2s)"))
    witnesses = [
        AuditCase(Fraction(1, 4), None, VertexSolution._make(sol), "q > p at excluded a = 1/4")
        for sol in _violators(2, 6, 8, 12, strict=True)
    ]
    return AuditReport(
        "L3",
        {"max_den": max_den, "a": "(0,1/2) minus {1/4}", "target": "3/2"},
        tuple(sorted(bad, key=AuditCase.sort_key)),
        tuple(sorted(witnesses, key=AuditCase.sort_key)),
    )


def _audit_l4(max_den: int) -> AuditReport:
    bad: list[AuditCase] = []
    exceptions = sorted(LEMMA4_EXCEPTIONS)
    skipped = {(e.numerator, e.denominator) for e in exceptions}
    for u, v in _reduced_angles(max_den):
        if (u, v) in skipped:
            continue
        # 4 = p u/v + q (v-u)/v + r, scaled by v
        for sol in _violators(u, v - u, v, 4 * v, strict=True):
            bad.append(AuditCase(Fraction(u, v), None, VertexSolution._make(sol), "q > p"))
    witnesses: list[AuditCase] = []
    for e in exceptions:
        u, v = e.numerator, e.denominator
        violating = _violators(u, v - u, v, 4 * v, strict=True)
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


def _audit_l5(ns: list[int], max_den: int) -> AuditReport:
    numerators: dict[int, list[int]] = {}
    for u, v in _reduced_angles(max_den):
        numerators.setdefault(v, []).append(u)
    bad: list[AuditCase] = []
    for n in ns:
        # every coefficient of n*(p*u + q*(v-u) + r*v) = (2n-4)*v is a
        # multiple of n, so a solution needs n | 4v: visit only those v
        step = n // math.gcd(n, 4)
        for v in range(step, max_den + 1, step):
            # 2 - 4/n = p u/v + q (v-u)/v + r, scaled by n*v
            total = (2 * n - 4) * v
            c_coef = n * v
            family_2 = (n - 4) * v
            for u in numerators.get(v, ()):
                # skip the allowed set {2/n, 4/n, (n+4)/(3n)}
                if u * n == 2 * v or u * n == 4 * v or 3 * n * u == (n + 4) * v:
                    continue
                a_coef = n * u
                b_coef = c_coef - a_coef
                # a = (2-4/n)/s or a = (1-4/n)/s; any other a that admits a
                # solution is a counterexample, and so is each p <= q
                in_family = total % a_coef == 0 or family_2 % a_coef == 0
                if in_family or _violators(a_coef, b_coef, c_coef, total):
                    a = Fraction(u, v)
                    for sol in _violators(a_coef, b_coef, c_coef, total, strict=False):
                        bad.append(AuditCase(a, n, VertexSolution._make(sol), "p <= q"))
                    if not in_family:
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
    for n in ns:
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
    """Brute-force confirmation of one of the four lemmas over a finite
    range; see the module docstring for the statements."""
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
