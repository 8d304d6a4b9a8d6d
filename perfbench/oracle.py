"""Expected outputs, derived without tilegate.

This module never imports tilegate.  Expected values come from the
construction of each input and from the published rules:

* trivial tiling of the n-gon: verdict pass, certificate (2n, 2n, 2n), and
  2n+1 ledger points (the centre with 2n smaller angles, n polygon vertices
  with two larger angles each, n apothem feet with two right angles each);
* refined tiling of T triangles: verdict pass, certificate (T, T, T);
* mutant: exit code 1 and the first failing check its construction forces,
  confirmed with 80-digit mpmath numerics on the file's own coordinates;
* candidate tables and the impossibility grid: the rules that acceptance
  criteria 1 and 6 restate;
* lemma audits: L3, L4 and L5 pass; L6 fails exactly at n = 28 (a = 3/7).
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import mpmath

CHECK_ORDER = ("similarity", "containment", "non_overlap", "area_cover", "point_ledger")

LEMMA4_EXCEPTIONS = {Fraction(1, 4), Fraction(1, 5), Fraction(2, 5), Fraction(3, 7), Fraction(1, 3)}

_DPS = 80
_ZERO = mpmath.mpf("1e-65")     # exact zeros evaluate far below this at 80 digits
_CLEAR = mpmath.mpf("1e-55")    # nonzero values must clear this to be decided


# -- candidate tables and the audit grid ------------------------------------------


def allowed_angles(n: int) -> "set[Fraction]":
    return {Fraction(2, n), Fraction(4, n), Fraction(1, 3) + Fraction(4, 3 * n)}


def render_alpha(a: Fraction) -> str:
    half = a / 2
    if half.numerator == 1:
        return f"pi/{half.denominator}"
    return f"{half.numerator}pi/{half.denominator}"


def expected_candidates(n: int) -> dict:
    if n >= 25 and n not in (30, 42):
        angles, provenance = {Fraction(2, n)}, "Theorem1"
    elif n in (30, 42) or (9 <= n <= 24 and n not in (12, 14, 20)):
        angles, provenance = {Fraction(2, n), Fraction(4, n)}, "Corollary_n9"
    elif n == 8:
        angles, provenance = {Fraction(1, 4), Fraction(1, 2)}, "Corollary_8gon"
    else:
        angles, provenance = allowed_angles(n), "Theorem2"
    return {
        "n": n,
        "provenance": provenance,
        "candidates": [
            {"a": str(a), "alpha": render_alpha(a), "feasible": a <= Fraction(1, 2)}
            for a in sorted(angles)
        ],
    }


def expected_outcome(n: int, a: Fraction) -> str:
    if (n, a) == (28, Fraction(3, 7)):
        return "NotExcluded"  # the Lemma 6 escape
    return "NotExcluded" if a in allowed_angles(n) else "Impossible"


# -- numerics on tiling documents ---------------------------------------------------


class Numeric:
    """80-digit values of the coordinates in one tiling document."""

    def __init__(self, doc: dict) -> None:
        self.doc = doc
        self.n = doc["n"]
        num, den = doc["alpha"].split("/")
        self.alpha = Fraction(int(num), int(den))
        modulus = doc["modulus"]
        with mpmath.workdps(_DPS):
            self.cos = [mpmath.cos(2 * mpmath.pi * j / modulus) for j in range(modulus)]
            self.polygon = [
                (mpmath.cos(2 * mpmath.pi * k / self.n), mpmath.sin(2 * mpmath.pi * k / self.n))
                for k in range(self.n)
            ]

    def value(self, scalar: dict):
        with mpmath.workdps(_DPS):
            total = mpmath.mpf(0)
            for c, cos_j in zip(scalar["coeffs"], self.cos):
                if c != "0":
                    f = Fraction(c)
                    total += mpmath.mpf(f.numerator) / f.denominator * cos_j
            return total

    def triangle(self, index: int):
        return [(self.value(x), self.value(y)) for x, y in self.doc["triangles"][index]["v"]]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _decided(value) -> bool:
    return abs(value) < _ZERO or abs(value) > _CLEAR


def similarity_broken(num: Numeric, index: int) -> "bool | None":
    """True if triangle `index` is a counterclockwise triangle whose angles
    differ from (alpha, 1-alpha, 1) right angles; None if undecidable."""
    with mpmath.workdps(_DPS):
        pts = num.triangle(index)
        area2 = _cross(*pts)
        if area2 < _CLEAR:
            return None  # degenerate or clockwise: not a similarity mutant
        angles = []
        for i in range(3):
            a, b, c = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            u = (b[0] - a[0], b[1] - a[1])
            v = (c[0] - a[0], c[1] - a[1])
            angles.append(mpmath.atan2(abs(u[0] * v[1] - u[1] * v[0]), u[0] * v[0] + u[1] * v[1]))
        want = sorted(mpmath.pi / 2 * mpmath.mpf(f.numerator) / f.denominator
                      for f in (num.alpha, 1 - num.alpha, Fraction(1)))
        gap = max(abs(x - y) for x, y in zip(sorted(angles), want))
        if not _decided(gap):
            return None
        return gap > _CLEAR


def vertices_outside(num: Numeric, index: int) -> "bool | None":
    """True if a vertex of triangle `index` lies outside the polygon, False
    if all lie inside or on it, None if undecidable."""
    with mpmath.workdps(_DPS):
        outside = False
        for p in num.triangle(index):
            for k in range(num.n):
                c = _cross(num.polygon[k], num.polygon[(k + 1) % num.n], p)
                if not _decided(c):
                    return None
                if c < -_CLEAR:
                    outside = True
        return outside


def translated_first_failure(num: Numeric, base: Numeric, index: int) -> "str | None":
    """First failure of a tiling in which triangle `index` of the tiling
    `base` was translated.

    Translation keeps every angle, so similarity passes.  A vertex pushed
    out of the polygon fails containment.  Otherwise the moved triangle
    lies in the polygon, which the other tiles cover, and its interior
    leaves its old place, so it overlaps another tile's interior.
    """
    with mpmath.workdps(_DPS):
        (x, y), (x0, y0) = num.triangle(index)[0], base.triangle(index)[0]
        if not (abs(x - x0) > _CLEAR or abs(y - y0) > _CLEAR):
            return None  # not moved, or by too little to decide
    outside = vertices_outside(num, index)
    if outside is None:
        return None
    return "containment" if outside else "non_overlap"


# -- checking one op's output ---------------------------------------------------------


def check(expect: dict, code: int, out: str) -> "str | None":
    """None if the op's exit code and stdout match `expect`, else why not."""
    kind = expect["type"]
    try:
        if kind == "candidates":
            if code != 0:
                return f"exit {code}"
            got = [json.loads(line) for line in out.splitlines()]
            want = [expected_candidates(n) for n in range(expect["lo"], expect["hi"] + 1)]
            return None if got == want else "candidate table differs"
        obj = json.loads(out)
        return _CHECKS[kind](expect, code, obj)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_gen(expect, code, obj):
    if code != 0:
        return f"exit {code}"
    n = expect["n"]
    a = Fraction(2, n)
    want = {"n": n, "alpha": f"{a.numerator}/{a.denominator}", "triangles": 2 * n,
            "out": expect["out"]}
    return None if obj == want else f"gen-trivial output {obj!r}"


def _check_stages(obj, first_failure):
    want = {}
    state = "pass"
    for name in CHECK_ORDER:
        if name == first_failure:
            want[name] = "fail"
            state = "skipped"
        else:
            want[name] = state
    got = {name: obj["checks"][name]["status"] for name in CHECK_ORDER}
    return None if got == want else f"check statuses {got}"


def _check_pass(expect, code, obj):
    if code != 0 or obj["verdict"] != "pass":
        return f"exit {code}, verdict {obj['verdict']}"
    t = expect["T"]
    bad = _check_stages(obj, None)
    if bad:
        return bad
    if obj["certificate"] != [t, t, t]:
        return f"certificate {obj['certificate']}"
    n = expect.get("trivial_n")
    if n is not None:
        got = Counter((e["class"], tuple(e["solution"])) for e in obj["ledger"])
        want = Counter({("FreeInterior", (2 * n, 0, 0)): 1,
                        ("PolygonVertex", (0, 2, 0)): n,
                        ("PolygonSideInterior", (0, 0, 2)): n})
        if got != want:
            return f"ledger {dict(got)}"
    return None


def _check_fail(expect, code, obj):
    if code != 1 or obj["verdict"] != "fail":
        return f"exit {code}, verdict {obj['verdict']}"
    bad = _check_stages(obj, expect["first_failure"])
    if bad:
        return bad
    t = 0 if expect["first_failure"] == "similarity" else expect["T"]
    if obj["certificate"] != [t, t, t]:
        return f"certificate {obj['certificate']}"
    return None


def _check_lemma(expect, code, obj):
    which = expect["which"]
    if obj["lemma"] != f"L{which}":
        return f"lemma {obj['lemma']}"
    cases = {(Fraction(c["a"]), c["n"]) for c in obj["counterexamples"]}
    if which == "6":
        if code != 1 or obj["passed"] or {n for _, n in cases} != {28} \
                or (Fraction(3, 7), 28) not in cases:
            return f"L6 expected to fail exactly at n = 28, got {sorted(cases)}"
        return None
    if code != 0 or not obj["passed"] or cases:
        return f"exit {code}, passed {obj['passed']}"
    if which == "4" and {Fraction(w["a"]) for w in obj["witnesses"]} != LEMMA4_EXCEPTIONS:
        return "L4 witnesses differ from the five exceptions"
    return None


def _check_audit(expect, code, obj):
    a = Fraction(expect["a"])
    if code != 0 or obj["n"] != expect["n"] or Fraction(obj["a"]) != a:
        return f"audit echoed n={obj.get('n')} a={obj.get('a')}"
    want = expected_outcome(expect["n"], a)
    return None if obj["outcome"] == want else f"outcome {obj['outcome']}, want {want}"


_CHECKS = {
    "gen": _check_gen,
    "verify_pass": _check_pass,
    "verify_fail": _check_fail,
    "lemma": _check_lemma,
    "audit": _check_audit,
}
