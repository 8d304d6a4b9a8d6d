"""Seeded inputs for the four workloads, built with tilegate's public API.

``build(workload, seed, workdir)`` writes the tiling files a workload reads
and returns its plan: the ops in run order (argv for ``tilegate.cli.main``,
or one library call), the expected result of each (see ``oracle``), the
polygons to warm up before timing, and the op whose time is the scaling
signal.  Files are written here, untimed; the measured process receives
only the files and argv.  The same seed gives the same plan and files.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import gcd

import mpmath

from tilegate import (
    CycloReal,
    Point,
    StructuralError,
    Tiling,
    Triangle,
    angle_matches,
    cos_pi,
    gen_trivial,
    save_tiling,
    sin_pi,
)

import oracle

# The workloads, and why each was chosen.
WORKLOADS = {
    "roundtrip-trivial": (
        "gen-trivial then verify at field degree up to 92 with few triangles: "
        "exact multiplication, parsing and saving dominate"
    ),
    "verify-refined": (
        "verify of altitude-refined 8-gon and 12-gon tilings, 32 to 256 "
        "triangles: the overlap pair loop and point ledger dominate"
    ),
    "reject-mutants": (
        "verify of nudged, translated and truncated tilings that must fail: "
        "the fail-fast path and exact sign separation"
    ),
    "classify-sweep": (
        "candidates, lemma audits and the impossibility grid: only vertex and "
        "classify run, the control for tiling-side changes"
    ),
}

ROUNDTRIP_NS = [*range(5, 21), 29, 47]

REFINED_SIZES = [(8, 32), (8, 48), (8, 64), (8, 96), (8, 128), (8, 256),
                 (12, 36), (12, 48), (12, 72), (12, 96)]

# mutant bases, and the first failure each of their mutants is built to
# reach: vertex nudges (similarity), translations out of the polygon
# (containment) and inside it (non_overlap), deletions (area_cover).  The
# cheap trivial-base mutants come three times, so a pass's median op rests
# on many of them.  A deletion fails last of all, so the two on each refined base are
# the four slowest ops of a pass, and the tail rests on them.
MUTANT_TRIVIAL = [7, 9, 12, 16]
MUTANT_REFINED = [(8, 64), (12, 96)]
TRIVIAL_FAILURES = ("similarity", "containment", "non_overlap") * 3 + ("area_cover",)
REFINED_FAILURES = ("similarity", "containment", "non_overlap", "area_cover", "area_cover")

GRID_NS = range(5, 28)
GRID_MAX_DEN = 60

CLASSIFY_CLI = [
    ["candidates", "--range", "5..200", "--json"],
    ["lemmas", "--which", "3", "--max-den", "200", "--json"],
    ["lemmas", "--which", "4", "--max-den", "200", "--json"],
    ["lemmas", "--which", "5", "--max-den", "100", "--n-range", "5..200", "--json"],
    ["lemmas", "--which", "6", "--n-range", "5..200", "--json"],
]


def build(workload: str, seed: int, workdir: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    plan = _BUILDERS[workload](rng, workdir)
    for i, op in enumerate(plan["ops"]):
        op["id"] = i
    plan["largest"] = next(i for i, op in enumerate(plan["ops"]) if op.get("largest"))
    plan.update(workload=workload, seed=seed)
    return plan


def _cli(argv, expect, largest=False) -> dict:
    return {"kind": "cli", "argv": argv, "expect": expect, "largest": largest}


# -- roundtrip-trivial ---------------------------------------------------------------


def _roundtrip(rng: random.Random, workdir: str) -> dict:
    ops = []
    for n in rng.sample(ROUNDTRIP_NS, len(ROUNDTRIP_NS)):
        path = os.path.join(workdir, f"trivial_{n}.json")
        ops.append(_cli(["gen-trivial", "--n", str(n), "--out", path, "--json"],
                        {"type": "gen", "n": n, "out": path}))
        ops.append(_cli(["verify", path, "--json"],
                        {"type": "verify_pass", "T": 2 * n, "trivial_n": n},
                        largest=n == max(ROUNDTRIP_NS)))
    return {"warmup_ns": ROUNDTRIP_NS, "ops": ops}


# -- verify-refined ------------------------------------------------------------------


def refined(n: int, size: int, rng: random.Random):
    """The trivial n-gon tiling refined to `size` triangles by exact
    altitude splits, in seeded order.

    Splitting a right triangle at the foot of its altitude,
    D = A + cos^2(alpha) (B - A) with A the alpha corner and B the other
    end of the hypotenuse, gives two triangles similar to it.  Rounds split
    every triangle; the last round splits a seeded subset.
    """
    base = gen_trivial(n)
    alpha, modulus = base.alpha, base.modulus
    cos_alpha = cos_pi(alpha.numerator, 2 * alpha.denominator, modulus)
    cos2 = cos_alpha * cos_alpha
    tris = list(base.triangles)
    if size < len(tris):
        raise ValueError(f"{size} triangles cannot be reached from {len(tris)}")
    while len(tris) < size:
        rng.shuffle(tris)
        need = min(size - len(tris), len(tris))
        out = tris[need:]
        for tri in tris[:need]:
            out.extend(_split(tri, alpha, cos2))
        tris = out
    rng.shuffle(tris)
    tris = [_rotate(t, rng.randrange(3)) for t in tris]
    return Tiling(n, alpha, modulus, tris)


def _split(tri, alpha, cos2):
    vs = tri.vertices
    r = next(i for i in range(3) if angle_matches(tri, i, Fraction(1)))
    j, k = (r + 1) % 3, (r + 2) % 3
    ia, ib = (j, k) if angle_matches(tri, j, alpha) else (k, j)
    a, b, right = vs[ia], vs[ib], vs[r]
    foot = Point(a.x + cos2 * (b.x - a.x), a.y + cos2 * (b.y - a.y))
    halves = []
    for p, q, s in ((a, foot, right), (foot, b, right)):
        t = Triangle(p, q, s)
        halves.append(t if t.orientation_sign() > 0 else Triangle(p, s, q))
    return halves


def _rotate(tri, k):
    vs = tri.vertices
    return Triangle(vs[k], vs[(k + 1) % 3], vs[(k + 2) % 3])


def _refined(rng: random.Random, workdir: str) -> dict:
    largest = max(REFINED_SIZES, key=lambda s: s[1])
    ops = []
    for n, size in REFINED_SIZES:
        path = os.path.join(workdir, f"refined_{n}_{size}.json")
        save_tiling(refined(n, size, rng), path)
        ops.append(_cli(["verify", path, "--json"], {"type": "verify_pass", "T": size},
                        largest=(n, size) == largest))
    rng.shuffle(ops)
    return {"warmup_ns": sorted({n for n, _ in REFINED_SIZES}), "ops": ops}


# -- reject-mutants ------------------------------------------------------------------


def _mutants(rng: random.Random, workdir: str) -> dict:
    bases = [(gen_trivial(n), TRIVIAL_FAILURES) for n in MUTANT_TRIVIAL]
    bases += [(refined(n, size, rng), REFINED_FAILURES) for n, size in MUTANT_REFINED]
    ops = []
    for base, failures in bases:
        for first_failure in failures:
            path = os.path.join(workdir, f"mutant_{len(ops)}.json")
            mutant = _draw_mutant(base, first_failure, rng, path)
            ops.append(_cli(["verify", path, "--json"],
                            {"type": "verify_fail", "first_failure": first_failure,
                             "T": len(mutant.triangles)}))
    rng.shuffle(ops)
    max(ops, key=_cost_rank)["largest"] = True
    return {"warmup_ns": sorted({b.n for b, _ in bases}), "ops": ops}


def _cost_rank(op) -> tuple:
    # a deletion runs every check but the ledger; on the largest base it is
    # the most expensive mutant
    expect = op["expect"]
    return expect["first_failure"] == "area_cover", expect["T"]


def _draw_mutant(base, first_failure, rng, path, attempts=200):
    """A mutant of `base` whose first failing check is `first_failure`,
    written to `path`.  The oracle confirms the failure numerically."""
    base_num = oracle.Numeric(base.to_obj())
    for _ in range(attempts):
        idx = rng.randrange(len(base.triangles))
        if first_failure == "area_cover":
            mutant = _with_triangles(base, base.triangles[:idx] + base.triangles[idx + 1:])
            save_tiling(mutant, path)
            return mutant
        try:
            if first_failure == "similarity":
                mutant = _nudge(base, idx, rng)
            else:
                mutant = _translate(base, idx, rng)
        except StructuralError:
            continue  # flipped or degenerate: not a verifiable mutant
        save_tiling(mutant, path)
        with open(path, encoding="utf-8") as fh:
            num = oracle.Numeric(json.load(fh))
        if first_failure == "similarity":
            got = "similarity" if oracle.similarity_broken(num, idx) else None
        else:
            got = oracle.translated_first_failure(num, base_num, idx)
        if got == first_failure:
            return mutant
    raise RuntimeError(f"no {first_failure} mutant found in {attempts} draws")


def _with_triangles(base, triangles):
    return Tiling(base.n, base.alpha, base.modulus, list(triangles))


def _nudge(base, idx, rng):
    while True:
        dx = Fraction(rng.randint(-8, 8), rng.choice([16, 32, 64]))
        dy = Fraction(rng.randint(-8, 8), rng.choice([16, 32, 64]))
        if dx or dy:
            break
    vs = list(base.triangles[idx].vertices)
    k = rng.randrange(3)
    vs[k] = Point(vs[k].x + CycloReal.from_rational(dx, base.modulus),
                  vs[k].y + CycloReal.from_rational(dy, base.modulus))
    tris = list(base.triangles)
    tris[idx] = Triangle(*vs)
    return _with_triangles(base, tris)


def _translate(base, idx, rng):
    """Move one triangle by (cos t - x, sin t - y), t a multiple of
    2 pi / modulus and x, y their roundings to e bits, 20 <= e <= 110.
    The vector is irrational and shorter than 2^-e, but its coefficients
    are not small, so deciding the containment and overlap predicates
    needs exact sign refinement beyond 64 bits for the larger e."""
    m = base.modulus
    j = rng.randrange(m)
    bits = rng.randint(20, 110)
    with mpmath.workdps(60):
        theta = 2 * mpmath.pi * j / m
        rx = Fraction(int(mpmath.nint(mpmath.cos(theta) * 2 ** bits)), 2 ** bits)
        ry = Fraction(int(mpmath.nint(mpmath.sin(theta) * 2 ** bits)), 2 ** bits)
    dx = cos_pi(j, m // 2, m) - rx
    dy = sin_pi(j, m // 2, m) - ry
    moved = [Point(v.x + dx, v.y + dy) for v in base.triangles[idx].vertices]
    tris = list(base.triangles)
    tris[idx] = Triangle(*moved)
    return _with_triangles(base, tris)


# -- classify-sweep ------------------------------------------------------------------


def _classify(rng: random.Random, workdir: str) -> dict:
    ops = [_cli(CLASSIFY_CLI[0], {"type": "candidates", "lo": 5, "hi": 200})]
    for argv in CLASSIFY_CLI[1:]:
        ops.append(_cli(argv, {"type": "lemma", "which": argv[2]}, largest=argv[2] == "5"))
    grid = [(n, Fraction(u, v)) for n in GRID_NS for v in range(3, GRID_MAX_DEN + 1)
            for u in range(1, (v + 1) // 2 + 1) if gcd(u, v) == 1 and 2 * u < v]
    grid.append((28, Fraction(3, 7)))
    for n, a in grid:
        ops.append({"kind": "audit", "n": n, "a": str(a),
                    "expect": {"type": "audit", "n": n, "a": str(a)}})
    rng.shuffle(ops)
    return {"warmup_ns": [], "ops": ops}


_BUILDERS = {
    "roundtrip-trivial": _roundtrip,
    "verify-refined": _refined,
    "reject-mutants": _mutants,
    "classify-sweep": _classify,
}
