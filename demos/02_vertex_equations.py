"""
Vertex equations and lemma audits
=================================

At every meeting point of a tiling, the corner angles must fill the
available angle exactly: p*a + q*(1-a) + r = target, in units of the
right angle.  Enumerating the non-negative solutions of that equation,
point class by point class, is the whole engine behind the
impossibility results.
"""
from fractions import Fraction

from tilegate import PointClass, PointKind, audit_lemma, enumerate_solutions, point_target

# The available angle depends on where the point sits.  At a vertex of
# the regular n-gon it is the interior angle 2 - 4/n; in the open
# interior a full turn, 4; on a side (of the polygon or of a triangle)
# a straight angle, 2 per side of the split.
n = 8
for pc in (
    PointClass(PointKind.POLYGON_VERTEX),
    PointClass(PointKind.POLYGON_SIDE_INTERIOR),
    PointClass(PointKind.TRIANGLE_SIDE_INTERIOR, 1),
    PointClass(PointKind.FREE_INTERIOR),
):
    print(f"{str(pc):>26}: target = {point_target(pc, n)}")

# All corner configurations at an 8-gon vertex for the trivial angle
# a = 1/4: the solutions (p, q, r) of p/4 + 3q/4 + r = 3/2.
target = point_target(PointClass(PointKind.POLYGON_VERTEX), 8)
print("\ncorner solutions at n=8, a=1/4:")
for sol in enumerate_solutions(target, Fraction(1, 4)):
    print("  (p, q, r) =", tuple(sol))

# The counting lemmas are audited on finite sets listed in closed form:
# only the angles in them can break a lemma.  The interior count (every solution of the target-4 equation has
# p >= q) holds for every angle except five exceptional values, and at
# each exception the audit exhibits a concrete violating solution.
report = audit_lemma("4", max_den=40)
print("\ninterior count audit up to v = 40:", "pass" if report.passed else "fail")
for w in report.witnesses:
    print(f"  exception a = {w.a}: violating (p, q, r) = {tuple(w.solution)}")

# The corner count at the polygon vertex is stricter (p > q) and pins
# the solvable angles into two parametric families.
report = audit_lemma("5", ns=range(5, 41), max_den=40)
print("corner count audit n = 5..40, v <= 40:", "pass" if report.passed else "fail")
