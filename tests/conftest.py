"""Fixtures and tiling builders that several test modules share."""
import random
import subprocess
import sys

import pytest

from tilegate import tiling as tiling_module
from tilegate.exact import cos_pi
from tilegate.geometry import Point, Triangle
from tilegate.tiling import Tiling, gen_trivial


@pytest.fixture
def run_cli():
    def run(args, timeout=120, env=None):
        return subprocess.run(
            [sys.executable, "-m", "tilegate", *args],
            capture_output=True,
            text=True,
            check=False,
            timeout=timeout,
            env=env,
        )

    return run


def altitude_split(t: Tiling, indices) -> Tiling:
    # split each listed triangle, in place, at the foot of the altitude
    # from its right corner R: with A the alpha corner and B the other
    # end of the hypotenuse, the foot is A + cos^2(alpha) (B - A), and
    # both halves are similar to the triangle
    cos_a = cos_pi(t.alpha.numerator, 2 * t.alpha.denominator, t.modulus)
    cos2 = cos_a * cos_a
    tris = list(t.triangles)
    for idx in sorted(set(indices), reverse=True):
        vs = tris[idx].vertices
        kinds = tiling_module._corner_kinds(tris[idx], t.alpha)
        ia, ib, ir = (kinds.index(k) for k in ("alpha", "beta", "right"))
        a, b, r = vs[ia], vs[ib], vs[ir]
        h = Point(a.x + cos2 * (b.x - a.x), a.y + cos2 * (b.y - a.y))
        if (ib - ia) % 3 == 1:  # (A, B, R) is counterclockwise
            tris[idx : idx + 1] = [Triangle(a, h, r), Triangle(h, b, r)]
        else:
            tris[idx : idx + 1] = [Triangle(a, r, h), Triangle(h, r, b)]
    return Tiling(t.n, t.alpha, t.modulus, tris)


def refined(n: int, size: int, seed: int) -> Tiling:
    # the trivial tiling split at random triangles until it has `size`
    t = gen_trivial(n)
    rng = random.Random(seed)
    while len(t.triangles) < size:
        count = min(size - len(t.triangles), len(t.triangles))
        t = altitude_split(t, rng.sample(range(len(t.triangles)), count))
    return t
