"""Exact scalar arithmetic over real cyclotomic numbers.

Angles are tracked as :class:`fractions.Fraction` values in units of the
right angle (so ``1`` means ``pi/2``).  Coordinates and trigonometric
values live in :class:`CycloReal`, the real subfield of a cyclotomic
field ``Q(zeta_M)`` with ``4 | M``.  An element is stored as an integer
coefficient vector of length ``phi(M)`` over a common positive
denominator, reduced modulo the M-th cyclotomic polynomial; that
canonical form is unique, so equality and zero tests are exact symbol
comparisons and never rely on numerics.

Every CycloReal is real: reality is checked once, in the constructor,
and every other instance comes from an operation that keeps values real
(ring operations, rational scaling, embedding, cos_pi and sin_pi).

Numeric enclosures (used only to decide signs of provably nonzero
values and to seed floating-point filters) are rigorous interval
evaluations with exact rational endpoints.  The cosine enclosures they
sum are integers over one power of two, computed on Python ints in fixed
point with a counted error (see :meth:`_Field.cos_table`), so an
enclosure is an integer sum and one Fraction per endpoint.

Products and reductions run on Python ints while their multiply-adds
stay under ``_SPARSE_WORK``, as they do for the sparse coordinates of
fans and refined tilings.  numpy serves only the others, and is
imported at the first of them (see :class:`_Field`).  At field degree 8,
that of the 8-gon's and the 12-gon's tilings, even a product of dense
vectors fits the bound, so verifying such a tiling never loads numpy.
"""
from __future__ import annotations

import math
import sys
from collections import OrderedDict
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .errors import DomainError, FormatError, ModulusError, NonRealError, ResourceLimitError, echo
from .text import parse_fraction

# Largest permitted field degree phi(M).  Work above this is refused
# rather than attempted.
PHI_LIMIT = 4096

# Bound under which int64 reduction is provably overflow-free (checked
# per reduction, see _Field._dtype).
_INT64_SAFE = 1 << 62

# Most multiply-adds _Field.det spends on Python ints in one call,
# products and reduction together.  One costs about 0.1 us; numpy costs
# 15 to 20 us a call at phi = 8 and more as phi grows, so the two paths
# break even near 110 multiply-adds at phi = 8 (dense vectors, which
# take at most 135), near 450 at phi = 92 and near 1200 at phi = 160
# (Xeon, Python 3.11, numpy 2.4).
_SPARSE_WORK = 256

# Most entries the field cache holds, reduction tables and sparse rows
# together: one field at the degree limit, about 130 MB of int64 and at
# most _SPARSE_WORK row entries a column.
FIELD_CACHE_ENTRIES = (PHI_LIMIT + _SPARSE_WORK) * (PHI_LIMIT - 1)

# Hard ceiling for sign-refinement precision, in bits.  Signs are only
# refined for symbolically nonzero values, so this is never reached in
# correct use; it bounds the damage of a bug.
_PREC_CEILING = 1 << 16


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError(f"euler_phi undefined for {m}")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    For m > 1, Phi_m(x) is the product over squarefree d | m of
    (1 - x^(m/d))^mu(d) (Arnold & Monagan, Calculating cyclotomic
    polynomials, Math. Comp. 80, 2011).  Expanded as a power series cut
    at degree phi(m), each factor costs O(phi(m)): a multiplication by
    1 - x^e when mu(d) = 1, a division by it when mu(d) = -1.
    """
    if m < 1:
        raise DomainError(f"cyclotomic_polynomial undefined for {m}")
    if m == 1:
        return (-1, 1)
    degree = euler_phi(m)
    series = [1] + [0] * degree
    factors = [(1, 1)]  # (squarefree d, mu(d))
    for p in _prime_factors(m):
        factors += [(d * p, -mu) for d, mu in factors]
    for d, mu in factors:
        e = m // d
        if mu == 1:
            for i in range(degree, e - 1, -1):
                series[i] -= series[i - e]
        else:
            for i in range(e, degree + 1):
                series[i] += series[i - e]
    return tuple(series)


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """(a, n) with a within 3n + 2 of atan(1/x) * 2**bits, x >= 2, from
    the n terms of its series sum (-1)**i / ((2i+1) x**(2i+1)).

    The powers p_i = p_(i-1) // x**2, from p_0 = 2**bits // x, fall
    short of 2**bits / x**(2i+1) by less than 2 (less than 1 from
    the floor, 2 / x**2 from the one before), so each term p_i // (2i+1)
    falls short by less than 3.  The loop stops at p_n = 0, so the
    tail, alternating and decreasing, is below its first term, itself
    below p_n + 2 = 2.
    """
    a, n, power, x2 = 0, 0, (1 << bits) // x, x * x
    while power:
        term = power // (2 * n + 1)
        a += -term if n & 1 else term
        power //= x2
        n += 1
    return a, n


def _cos_sin(t: int, bits: int) -> tuple[int, int, int]:
    """(c, s, k) with c and s within 3k + 3 of cos(theta) * 2**bits and
    sin(theta) * 2**bits, theta = t / 2**bits with 0 <= theta < 2, from
    the k terms of their series.

    The terms a_i = a_(i-1) * t // 2**bits // i, one floor of
    a_(i-1) * t / (i * 2**bits), from a_0 = 2**bits, fall short of
    theta**i / i! * 2**bits by less than 3: by less than 1, 2 and 7/3
    for i = 1, 2, 3, and by less than 3 * theta / i + 1 <= 3 after that.
    The loop stops at a_k = 0; the tails of both alternating series then
    decrease, since theta < i + 1, and stay below a_k + 3 = 3.
    """
    c, s, a, k = 1 << bits, 0, 1 << bits, 0
    while a:
        k += 1
        a = (a * t >> bits) // k
        term = -a if k & 2 else a
        if k & 1:
            s += term
        else:
            c += term
    return c, s, k


class _Field:
    """Arithmetic in Q(zeta_M) = Q[x] / Phi_M, 4 | M, on integer
    coefficient tuples of length phi = phi(M) in the basis 1, x, ...,
    x^(phi-1).

    Every product is one routine, :meth:`det`, a*b - c*d (:meth:`mul` is
    a*b - 0*0), on one of two paths chosen per call from the factors'
    nonzero counts.  The coordinates of fans and their altitude
    refinements are sparse, 2 to 4 nonzero coefficients, and at phi = 8
    numpy spends 15 to 20 us a call before it multiplies anything: bounds,
    array conversions, two convolutions and _divide.  So when the nonzero
    products number at most _SPARSE_WORK, det multiplies only the nonzero
    coefficients, on Python ints, and reduces each nonzero coefficient of
    degree phi + i with ``rows[i]``, the nonzero (row, coefficient) pairs
    of x^(phi+i) mod Phi_M.  Those row entries count against the same
    bound; past it the products go to :meth:`_divide`.  Otherwise, for
    dense vectors, det takes numpy: one conversion of the four factors,
    two convolutions, a subtraction and _divide.  :meth:`reduce` likewise
    divides by the nonzero coefficients of Phi_M (``low``) on Python ints
    while that takes at most _SPARSE_WORK multiply-adds, and goes to
    _divide otherwise.

    _divide is the one numpy reduction: division by the monic Phi_M from
    the top, phi - 1 degrees a step, with the table ``red``, whose column
    i is x^(phi+i) mod Phi_M for i < phi - 1.  Those are the degrees a
    product of two reduced elements reaches, so a product takes one step;
    reduce's longer vector, every exponent below M/2 after folding with
    zeta^(M/2) = -1, takes at most (M/2 - phi) / (phi - 1) + 1.  A step
    runs in int64 when a bound on every partial sum proves it cannot
    overflow, and on Python ints otherwise; a table whose next column's
    bound would reach 2**62 is held in Python ints (``wide``), decided
    once, when the columns are built.  numpy is imported only on the
    dense paths, so a run whose products and reductions all stay on
    Python ints never loads it.

    The columns come from the recurrence x^(phi+i+1) = x * x^(phi+i),
    with x^phi = x^phi - Phi_M.  When phi <= _SPARSE_WORK, every column
    fits a row, so they are built on Python ints and kept only as rows,
    and the table is built from the rows the first time _divide needs it.
    A larger field can have dense columns (up to 445 nonzeros at M =
    4620), so numpy builds its table at once: rows on Python ints and a
    table built later take four to six times as long there, from M = 1052
    to 8156.  A column with more than _SPARSE_WORK nonzeros keeps an empty
    row, since no call could use it: 741 of 959 columns at M = 4620, and
    2 of 523 at M = 1052, the field of the fan of n = 263.  Products that
    need such a column go to _divide; the others keep the Python path.
    ``entries`` counts the table, built or not, and the rows for the
    field cache.  The field also keeps its cosine tables
    (:meth:`cos_table`), so a field dropped from the cache takes them
    along.
    """

    def __init__(self, modulus: int) -> None:
        degree = _checked_degree(modulus)
        self.modulus = modulus
        self.degree = degree
        low = cyclotomic_polynomial(modulus)[:-1]
        self.low = [(j, c) for j, c in enumerate(low) if c]
        self._red = None
        if degree > _SPARSE_WORK:
            self._build_table(low)
        else:
            low_max = max(map(abs, low))
            col, col_max = [-c for c in low], low_max  # x^phi = x^phi - Phi_M
            self.red_max, self.wide, self.rows = 0, False, []
            for _ in range(degree - 1):
                self.rows.append([(j, q) for j, q in enumerate(col) if q])
                self.red_max = max(self.red_max, col_max)
                top = col[-1]
                # would the next column's entries reach the int64 bound?
                self.wide = self.wide or col_max + abs(top) * low_max >= _INT64_SAFE
                col = [x - top * c for x, c in zip([0] + col[:-1], low)]
                col_max = max(map(abs, col))
        self.entries = degree * (degree - 1) + sum(map(len, self.rows))
        self.cos: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}

    def _build_table(self, low: Sequence[int]) -> None:
        # the recurrence in numpy, a column at a time, switching to Python
        # ints from the first column whose bound would reach 2**62; the
        # rows are read from the table
        import numpy as np
        # int64 holds Phi_M: phi <= PHI_LIMIT leaves M at most four odd
        # primes, so its coefficients are below M**2 (Bateman, 1949)
        low = np.array(low, np.int64)
        low_max = int(abs(low).max())
        n = self.degree
        red = np.empty((n, n - 1), np.int64)
        col, col_max = -low, low_max
        self.red_max = 0
        for i in range(n - 1):
            red[:, i] = col
            self.red_max = max(self.red_max, col_max)
            top = int(col[-1])
            if red.dtype != object and col_max + abs(top) * low_max >= _INT64_SAFE:
                # the next column may overflow int64: go on with Python ints
                red, low = red.astype(object), low.astype(object)
            col = np.concatenate(([0], col[:-1])) - top * low
            col_max = int(abs(col).max())
        self._red, self.wide = red, red.dtype == object
        # every column is nonzero, so an empty row marks a dense one
        self.rows = [list(zip(np.flatnonzero(col).tolist(), col[col != 0].tolist()))
                     if count <= _SPARSE_WORK else []
                     for col, count in zip(red.T, np.count_nonzero(red, axis=0).tolist())]

    @property
    def red(self):
        """The reduction table as a numpy array, int64 or, when ``wide``,
        Python ints; a small field builds it from its rows on first use."""
        if self._red is None:
            import numpy as np
            red = np.zeros((self.degree, self.degree - 1), object if self.wide else np.int64)
            for i, row in enumerate(self.rows):
                for j, q in row:
                    red[j, i] = q
            self._red = red
        return self._red

    def cos_table(self, prec: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Rigorous enclosures lo[j] / 2**shift <= cos(2*pi*j/M) <= hi[j] / 2**shift
        for j < phi(M), as two integer vectors over one power of two, each
        of width below 2**-prec.

        Computed on Python ints in fixed point (Brent and Zimmermann,
        Modern Computer Arithmetic, 2010, ch. 4): an integer x stands for
        x / 2**w, with w = prec + 24 + bitlen(phi) bits, and a unit is
        2**-w.  Every ``//`` and ``>>`` floors, losing less than one unit.
        The table is [c_j - D_j, c_j + D_j] over 2**w, with c_j the
        computed cosine and D_j a bound on its error in units:

        - theta = 2*pi/M.  _atan_inv gives atan(1/5) and atan(1/239)
          within 3n + 2 units of 2**-(w + 32) each, n its term count, so
          Machin's pi = 16 atan(1/5) - 4 atan(1/239) gives p within
          err = 16 (3 n_5 + 2) + 4 (3 n_239 + 2) of those units, and
          t = 2p // (M * 2**32) is within e = 2 err // (M * 2**32) + 2
          units of theta.
        - _cos_sin gives cos and sin of t / 2**w within 3k + 3 units
          each, k its term count.  cos and sin are 1-Lipschitz, so
          z_1 = (c_1, s_1) is within d = 2(3k + 3 + e) units of
          exp(i*theta) in modulus, with a factor 2 over sqrt(2).
        - z_(j+1) is z_j * z_1 / 2**w, each part floored.  If z_j is
          within D_j units of exp(i*j*theta) in modulus, then
          |z_j z_1 - exp(i*(j+1)*theta) 2**(2w)| <= D_j (2**w + d) + 2**w d,
          and the two floors add at most sqrt(2) units, so
          D_(j+1) = D_j + d + 3 + (D_j * d >> w) bounds the error of
          z_(j+1), from D_0 = 0 for the exact z_0 = 2**w.  c_j, the
          real part of z_j, is within D_j units of cos(j*theta).

        D_j < j (d + 4) while D_j * d < 2**w, so the width 2 D_j / 2**w
        stays below 2**(1 - prec) (d + 4) / 2**24, under 2**-prec since
        d, at most about 6w / log2(w), is far below 2**23.
        """
        if prec not in self.cos:
            m, n = self.modulus, self.degree
            w = prec + 24 + n.bit_length()
            a5, n5 = _atan_inv(5, w + 32)
            a239, n239 = _atan_inv(239, w + 32)
            err = 16 * (3 * n5 + 2) + 4 * (3 * n239 + 2)
            t = 2 * (16 * a5 - 4 * a239) // (m << 32)
            e = 2 * err // (m << 32) + 2
            c1, s1, k = _cos_sin(t, w)
            d = 2 * (3 * k + 3 + e)
            re, im, bound = 1 << w, 0, 0
            lo, hi = [re], [re]
            for _ in range(1, n):
                re, im = (re * c1 - im * s1) >> w, (im * c1 + re * s1) >> w
                bound += d + 3 + (bound * d >> w)
                lo.append(re - bound)
                hi.append(re + bound)
            self.cos[prec] = tuple(lo), tuple(hi), w
        return self.cos[prec]

    def _dtype(self, bound: int, length: int) -> type:
        # int64 when no partial sum can overflow: the coefficients of a
        # vector of this length are at most bound in absolute value, and
        # each division step multiplies that by at most 1 + red_max*(phi-1)
        import numpy as np
        n = self.degree
        steps = -(-(length - n) // (n - 1))
        growth = (1 + self.red_max * (n - 1)) ** steps
        if self.wide or bound * growth >= _INT64_SAFE:
            return object
        return np.int64

    def _divide(self, v) -> tuple[int, ...]:
        # v is a numpy vector, or a list of Python ints to convert
        if isinstance(v, list):
            import numpy as np
            v = np.array(v, self._dtype(max(map(abs, v)), len(v)))
        n, red = self.degree, self.red
        while len(v) > n:
            start = max(len(v) - (n - 1), n)
            v[start - n:start] += red[:, :len(v) - start] @ v[start:]
            v = v[:start]
        return tuple(v.tolist())

    def reduce(self, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """sum(c * zeta^e for (e, c) in terms) in the power basis."""
        half = self.modulus // 2
        v = [0] * half
        for e, c in terms:
            e %= self.modulus
            if e < half:
                v[e] += c
            else:
                v[e - half] -= c
        # long division from the highest nonzero degree down, on Python
        # ints when its multiply-adds fit the bound
        n = self.degree
        top = next((k for k in range(half - 1, n - 1, -1) if v[k]), n - 1)
        if (top - n + 1) * len(self.low) <= _SPARSE_WORK:
            for k in range(top, n - 1, -1):
                t = v[k]
                if t:
                    for j, c in self.low:
                        v[k - n + j] -= t * c
            return tuple(v[:n])
        return self._divide(v)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        zero = (0,) * self.degree
        return self.det(a, b, zero, zero)

    def det(self, a: Sequence[int], b: Sequence[int],
            c: Sequence[int], d: Sequence[int]) -> tuple[int, ...]:
        """a*b - c*d, unnormalized, with no CycloReal built on the way:
        on Python ints when that takes at most _SPARSE_WORK multiply-adds,
        with numpy otherwise (see the class docstring)."""
        n = self.degree
        # c and d are counted only if a and b leave room, so a dense
        # product costs two counts
        work = (n - a.count(0)) * (n - b.count(0))
        if work <= _SPARSE_WORK:
            work += (n - c.count(0)) * (n - d.count(0))
        if work <= _SPARSE_WORK:
            idx = range(n)
            v = [0] * (2 * n - 1)
            for x, y, s in ((a, b, 1), (c, d, -1)):
                ys = [(j, s * q) for j, q in zip(compress(idx, y), compress(y, y))]
                for i, p in zip(compress(idx, x), compress(x, x)):
                    for j, q in ys:
                        v[i + j] += p * q
            top = v[n:]
            cols = list(compress(idx, top))
            rows = [self.rows[i] for i in cols]
            if all(rows) and work + sum(map(len, rows)) <= _SPARSE_WORK:
                for i, row in zip(cols, rows):
                    p = top[i]
                    for j, q in row:
                        v[j] += p * q
                return tuple(v[:n])
            # a dense column or too many row entries: _divide reduces v
            return self._divide(v)
        # dense factors: one conversion and two convolutions for the four
        import numpy as np
        try:
            f = np.array((a, b, c, d), np.int64)
        except OverflowError:  # a coefficient past int64, even beside a zero
            f = np.array((a, b, c, d), object)
        ma, mb, mc, md = (max(hi, -lo) for hi, lo in zip(f.max(1).tolist(), f.min(1).tolist()))
        if self._dtype((ma * mb + mc * md) * n, 2 * n - 1) is object:
            f = f.astype(object)
        v = np.convolve(f[0], f[1])
        if mc and md:
            v = v - np.convolve(f[2], f[3])
        return self._divide(v)

    def conj(self, a: Sequence[int]) -> tuple[int, ...]:
        # zeta^j -> zeta^-j
        return self.reduce((-j, c) for j, c in enumerate(a) if c)

    def embed(self, a: Sequence[int], target: "_Field") -> tuple[int, ...]:
        # zeta_M = zeta_L^(L/M) for M | L
        step = target.modulus // self.modulus
        return target.reduce((j * step, c) for j, c in enumerate(a) if c)


def _checked_degree(modulus: int) -> int:
    """phi(modulus), refusing a field over the degree limit."""
    # phi(M) >= sqrt(M/2): refuse a larger M before euler_phi's
    # trial division, whose cost grows with sqrt(M)
    if modulus > 2 * PHI_LIMIT ** 2:
        raise ResourceLimitError(
            f"modulus {echo(modulus)} exceeds {2 * PHI_LIMIT ** 2}, "
            f"so phi exceeds the limit {PHI_LIMIT}"
        )
    degree = euler_phi(modulus)
    if degree > PHI_LIMIT:
        raise ResourceLimitError(
            f"phi({modulus}) = {degree} exceeds the limit {PHI_LIMIT}"
        )
    return degree


_fields: OrderedDict[int, _Field] = OrderedDict()


def _field(modulus: int) -> _Field:
    """Q(zeta_modulus), from a least-recently-used cache that holds at
    most FIELD_CACHE_ENTRIES entries: phi * (phi - 1) a field for the
    reduction table, built or not, and at most
    min(phi, _SPARSE_WORK) * (phi - 1) for its sparse rows.  Any one
    field fits, so the newest is always kept.
    The oldest are dropped before a new one is built, so a large table is
    never built beside a cached one it would evict."""
    field = _fields.get(modulus)
    if field is not None:
        _fields.move_to_end(modulus)
        return field
    if modulus < 4 or modulus % 4:
        raise ModulusError(
            f"modulus {echo(modulus)} is not a positive multiple of 4")
    degree = _checked_degree(modulus)
    held = sum(f.entries for f in _fields.values())
    most = (degree + min(degree, _SPARSE_WORK)) * (degree - 1)
    while _fields and held + most > FIELD_CACHE_ENTRIES:
        held -= _fields.popitem(last=False)[1].entries
    field = _fields[modulus] = _Field(modulus)
    return field


_field.cache_clear = _fields.clear  # type: ignore[attr-defined]


def _normalize(num: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    num = tuple(num)
    if den <= 0:
        raise DomainError("denominator must be positive")
    g = 0
    for v in num:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g == 0:
        return (0,) * len(num), 1
    g = math.gcd(g, den)
    if g > 1:
        num = tuple(v // g for v in num)
        den //= g
    return num, den


def _float_outward(q: Fraction, toward: float) -> float:
    # q rounded one step toward the infinity `toward`, from the largest
    # float of q's sign when q lies past the float range
    try:
        return math.nextafter(float(q), toward)
    except OverflowError:
        return math.nextafter(sys.float_info.max if q > 0 else -sys.float_info.max, toward)


class CycloReal:
    """An element of the real subfield of Q(zeta_M), 4 | M.

    Immutable.  ``num`` is an integer coefficient tuple of length
    phi(M) (ascending powers of zeta_M) and ``den`` a positive integer;
    the represented value is ``sum(num[j] * zeta_M**j) / den``.  The
    pair is kept normalized (gcd of all entries and den is 1), so two
    elements of the same modulus are equal iff their fields are equal.
    """

    __slots__ = ("modulus", "num", "den", "_box")

    def __init__(self, modulus: int, coeffs: Sequence[Fraction | int]) -> None:
        field = _field(modulus)
        if len(coeffs) != field.degree:
            raise DomainError(
                f"expected {field.degree} coefficients for modulus {modulus}, "
                f"got {len(coeffs)}"
            )
        # one as_integer_ratio call reads both parts of each coefficient
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*[q for _, q in ratios])
        num, den = _normalize([p * (den // q) for p, q in ratios], den)
        if field.conj(num) != num:
            raise NonRealError(
                f"coefficient vector is not fixed by conjugation in "
                f"Q(zeta_{modulus})"
            )
        self._init_raw(modulus, num, den)

    def _init_raw(self, modulus: int, num: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_box", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycloReal is immutable")

    @classmethod
    def _make(cls, modulus: int, num: tuple[int, ...], den: int) -> "CycloReal":
        # for results of operations that keep values real, so unchecked
        obj = object.__new__(cls)
        obj._init_raw(modulus, num, den)
        return obj

    @classmethod
    def from_rational(cls, value: Fraction | int, modulus: int) -> "CycloReal":
        field = _field(modulus)
        value = Fraction(value)
        num = [0] * field.degree
        num[0] = value.numerator
        return cls._make(modulus, *_normalize(num, value.denominator))

    @classmethod
    def zero(cls, modulus: int) -> "CycloReal":
        return cls.from_rational(0, modulus)

    @classmethod
    def one(cls, modulus: int) -> "CycloReal":
        return cls.from_rational(1, modulus)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other: object) -> "CycloReal | None":
        if isinstance(other, CycloReal):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloReal.from_rational(other, self.modulus)
        return None

    def _aligned(self, other: "CycloReal") -> tuple["_Field", tuple[int, ...], int, tuple[int, ...], int]:
        if self.modulus == other.modulus:
            return _field(self.modulus), self.num, self.den, other.num, other.den
        big = math.lcm(self.modulus, other.modulus)
        field = _field(big)
        a = _field(self.modulus).embed(self.num, field)
        b = _field(other.modulus).embed(other.num, field)
        return field, a, self.den, b, other.den

    def _plus(self, other: "CycloReal", sign: int) -> "CycloReal":
        # self + sign * other in one pass over the coefficients
        field, a, da, b, db = self._aligned(other)
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        num = tuple(x * fa + y * fb for x, y in zip(a, b))
        return CycloReal._make(field.modulus, *_normalize(num, den))

    def _scaled(self, p: int, q: int) -> "CycloReal":
        # self * p/q for integers p and q > 0
        num = tuple(v * p for v in self.num)
        return CycloReal._make(self.modulus, *_normalize(num, self.den * q))

    def __add__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> "CycloReal":
        return CycloReal._make(self.modulus, tuple(-v for v in self.num), self.den)

    def __sub__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(self, -1)

    def __mul__(self, other: object) -> "CycloReal":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, CycloReal):
            return NotImplemented
        if self.modulus == other.modulus:
            # a rational factor of the same field scales the other
            if other.is_rational():
                return self._scaled(other.num[0], other.den)
            if self.is_rational():
                return other._scaled(self.num[0], self.den)
        field, a, da, b, db = self._aligned(other)
        num = field.mul(a, b)
        return CycloReal._make(field.modulus, *_normalize(num, da * db))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CycloReal":
        # scalar division only; field inverses are out of scope
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("value is irrational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.modulus == rhs.modulus:
            return self.num == rhs.num and self.den == rhs.den
        _, a, da, b, db = self._aligned(rhs)
        return da == db and a == b

    __hash__ = None  # canonical forms are keyed via .key() per modulus

    def key(self) -> tuple:
        """Hashable exact identity within a fixed modulus."""
        return (self.modulus, self.num, self.den)

    # -- numerics --------------------------------------------------------

    def enclosure(self, prec: int = 64) -> tuple[Fraction, Fraction]:
        """A rigorous rational interval containing the value, which is
        real (checked once, at construction).  Width shrinks as ``prec``
        grows.  The endpoints are integer sums over the dyadic cosine
        table, so each costs one Fraction and they are exactly the sums
        of the table's rational endpoints."""
        table_lo, table_hi, shift = _field(self.modulus).cos_table(prec)
        lo = hi = 0
        for c, tl, th in zip(self.num, table_lo, table_hi):
            if c > 0:
                lo += c * tl
                hi += c * th
            elif c < 0:
                lo += c * th
                hi += c * tl
        den = self.den << shift
        return Fraction(lo, den), Fraction(hi, den)

    def sign(self) -> int:
        """Sign in {-1, 0, 1}.  Zero is decided symbolically; nonzero
        values are separated from zero by interval refinement, which
        terminates because the true value is nonzero."""
        if self.is_zero():
            return 0
        prec = 64
        while prec <= _PREC_CEILING:
            lo, hi = self.enclosure(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise ResourceLimitError(f"sign not separated at {_PREC_CEILING} bits")

    def float_box(self) -> tuple[float, float]:
        """A float interval guaranteed to contain the value; an end may be infinite."""
        if self._box is None:
            lo, hi = self.enclosure(64)
            box = (_float_outward(lo, -math.inf), _float_outward(hi, math.inf))
            object.__setattr__(self, "_box", box)
        return self._box

    def __float__(self) -> float:
        lo, hi = self.float_box()
        return (lo + hi) / 2

    def __repr__(self) -> str:
        return (f"CycloReal(mod={self.modulus}, [{', '.join(self._coeff_strings())}] "
                f"~ {float(self):.6g})")

    # -- serialization ---------------------------------------------------

    def _coeff_strings(self) -> list[str]:
        # str(Fraction(v, den)) for each coefficient, from one gcd
        den = self.den
        out = []
        for v in self.num:
            g = math.gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return out

    def to_obj(self) -> dict:
        return {"modulus": self.modulus, "coeffs": self._coeff_strings()}

    @classmethod
    def from_obj(cls, obj: object) -> "CycloReal":
        """Read ``{"modulus": M, "coeffs": [text, ...]}``, each text in
        parse_fraction's grammar.  A text that repeats within the list is
        parsed once; the first bad coefficient in list order is the one
        reported."""
        if not isinstance(obj, dict) or set(obj) != {"modulus", "coeffs"}:
            raise FormatError(
                "scalar must be an object with exactly the keys 'modulus' and 'coeffs'"
            )
        modulus = obj["modulus"]
        coeffs = obj["coeffs"]
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise FormatError("scalar modulus must be an integer")
        if not isinstance(coeffs, list):
            raise FormatError("scalar coeffs must be a list of fraction strings")
        values: dict = {}
        for c in coeffs:
            if type(c) is not str or c not in values:
                values[c] = parse_fraction(c, "coefficient")
        try:
            return cls(modulus, [values[c] for c in coeffs])
        except (DomainError, ModulusError, NonRealError, ResourceLimitError) as exc:
            raise FormatError(str(exc)) from None


def _trig_step(name: str, k: int, m: int, modulus: int) -> int:
    # modulus/(2m), the power of zeta_modulus that is the angle pi/m
    _field(modulus)
    if m < 1:
        raise DomainError(f"angle denominator must be positive, got {m}")
    if modulus % (2 * m):
        raise ModulusError(
            f"{name}({k}*pi/{m}) needs 2*{m} | modulus, got modulus {modulus}"
        )
    return modulus // (2 * m)


def _zeta_mean(modulus: int, t: int) -> CycloReal:
    # (zeta^t + zeta^-t) / 2 = cos(2*pi*t/modulus)
    num = _field(modulus).reduce(((t, 1), (-t, 1)))
    return CycloReal._make(modulus, *_normalize(num, 2))


def cos_pi(k: int, m: int, modulus: int) -> CycloReal:
    """cos(k*pi/m) as an element of Q(zeta_modulus).

    Requires m >= 1 and 2*m | modulus (and 4 | modulus as always).
    """
    return _zeta_mean(modulus, k * _trig_step("cos", k, m, modulus))


def sin_pi(k: int, m: int, modulus: int) -> CycloReal:
    """sin(k*pi/m) as an element of Q(zeta_modulus); same preconditions
    as :func:`cos_pi`."""
    step = _trig_step("sin", k, m, modulus)
    # sin(x) = cos(pi/2 - x); exponent M/4 - k*M/(2m) is an integer
    return _zeta_mean(modulus, modulus // 4 - k * step)


def field_degree(modulus: int) -> int:
    """phi(modulus), after validating the modulus."""
    return _field(modulus).degree

