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
sum come from mpmath intervals, whose endpoints are binary floats; stored
as integers over one power of two they are exact, so an enclosure is an
integer sum and one Fraction per endpoint.
"""
from __future__ import annotations

import math
import sys
from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_rational

from .errors import DomainError, FormatError, ModulusError, NonRealError, ResourceLimitError, echo
from .text import parse_fraction

# Largest permitted field degree phi(M).  Work above this is refused
# rather than attempted.
PHI_LIMIT = 4096

# Most reduction-table entries the field cache holds: one field at the
# degree limit, about 130 MB of int64.
FIELD_CACHE_ENTRIES = PHI_LIMIT * (PHI_LIMIT - 1)

# Bound under which int64 reduction is provably overflow-free (checked
# per reduction, see _Field._dtype).
_INT64_SAFE = 1 << 62

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


class _Field:
    """Arithmetic in Q(zeta_M) = Q[x] / Phi_M, 4 | M, on integer
    coefficient tuples of length phi = phi(M) in the basis 1, x, ...,
    x^(phi-1).

    Every reduction is one routine, :meth:`_divide`: division by the
    monic Phi_M from the top, phi - 1 degrees a step.  Its only table is
    ``red``, whose column i is x^(phi+i) mod Phi_M for i < phi - 1.
    Those are the degrees a product of two reduced elements reaches, so
    :meth:`mul` takes one step; a longer vector takes one step per
    phi - 1 coefficients above degree phi.  :meth:`reduce` first folds
    every exponent below M/2 with zeta^(M/2) = -1, so it needs at most
    (M/2 - phi) / (phi - 1) + 1 steps.  The table has phi * (phi - 1)
    entries, where one row per power below M would take M * phi.  A step
    runs in int64 when a bound on every partial sum proves it cannot
    overflow, and on Python ints otherwise.  The table is built in int64
    as well, a column at a time, and on Python ints from the first column
    whose bound would reach 2**62.  The field also keeps its cosine tables
    (:meth:`cos_table`), so a field dropped from the cache takes them along.
    """

    def __init__(self, modulus: int) -> None:
        degree = _checked_degree(modulus)
        self.modulus = modulus
        self.degree = degree
        # int64 holds Phi_M: phi <= PHI_LIMIT leaves M at most four odd
        # primes, so its coefficients are below M**2 (Bateman, 1949)
        low = np.array(cyclotomic_polynomial(modulus)[:-1], np.int64)
        low_max = int(abs(low).max())
        red = np.empty((degree, degree - 1), np.int64)
        col, col_max = -low, low_max  # x^phi = x^phi - Phi_M
        self.red_max = 0
        for i in range(degree - 1):
            red[:, i] = col
            self.red_max = max(self.red_max, col_max)
            top = int(col[-1])
            if red.dtype != object and col_max + abs(top) * low_max >= _INT64_SAFE:
                # the next column may overflow int64: go on with Python ints
                red, low = red.astype(object), low.astype(object)
            col = np.concatenate(([0], col[:-1])) - top * low
            col_max = int(abs(col).max())
        self.red = red
        self.cos: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}

    def cos_table(self, prec: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Rigorous enclosures lo[j] / 2**shift <= cos(2*pi*j/M) <= hi[j] / 2**shift
        for j < phi(M), as two integer vectors over one power of two.

        Every endpoint of an mpmath interval is a binary float, an integer
        times a power of two, so scaling all of them to the smallest power
        among them loses nothing: the enclosures are exactly mpmath's.
        """
        if prec not in self.cos:
            iv = mpmath.iv
            saved = iv.prec
            ends = []
            try:
                iv.prec = prec
                two_pi = 2 * iv.pi
                for j in range(self.degree):
                    ends.append([to_rational(e) for e in iv.cos(two_pi * j / self.modulus)._mpi_])
            finally:
                iv.prec = saved
            # each denominator q is a power of two, 2**(q.bit_length() - 1)
            shift = max(q.bit_length() for pair in ends for _, q in pair) - 1
            lo, hi = (tuple(p << (shift + 1 - q.bit_length()) for p, q in side)
                      for side in zip(*ends))
            self.cos[prec] = lo, hi, shift
        return self.cos[prec]

    def _dtype(self, bound: int, length: int) -> type:
        # int64 when no partial sum can overflow: the coefficients of a
        # vector of this length are at most bound in absolute value, and
        # each division step multiplies that by at most 1 + red_max*(phi-1)
        n = self.degree
        steps = -(-(length - n) // (n - 1))
        growth = (1 + self.red_max * (n - 1)) ** steps
        if self.red.dtype == object or bound * growth >= _INT64_SAFE:
            return object
        return np.int64

    def _divide(self, v: np.ndarray) -> tuple[int, ...]:
        n = self.degree
        while len(v) > n:
            start = max(len(v) - (n - 1), n)
            v[start - n:start] += self.red[:, :len(v) - start] @ v[start:]
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
        return self._divide(np.array(v, self._dtype(max(map(abs, v)), half)))

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        bound = max(map(abs, a)) * max(map(abs, b)) * self.degree
        if not bound:
            return (0,) * self.degree
        dtype = self._dtype(bound, 2 * self.degree - 1)
        return self._divide(np.convolve(np.array(a, dtype), np.array(b, dtype)))

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
    most FIELD_CACHE_ENTRIES reduction-table entries, phi * (phi - 1) a
    field.  Any one field fits, so the newest is always kept.  The
    oldest are dropped before a new one is built, so a large table is
    never built beside a cached one it would evict."""
    field = _fields.get(modulus)
    if field is not None:
        _fields.move_to_end(modulus)
        return field
    if modulus < 4 or modulus % 4:
        raise ModulusError(
            f"modulus {echo(modulus)} is not a positive multiple of 4")
    degree = _checked_degree(modulus)
    held = sum(f.red.size for f in _fields.values())
    while _fields and held + degree * (degree - 1) > FIELD_CACHE_ENTRIES:
        held -= _fields.popitem(last=False)[1].red.size
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
        den = math.lcm(*(c.denominator for c in coeffs))
        num, den = _normalize([c.numerator * (den // c.denominator) for c in coeffs], den)
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
        return (f"CycloReal(mod={self.modulus}, [{', '.join(self._coeff_texts())}] "
                f"~ {float(self):.6g})")

    # -- serialization ---------------------------------------------------

    def _coeff_texts(self) -> list[str]:
        # str(Fraction(v, den)) for each coefficient, from one gcd
        den = self.den
        out = []
        for v in self.num:
            g = math.gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return out

    def to_obj(self) -> dict:
        return {"modulus": self.modulus, "coeffs": self._coeff_texts()}

    @classmethod
    def from_obj(cls, obj: object) -> "CycloReal":
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
        try:
            return cls(modulus, [parse_fraction(c, "coefficient") for c in coeffs])
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

