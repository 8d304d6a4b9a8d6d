"""Exact scalar arithmetic over real cyclotomic numbers.

Angles are tracked as :class:`fractions.Fraction` values in units of the
right angle (so ``1`` means ``pi/2``).  Coordinates and trigonometric
values live in :class:`CycloReal`, the real subfield of a cyclotomic
field ``Q(zeta_M)`` with ``4 | M``.  An element is stored as an integer
coefficient vector of length ``phi(M)`` over a common positive
denominator, reduced modulo the M-th cyclotomic polynomial; that
canonical form is unique, so equality and zero tests are exact symbol
comparisons and never rely on numerics.

Numeric enclosures (used only to decide signs of provably nonzero
values and to seed floating-point filters) are rigorous interval
evaluations with exact rational endpoints.
"""
from __future__ import annotations

import math
import re
import reprlib
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_rational

from .errors import DomainError, FormatError, ModulusError, NonRealError, ResourceLimitError

# Largest permitted field degree phi(M).  Work above this is refused
# rather than attempted.
PHI_LIMIT = 4096

# Coefficient bound under which the int64 convolution path is provably
# overflow-free (checked per multiplication, see _Field.mul).
_INT64_SAFE = 1 << 62

# Hard ceiling for sign-refinement precision, in bits.  Signs are only
# refined for symbolically nonzero values, so this is never reached in
# correct use; it bounds the damage of a bug.
_PREC_CEILING = 1 << 16


def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError(f"euler_phi undefined for {m}")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if k > 1:
        result -= result // k
    return result


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # den is monic; division must be exact
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    shift = len(den) - 1
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + shift]
        if c:
            out[i] = c
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree."""
    if m < 1:
        raise DomainError(f"cyclotomic_polynomial undefined for {m}")
    if m == 1:
        return (-1, 1)
    # x^m - 1 divided by the cyclotomic polynomials of all proper divisors
    poly = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class _Field:
    """Cached reduction tables for arithmetic in Q(zeta_M)."""

    def __init__(self, modulus: int) -> None:
        # phi(M) >= sqrt(M/2): refuse a larger M before euler_phi's
        # trial division, whose cost grows with sqrt(M)
        if modulus > 2 * PHI_LIMIT ** 2:
            raise ResourceLimitError(
                f"modulus {modulus} exceeds {2 * PHI_LIMIT ** 2}, so phi "
                f"exceeds the limit {PHI_LIMIT}"
            )
        degree = euler_phi(modulus)
        if degree > PHI_LIMIT:
            raise ResourceLimitError(
                f"phi({modulus}) = {degree} exceeds the limit {PHI_LIMIT}"
            )
        self.modulus = modulus
        self.degree = degree
        phi_poly = cyclotomic_polynomial(modulus)
        low = phi_poly[:-1]
        # pow_rows[j] = coefficient vector of x^j mod Phi_M
        top = max(modulus - 1, 2 * degree - 2)
        row = [0] * degree
        row[0] = 1
        rows: list[tuple[int, ...]] = [tuple(row)]
        for _ in range(top):
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                for j, cj in enumerate(low):
                    row[j] -= carry * cj
            rows.append(tuple(row))
        self.pow_rows = rows
        # numpy reduction block for product degrees degree..2*degree-2
        red = rows[degree:2 * degree - 1]
        self.row_max = max((max(abs(v) for v in r) for r in red), default=0)
        self.np_ok = self.row_max < (1 << 31)
        self._red_np = (
            np.array(red, dtype=np.int64) if self.np_ok and red else None
        )

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        n = self.degree
        amax = max(map(abs, a), default=0)
        bmax = max(map(abs, b), default=0)
        if amax == 0 or bmax == 0:
            return (0,) * n
        if self.np_ok and self._red_np is not None:
            conv_bound = amax * bmax * n
            if conv_bound * (1 + self.row_max * (n - 1)) < _INT64_SAFE:
                conv = np.convolve(
                    np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
                )
                out = conv[:n].copy()
                high = conv[n:]
                if high.size:
                    out += high @ self._red_np
                return tuple(int(v) for v in out)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out_py = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                row = self.pow_rows[k]
                for j in range(n):
                    if row[j]:
                        out_py[j] += c * row[j]
        return tuple(out_py)

    def conj(self, a: Sequence[int]) -> tuple[int, ...]:
        # zeta^j -> zeta^(M-j)
        out = [0] * self.degree
        for j, c in enumerate(a):
            if c:
                row = self.pow_rows[(self.modulus - j) % self.modulus]
                for i in range(self.degree):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def embed(self, a: Sequence[int], target: "_Field") -> tuple[int, ...]:
        # zeta_M = zeta_L^(L/M) for M | L
        step = target.modulus // self.modulus
        out = [0] * target.degree
        for j, c in enumerate(a):
            if c:
                row = target.pow_rows[j * step]
                for i in range(target.degree):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)


@lru_cache(maxsize=None)
def _field(modulus: int) -> _Field:
    if modulus < 4 or modulus % 4:
        raise ModulusError(f"modulus {modulus} is not a positive multiple of 4")
    return _Field(modulus)


@lru_cache(maxsize=None)
def _cos_table(modulus: int, prec: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Rigorous enclosures of cos(2*pi*j/M) for j < phi(M)."""
    field = _field(modulus)
    iv = mpmath.iv
    saved = iv.prec
    out = []
    try:
        iv.prec = prec
        two_pi = 2 * iv.pi
        for j in range(field.degree):
            x = iv.cos(two_pi * j / modulus)
            lo, hi = x._mpi_
            out.append((Fraction(*to_rational(lo)), Fraction(*to_rational(hi))))
    finally:
        iv.prec = saved
    return tuple(out)


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


def parse_fraction(text: object, what: str) -> Fraction:
    """Read fraction text in the one grammar tilegate accepts, which is
    what ``str(Fraction)`` writes: ``u`` or ``u/v``, 1 to 300 ASCII digits
    a part, u signed, v nonzero.  The cap keeps any loaded value below
    PHI_LIMIT * 10**300 < 1.7e308, so float_box stays finite."""
    m = isinstance(text, str) and re.fullmatch(
        r"(-?[0-9]{1,300})(?:/(?!0*\Z)([0-9]{1,300}))?", text)
    if not m:
        raise FormatError(
            f"{what} must be 'u' or 'u/v' with at most 300 ASCII digits "
            f"a part and v nonzero, got {reprlib.repr(text)}")
    return Fraction(int(m[1]), int(m[2] or 1))


class CycloReal:
    """An element of the real subfield of Q(zeta_M), 4 | M.

    Immutable.  ``num`` is an integer coefficient tuple of length
    phi(M) (ascending powers of zeta_M) and ``den`` a positive integer;
    the represented value is ``sum(num[j] * zeta_M**j) / den``.  The
    pair is kept normalized (gcd of all entries and den is 1), so two
    elements of the same modulus are equal iff their fields are equal.
    """

    __slots__ = ("modulus", "num", "den", "_box", "_sign", "_real")

    def __init__(self, modulus: int, coeffs: Sequence[Fraction | int],
                 *, check_real: bool = True) -> None:
        field = _field(modulus)
        if len(coeffs) != field.degree:
            raise DomainError(
                f"expected {field.degree} coefficients for modulus {modulus}, "
                f"got {len(coeffs)}"
            )
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        self._init_raw(modulus, *_normalize(num, den))
        if check_real and not self.is_real():
            raise NonRealError(
                f"coefficient vector is not fixed by conjugation in "
                f"Q(zeta_{modulus})"
            )

    def _init_raw(self, modulus: int, num: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_box", None)
        object.__setattr__(self, "_sign", None)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycloReal is immutable")

    @classmethod
    def _make(cls, modulus: int, num: tuple[int, ...], den: int) -> "CycloReal":
        obj = object.__new__(cls)
        obj._init_raw(modulus, num, den)
        object.__setattr__(obj, "_real", True)
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

    def rescaled(self, modulus: int) -> "CycloReal":
        """The same value viewed in Q(zeta_modulus); modulus must be a
        multiple of the current one (and of 4)."""
        if modulus == self.modulus:
            return self
        if modulus % self.modulus:
            raise ModulusError(
                f"cannot rescale modulus {self.modulus} to non-multiple {modulus}"
            )
        field = _field(modulus)
        num = _field(self.modulus).embed(self.num, field)
        return CycloReal._make(modulus, *_normalize(num, self.den))

    def __add__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field, a, da, b, db = self._aligned(rhs)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        num = tuple(x * fa + y * fb for x, y in zip(a, b))
        return CycloReal._make(field.modulus, *_normalize(num, den))

    __radd__ = __add__

    def __neg__(self) -> "CycloReal":
        return CycloReal._make(self.modulus, tuple(-v for v in self.num), self.den)

    def __sub__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other: object) -> "CycloReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other: object) -> "CycloReal":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            num = tuple(v * other.numerator for v in self.num)
            return CycloReal._make(
                self.modulus, *_normalize(num, self.den * other.denominator)
            )
        if not isinstance(other, CycloReal):
            return NotImplemented
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

    def conjugate(self) -> "CycloReal":
        field = _field(self.modulus)
        num = field.conj(self.num)
        out = object.__new__(CycloReal)
        out._init_raw(self.modulus, *_normalize(num, self.den))
        return out

    def is_real(self) -> bool:
        if self._real is None:
            field = _field(self.modulus)
            object.__setattr__(self, "_real", field.conj(self.num) == self.num)
        return self._real

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
        """A rigorous rational interval containing the value.

        Requires the value to be real.  Width shrinks as ``prec`` grows.
        """
        if not self.is_real():
            raise NonRealError("enclosure of a non-real value")
        table = _cos_table(self.modulus, prec)
        lo = hi = Fraction(0)
        for c, (tl, th) in zip(self.num, table):
            if c > 0:
                lo += c * tl
                hi += c * th
            elif c < 0:
                lo += c * th
                hi += c * tl
        return lo / self.den, hi / self.den

    def sign(self) -> int:
        """Sign in {-1, 0, 1}.  Zero is decided symbolically; nonzero
        values are separated from zero by interval refinement, which
        terminates because the true value is nonzero."""
        if self._sign is not None:
            return self._sign
        if not self.is_real():
            raise NonRealError("sign of a non-real value")
        if self.is_zero():
            s = 0
        else:
            s = 0
            prec = 64
            while prec <= _PREC_CEILING:
                lo, hi = self.enclosure(prec)
                if lo > 0:
                    s = 1
                    break
                if hi < 0:
                    s = -1
                    break
                prec *= 2
            else:
                raise ResourceLimitError(
                    f"sign not separated at {_PREC_CEILING} bits"
                )
        object.__setattr__(self, "_sign", s)
        return s

    def float_box(self) -> tuple[float, float]:
        """A float interval guaranteed to contain the value."""
        if self._box is None:
            lo, hi = self.enclosure(64)
            box = (
                math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf),
            )
            object.__setattr__(self, "_box", box)
        return self._box

    def __float__(self) -> float:
        lo, hi = self.float_box()
        return (lo + hi) / 2

    def __repr__(self) -> str:
        coeffs = [str(Fraction(v, self.den)) for v in self.num]
        return f"CycloReal(mod={self.modulus}, [{', '.join(coeffs)}] ~ {float(self):.6g})"

    # -- serialization ---------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "modulus": self.modulus,
            "coeffs": [str(Fraction(v, self.den)) for v in self.num],
        }

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
    rows = _field(modulus).pow_rows
    t %= modulus
    num = [a + b for a, b in zip(rows[t], rows[(modulus - t) % modulus])]
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

