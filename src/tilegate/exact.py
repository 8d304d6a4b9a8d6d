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
point with a counted error (see :meth:`_Field.powers`), so an
enclosure is an integer sum and one Fraction per endpoint, and a float
box rounds the same integers with no Fraction at all.  Likewise an
element read from text is built from the integer parts of its
coefficients.

Products and reductions run on Python ints alone.  While their
multiply-adds stay under a bound that grows with the field degree, as
they do for the sparse coordinates of fans and refined tilings, they
take only the nonzero coefficients; past it, each vector is packed into
one integer (Kronecker substitution), so a product is one big-int
multiplication, and Phi_M divides it by Barrett's method with the
inverse cyclotomic series (see :class:`_Field`).  No module of the
package imports anything outside the standard library.
"""
from __future__ import annotations

import math
import sys
from array import array
from collections import OrderedDict
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FormatError, ModulusError, NonRealError, ResourceLimitError, echo
from .text import fraction_parts

# Largest permitted field degree phi(M).  Work above this is refused
# rather than attempted.
PHI_LIMIT = 4096

# Most multiply-adds _Field.det and _Field.reduce spend on the nonzero
# coefficients of a call at field degree phi, products and reduction
# together, is _SPARSE_WORK + phi; past it they pack (see _Field).  The
# crossover, the work at which both paths took the same time, on the
# calls verify(gen_trivial(n)) makes, replayed, and on random factors
# with k nonzeros each (Intel Xeon, 2 vCPUs, Python 3.11), against the
# bound:
#
#   phi              8    32    92   160   396   800
#   replayed         -   150   250     -   450   850
#   random          70   100   220   380     -  1000
#   96 + phi       104   128   188   256   492   896
#
# The packed path's fixed cost, about 20 us, sets the crossover at
# small phi; its per-coefficient passes, the growth with phi.
_SPARSE_WORK = 96

# A factor of det's packed path with fewer than phi / _FEW nonzeros is
# taken as its nonzeros: packed by shifts, or multiplying the other
# factor term by term, not through an array.
_FEW = 8

# Most coefficients the field cache holds, M/2 a field (_Field.half):
# a few MB of ints, and seven fields at the largest moduli the degree
# limit admits.
FIELD_CACHE_ENTRIES = 1 << 16

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
    """Coefficients of the m-th cyclotomic polynomial, ascending degree."""
    if m < 1:
        raise DomainError(f"cyclotomic_polynomial undefined for {m}")
    if m == 1:
        return (-1, 1)
    return tuple(_cyclotomic_series(m, euler_phi(m) + 1, 1))


def _cyclotomic_series(m: int, length: int, power: int) -> list[int]:
    """The first ``length`` coefficients of the power series Phi_m**power,
    power = 1 or -1, for m > 1.

    Phi_m(x) is the product over squarefree d | m of (1 - x^(m/d))^mu(d)
    (Arnold & Monagan, Calculating cyclotomic polynomials, Math. Comp. 80,
    2011).  Cut at degree length - 1, each factor of Phi_m**power costs
    O(length): a multiplication by 1 - x^e when mu(d) * power = 1, a
    division by it otherwise.
    """
    series = [1] + [0] * (length - 1)
    factors = [(1, power)]  # (squarefree d, mu(d) * power)
    for p in _prime_factors(m):
        factors += [(d * p, -mu) for d, mu in factors]
    for d, mu in factors:
        e = m // d
        if mu == 1:
            for i in range(length - 1, e - 1, -1):
                series[i] -= series[i - e]
        else:
            for i in range(e, length):
                series[i] += series[i - e]
    return series[:length]


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


class _Powers(dict):
    """z_j = (re, im, D) keyed by j, at w bits: z_0 and z_1 from the
    start, any other made when first asked for (see _Field.powers)."""

    def __init__(self, w: int, z1: tuple[int, int, int]) -> None:
        super().__init__({0: (1 << w, 0, 0), 1: z1})
        self.w = w

    def __missing__(self, j: int) -> tuple[int, int, int]:
        (ar, ai, da), (br, bi, db), w = self[j >> 1], self[j - (j >> 1)], self.w
        z = self[j] = ((ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w,
                       da + db + (da * db >> w) + 3)
        return z


class _Field:
    """Arithmetic in Q(zeta_M) = Q[x] / Phi_M, 4 | M, on integer
    coefficient tuples of length phi = phi(M) in the basis 1, x, ...,
    x^(phi-1).

    Every product is one routine, :meth:`det`, a*b - c*d (:meth:`mul` is
    a*b - 0*0), and every reduction ends the same way: zeta^(M/2) = -1
    folds each degree d >= M/2 onto d - M/2, negated, and division by the
    monic Phi_M, of degree phi <= M/2, removes the k = M/2 - phi degrees
    left above phi.  Two paths do that work, chosen per call.

    On the nonzero coefficients: the coordinates of fans and their
    altitude refinements have 2 to 4 nonzero coefficients.  When the
    nonzero products number at most _SPARSE_WORK + phi, det multiplies
    only those, on Python ints, and folds as it multiplies: the term of
    degrees i and j lands on slot i + j of M/2, or on i + j - M/2
    negated, which is the whole fold, as i + j <= 2 phi - 2 < M.  Where
    M/2 = phi, as for M a power of two, those slots are the product; else
    det divides the k degrees above phi by the nonzero coefficients of
    Phi_M (``low``) from the top, while the multiply-adds of both stay
    under that bound; :meth:`reduce` folds and divides in the same way.
    Past the bound, the work is packed.

    Packed, by Kronecker substitution (A. Schonhage, EUROCAM 1982; D.
    Harvey, J. Symbolic Comput. 44, 2009): a vector v becomes one
    integer V = sum(v_i * 2**(s*i)), its slots s = 8w bits wide.  If
    every |v_i| < 2**(s-1), the low s*j bits of V, read as the integer
    between -2**(s*j-1) and 2**(s*j-1) they stand for, are
    sum(v_i * 2**(s*i)) over i < j, which lies strictly in that range; so
    V splits at any slot and determines v.  Products of vectors are
    products of their packed integers, so a*b - c*d is A*B - C*D, and its
    fold is V mod 2**(s*M/2) + 1: the low M/2 slots minus the rest.  A
    factor with few nonzeros multiplies the other term by term, which at
    large phi costs far less than a full product.

    Then Barrett division.  Write v = v_lo + x^phi * v_hi, with v_hi of
    k coefficients, and v = q * Phi_M + r.  Phi_M is palindromic, so
    reversing both sides gives rev(q) = rev(v_hi) / Phi_M mod x^k.  The
    series 1/Phi_M is -Psi_M / (1 - x^M), Psi_M = (x^M - 1) / Phi_M the
    inverse cyclotomic polynomial (P. Moree, J. Number Theory 129, 2009),
    so mod x^k it is -Psi_M's first k coefficients (``inverse``), which
    are small.  Packed, q is the high k slots of V_hi times the reversed
    series, and r is v_lo minus the low phi slots of q times Phi_M's low
    part.  If every |v_i| <= B, every slot of those products and of r is
    at most B * ``growth``, 1 + the l1 norm of the series times the
    largest sum of k consecutive |Phi_M| coefficients, bounded above by
    their l1 norm and by k times the largest.  det picks the slot width
    from the factors' largest coefficients and nonzero counts so that
    this bound, twice it when folding, and each factor fit.  At M = 4p,
    p prime, the fans' fields, k = 2 and growth is 3.

    Slots of 1, 2, 4 or 8 bytes pack and unpack through :mod:`array`,
    wider ones through int.to_bytes: each coefficient is written in two's
    complement, and xor with ``bias``, 2**(s-1) in every slot, makes each
    slot the nonnegative v_i + 2**(s-1), so one int holds them all.  A
    field keeps Phi_M, the series and, per slot size of an array, their
    packed forms and masks: M/2 coefficients (``half``) and no table.
    It also keeps its powers of zeta (:meth:`powers`), so a field
    dropped from the cache takes them along.
    """

    def __init__(self, modulus: int) -> None:
        degree = _checked_degree(modulus)
        self.modulus = modulus
        self.degree = degree
        self.half = modulus // 2
        # Phi_M below its leading term, dense and as (degree, coefficient)
        # pairs of its nonzeros
        self.poly = cyclotomic_polynomial(modulus)[:-1]
        self.low = [(j, c) for j, c in enumerate(self.poly) if c]
        k = self.half - degree
        self.inverse = _cyclotomic_series(modulus, k, -1)
        window = min(sum(map(abs, self.poly)), k * max(map(abs, self.poly)))
        self.growth = 1 + sum(map(abs, self.inverse)) * window
        self.packed: dict[int, tuple[int, ...]] = {}
        self.zeta: dict[int, _Powers] = {}

    def powers(self, prec: int) -> _Powers:
        """Enclosures of zeta^j = exp(i*j*theta), theta = 2*pi/M: at prec
        bits, powers(prec)[j] = (re, im, D) is within D units of zeta^j, so
        (re -+ D) / 2**w enclose cos(j*theta), under 2**-prec apart, j < phi.

        Computed on Python ints in fixed point (Brent and Zimmermann,
        Modern Computer Arithmetic, 2010, ch. 4): an integer x stands for
        x / 2**w, with w = prec + 24 + bitlen(phi) bits, and a unit is
        2**-w.  Every ``//`` and ``>>`` floors, losing less than one unit.

        - _atan_inv gives atan(1/5) and atan(1/239) within 3n + 2 units
          of 2**-(w + 32) each, n its term count, so Machin's
          pi = 16 atan(1/5) - 4 atan(1/239) gives p within
          err = 16 (3 n_5 + 2) + 4 (3 n_239 + 2) of those units, and
          t = 2p // (M * 2**32) is within e = 2 err // (M * 2**32) + 2
          units of theta.
        - _cos_sin gives cos and sin of t / 2**w within 3k + 3 units
          each, k its term count.  cos and sin are 1-Lipschitz, so
          z_1 = (c_1, s_1) is within D_1 = d = 2(3k + 3 + e) units of
          exp(i*theta) in modulus, a factor 2 over sqrt(2); D_0 = 0.
        - Any other z_j is z_a * z_b / 2**w, a = j // 2 and b = j - a,
          each part floored.  As |z_a z_b - exp(i*j*theta) 2**(2w)| is
          at most 2**w (D_a + D_b) + D_a D_b, and the floors add less
          than sqrt(2) units, D_j = D_a + D_b + (D_a * D_b >> w) + 3
          bounds its error.  z_j depends on j alone, and costs one
          product once all below it are made, at most 2 log2(j) alone.

        By induction D_j <= j (d + 3) - 3 while each D_a * D_b < 2**w,
        as it is for prec >= 64: D_a D_b < phi**2 (d + 3)**2 / 4 with
        phi <= 4096, and d < 6w + 40, since k <= w + 4 (the terms halve
        after the third) and e = 2.  So 2 D_j / 2**w stays below
        2**(1 - prec) (d + 3) / 2**24 < 2**-prec up to _PREC_CEILING.
        """
        powers = self.zeta.get(prec)
        if powers is None:
            w = prec + 24 + self.degree.bit_length()
            (a5, n5), (a239, n239) = _atan_inv(5, w + 32), _atan_inv(239, w + 32)
            err = 16 * (3 * n5 + 2) + 4 * (3 * n239 + 2)
            t = 2 * (16 * a5 - 4 * a239) // (self.modulus << 32)
            e = 2 * err // (self.modulus << 32) + 2
            c1, s1, k = _cos_sin(t, w)
            powers = self.zeta[prec] = _Powers(w, (c1, s1, 2 * (3 * k + 3 + e)))
        return powers

    def _constants(self, width: int) -> tuple[int, ...]:
        """For slots of width bytes: the bias over M/2 slots; Phi_M's low
        part and the reversed series, packed; 2**(b - 1) and 2**b - 1 for
        b the bits of phi slots; 2**(b - 1) for k - 1 slots; and
        2**(b - 1) and 2**b - 1 for M/2 slots.  Kept for the slot sizes
        of an array."""
        got = self.packed.get(width)
        if got is None:
            s, n, half = 8 * width, self.degree, self.half
            bias = _bias(width, half)
            low, quotient, top = (1 << s * m for m in (n, max(half - n - 1, 0), half))
            got = (bias, _pack(self.poly, width, bias), _pack(self.inverse[::-1], width, bias),
                   low >> 1, low - 1, quotient >> 1, top >> 1, top - 1)
            if width in _TYPECODES:
                self.packed[width] = got
        return got

    def _reduce_packed(self, v: int, width: int, constants: tuple[int, ...]) -> tuple[int, ...]:
        """v packed in slots of width bytes, below degree M/2, and every
        slot of it and of the products below within the bound growth
        covers (see the class docstring), reduced mod Phi_M."""
        n, s = self.degree, 8 * width
        bias, poly, inverse, half_n, mask_n, half_k = constants[:6]
        if self.half > n:
            # v + half_n is v_lo + half_n + 2**(s*n) * v_hi, with the first
            # two within its low s*n bits; likewise for the quotient
            t = v + half_n
            q = ((t >> s * n) * inverse + half_k) >> s * (self.half - n - 1)
            v = (t & mask_n) - ((q * poly + half_n) & mask_n)
        return _unpack(v, width, bias, n)

    def _reduce_list(self, v: list[int], spent: int = 0) -> tuple[int, ...]:
        # v is M/2 slots, already folded by zeta^(M/2) = -1: long division
        # from the highest nonzero degree down, on Python ints when its
        # multiply-adds fit what the bound leaves
        n = self.degree
        tops = list(compress(range(n, len(v)), v[n:]))
        if not tops:
            return tuple(v[:n])
        if spent + (tops[-1] - n + 1) * len(self.low) <= _SPARSE_WORK + n:
            for k in range(tops[-1], n - 1, -1):
                t = v[k]
                if t:
                    for j, c in self.low:
                        v[k - n + j] -= t * c
            return tuple(v[:n])
        width = _width(max(max(v), -min(v)) * self.growth)
        constants = self._constants(width)
        return self._reduce_packed(_pack(v, width, constants[0]), width, constants)

    def reduce(self, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """sum(c * zeta^e for (e, c) in terms) in the power basis."""
        half = self.half
        v = [0] * half
        for e, c in terms:
            e %= self.modulus
            if e < half:
                v[e] += c
            else:
                v[e - half] -= c
        return self._reduce_list(v)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        zero = (0,) * self.degree
        return self.det(a, b, zero, zero)

    def det(self, a: Sequence[int], b: Sequence[int],
            c: Sequence[int], d: Sequence[int]) -> tuple[int, ...]:
        """a*b - c*d, unnormalized, with no CycloReal built on the way:
        on the nonzero coefficients, each term folded onto M/2 slots as it
        is multiplied, when that takes at most _SPARSE_WORK + phi
        multiply-adds, packed otherwise (see the class docstring)."""
        n = self.degree
        na, nb, nc, nd = n - a.count(0), n - b.count(0), n - c.count(0), n - d.count(0)
        work = na * nb + nc * nd
        if work <= _SPARSE_WORK + n:
            half = self.half
            v = [0] * half
            for x, y, s, k in ((a, b, 1, na * nb), (c, d, -1, nc * nd)):
                if not k:
                    continue
                ys = [(j, s * q) for j, q in enumerate(y) if q]
                for i, p in enumerate(x):
                    if p:
                        for j, q in ys:
                            if i + j < half:
                                v[i + j] += p * q
                            else:
                                v[i + j - half] -= p * q
            return tuple(v) if half == n else self._reduce_list(v, work)
        # a factor with few nonzeros is kept as (degree, coefficient) pairs
        few = [_FEW * k < n for k in (na, nb, nc, nd)]
        factors = [list(compress(enumerate(x), x)) if f else x for x, f in zip((a, b, c, d), few)]
        tops = [max([abs(t) for _, t in x], default=0) if f else max(max(x), -min(x))
                for x, f in zip(factors, few)]
        ma, mb, mc, md = tops
        bound = min(na, nb) * ma * mb + min(nc, nd) * mc * md
        fold = 2 * n - 1 > self.half
        # each factor must fit its slot too, beside a zero one
        width = _width(max((bound << fold) * self.growth, *tops))
        constants = self._constants(width)
        s = 8 * width
        v = (_product(factors[0], few[0], factors[1], few[1], width, constants[0])
             - _product(factors[2], few[2], factors[3], few[3], width, constants[0]))
        if fold:
            half, mask = constants[6:]
            t = v + half
            v = ((t & mask) - half) - (t >> s * self.half)
        return self._reduce_packed(v, width, constants)

    def conj(self, a: Sequence[int]) -> tuple[int, ...]:
        # zeta^j -> zeta^-j
        return self.reduce((-j, c) for j, c in enumerate(a) if c)

    def embed(self, a: Sequence[int], target: "_Field") -> tuple[int, ...]:
        # zeta_M = zeta_L^(L/M) for M | L
        step = target.modulus // self.modulus
        return target.reduce((j * step, c) for j, c in enumerate(a) if c)


# array typecodes by item size: slots of 1, 2, 4 and 8 bytes pack and
# unpack through an array of them, wider ones through int.to_bytes
_TYPECODES = {array(t).itemsize: t for t in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _width(bound: int) -> int:
    """Bytes a slot needs for integers below ``bound`` in absolute value:
    1, 2, 4 or 8, or past 8 bytes the fewest that hold them."""
    need = bound.bit_length() // 8 + 1
    return (0, 1, 2, 4, 4, 8, 8, 8, 8)[need] if need <= 8 else need


def _bias(width: int, slots: int) -> int:
    # 2**(8*width - 1) in each of `slots` slots of width bytes
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(x: Sequence[int], width: int, bias: int) -> int:
    """sum(x[i] * 2**(8*width*i)) for |x[i]| < 2**(8*width - 1), from x in
    two's complement: the xor with the bias turns each slot into
    x[i] + 2**(8*width - 1), so subtracting it leaves x[i].  The bias may
    span more slots than x."""
    if width in _TYPECODES:
        data = array(_TYPECODES[width], x)
        if _BIG_ENDIAN:
            data.byteswap()
    else:
        data = b"".join(t.to_bytes(width, "little", signed=True) for t in x)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _product(x: Sequence, few_x: bool, y: Sequence, few_y: bool, width: int, bias: int) -> int:
    """x*y packed in slots of width bytes, for x and y coefficient vectors
    or, when few, lists of the (degree, coefficient) pairs of their
    nonzeros.  A few factor multiplies the other term by term, and is
    packed by shifts when the other is few too; two dense ones are packed
    and multiplied once."""
    if few_y and (not few_x or len(y) < len(x)):
        x, few_x, y, few_y = y, few_y, x, few_x
    if not few_x:
        return _pack(x, width, bias) * _pack(y, width, bias)
    s = 8 * width
    packed = sum([t << s * i for i, t in y]) if few_y else _pack(y, width, bias)
    return sum([t * packed << s * i for i, t in x])


def _unpack(v: int, width: int, bias: int, slots: int) -> tuple[int, ...]:
    """The first ``slots`` balanced digits of v = sum(c_i * 2**(8*width*i)),
    each |c_i| < 2**(8*width - 1), none past those slots: _pack
    inverted."""
    data = ((v + bias) ^ bias).to_bytes(width * slots, "little")
    if width in _TYPECODES:
        out = array(_TYPECODES[width], data)
        if _BIG_ENDIAN:
            out.byteswap()
        return tuple(out.tolist())
    return tuple(int.from_bytes(data[i:i + width], "little", signed=True)
                 for i in range(0, len(data), width))


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
    most FIELD_CACHE_ENTRIES entries, M/2 a field.  The oldest are
    dropped before a new one is built, and the newest is always kept."""
    field = _fields.get(modulus)
    if field is not None:
        _fields.move_to_end(modulus)
        return field
    if modulus < 4 or modulus % 4:
        raise ModulusError(
            f"modulus {echo(modulus)} is not a positive multiple of 4")
    _checked_degree(modulus)
    held = sum(f.half for f in _fields.values())
    while _fields and held + modulus // 2 > FIELD_CACHE_ENTRIES:
        held -= _fields.popitem(last=False)[1].half
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


def _real_vector(modulus: int, ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """The normalized (num, den) of the coefficients p/q, given as integer
    pairs (p, q), q > 0, reduced or not, after the checks every element
    read from outside passes: the modulus, the count phi(M) and reality."""
    field = _field(modulus)
    if len(ratios) != field.degree:
        raise DomainError(
            f"expected {field.degree} coefficients for modulus {modulus}, "
            f"got {len(ratios)}"
        )
    den = math.lcm(*[q for _, q in ratios])
    num, den = _normalize([p * (den // q) for p, q in ratios], den)
    if field.conj(num) != num:
        raise NonRealError(
            f"coefficient vector is not fixed by conjugation in "
            f"Q(zeta_{modulus})"
        )
    return num, den


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
        # one as_integer_ratio call reads both parts of each coefficient
        self._init_raw(modulus, *_real_vector(modulus, [c.as_integer_ratio() for c in coeffs]))

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

    def _ends(self, prec: int) -> tuple[int, int, int]:
        """Integers lo, hi and den with enclosure(prec) = (lo/den, hi/den):
        each nonzero coefficient c_j adds c_j * re -+ |c_j| * D, from
        zeta^j's entry (see _Field.powers), over den = self.den * 2**w."""
        num = self.num
        powers = _field(self.modulus).powers(prec)
        mid = rad = 0
        for j in compress(range(len(num)), num):
            re, _, bound = powers[j]
            c = num[j]
            mid += c * re
            rad += abs(c) * bound
        return mid - rad, mid + rad, self.den << powers.w

    def enclosure(self, prec: int = 64) -> tuple[Fraction, Fraction]:
        """A rigorous rational interval containing the value, which is
        real (checked once, at construction).  Width shrinks as ``prec``
        grows.  An endpoint is an integer over den (see _ends) and costs
        one Fraction."""
        lo, hi, den = self._ends(prec)
        return Fraction(lo, den), Fraction(hi, den)

    def _separated(self) -> Iterator[tuple[Fraction, Fraction]]:
        """The enclosures at 64, 128, ... bits that exclude zero, as a
        nonzero value's come to; ResourceLimitError past _PREC_CEILING."""
        prec = 64
        while prec <= _PREC_CEILING:
            lo, hi = self.enclosure(prec)
            if lo > 0 or hi < 0:
                yield lo, hi
            prec *= 2
        raise ResourceLimitError(f"value not resolved at {_PREC_CEILING} bits")

    def sign(self) -> int:
        """Sign in {-1, 0, 1}: zero is decided symbolically, any other
        sign by the first enclosure that excludes zero."""
        if self.is_zero():
            return 0
        return 1 if next(self._separated())[0] > 0 else -1

    def float_box(self) -> tuple[float, float]:
        """A float interval guaranteed to contain the value; an end may be
        infinite.  Each end of enclosure(64) is rounded to the nearest
        float by int true division, as float() rounds a Fraction, or to the
        largest float of its sign past the float range, and then moved one
        float outward; so no Fraction is built."""
        if self._box is None:
            lo, hi, den = self._ends(64)
            box = []
            for end, toward in ((lo, -math.inf), (hi, math.inf)):
                try:
                    rounded = end / den
                except OverflowError:
                    rounded = sys.float_info.max if end > 0 else -sys.float_info.max
                box.append(math.nextafter(rounded, toward))
            object.__setattr__(self, "_box", tuple(box))
        return self._box

    def __float__(self) -> float:
        """The value within one ulp: 0.0 for zero, +-inf past the float
        range, else the midpoint of a separated enclosure at most an ulp wide."""
        if self.is_zero():
            return 0.0
        for lo, hi in self._separated():
            try:
                mid = float((lo + hi) / 2)
            except OverflowError:
                return math.inf if lo > 0 else -math.inf
            if hi - lo <= math.ulp(mid):
                return mid

    def __repr__(self) -> str:
        return (f"CycloReal(mod={self.modulus}, [{', '.join(self._coeff_strings())}] "
                f"~ {float(self):.6g})")

    # -- serialization ---------------------------------------------------

    def _coeff_strings(self) -> list[str]:
        # str(Fraction(v, den)) for each coefficient: v itself over den 1,
        # else "0" for a zero and one gcd for any other
        den = self.den
        if den == 1:
            return [str(v) for v in self.num]
        out = []
        for v in self.num:
            if v:
                g = math.gcd(v, den)
                out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
            else:
                out.append("0")
        return out

    def to_obj(self) -> dict:
        return {"modulus": self.modulus, "coeffs": self._coeff_strings()}

    @classmethod
    def from_obj(cls, obj: object) -> "CycloReal":
        """Read ``{"modulus": M, "coeffs": [text, ...]}``, each text in
        the grammar of :func:`~tilegate.text.fraction_parts`, whose integer
        parts build the element with no Fraction on the way.  A text that
        repeats within the list is parsed once; the first bad coefficient
        in list order is the one reported."""
        if (not isinstance(obj, dict) or len(obj) != 2
                or "modulus" not in obj or "coeffs" not in obj):
            raise FormatError(
                "scalar must be an object with exactly the keys 'modulus' and 'coeffs'"
            )
        modulus = obj["modulus"]
        coeffs = obj["coeffs"]
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise FormatError("scalar modulus must be an integer")
        if not isinstance(coeffs, list):
            raise FormatError("scalar coeffs must be a list of fraction strings")
        parts: dict = {}
        for c in coeffs:
            if type(c) is not str or c not in parts:
                parts[c] = fraction_parts(c, "coefficient")
        try:
            return cls._make(modulus, *_real_vector(modulus, [parts[c] for c in coeffs]))
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

