"""Exact integer/rational kernel: valuations, factoring, places, local square classes.

Rationals are plain ``fractions.Fraction`` values (already canonical:
gcd-reduced, positive denominator, zero is 0/1), so the module exports
functions over ``Fraction`` rather than a wrapper type.

A place of Q is an int: a prime p, or `REAL` = 0 for the real place, as
PARI/GP's ``hilbert(x, y, 0)`` has it.  `Place` is a place of Q(T): T - e
or infinity.  At the real place and the primes, the local square classes
Q_v^x/(Q_v^x)^2 are F_2 bitmasks: `local_coords` gives them, `local_reps`
inverts it and `local_pairing` is the Hilbert symbol on them.  This is the
one module that states their bit layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

RationalLike = Union[int, Fraction]

# Miller-Rabin bases: the first 14 primes.  n < psi_k is prime iff it passes
# the first k bases, psi_k being the least strong pseudoprime to all of them
# (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math.
# Comp. 86, 2017).  The 12 bases 2..37 are proven only below psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441; base 41 carries the
# proof to psi_13 = 3317044064679887385961981 = 1287836182261 * 2575672364521.
# From psi_13 on all 14 bases run, a strong probable prime test (base 43
# rejects psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# (psi_k, the first k bases) for the distinct psi_k, in increasing order
_MR_PREFIXES = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5), (3474749660383, 6))
    + ((341550071728321, 7), (3825123056546413051, 9), (318665857834031151167461, 12), (3317044064679887385961981, 13))
)

_TRIAL_LIMIT = 4096
_RHO_MAX_ITER = 1 << 22

# stands for v_p(0) = +infinity: larger than any valuation that occurs
_INF = 10**9


class FactorizationEffortError(Exception):
    """An integer resisted factoring within the configured effort cap."""


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# the primes below 128 are tried one at a time; the rest meet n in one gcd
# with their product (5,649 bits)
_HEAD_PRIMES = tuple(p for p in _SMALL_PRIMES if p < 128)
_TAIL_PRIMES = _SMALL_PRIMES[len(_HEAD_PRIMES) :]
_TAIL_PRODUCT = math.prod(_TAIL_PRIMES)


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin on the shortest prefix of the prime bases
    2, 3, 5, ... proven for n: deterministic below psi_13 (about 3.317e24),
    a strong probable prime test on the 14 bases 2..43 from psi_13 on."""
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        return n in _SMALL_PRIME_SET
    # a base p dividing n > p gives x = 0 (mod p), never 1 or n - 1, so n
    # fails that round: the proven prefixes need no trial division
    bases = _MR_BASES
    for psi, prefix in _MR_PREFIXES:
        if n < psi:
            bases = prefix
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        it = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
                it += m
                if it > _RHO_MAX_ITER:
                    raise FactorizationEffortError(f"rho effort cap hit on {n}")
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationEffortError(f"rho failed on {n}")


@dataclass(frozen=True)
class PrimeFactorization:
    """Signed factorization: sign * prod(p**e) with primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _divide_out(n: int, p: int, out: dict[int, int]) -> int:
    """n with every factor p removed; out[p] is set to their number."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    out[p] = e
    return n


def _factor_positive(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {p: e}.

    Trial division by the primes below 128 stops at the first p with
    p^2 > n, which leaves 1 or a prime.  Past them, g = gcd(n, _TAIL_PRODUCT)
    is the squarefree product of the other primes below _TRIAL_LIMIT that
    divide n, and trial division of g up to sqrt(g) names them.  What is
    left of n then has no prime factor below _TRIAL_LIMIT, so it and every
    factor that rho splits off it are prime when below _TRIAL_LIMIT^2 (the
    least such composite is 4099^2)."""
    out: dict[int, int] = {}
    for p in _HEAD_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n = _divide_out(n, p, out)
    else:
        g = math.gcd(n, _TAIL_PRODUCT)
        for p in _TAIL_PRIMES:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                n = _divide_out(n, p, out)
        if g > 1:
            n = _divide_out(n, g, out)
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def factor(n: int) -> PrimeFactorization:
    """Complete factorization of a nonzero integer, deterministic ordering."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    fac = _factor_positive(abs(n))
    return PrimeFactorization(sign, tuple(sorted(fac.items())))


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for an integer n and p > 1, with v_p(0) = _INF; p is not checked."""
    if n == 0:
        return _INF
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def horner(coeffs, x):
    """The polynomial with the given coefficients, constant term first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def deriv(coeffs):
    """The derivative of a coefficient list, constant term first."""
    return [i * c for i, c in enumerate(coeffs)][1:]


def taylor_shift(coeffs, c):
    """The coefficients of F(c + X), where F has the given coefficients:
    Horner's scheme, dividing by X - c once per coefficient (Ruffini)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def f2_reduce(v: int, basis) -> int:
    """v reduced by an echelon basis of int bitmasks (decreasing leading bits)."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def f2_echelon(vectors) -> tuple[int, ...]:
    """The reduced echelon basis of the F_2-span of vectors given as int
    bitmasks, sorted by decreasing leading bit: no vector has the leading bit
    of another set, so the basis depends on the span alone.

    One pass reduces each vector by the pivots found so far, kept by leading
    bit, and keeps what is left as a new pivot; then one back-substitution,
    in increasing leading-bit order, clears from each pivot the leading bits
    of the (already reduced) pivots below it."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            v ^= p
    leads = sorted(pivots)
    for i, lead in enumerate(leads):
        v = pivots[lead]
        for low in reversed(leads[:i]):
            if v >> low & 1:
                v ^= pivots[low]
        pivots[lead] = v
    return tuple(pivots[lead] for lead in reversed(leads))


def f2_span(basis) -> set[int]:
    """Every element of the F_2-span of int bitmasks, 0 included."""
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    return span


def sqrt_rational(q: RationalLike) -> Fraction | None:
    """Exact nonnegative square root of q in Q, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# the real place of Q; a prime p of Q is the int p (PARI/GP's convention)
REAL = 0


@dataclass(frozen=True)
class Place:
    """A place of Q(T): the linear place T - e, or the place at infinity."""

    kind: str  # "ft" | "ft_inf"
    e: Fraction | None = None

    @staticmethod
    def ft(e) -> "Place":
        return Place("ft", Fraction(e))

    def __str__(self):
        if self.kind == "ft":
            return f"T-{self.e}" if self.e >= 0 else f"T+{-self.e}"
        return "inf"


FT_INFINITY = Place("ft_inf")


def parse_place(s: str) -> Place | int:
    """A place of Q(T) ("T-e", "T+e", "inf"), or a prime of Q as an int."""
    s = s.strip()
    if s in ("inf", "infinity", "oo"):
        return FT_INFINITY
    if s.startswith("T-"):
        return Place.ft(Fraction(s[2:]))
    if s.startswith("T+"):
        return Place.ft(-Fraction(s[2:]))
    p = int(s)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _require_q_place(p) -> None:
    """ValueError unless p is a place of Q: REAL (0) or an int p >= 2."""
    if not (isinstance(p, int) and (p == REAL or p >= 2)):
        raise ValueError(f"local data over Q are defined at the real place 0 or a prime, not {p}")


def local_dim(p: int) -> int:
    """The F_2-dimension of Q_v^x/(Q_v^x)^2 at the real place or a prime."""
    _require_q_place(p)
    if p == REAL:
        return 1
    return 3 if p == 2 else 2


def local_coords(q: RationalLike, p: int) -> int:
    """The class of q in Q_v^x/(Q_v^x)^2 as an F_2 bitmask, at the real place or a prime.

    Real place: bit 0 is the sign.  With q = p^alpha u, u a p-adic unit: at
    odd p, bit 0 says u is a non-residue and bit 1 that alpha is odd; at 2,
    bit 0 says u = 3 (mod 4), bit 1 that u = +-3 (mod 8), bit 2 that alpha
    is odd.
    """
    if q == 0:
        raise ValueError("0 has no local square class")
    if p == REAL:
        return int(q < 0)
    # n/d and n*d have the same square class; ints carry denominator 1
    n = q.numerator * q.denominator
    alpha = int_valuation(n, p)
    u = n // p**alpha
    if p == 2:
        return (u % 4 == 3) | (u % 8 in (3, 5)) << 1 | (alpha & 1) << 2
    return (pow(u, (p - 1) // 2, p) != 1) | (alpha & 1) << 1


@lru_cache(maxsize=64)
def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue of an odd prime.

    `local_reps` and the Tonelli-Shanks roots of the torsor tests at p both
    read it, so a descent computes it once per tested place.  The cache is
    bounded: nearly every curve brings new large primes."""
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    return n


# the squarefree integers with local coordinates 0, 1, ...: -1 at the real
# place; -1, 5 and 2 at 2 (bits 0, 1, 2)
_REAL_REPS = {0: 1, 1: -1}
_TWO_REPS = {c: (-1 if c & 1 else 1) * (5 if c & 2 else 1) * (2 if c & 4 else 1) for c in range(8)}


def local_reps(p: int) -> dict[int, int]:
    """The inverse of `local_coords` at the real place or a prime: each
    bitmask -> a squarefree integer in its class.  At odd p these are 1,
    u, p and u p, with u the least non-residue (a prime below p)."""
    _require_q_place(p)
    if p == REAL:
        return _REAL_REPS
    if p == 2:
        return _TWO_REPS
    u = smallest_nonresidue(p)
    return {0: 1, 1: u, 2: p, 3: u * p}


def local_pairing(x: int, y: int, p: int) -> int:
    """The Hilbert symbol on local coordinates, as 0 for +1 and 1 for -1.

    Serre, A Course in Arithmetic, III.1.2: with x = p^alpha u, y = p^beta v,
    (x, y)_p = (-1)^(alpha beta eps(p)) (u|p)^beta (v|p)^alpha at odd p, and
    (x, y)_2 = (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)), where
    eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.
    """
    if p == REAL:
        return x & y & 1
    if p == 2:
        # bits 0, 1, 2: eps(u), omega(u), alpha of x and eps(v), omega(v), beta of y
        return (x & y ^ x >> 2 & y >> 1 ^ y >> 2 & x >> 1) & 1
    # bits 0, 1: (u|p) = -1, alpha of x and (v|p) = -1, beta of y; bit 0 of
    # p >> 1 is eps(p)
    eps_p = p >> 1
    return (x >> 1 & y >> 1 & eps_p ^ x & y >> 1 ^ y & x >> 1) & 1


@dataclass(frozen=True)
class SquareClassQ:
    """Element of Q^x/(Q^x)^2: the squarefree integer sign * prod(support)."""

    sign: int
    support: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(self.support[i] >= self.support[i + 1] for i in range(len(self.support) - 1)):
            raise ValueError("support must be strictly increasing")

    @property
    def is_identity(self) -> bool:
        return self.sign == 1 and not self.support

    def value(self) -> int:
        v = self.sign
        for p in self.support:
            v *= p
        return v

    def __str__(self) -> str:
        return str(self.value())


def square_class(q: RationalLike) -> SquareClassQ:
    """The squarefree-integer representative of q modulo rational squares."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    fac = factor(q.numerator * q.denominator)
    support = tuple(p for p, e in fac.factors if e % 2 != 0)
    return SquareClassQ(fac.sign, support)
