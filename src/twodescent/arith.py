"""Exact integer/rational kernel: valuations, factoring, local square tests.

Rationals are plain ``fractions.Fraction`` values (already canonical:
gcd-reduced, positive denominator, zero is 0/1), so the module exports
functions over ``Fraction`` rather than a wrapper type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

REAL_PLACE = "real"

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24 (Miller-Rabin)."""
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
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


def _factor_positive(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
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
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q: RationalLike, p: int) -> int:
    """The exponent v_p(q) of the prime p in the nonzero rational q."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined (would be +infinity)")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


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
    """The coefficients of F(c + X), where F has the given coefficients."""
    out = [0] * len(coeffs)
    for k, a in enumerate(coeffs):
        if a:
            for j in range(k + 1):
                out[j] += a * math.comb(k, j) * c ** (k - j)
    return out


def f2_reduce(v: int, basis) -> int:
    """v reduced by an echelon basis of int bitmasks (decreasing leading bits)."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def f2_echelon(vectors) -> tuple[int, ...]:
    """The reduced echelon basis of the F_2-span of vectors given as int
    bitmasks, sorted by decreasing leading bit: no vector has the leading bit
    of another set, so the basis depends on the span alone."""
    basis: list[int] = []
    for v in sorted(vectors, reverse=True):
        v = f2_reduce(v, basis)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return tuple(basis)


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


def local_dim(place: int | str) -> int:
    """The F_2-dimension of Q_v^x/(Q_v^x)^2 at `place` (a prime, or REAL_PLACE)."""
    if place == REAL_PLACE:
        return 1
    return 3 if int(place) == 2 else 2


def local_coords(q: RationalLike, place: int | str) -> int:
    """The class of q in Q_v^x/(Q_v^x)^2 as an F_2 bitmask; `place` is
    REAL_PLACE or a prime, which is not checked.

    Real place: bit 0 is the sign.  With q = p^alpha u, u a p-adic unit: at
    odd p, bit 0 says u is a non-residue and bit 1 that alpha is odd; at 2,
    bit 0 says u = 3 (mod 4), bit 1 that u = +-3 (mod 8), bit 2 that alpha
    is odd.
    """
    if q == 0:
        raise ValueError("0 has no local square class")
    if place == REAL_PLACE:
        return int(q < 0)
    p = int(place)
    # n/d and n*d have the same square class; ints carry denominator 1
    n = q.numerator * q.denominator
    alpha = int_valuation(n, p)
    u = n // p**alpha
    if p == 2:
        return (u % 4 == 3) | (u % 8 in (3, 5)) << 1 | (alpha & 1) << 2
    return (pow(u, (p - 1) // 2, p) != 1) | (alpha & 1) << 1


def local_pairing(x: int, y: int, place: int | str) -> int:
    """The Hilbert symbol on local coordinates, as 0 for +1 and 1 for -1.

    Serre, A Course in Arithmetic, III.1.2: with x = p^alpha u, y = p^beta v,
    (x, y)_p = (-1)^(alpha beta eps(p)) (u|p)^beta (v|p)^alpha at odd p, and
    (x, y)_2 = (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)), where
    eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.
    """
    if place == REAL_PLACE:
        return x & y & 1
    if int(place) == 2:
        # bits 0, 1, 2: eps(u), omega(u), alpha of x and eps(v), omega(v), beta of y
        return (x & y ^ x >> 2 & y >> 1 ^ y >> 2 & x >> 1) & 1
    # bits 0, 1: (u|p) = -1, alpha of x and (v|p) = -1, beta of y; bit 0 of
    # p >> 1 is eps(p)
    eps_p = int(place) >> 1
    return (x >> 1 & y >> 1 & eps_p ^ x & y >> 1 ^ y & x >> 1) & 1


def _check_place(place: int | str) -> None:
    if place != REAL_PLACE and not is_prime(int(place)):
        raise ValueError(f"{place} is not prime")


def is_square_local(q: RationalLike, place: int | str) -> bool:
    """Is q a square in the completion at `place` (a prime, or REAL_PLACE)?"""
    _check_place(place)
    return local_coords(q, place) == 0


def hilbert_symbol(x: RationalLike, y: RationalLike, place: int | str) -> int:
    """The Hilbert symbol (x, y) at `place` (a prime, or REAL_PLACE), as +1 or -1."""
    _check_place(place)
    return -1 if local_pairing(local_coords(x, place), local_coords(y, place), place) else 1


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

    def __mul__(self, other: "SquareClassQ") -> "SquareClassQ":
        sup = sorted(set(self.support) ^ set(other.support))
        return SquareClassQ(self.sign * other.sign, tuple(sup))

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
