"""Arithmetic mod p: Legendre symbols, Tonelli-Shanks, small dense polynomials.

Polynomials over F_p are little-endian int lists with coefficients in
[0, p).  Degrees stay at most 8 everywhere in this package, so the naive
algorithms below are the right tool.  Derivatives come from `arith.deriv`,
reduced mod p.
"""

from __future__ import annotations

from .arith import deriv, smallest_nonresidue


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return ptrim(out)


def pdivmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g (g nonzero) over F_p."""
    r = ptrim([c % p for c in f])
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * (len(r) - dg)
    while len(r) > dg:
        c = r[-1] * inv % p
        shift = len(r) - 1 - dg
        q[shift] = c
        for i, b in enumerate(g):
            r[i + shift] = (r[i + shift] - c * b) % p
        ptrim(r)
    return ptrim(q), r


def pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    f = ptrim([c % p for c in list(f)])
    g = ptrim([c % p for c in list(g)])
    while g:
        f, g = g, pdivmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def pderiv(f: list[int], p: int) -> list[int]:
    return ptrim([c % p for c in deriv(f)])


def ppow_x(e: int, modulus: list[int], p: int) -> list[int]:
    """X^e mod `modulus` over F_p by square and multiply.

    The modulus is made monic once, and each product is reduced by it in
    one pass from the top coefficient down.
    """
    inv = pow(modulus[-1], -1, p)
    low = [c * inv % p for c in modulus[:-1]]  # X^n = -sum low[j] X^j
    n = len(low)

    def mulmod(f, g):
        out = pmul(f, g, p)
        while len(out) > n:
            c, k = out.pop(), len(out) - n
            for j, m in enumerate(low):
                out[k + j] = (out[k + j] - c * m) % p
        return ptrim(out)

    result = [1]
    base = mulmod([0, 1], [1])
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def split_part(f: list[int], p: int) -> list[int]:
    """gcd(X^p - X, f): the product of (X - r) over the distinct F_p-roots."""
    if len(f) - 1 <= 1:
        return pgcd(f, f, p) if f else []
    xp = ppow_x(p, f, p)
    xp_minus_x = [c for c in xp]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    return pgcd(ptrim(xp_minus_x), f, p)


def count_roots(f: list[int], p: int) -> int:
    """Number of distinct roots of f in F_p."""
    f = ptrim([c % p for c in list(f)])
    if not f:
        raise ValueError("zero polynomial")
    return len(split_part(f, p)) - 1


def roots_deg_le2(f: list[int], p: int) -> list[int]:
    """All F_p-roots of a polynomial of degree 1 or 2, for an odd prime p."""
    f = ptrim([c % p for c in list(f)])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 2:
        return [(-f[0]) * pow(f[1], -1, p) % p]
    c, b, a = f
    disc = (b * b - 4 * a * c) % p
    s = sqrt_mod(disc, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    r1 = (-b + s) * inv % p
    r2 = (-b - s) * inv % p
    return sorted({r1, r2})
