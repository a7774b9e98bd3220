"""Independent brute-force oracles used to cross-check the descent machinery.

Everything here is deliberately primitive: exhaustive candidate
enumeration, flat residue refinement with no multiplicity analysis, no
character sums, no Tamagawa shortcuts.  Slow but hard to fool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from twodescent.arith import REAL, Place, f2_echelon, f2_span, local_reps
from twodescent.descent import Torsor, torsor_solvable_at

INF = 10**9


def vp(n: int, p: int) -> int:
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def peval(F, z):
    acc = 0
    for c in reversed(F):
        acc = acc * z + c
    return acc


def oracle_qp_points(F, p, start_mod=1, start_res=0, max_depth=None) -> bool:
    """Solvability of w^2 = F(z) for z in start_res + start_mod*Z_p.

    Flat breadth-first residue enumeration.  A branch is accepted when the
    value class is pinned and square, or the value is exactly zero; it dies
    when pinned non-square; it splits into p children otherwise.  Beyond
    the certified depth every surviving branch contains a root (Newton),
    hence is accepted.
    """
    A4, A2, A0 = F[4], F[2], F[0]
    R = 16 * A4 * A4 * A0 * (A2 * A2 - 4 * A4 * A0) ** 2
    rho = vp(abs(R), p)
    if max_depth is None:
        max_depth = 2 * rho + (8 if p == 2 else 4)
    margin = 3 if p == 2 else 1
    level = [start_res]
    k = vp(start_mod, p)
    while True:
        nxt = []
        for c in level:
            val = peval(F, c)
            if val == 0:
                return True
            v = vp(val, p)
            if v + margin <= k:  # class pinned: unit part known well enough
                if v % 2 == 0:
                    u = val // p**v
                    if (p == 2 and u % 8 == 1) or (p != 2 and pow(u % p, (p - 1) // 2, p) == 1):
                        return True
                continue
            nxt.extend(c + r * p**k for r in range(p))
        if not nxt:
            return False
        if k > max_depth:
            return True  # survivors provably contain a root of the separable quartic
        level = nxt
        k += 1


def oracle_quartic_qp(A4, A2, A0, p) -> bool:
    if oracle_qp_points([A0, 0, A2, 0, A4], p):
        return True
    return oracle_qp_points([A4, 0, A2, 0, A0], p, start_mod=p)


def oracle_quartic_real(A4: Fraction, A2: Fraction, A0: Fraction) -> bool:
    """Real solvability by evaluating at the exact candidate maximizers."""
    if A4 > 0:
        return True
    candidates = [Fraction(0)]
    if A4 != 0:
        candidates.append(-A2 / (2 * A4))  # vertex in the u = z^2 variable
    return any(u >= 0 and A4 * u * u + A2 * u + A0 >= 0 for u in candidates)


def oracle_torsor_solvable(d: int, a: Fraction, b: Fraction, place: Place) -> bool:
    c4 = Fraction(d)
    c2 = -2 * Fraction(a)
    c0 = (Fraction(a) ** 2 - 4 * Fraction(b)) / d
    if place == REAL:
        return oracle_quartic_real(c4, c2, c0)
    l = math.lcm(c4.denominator, c2.denominator, c0.denominator) ** 2
    return oracle_quartic_qp(int(c4 * l), int(c2 * l), int(c0 * l), place.p)


def oracle_local_image(a: int, b: int, place: Place) -> tuple[int, ...]:
    """Im(delta_{E',v}) for the model (a, b) by a full sweep: the torsor of
    every class of Q_v^x/(Q_v^x)^2 is tested, with no bound and no skip.
    Returns the echelon basis, after asserting the solvable set is a subgroup."""
    reps = local_reps(place)
    vecs = {v for v, rep in reps.items() if torsor_solvable_at(Torsor(rep, a, b), place)}
    basis = f2_echelon(vecs)
    assert f2_span(basis) == vecs, f"local image at {place} is not a subgroup: {sorted(vecs)}"
    return basis


def squarefree_sign_divisors(n: int) -> list[int]:
    """All +-(squarefree divisors) of n built from its distinct prime factors."""
    primes = []
    m = abs(n)
    f = 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    out = []
    for r in range(len(primes) + 1):
        for combo in combinations(primes, r):
            d = 1
            for q in combo:
                d *= q
            out.extend((d, -d))
    return sorted(set(out), key=abs)


def oracle_selmer(A: int, B: int) -> list[int]:
    """Sel for the isogeny whose torsors are w^2 = d z^4 - 2A z^2 + (A^2-4B)/d.

    Candidates: all signed squarefree divisors of 2 * B * (A^2-4B); places:
    real, 2, and every odd prime of that support.
    """
    bprime = A * A - 4 * B
    support = 2 * B * bprime
    places = [REAL, Place.prime(2)] + [
        Place.prime(p) for p in sorted(set(_prime_list(abs(support)))) if p % 2 == 1
    ]
    sel = []
    for d in squarefree_sign_divisors(support):
        if all(oracle_torsor_solvable(d, Fraction(A), Fraction(B), pl) for pl in places):
            sel.append(d)
    return sorted(sel, key=lambda x: (abs(x), x))


def _prime_list(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def oracle_box_points(A: int, B: int, H: int) -> list[tuple[Fraction, Fraction]]:
    """(x, y), y >= 0, on y^2 = x^3 + A x^2 + B x with x = u/v^2, gcd(u, v) = 1, |u|, v <= H.

    A plain double loop over the box: no sieve, every u, an exact square test.
    """
    pts = []
    for v in range(1, H + 1):
        for u in range(-H, H + 1):
            N = u * (u * u + A * u * v * v + B * v**4)
            if math.gcd(u, v) == 1 and N >= 0 and math.isqrt(N) ** 2 == N:
                pts.append((Fraction(u, v * v), Fraction(math.isqrt(N), v**3)))
    return sorted(pts)


def oracle_real_image_contains_minus1(A: int, B: int) -> bool:
    """Does E': y^2 = x^3 -2A x^2 + (A^2-4B)x have a real point with x < 0?

    Sampled densely plus exact endpoints; used only as a sanity crosscheck.
    """
    bp = A * A - 4 * B
    if bp < 0:
        return True
    # roots of x^2 - 2A x + bp
    disc = 4 * A * A - 4 * bp
    if disc < 0:
        return False
    lo = Fraction(2 * A - math.isqrt(disc) - 2, 2)
    return lo < 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def oracle_rational_roots(coeffs) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, ascending, of the nonzero
    polynomial with the given rational coefficients (constant term first).

    Scales to integers and tries every +-(divisor of the constant)/(divisor
    of the leading coefficient) once the root 0 is divided out; each root's
    multiplicity comes from repeated synthetic division.  Small
    coefficients only: the divisor enumeration is exhaustive.
    """
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    F = [int(Fraction(c) * den) for c in coeffs]
    while F[-1] == 0:
        F.pop()
    k = next(i for i, c in enumerate(F) if c)
    out = [(Fraction(0), k)] if k else []
    F = F[k:]
    n = len(F) - 1
    for u in _divisors(F[0]):
        for v in _divisors(F[-1]):
            for num in (u, -u) if math.gcd(u, v) == 1 else ():
                if sum(c * num**i * v ** (n - i) for i, c in enumerate(F)):
                    continue  # v^n F(num/v) != 0
                r, m, G = Fraction(num, v), 0, F
                while len(G) > 1 and peval(G, r) == 0:
                    acc, quotient = 0, []
                    for c in reversed(G[1:]):
                        acc = acc * r + c
                        quotient.append(acc)
                    m, G = m + 1, quotient[::-1]
                out.append((r, m))
    return sorted(out)
