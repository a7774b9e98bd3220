"""Descent by 2-isogeny over Q: Selmer groups, torsor solvability, rank bounds.

For the curve E: y^2 = x^3 + a x^2 + b x with dual E': y^2 = x^3 - 2a x^2 +
(a^2-4b) x, a square class d lies in the image of the local connecting map
delta_{E',v} exactly when the quartic torsor

    w^2 = d z^4 - 2a z^2 + (a^2 - 4b)/d

has a point over the completion at v (z = 0, z = infinity and w = 0 points
included).  `torsor_solvable_at(d, a, b, v)` is that test, on plain
integers; its answer depends only on the square class of d.  Sel_phi(E/Q)
is the set of classes passing this test at every place; it suffices to
test the real place, 2, and the odd primes dividing b(a^2-4b): at any
other odd prime the torsor has good reduction, so it has F_p-points by
Hasse-Weil and they lift by Hensel.

At an odd prime the test refines residue classes z = c (mod p^k) and reads
each level off the F_p data of the reduced quartic: its simple roots, its
multiple roots and whether it takes a nonzero square value.  Before the
refinement moves z off 0 that quartic is even in z, so at p >= 23 its roots
come from the quadratic in z^2 (Cremona, Algorithms for Modular Elliptic
Curves, 3.5-3.6) by Legendre symbols and Tonelli-Shanks roots, with no
powering of X modulo the quartic; a sweep of F_p serves the primes below 23.

Only the torsors of (a, b) are tested, and only for the classes that two
bounds leave open: the image contains [a^2-4b] and pairs trivially with [b].
Being a subgroup, it also contains the span of the classes found solvable
and misses each coset of that span through a class found unsolvable.  At
each tested place the image for the dual model (-2a, a^2-4b), which gives
Sel_phi-hat(E'/Q), is the annihilator of this one under the Hilbert symbol.
Square classes at a place are the F_2 coordinate vectors of
`arith.local_coords`, named by the squarefree integers of `arith.local_reps`;
the Hilbert symbol is `arith.local_pairing` on them, and both Selmer groups
are kernels read off one `arith.f2_echelon` run each.  Inside the kernel a
class is a plain integer; `SquareClassQ` objects are built only for the
Selmer bases and `Descent.local_image`.

`point_search` sieves the denominators v of x = u/v^2 by residue patterns:
whether u^3 + A u^2 v^2 + B u v^4 can be a square mod q depends only on
(u^3, A u^2, B u mod q) and v mod q.  The pattern of each residue triple is
a pure function of it, so one table per sieve modulus q (q^3 entries, 131 KB
for the nine moduli) serves every search in the process; an entry is
computed on its first read, so importing the module fills none.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import modp
from .arith import (
    _INF,
    REAL,
    Place,
    SquareClassQ,
    deriv,
    f2_echelon,
    f2_reduce,
    f2_span,
    factor,
    horner,
    int_valuation,
    local_coords,
    local_dim,
    local_pairing,
    local_reps,
    square_class,
    taylor_shift,
)
from .curve import (
    AffinePoint,
    TwoTorsionModel,
    delta_class,
    delta_span_dim,
    dual_model,
    integral_model,
    on_curve,
)


class SolvabilityPrecisionError(Exception):
    """The p-adic search exceeded its certified depth (should not occur)."""


# ----------------------------------------------------------------------
# local solvability of w^2 = quartic(z)
# ----------------------------------------------------------------------


def _res_exponent(A4: int, A2: int, A0: int, p: int) -> int:
    """v_p of the resultant surrogate 16 A4^2 A0 (A2^2 - 4 A4 A0)^2.

    For any z in Z_p, min(v(F(z)), v(F'(z))) is at most this; it bounds the
    depth of the residue refinement.
    """
    R = 16 * A4 * A4 * A0 * (A2 * A2 - 4 * A4 * A0) ** 2
    if R == 0:
        raise ValueError("singular quartic")
    return int_valuation(abs(R), p)


def _z2_branch_solvable(F, c: int, k: int, rho: int, Fd) -> bool:
    """Does some z = c (mod 2^k) in Z_2 make F(z) a square in Q_2 (0 allowed)?"""
    stack = [(c, k)]
    while stack:
        c, k = stack.pop()
        val = horner(F, c)
        if val == 0:
            return True
        v = int_valuation(val, 2)
        vd = int_valuation(horner(Fd, c), 2)
        if v > 2 * vd:
            return True  # Newton converges to an exact root: a w = 0 point
        # is the class of F(z) pinned on this branch (unit known mod 8)?
        shifted = taylor_shift(F, c)
        prec = min(
            (int_valuation(cj, 2) + j * k for j, cj in enumerate(shifted) if j >= 1 and cj != 0),
            default=_INF,
        )
        if prec >= v + 3:
            if v % 2 == 0 and (val >> v) % 8 == 1:
                return True
            continue
        if k > 2 * rho + 8:
            raise SolvabilityPrecisionError("2-adic refinement exceeded certified depth")
        stack.append((c, k + 1))
        stack.append((c + (1 << k), k + 1))
    return False


def _fp_analysis(G, p):
    """(simple_root_exists, multiple_roots, nonzero_square_value_exists) of G mod p.

    The multiple roots come back sorted.  For p below 23 everything is read
    off a direct sweep of F_p.  For larger p a nonzero square value exists
    whenever G mod p is not a constant times a square (Weil's character-sum
    bound, comfortable for p >= 23) or that constant, the leading
    coefficient, is a residue; the roots come from `_even_roots` when G mod
    p is even in X, as every torsor quartic is before refinement moves z off
    0, and from `_gcd_roots` otherwise.
    """
    Gbar = [c % p for c in G]
    modp.ptrim(Gbar)
    assert Gbar, "content was not extracted"
    if len(Gbar) == 1:
        return False, [], modp.legendre(Gbar[0], p) == 1
    if p < 23:
        Gd = modp.pderiv(Gbar, p)
        simple, multiple, sqval = False, [], False
        for s in range(p):
            gv = horner(Gbar, s) % p
            if gv == 0:
                if horner(Gd, s) % p == 0:
                    multiple.append(s)
                else:
                    simple = True
            elif modp.legendre(gv, p) == 1:
                sqval = True
        return simple, multiple, sqval
    simple, multiple = _gcd_roots(Gbar, p) if any(Gbar[1::2]) else _even_roots(Gbar, p)
    sqval = not _is_scaled_square(Gbar, p) or modp.legendre(Gbar[-1], p) == 1
    return simple, multiple, sqval


def _gcd_roots(G, p) -> tuple[bool, list[int]]:
    """(simple_root_exists, sorted multiple roots) of G (reduced mod the prime
    p > 4, of degree 1 to 4), from gcds with X^p - X and G'."""
    Gd = modp.pderiv(G, p)
    if not Gd:
        # needs p | every exponent: impossible for degree <= 4 < p
        raise AssertionError("vanishing derivative at large p")
    R = modp.split_part(G, p)  # product of (X - r) over F_p-roots
    M = modp.pgcd(R, modp.pgcd(G, Gd, p), p)
    multiple = modp.roots_deg_le2(M, p) if len(M) > 1 else []
    return len(R) > len(M), multiple


def _even_roots(G, p) -> tuple[bool, list[int]]:
    """`_gcd_roots` for G(X) = h(X^2) (reduced mod the odd prime p, of degree 2
    or 4), read off the roots y of h(Y) = c0 + c2 Y + c4 Y^2.

    G' = 2X h'(X^2), so a root x != 0 of G is simple exactly when x^2 is a
    simple root of h, and x = 0 is a root, always multiple, when c0 = 0.  A
    double root y != 0 of h gives the multiple roots +-sqrt(y) when y is a
    square.
    """
    h = G[::2]
    ys = modp.roots_deg_le2(h, p)
    double = len(h) == 3 and len(ys) == 1
    multiple = {0} if h[0] == 0 else set()
    simple = False
    for y in ys:
        if y == 0:
            continue
        if double:
            s = modp.sqrt_mod(y, p)
            if s is not None:
                multiple |= {s, p - s}
        elif modp.legendre(y, p) == 1:
            simple = True
    return simple, sorted(multiple)


def _is_scaled_square(G, p) -> bool:
    """Is G (reduced mod the odd prime p, of degree 1 to 4) a constant times a square?"""
    inv = pow(G[-1], -1, p)
    g = [c * inv % p for c in G]
    deg = len(g) - 1
    if deg % 2:
        return False
    half = (p + 1) // 2
    h = [g[1] * half % p, 1]
    if deg == 4:
        h1 = g[3] * half % p
        h = [(g[2] - h1 * h1) * half % p, h1, 1]
    return modp.pmul(h, h, p) == g


def _zp_branch_solvable(F, c: int, k: int, p: int, rho: int, Fd) -> bool:
    """Odd-p analogue: some z = c (mod p^k) with F(z) a square in Q_p?"""
    stack = [(c, k)]
    while stack:
        c, k = stack.pop()
        val = horner(F, c)
        if val == 0:
            return True
        vd = int_valuation(horner(Fd, c), p)
        if int_valuation(val, p) > 2 * vd:
            return True
        if k > 2 * rho + 4:
            raise SolvabilityPrecisionError("p-adic refinement exceeded certified depth")
        G = taylor_shift(F, c) if c else list(F)
        for j in range(len(G)):
            G[j] *= p ** (j * k)
        nu = min(int_valuation(g, p) for g in G if g != 0)
        G1 = [g // p**nu for g in G]
        simple, multiple, sqval = _fp_analysis(G1, p)
        if simple:
            return True  # a simple root mod p lifts to an exact root: w = 0 point
        if nu % 2 == 0 and sqval:
            return True
        for r in multiple:
            stack.append((c + r * p**k, k + 1))
    return False


def quartic_solvable_qp(A4: int, A2: int, A0: int, p: int) -> bool:
    """Does w^2 = A4 z^4 + A2 z^2 + A0 have a Q_p-point on its smooth model?

    Covers P^1: z in Z_p on the given patch, and 1/z in pZ_p on the reversed
    patch (whose z = 0 point is the point at infinity).
    """
    if A4 == 0 or A0 == 0:
        raise ValueError("degenerate quartic")
    F = [A0, 0, A2, 0, A4]
    Frev = [A4, 0, A2, 0, A0]
    rho = _res_exponent(A4, A2, A0, p)
    rho_rev = _res_exponent(A0, A2, A4, p)
    if p == 2:
        if _z2_branch_solvable(F, 0, 0, rho, deriv(F)):
            return True
        return _z2_branch_solvable(Frev, 0, 1, rho_rev, deriv(Frev))
    if _zp_branch_solvable(F, 0, 0, p, rho, deriv(F)):
        return True
    return _zp_branch_solvable(Frev, 0, 1, p, rho_rev, deriv(Frev))


def quartic_solvable_real(A4: int, A2: int, A0: int) -> bool:
    """Real solvability of w^2 = A4 z^4 + A2 z^2 + A0 by exact sign analysis."""
    if A4 > 0:
        return True
    # A4 < 0: maximize A4 u^2 + A2 u + A0 over u = z^2 >= 0; the vertex
    # u = -A2 / (2 A4) is negative iff A2 < 0, and there the maximum is A0
    if A2 < 0:
        return A0 >= 0
    return A2 * A2 >= 4 * A4 * A0


def torsor_solvable_at(d: int, a: int, b: int, place: Place) -> bool:
    """Does w^2 = d z^4 - 2a z^2 + (a^2-4b)/d have a point over the completion
    at a finite prime or the real place?

    The answer depends only on the square class of d: z = Z/k, w = W/k carry
    the torsor of d k^2 onto that of d.  Both tests run on the coefficients
    scaled by l^2, l = |d| / gcd(d, a^2-4b), which clears the denominator of
    (a^2-4b)/d; the scaling by a square changes neither the signs nor the
    square classes of the values.
    """
    if not all(isinstance(x, int) for x in (d, a, b)):
        raise TypeError("d, a and b must be ints")
    if d == 0:
        raise ValueError("d must be nonzero")
    if place.kind not in ("real", "prime"):
        raise ValueError(f"torsors are tested at primes or the real place, not {place}")
    bdual = a * a - 4 * b
    g = math.gcd(d, bdual)
    l2 = (abs(d) // g) ** 2
    A4, A2, A0 = d * l2, -2 * a * l2, (bdual // g) * (d // g)
    if place.kind == "real":
        return quartic_solvable_real(A4, A2, A0)
    return quartic_solvable_qp(A4, A2, A0, place.p)


# ----------------------------------------------------------------------
# local images and Selmer groups
# ----------------------------------------------------------------------


def _image_at_place(a: int, b: int, place: Place) -> tuple[int, ...]:
    """Im(delta_{E',v}) for the model (a, b), as echelonized local vectors.

    The image contains [a^2-4b] (z = 0 on its torsor) and pairs trivially
    with [b], which the dual image contains, so classes pairing to -1 with
    [b] are skipped.  Since the image is a subgroup, classes in the span of
    those found solvable, or in a coset of that span through one found
    unsolvable, are skipped too.
    """
    reps = local_reps(place)
    cb = local_coords(b, place)
    inside = f2_echelon([local_coords(a * a - 4 * b, place)])
    outside: list[int] = []
    for v in sorted(reps):
        if local_pairing(v, cb, place) or any(not f2_reduce(v ^ u, inside) for u in (0, *outside)):
            continue
        if torsor_solvable_at(reps[v], a, b, place):
            inside = f2_echelon(inside + (v,))
        else:
            outside.append(v)
    return inside


def _dual_image(basis, place: Place) -> tuple[int, ...]:
    """The local image for the dual model (-2a, a^2-4b), from that of (a, b).

    The two images are exact annihilators of each other under the Hilbert
    symbol (Cassels, Arithmetic on curves of genus 1 VIII, 1965; Schaefer and
    Stoll, Trans. AMS 356, 2004): a class lies in one iff it pairs trivially
    with every basis class of the other.
    """
    dim = local_dim(place)
    vecs = {v for v in range(1 << dim) if not any(local_pairing(v, g, place) for g in basis)}
    dual = f2_echelon(vecs)
    if f2_span(dual) != vecs or len(basis) + len(dual) != dim:
        raise AssertionError(f"the Hilbert pairing at {place} is not bilinear and nondegenerate")
    return dual


@dataclass(frozen=True)
class SelmerGroup:
    """A phi- or phi-hat-Selmer group with an explicit F_2 basis."""

    basis: tuple[SquareClassQ, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> list[SquareClassQ]:
        out = [SquareClassQ(1, ())]
        for g in self.basis:
            out += [c * g for c in out]
        return sorted(set(out), key=lambda c: (len(c.support), abs(c.value()), c.value()))

    def contains(self, cls: SquareClassQ) -> bool:
        return cls in set(self.elements())


def _selmer_basis(gens, gen_coords, images: dict[Place, tuple[int, ...]]) -> tuple[SquareClassQ, ...]:
    """The Selmer basis cut out by echelonized local images at the tested places.

    The places are the real place, 2 and the odd primes of b(a^2-4b); per the
    standard descent bound the candidates are the classes supported on -1
    and those primes, spanned by `gens`: -1, then the primes in increasing
    order.  gen_coords[i][j] is the local coordinate vector of gens[i] at the
    j-th place of `images`.  A candidate lies in the Selmer group iff its
    local coordinates fall inside the image subgroup at every tested place,
    an F_2-linear condition: each generator's row holds its coordinates
    reduced by the images, above one bit that marks the generator, and the
    kernel is read off the reduced echelon rows whose reduced coordinates
    vanish.
    """
    n = len(gens)
    layout = [(local_dim(pl), img) for pl, img in images.items()]
    rows = []
    for i, coords in enumerate(gen_coords):
        row = 0
        for v, (dim, img) in zip(coords, layout):
            row = row << dim | f2_reduce(v, img)
        rows.append(row << n | 1 << i)
    basis = [
        SquareClassQ(-1 if kmask & 1 else 1, tuple(gens[i] for i in range(1, n) if kmask >> i & 1))
        for kmask in f2_echelon(rows)
        if not kmask >> n
    ]
    basis.sort(key=lambda c: (len(c.support), abs(c.value()), c.value()))
    return tuple(basis)


@dataclass(frozen=True)
class Descent:
    """The descent by the marked 2-isogeny phi: E -> E' of a curve E over Q.

    One set of local images, at the real place, 2 and the odd primes of
    B(A^2-4B) for the integral model (A, B), gives both Selmer groups and
    the Cassels ratio check.  `images` maps each of those places to
    Im(delta_{E',v}) as the echelon basis of its local coordinates.
    """

    curve: TwoTorsionModel
    integral: TwoTorsionModel  # the model (A, B) with A, B integers
    odd_support: tuple[int, ...]
    phi: SelmerGroup
    phi_hat: SelmerGroup
    images: dict[Place, tuple[int, ...]]
    cassels_ok: bool

    def local_image(self, place: Place) -> tuple[SquareClassQ, ...]:
        """Im(delta_{E',place}) as square classes, one per element; a place
        outside the tested set is computed here."""
        basis = self.images.get(place)
        if basis is None:
            basis = _image_at_place(int(self.integral.a), int(self.integral.b), place)
        reps = local_reps(place)
        return tuple(square_class(reps[v]) for v in sorted(f2_span(basis)))


def descend(E: TwoTorsionModel) -> Descent:
    """Sel_phi(E/Q), Sel_phi-hat(E'/Q), the local images and the Cassels check.

    Torsors are swept for the integral model (A, B) only; the images for
    (-2A, A^2-4B) follow by Hilbert duality at each tested place.  B is
    factored before A^2-4B, so a FactorizationEffortError (whose message
    lands in skipped scan records) names the first of the two that resists.
    The Cassels check compares the global Selmer sizes with the local ones:
    |Sel_phi|/|Sel_phi-hat| = prod_v |Im(delta_{E',v})|/2.
    """
    A, B, _ = integral_model(E)
    primes = factor(B).primes + factor(A * A - 4 * B).primes
    odd_support = tuple(sorted({p for p in primes if p != 2}))
    # factor has proven these primes; Place.prime would test them again
    places = [REAL] + [Place("prime", p=p) for p in (2, *odd_support)]
    images = {pl: _image_at_place(A, B, pl) for pl in places}
    gens = [-1, 2, *odd_support]
    gen_coords = [[local_coords(g, pl) for pl in places] for g in gens]
    basis_phi = _selmer_basis(gens, gen_coords, images)
    dual_images = {pl: _dual_image(img, pl) for pl, img in images.items()}
    basis_hat = _selmer_basis(gens, gen_coords, dual_images)
    cassels_ok = len(basis_phi) - len(basis_hat) == sum(len(img) - 1 for img in images.values())
    return Descent(
        curve=E,
        integral=TwoTorsionModel.over_q(A, B),
        odd_support=odd_support,
        phi=SelmerGroup(basis_phi),
        phi_hat=SelmerGroup(basis_hat),
        images=images,
        cassels_ok=cassels_ok,
    )


# ----------------------------------------------------------------------
# point search and rank bounds
# ----------------------------------------------------------------------

_SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23)

# q -> its residue table: the pattern of the residue triple (r3, r2, r1) at
# index (r3 q + r2) q + r1, or -1 until the first read computes it
_PATTERNS = {q: array("i", [-1]) * q**3 for q in _SIEVE_MODULI}


@lru_cache(maxsize=None)
def _square_roots(q: int) -> dict[int, int]:
    """Each square s mod q -> the bitmask of the v < q with v^2 = s (mod q)."""
    return {s: sum(1 << v for v in range(q) if v * v % q == s) for s in {v * v % q for v in range(q)}}


def _residue_pattern(q: int, r3: int, r2: int, r1: int) -> int:
    """The v < q, as a bitmask, with r3 + r2 v^2 + r1 v^4 a square mod q.

    Read from the residue table of q, which stores it on the first read."""
    table = _PATTERNS[q]
    i = (r3 * q + r2) * q + r1
    pattern = table[i]
    if pattern < 0:
        roots = _square_roots(q)
        pattern = 0
        for s, m in roots.items():
            if (r3 + (r2 + r1 * s) * s) % q in roots:
                pattern |= m
        table[i] = pattern
    return pattern


def _numerator_candidates(B: int, height_bound: int) -> list[int]:
    """Every u = +-d s^2 with d squarefree, d | B and d s^2 <= height bound."""
    divisors = [1]
    m = abs(B)
    for p in range(2, height_bound + 1):
        if m % p == 0:  # p is prime: every smaller prime is divided out of m
            while m % p == 0:
                m //= p
            divisors += [d * p for d in divisors if d * p <= height_bound]
    us = []
    for d in divisors:
        s = 1
        while d * s * s <= height_bound:
            us += [d * s * s, -d * s * s]
            s += 1
    return us


def point_search(E: TwoTorsionModel, height_bound: int) -> list[AffinePoint]:
    """All points with x = u/v^2 on the integral model, |u|, v <= height bound.

    The denominator of x is a square for integral models with rational
    2-torsion, so this shape loses nothing; the search is sound but
    incomplete.  Only numerators u = d s^2 (d signed and squarefree) with
    d | B are tried: for gcd(u, v) = 1 a point needs d^3 s^4 + A d^2 s^2 v^2
    + B d v^4 to be a square, and a prime of d not dividing B divides it once.
    Each u != 0 sieves all v at once: u^3 + A u^2 v^2 + B u v^4 mod q needs
    only u, v^2 mod q.  u = 0 gives only the 2-torsion point (0, 0), at v = 1.
    The patterns come from the residue tables shared by every search
    (`_residue_pattern`); a call expands each to an H-bit mask once per u mod q.
    """
    A, B, scale = integral_model(E)
    if height_bound < 1:
        return []
    zero = AffinePoint.of(Fraction(0), Fraction(0))
    found: dict[Fraction, AffinePoint] = {zero.x: zero} if on_curve(E, zero) else {}
    s2 = scale * scale
    s3 = s2 * scale
    full = (1 << height_bound + 1) - 2  # bit v for each denominator 1 <= v <= H
    # per modulus q: a q-bit pattern times its repunit repeats over bits 0..H,
    # and the masks over v of each u mod q, filled as the numerators reach them
    sieves = [(q, ((1 << q * (height_bound // q + 1)) - 1) // ((1 << q) - 1), [None] * q) for q in _SIEVE_MODULI]
    for u in _numerator_candidates(B, height_bound):
        u2 = u * u
        c3, c2, c1 = u2 * u, A * u2, B * u
        live = full
        for q, repunit, masks in sieves:
            mask = masks[u % q]
            if mask is None:
                mask = masks[u % q] = _residue_pattern(q, c3 % q, c2 % q, c1 % q) * repunit & full
            live &= mask
            if not live:
                break
        while live:
            v = (live & -live).bit_length() - 1
            live &= live - 1
            N = c3 + c2 * v * v + c1 * v**4
            if math.gcd(u, v) != 1 or N < 0:
                continue
            w = math.isqrt(N)
            if w * w != N:
                continue
            x = Fraction(u, v * v) / s2
            y = Fraction(w, v**3) / s3
            P = AffinePoint.of(x, y)
            if on_curve(E, P):
                found[x] = P
    return [found[x] for x in sorted(found)]


@dataclass(frozen=True)
class RankStatus:
    """The rank as the interval [lo, hi]; it is determined when lo == hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def kind(self) -> str:
        return "determined" if self.lo == self.hi else "bounded"

    @property
    def value(self) -> int:
        if self.lo != self.hi:
            raise ValueError("rank not determined")
        return self.lo

    def to_json(self) -> dict:
        if self.lo == self.hi:
            return {"kind": "determined", "value": self.lo}
        return {"kind": "bounded", "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json(data: dict) -> "RankStatus":
        """The status that `to_json` wrote as `data`.

        A record that `to_json` cannot have written raises ValueError: a
        missing or non-integer bound, an unknown key, or a kind that
        disagrees with the bounds, such as a "bounded" record with lo == hi.
        """
        try:
            lo, hi = (data["value"],) * 2 if data["kind"] == "determined" else (data["lo"], data["hi"])
            rank = RankStatus(lo, hi)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed rank record {data!r}") from exc
        if type(lo) is not int or type(hi) is not int or rank.to_json() != data:
            raise ValueError(f"rank record {data!r} is not one that to_json writes")
        return rank


def rank_bounds(descent: Descent, points_e=(), points_eprime=(), search_bound: int = 0) -> RankStatus:
    """Rank bounds from delta images of known points and Selmer dimensions.

    The points lie on descent.curve and its dual model.
    lower = dim<delta_E(points)> + dim<delta_E'(points')> - 2,
    upper = dim Sel_phi-hat + dim Sel_phi - 2 (both clamped at 0).
    A side whose span of (0,0) and the given points is still below its
    Selmer dimension (E against Sel_phi-hat, E' against Sel_phi) also gets
    the points of `point_search(curve, search_bound)`; a filled side is not
    searched, since a further point can only leave its span as it is.
    search_bound 0 searches nothing.
    """
    if search_bound < 0:
        raise ValueError(f"search bound {search_bound} is negative")
    E = descent.curve
    zero = AffinePoint.of(Fraction(0), Fraction(0))
    dims = []
    for curve, points, selmer in (
        (E, points_e, descent.phi_hat),
        (dual_model(E), points_eprime, descent.phi),
    ):
        classes = [delta_class(curve, P) for P in (zero, *points)]
        d = delta_span_dim(classes)
        if search_bound and d < selmer.dim:
            classes += [delta_class(curve, P) for P in point_search(curve, search_bound)]
            d = delta_span_dim(classes)
        if d > selmer.dim:
            raise AssertionError("delta image escaped its Selmer group: descent bug")
        dims.append(d)
    lo = max(sum(dims) - 2, 0)
    hi = max(descent.phi_hat.dim + descent.phi.dim - 2, lo)
    return RankStatus(lo, hi)
