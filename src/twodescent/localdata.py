"""Tate's algorithm over a discrete valuation ring, and derived local data.

One driver runs against two instantiations: Z localized at a prime p
(residue field F_p, full algorithm including residue characteristic 2
and 3) and Q[T] localized at a linear place T - e (residue field Q, so
only tame branches can occur).  Each DVR also answers for its residue
field: zero and square tests, square roots, division and counting the
roots of a cubic.  The place at infinity of Q(T) is
reduced to a linear place by rewriting the model in U = 1/T and
clearing denominators with x = X/U^2, y = Y/U^3.  The place picks the
ring: `tate_local(a, b, place)` takes ints at a prime p, given as the int
p, an integral model of a curve over Q (a rational one is moved there by
`curve.clear_denominators`; isomorphic models share their local data and
the algorithm reduces a non-minimal one), and the Polys of a Q(T) model
at an `arith.Place`, T - e or infinity.  The real place has no Tate run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import modp
from .arith import _INF, FT_INFINITY, REAL, Place, _require_q_place, int_valuation, sqrt_rational
from .curve import TwoTorsionModel, dual_model
from .polyq import Poly, UnsupportedClassError, model_discriminant, rational_roots

GOOD = "good"
SPLIT_MULT = "split-multiplicative"
NONSPLIT_MULT = "nonsplit-multiplicative"
ADDITIVE = "additive"


class TateError(Exception):
    """Internal inconsistency while running the reduction algorithm."""


@dataclass(frozen=True)
class KodairaSymbol:
    """Reduction type label: I(n), I*(n), or one of II, III, IV, II*, III*, IV*."""

    letter: str  # "I" | "I*" | "II" | "III" | "IV" | "II*" | "III*" | "IV*"
    n: int = 0

    def __str__(self):
        if self.letter == "I":
            return f"I{self.n}"
        if self.letter == "I*":
            return f"I{self.n}*"
        return self.letter

    @property
    def is_good(self) -> bool:
        return self.letter == "I" and self.n == 0


@dataclass(frozen=True)
class LocalReduction:
    kodaira: KodairaSymbol
    tamagawa: int
    reduction: str
    min_disc_valuation: int
    conductor_exponent: int

    @property
    def is_multiplicative(self) -> bool:
        return self.reduction in (SPLIT_MULT, NONSPLIT_MULT)

    def to_json(self) -> dict:
        return {
            "kodaira": str(self.kodaira),
            "tamagawa": self.tamagawa,
            "reduction": self.reduction,
            "min_disc_valuation": self.min_disc_valuation,
            "conductor_exponent": self.conductor_exponent,
        }


# ----------------------------------------------------------------------
# DVRs, each answering for its residue field too
# ----------------------------------------------------------------------


class _QpDVR:
    """Z localized at p = char, on Python ints; residues are ints read mod p."""

    def __init__(self, p: int):
        self.char = p

    def val(self, x: int) -> int:
        return int_valuation(x, self.char)

    def shift(self, x: int, k: int) -> int:
        if k >= 0:
            return x * self.char**k
        q, r = divmod(x, self.char**-k)
        if r:
            raise TateError("division by a power of p is not exact")
        return q

    def residue(self, x: int) -> int:
        return x % self.char

    def is_zero(self, r) -> bool:
        return r % self.char == 0

    def is_square(self, r) -> bool:
        r %= self.char
        if r == 0 or self.char == 2:
            return True
        return modp.legendre(r, self.char) == 1

    def sqrt(self, r):
        return modp.sqrt_mod(r, self.char)

    def div(self, a, b):
        return a * pow(b, -1, self.char) % self.char

    def nroots_cubic(self, a, b, c) -> int:
        p = self.char
        return modp.count_roots([c % p, b % p, a % p, 1], p)


class _FTDVR:
    """Q[T] localized at T (the place has been translated to the origin);
    residues are Fractions (residue field Q, characteristic 0)."""

    char = 0

    def val(self, x: Poly) -> int:
        if x.is_zero:
            return _INF
        return x.ord_at_zero()

    def shift(self, x: Poly, k: int) -> Poly:
        if k >= 0:
            return x * Poly([0] * k + [1]) if k else x
        return x.shift_down(-k)

    def residue(self, x: Poly) -> Fraction:
        return x[0]

    def is_zero(self, r) -> bool:
        return r == 0

    def is_square(self, r) -> bool:
        return sqrt_rational(r) is not None

    def sqrt(self, r):
        return sqrt_rational(r)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def nroots_cubic(self, a, b, c) -> int:
        return len(rational_roots(Poly([c, b, a, 1])))


def _translate(ai, r, s, t):
    """Coordinate change x = x' + r, y = y' + s x' + t on a-invariants."""
    a1, a2, a3, a4, a6 = ai
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1,
    )


def _b_invariants(ai):
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _discriminant(ai):
    b2, b4, b6, b8 = _b_invariants(ai)
    return -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _cubic_analysis(dvr, a, b, c):
    """Monic cubic X^3 + aX^2 + bX + c over the residue field of dvr.

    Returns ("sf", nroots_in_k, None), ("double", None, x0) or
    ("triple", None, x0); x0 always lies in the residue field.
    """
    disc = (
        18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c
    )
    if not dvr.is_zero(disc):
        return ("sf", dvr.nroots_cubic(a, b, c), None)
    if dvr.char == 3:
        triple = dvr.is_zero(a) and dvr.is_zero(b)
    else:
        triple = dvr.is_zero(a * a - 3 * b)
    if triple:
        if dvr.char == 3:
            x0 = (-c) % 3  # Frobenius cube root in F_3
        else:
            x0 = dvr.div(-a, 3)
        return ("triple", None, x0)
    if dvr.char == 2:
        x0 = dvr.sqrt(b)
    else:
        x0 = dvr.div(9 * c - a * b, 2 * (a * a - 3 * b))
    return ("double", None, x0)


def _quadratic(dvr, a, b, c):
    """aX^2 + bX + c over the residue field of dvr, with a a unit.

    Returns (separable, has_root, double_root): has_root is meant for the
    separable case and the double root for the inseparable one.
    """
    if dvr.char == 2:
        # the residue field is F_2, where a separable quadratic is X^2 + X + c
        return not dvr.is_zero(b), dvr.is_zero(c), dvr.sqrt(dvr.div(c, a))
    disc = b * b - 4 * a * c
    return not dvr.is_zero(disc), dvr.is_square(disc), dvr.div(-b, 2 * a)


def _singular_point(dvr, ai):
    """Residue coordinates (x0, y0) of the singular point of the reduction."""
    r1, r2, r3, r4, r6 = (dvr.residue(a) for a in ai)
    if dvr.char in (2, 3):
        p = dvr.char
        for x in range(p):
            for y in range(p):
                F = y * y + r1 * x * y + r3 * y - (x**3 + r2 * x * x + r4 * x + r6)
                Fx = r1 * y - (3 * x * x + 2 * r2 * x + r4)
                Fy = 2 * y + r1 * x + r3
                if F % p == 0 and Fx % p == 0 and Fy % p == 0:
                    return x, y
        raise TateError("no singular point found on a singular reduction")
    b2 = r1 * r1 + 4 * r2
    b4 = 2 * r4 + r1 * r3
    b6 = r3 * r3 + 4 * r6
    kind, _, x0 = _cubic_analysis(dvr, dvr.div(b2, 4), dvr.div(b4, 2), dvr.div(b6, 4))
    if kind == "sf":
        raise TateError("reduction is singular but the 2-division cubic is squarefree")
    y0 = dvr.div(-(r1 * x0 + r3), 2)
    return x0, y0


def _tate_core(dvr, a2_in, a4_in) -> LocalReduction:
    """Run Tate's algorithm on the integral model y^2 = x^3 + a2 x^2 + a4 x.

    Outside residue characteristic 2 no step shifts y by a multiple of x,
    so a1 stays 0 and a3 stays even; the exact halvings -a3 // 2 rely on it.
    """
    zero = 0 * a2_in
    ai = [zero, a2_in, zero, a4_in, zero]
    char2 = dvr.char == 2

    while True:
        a1, a2, a3, a4, a6 = ai
        delta = _discriminant(ai)
        n = dvr.val(delta)
        if n == 0:
            return LocalReduction(KodairaSymbol("I", 0), 1, GOOD, 0, 0)
        if n >= _INF:
            raise TateError("singular model (discriminant 0)")

        x0, y0 = _singular_point(dvr, ai)
        ai = _translate(ai, x0, zero, y0)
        a1, a2, a3, a4, a6 = ai
        if min(dvr.val(a3), dvr.val(a4), dvr.val(a6)) < 1:
            raise TateError("singular point not at the origin after translation")

        if char2:
            multiplicative = dvr.val(a1) == 0
        else:
            multiplicative = dvr.val(a2) == 0

        if multiplicative:
            if char2:
                split = dvr.is_zero(dvr.residue(a2))
            else:
                split = dvr.is_square(dvr.residue(a2))
            c = n if split else (2 if n % 2 == 0 else 1)
            red = SPLIT_MULT if split else NONSPLIT_MULT
            return LocalReduction(KodairaSymbol("I", n), c, red, n, 1)

        # additive: normalize a3 (and a2 at residue characteristic 2)
        if char2:
            ai = _translate(ai, zero, dvr.sqrt(dvr.residue(a2)), zero)
        else:
            ai = _translate(ai, zero, zero, -ai[2] // 2)
        a1, a2, a3, a4, a6 = ai

        if dvr.val(a6) < 2:
            return LocalReduction(KodairaSymbol("II"), 1, ADDITIVE, n, n)
        b2, b4, b6, b8 = _b_invariants(ai)
        if dvr.val(b8) < 3:
            return LocalReduction(KodairaSymbol("III"), 2, ADDITIVE, n, n - 1)
        if dvr.val(b6) < 3:
            A = dvr.residue(dvr.shift(a3, -1))
            B = dvr.residue(dvr.shift(a6, -2))
            # v(b6) = 2 makes A a unit, so Y^2 + AY - B is separable
            _, has_root, _ = _quadratic(dvr, 1, A, -B)
            c = 3 if has_root else 1
            return LocalReduction(KodairaSymbol("IV"), c, ADDITIVE, n, n - 2)

        # step 6 normalization: pi | a1, a2; pi^2 | a3, a4; pi^3 | a6
        if char2:
            tau = dvr.residue(dvr.shift(a6, -2))
            ai = _translate(ai, zero, zero, dvr.shift(tau, 1))
            a1, a2, a3, a4, a6 = ai
        if not (
            dvr.val(a1) >= 1
            and dvr.val(a2) >= 1
            and dvr.val(a3) >= 2
            and dvr.val(a4) >= 2
            and dvr.val(a6) >= 3
        ):
            raise TateError("normalization for the star steps failed")

        P_a = dvr.residue(dvr.shift(a2, -1))
        P_b = dvr.residue(dvr.shift(a4, -2))
        P_c = dvr.residue(dvr.shift(a6, -3))
        kind, nroots, x0 = _cubic_analysis(dvr, P_a, P_b, P_c)

        if kind == "sf":
            return LocalReduction(KodairaSymbol("I*", 0), 1 + nroots, ADDITIVE, n, n - 4)

        if kind == "double":
            ai = _translate(ai, dvr.shift(x0, 1), zero, zero)
            if not char2:
                ai = _translate(ai, zero, zero, -ai[2] // 2)
            a1, a2, a3, a4, a6 = ai
            if dvr.val(a2) != 1 or dvr.val(a4) < 3 or dvr.val(a6) < 4:
                raise TateError("bad entry state for the I_m* subprocedure")
            m = 1
            while True:
                if m % 2 == 1:
                    kk = (m + 1) // 2
                    A = dvr.residue(dvr.shift(a3, -(kk + 1)))
                    B = dvr.residue(dvr.shift(a6, -(2 * kk + 2)))
                    separable, has_root, y0 = _quadratic(dvr, 1, A, -B)
                    if separable:
                        c = 4 if has_root else 2
                        return LocalReduction(
                            KodairaSymbol("I*", m), c, ADDITIVE, n, n - 4 - m
                        )
                    ai = _translate(ai, zero, zero, dvr.shift(y0, kk + 1))
                else:
                    kk = m // 2
                    C = dvr.residue(dvr.shift(a2, -1))
                    D = dvr.residue(dvr.shift(a4, -(kk + 2)))
                    E = dvr.residue(dvr.shift(a6, -(2 * kk + 3)))
                    # C is a unit: v(a2) = 1 holds throughout the loop
                    separable, has_root, x1 = _quadratic(dvr, C, D, E)
                    if separable:
                        c = 4 if has_root else 2
                        return LocalReduction(
                            KodairaSymbol("I*", m), c, ADDITIVE, n, n - 4 - m
                        )
                    ai = _translate(ai, dvr.shift(x1, kk + 1), zero, zero)
                a1, a2, a3, a4, a6 = ai
                m += 1
                if m > n:
                    raise TateError("I_m* subprocedure failed to terminate")

        # triple root
        ai = _translate(ai, dvr.shift(x0, 1), zero, zero)
        a1, a2, a3, a4, a6 = ai
        if dvr.val(a2) < 2 or dvr.val(a4) < 3 or dvr.val(a6) < 4:
            raise TateError("triple-root translation failed")
        A = dvr.residue(dvr.shift(a3, -2))
        B = dvr.residue(dvr.shift(a6, -4))
        separable, has_root, y0 = _quadratic(dvr, 1, A, -B)
        if separable:
            c = 3 if has_root else 1
            return LocalReduction(KodairaSymbol("IV*"), c, ADDITIVE, n, n - 6)
        ai = _translate(ai, zero, zero, dvr.shift(y0, 2))
        if not char2:
            ai = _translate(ai, zero, zero, -ai[2] // 2)
        a1, a2, a3, a4, a6 = ai
        if dvr.val(a3) < 3 or dvr.val(a6) < 5:
            raise TateError("IV* exit state invalid")
        if dvr.val(a4) < 4:
            return LocalReduction(KodairaSymbol("III*"), 2, ADDITIVE, n, n - 7)
        if dvr.val(a6) < 6:
            return LocalReduction(KodairaSymbol("II*"), 1, ADDITIVE, n, n - 8)
        # non-minimal: rescale and start over
        ai = [dvr.shift(a, -i) for i, a in zip((1, 2, 3, 4, 6), ai)]


def _infinity_model(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Model of (a, b) in the coordinate U = 1/T, integral and vanishing-checked at U = 0."""
    m = max(
        -(-max(a.degree, 0) // 2) if not a.is_zero else 0,
        -(-max(b.degree, 0) // 4),
        1,
    )
    aU = a.reverse_pad(2 * m) if not a.is_zero else Poly()
    bU = b.reverse_pad(4 * m)
    return aU, bU


def tate_local(a, b, place: Place | int) -> LocalReduction:
    """Local reduction data of a minimal model of y^2 = x^3 + a x^2 + b x at
    the place: a and b are ints at a prime p (the int p) and Polys at a
    `Place`, T - e or infinity."""
    if not isinstance(place, Place):
        _require_q_place(place)
        if place == REAL:
            raise ValueError("no Tate's algorithm at the real place")
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError(f"at {place}, a and b must be ints")
        return _tate_core(_QpDVR(place), a, b)
    if not (isinstance(a, Poly) and isinstance(b, Poly)):
        raise TypeError(f"at {place}, a and b must be Polys")
    if place.kind == "ft":
        return _tate_core(_FTDVR(), a.shift(place.e), b.shift(place.e))
    return _tate_core(_FTDVR(), *_infinity_model(a, b))


def bad_places_qt(E: TwoTorsionModel) -> dict[Place, tuple[LocalReduction, LocalReduction]]:
    """Each place of Q(T) where E has bad reduction, T - e by increasing e
    and then infinity, mapped to the local data of E and of its partner
    E' = (-2a, a^2-4b): one Tate run per (model, place).  Requires linear
    bad places."""
    disc = model_discriminant(E.a, E.b)
    roots = rational_roots(disc)
    if sum(m for _, m in roots) != disc.degree:
        raise UnsupportedClassError("discriminant has a nonlinear factor (condition (a) fails)")
    Ed = dual_model(E)
    places = [Place.ft(r) for r, _ in roots]
    local = {pl: (tate_local(E.a, E.b, pl), tate_local(Ed.a, Ed.b, pl)) for pl in places}
    at_inf = tate_local(E.a, E.b, FT_INFINITY)
    if not at_inf.kodaira.is_good:
        local[FT_INFINITY] = (at_inf, tate_local(Ed.a, Ed.b, FT_INFINITY))
    return local
