"""Weierstrass models y^2 = x^3 + a x^2 + b x with marked 2-torsion (0,0).

A curve over Q is its coefficient pair (a, b) of ints or Fractions, the
pair the descent runs on; its dual is (-2a, a^2-4b), and `on_model` is its
on-curve check.  The group law and the isogenies take that pair.  A curve
over Q(T) is a `TwoTorsionModel` of `Poly`s; its points have polynomial
coordinates, as the families' generic points do, and there only the
on-curve check and the connecting class are taken.  `specialize` maps it
to the pair of a fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import f2_echelon, factor, horner
from .polyq import Poly, SingularModelError, SquareClassFT, check_nonsingular_qt, eval_at, ft_square_class


class OffCurveError(Exception):
    """A point failed the exact on-curve check for its model."""


class SingularSpecializationError(Exception):
    """Specialization at a root of the discriminant was requested."""


def is_singular(a, b) -> bool:
    """b = 0 or a^2 = 4b, for ints or Fractions, on integers: a^2 = 4b is
    n^2 e = 4 m d^2 for a = n/d and b = m/e."""
    n, d, m, e = a.numerator, a.denominator, b.numerator, b.denominator
    return m == 0 or n * n * e == 4 * m * d * d


def check_nonsingular(a, b):
    """SingularModelError if `is_singular(a, b)`."""
    if is_singular(a, b):
        raise SingularModelError("b = 0 or a^2 = 4b")


@dataclass(frozen=True)
class TwoTorsionModel:
    """A curve over Q(T): a and b are Polys."""

    a: Poly
    b: Poly

    def __post_init__(self):
        if not (isinstance(self.a, Poly) and isinstance(self.b, Poly)):
            raise TypeError("a and b must be Polys")
        check_nonsingular_qt(self.a, self.b)

    @property
    def b_dual(self) -> Poly:
        return self.a * self.a - 4 * self.b


@dataclass(frozen=True)
class AffinePoint:
    x: object = None
    y: object = None
    at_infinity: bool = False

    @staticmethod
    def infinity() -> "AffinePoint":
        return AffinePoint(at_infinity=True)

    @staticmethod
    def of(x, y) -> "AffinePoint":
        return AffinePoint(x=x, y=y)

    @property
    def is_two_torsion_origin(self) -> bool:
        return not self.at_infinity and not self.y and not self.x

    def __str__(self):
        return "O" if self.at_infinity else f"({self.x}, {self.y})"


INFINITY = AffinePoint.infinity()


def on_model(a, b, x, y) -> bool:
    """Exact check y^2 = x^3 + a x^2 + b x on ints or Fractions, run on integers:
    with x = n/d, y = m/e, a = r/s and b = u/w, both sides times d^3 e^2 s w."""
    n, d, m, e = x.numerator, x.denominator, y.numerator, y.denominator
    r, s, u, w = a.numerator, a.denominator, b.numerator, b.denominator
    rhs = n * (n * n * s * w + r * n * d * w + u * d * d * s)
    return m * m * d**3 * s * w == rhs * e * e


def on_curve(E: TwoTorsionModel, P: AffinePoint) -> bool:
    """Exact check y^2 = x^3 + a x^2 + b x on a Q(T) model and polynomial coordinates."""
    if P.at_infinity:
        return True
    x, y = P.x, P.y
    return not y * y - (x * x * x + E.a * x * x + E.b * x)


def _require_on_curve(E: TwoTorsionModel, P: AffinePoint):
    if not on_curve(E, P):
        raise OffCurveError(f"point {P} is not on the curve")


def _require_on_model(a, b, P: AffinePoint):
    if not (P.at_infinity or on_model(a, b, P.x, P.y)):
        raise OffCurveError(f"point {P} is not on the curve")


def dual_model(E: TwoTorsionModel) -> TwoTorsionModel:
    """The 2-isogenous model (a', b') = (-2a, a^2 - 4b)."""
    return TwoTorsionModel(-2 * E.a, E.b_dual)


def apply_isogeny(a, b, P: AffinePoint) -> AffinePoint:
    """The degree-2 isogeny (x, y) -> (y^2/x^2, y(b - x^2)/x^2) from (a, b)
    onto its dual (-2a, a^2-4b).

    The kernel {O, (0,0)} maps to the point at infinity; the rational-map
    formula is undefined there, and (0,0) is the one point with x = 0.
    """
    _require_on_model(a, b, P)
    if P.at_infinity or P.is_two_torsion_origin:
        return INFINITY
    x, y = Fraction(P.x), Fraction(P.y)
    xx = x * x
    return AffinePoint.of(y * y / xx, y * (b - xx) / xx)


def apply_dual_isogeny(a, b, Q: AffinePoint) -> AffinePoint:
    """The dual isogeny from (-2a, a^2-4b) back to (a, b).

    Implemented as the isogeny of the dual model followed by the
    isomorphism (x, y) -> (x/4, y/8) from the double dual back to (a, b).
    """
    R = apply_isogeny(-2 * a, a * a - 4 * b, Q)
    if R.at_infinity:
        return INFINITY
    P = AffinePoint.of(R.x / 4, R.y / 8)
    _require_on_model(a, b, P)
    return P


def negate(P: AffinePoint) -> AffinePoint:
    if P.at_infinity:
        return P
    return AffinePoint.of(P.x, -P.y)


def add_points(a, b, P: AffinePoint, Q: AffinePoint) -> AffinePoint:
    """Chord-tangent addition on (a, b)."""
    _require_on_model(a, b, P)
    _require_on_model(a, b, Q)
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    x1, y1, x2, y2 = Fraction(P.x), Fraction(P.y), Fraction(Q.x), Fraction(Q.y)
    if x1 == x2:
        if not y1 + y2:
            return INFINITY
        lam = (3 * x1 * x1 + 2 * a * x1 + b) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a - x1 - x2
    y3 = lam * (x1 - x3) - y1
    R = AffinePoint.of(x3, y3)
    _require_on_model(a, b, R)
    return R


def multiply_point(a, b, P: AffinePoint, n: int) -> AffinePoint:
    if n < 0:
        return multiply_point(a, b, negate(P), -n)
    R = INFINITY
    Q = P
    while n:
        if n & 1:
            R = add_points(a, b, R, Q)
        Q = add_points(a, b, Q, Q)
        n >>= 1
    return R


def delta_class(E: TwoTorsionModel, P: AffinePoint) -> SquareClassFT:
    """Connecting square class over Q(T): O -> 1, (0,0) -> class(b), else class(x)."""
    _require_on_curve(E, P)
    if P.at_infinity:
        return ft_square_class(Poly.const(1))
    return ft_square_class(E.b) if not P.x else ft_square_class(P.x)


def j_invariant(a, b) -> Fraction:
    """j = 256 (a^2-3b)^3 / (b^2 (a^2-4b)) for a curve over Q."""
    return Fraction(256 * (a * a - 3 * b) ** 3) / (b * b * (a * a - 4 * b))


def specialize(E: TwoTorsionModel, t) -> tuple[Fraction, Fraction]:
    """The pair (a(t), b(t)) of the fiber at T = t; rejected when it is singular."""
    t = Fraction(t)
    a, b = eval_at(E.a, t), eval_at(E.b, t)
    if is_singular(a, b):
        raise SingularSpecializationError(f"t = {t} is a root of the discriminant")
    return a, b


def _reduced_model(A: int, B: int, u: int, primes) -> tuple[int, int, Fraction]:
    """The integer model (A, B) = (u^2 a, u^4 b) brought to the one that
    `integral_model` returns, given the primes of the integer u > 0.

    Each of those primes leaves u while p^2 | A and p^4 | B, but never below
    p^0: that is the least scaling making the model integral.  Then every
    p <= 13 is divided out while p^2 | A and p^4 | B, below p^0 too.
    """
    for p in primes:
        p2, p4 = p * p, p**4
        while u % p == 0 and A % p2 == 0 and B % p4 == 0:
            A, B, u = A // p2, B // p4, u // p
    den = 1
    for p in (2, 3, 5, 7, 11, 13):
        p2, p4 = p * p, p**4
        while A % p2 == 0 and B % p4 == 0:
            A, B, den = A // p2, B // p4, den * p
    return A, B, Fraction(u, den)


def clear_denominators(a, b) -> tuple[int, int, int]:
    """(d^2 a, d^4 b, d) for d the product of the denominators of a and b:
    an integral model of (a, b), with the same local data, not reduced."""
    d = a.denominator * b.denominator
    return a.numerator * (d * d // a.denominator), b.numerator * (d**4 // b.denominator), d


def integral_model(a, b) -> tuple[int, int, Fraction]:
    """Integer model (A, B) = (u^2 a, u^4 b) with the scaling u, mildly reduced.

    The scaling x -> u^2 x, y -> u^3 y preserves all square classes and
    local data; small prime powers common to (A, B) are divided back out.
    """
    # u = d clears both denominators; _reduced_model takes its primes back out
    A, B, d = clear_denominators(a, b)
    return _reduced_model(A, B, d, factor(d).primes if d > 1 else ())


def _integer_form(f: Poly, degree: int) -> tuple[int, tuple[int, ...]]:
    """(D, c) with D f(T) = c_0 + c_1 T + ... + c_degree T^degree, all integers."""
    D = math.lcm(*(c.denominator for c in f.coeffs))
    return D, tuple(int(c * D) for c in f.coeffs) + (0,) * (degree + 1 - len(f.coeffs))


def _form_value(coeffs: tuple[int, ...], m: int, n: int) -> int:
    """n^d f(m/n) for the integer coefficients of f, of degree d."""
    d = len(coeffs) - 1
    return horner([c * n ** (d - i) for i, c in enumerate(coeffs)], m)


class IntegerFibers:
    """The fibers of a Q(T)-model E and of points on E and its dual, on integers.

    a(T) and b(T) are cleared once to integer forms of degrees 2k and 4k,
    c^2 a and c^4 b, so that at t = m/n the model scaled by u0 = c n^k is
    A0 = (c n^k)^2 a(t), B0 = (c n^k)^4 b(t), with no Fraction.  `model`
    reduces it to exactly `integral_model(*specialize(E, t))`, and `points`
    moves each point's coordinates, cleared once too, onto that model and
    its dual (-2A, A^2-4B), the two sides of `rank_bounds`, by x -> u^2 x,
    y -> u^3 y.
    """

    def __init__(self, E: TwoTorsionModel, points_e=(), points_eprime=()):
        self._k = k = max(-(-E.a.degree // 2), -(-E.b.degree // 4))
        da, a = _integer_form(E.a, 2 * k)
        db, b = _integer_form(E.b, 4 * k)
        self._c = c = math.lcm(da, db)
        self._a = tuple(x * (c * c // da) for x in a)
        self._b = tuple(x * (c**4 // db) for x in b)
        self._points = tuple(
            tuple((_integer_form(P.x, max(P.x.degree, 0)), _integer_form(P.y, max(P.y.degree, 0))) for P in pts)
            for pts in (points_e, points_eprime)
        )

    def model(self, m: int, n: int) -> tuple[int, int, Fraction]:
        """(A, B, u) of `integral_model(*specialize(E, m/n))`, for n > 0 and
        gcd(m, n) = 1; a singular fiber raises SingularSpecializationError."""
        A, B = _form_value(self._a, m, n), _form_value(self._b, m, n)
        if is_singular(A, B):
            raise SingularSpecializationError(f"t = {Fraction(m, n)} is a root of the discriminant")
        u = self._c * n**self._k
        return _reduced_model(A, B, u, factor(u).primes)

    def points(self, m: int, n: int, u: Fraction) -> tuple[list[AffinePoint], list[AffinePoint]]:
        """The points at t = m/n on the model scaled by u and on its dual,
        one Fraction per coordinate."""
        r, s = u.numerator, u.denominator
        return tuple(
            [
                AffinePoint.of(
                    Fraction(r * r * _form_value(X, m, n), s * s * dx * n ** (len(X) - 1)),
                    Fraction(r**3 * _form_value(Y, m, n), s**3 * dy * n ** (len(Y) - 1)),
                )
                for (dx, X), (dy, Y) in pts
            ]
            for pts in self._points
        )


def delta_span_dim(classes) -> int:
    """F_2-dimension of the span of Q(T) square classes."""
    bits: dict = {}  # atom -> bit position
    vecs = []
    for cls in classes:
        atoms = [("p", p) for p in cls.constant.support] + [("root", r) for r in cls.roots]
        if cls.constant.sign < 0:
            atoms.append(("sign", -1))
        v = 0
        for atom in atoms:
            v |= 1 << bits.setdefault(atom, len(bits))
        vecs.append(v)
    return len(f2_echelon(vecs))
