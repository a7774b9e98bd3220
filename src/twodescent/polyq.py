"""Univariate polynomials over Q, and the square-class machinery for Q(T).

A :class:`Poly` stores Fraction coefficients, constant term first, trailing
zeros trimmed.  The zero polynomial has degree -1 (sentinel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .arith import _SMALL_PRIMES, SquareClassQ, deriv, horner, square_class, taylor_shift
from .modp import pgcd

Coef = Union[int, Fraction]


class SingularModelError(Exception):
    """A Weierstrass model with vanishing discriminant was supplied."""


class UnsupportedClassError(Exception):
    """A Q(T) square class with a nonlinear irreducible factor was requested."""


class Poly:
    """Dense univariate polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coef] = ()):  # constant term first
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c: Coef) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monic_linear(root: Coef) -> "Poly":
        """T - root."""
        return Poly([-Fraction(root), 1])

    # -- basic structure ----------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        r, b = Poly.const(1), self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.leading
        while len(r) - 1 >= d and r:
            c = r[-1] / lc
            s = len(r) - 1 - d
            q[s] = c
            for i in range(d + 1):
                r[s + i] -= c * other.coeffs[i]
            while r and r[-1] == 0:
                r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other) -> "Poly":
        return self.divmod(_as_poly(other))[0]

    def __mod__(self, other) -> "Poly":
        return self.divmod(_as_poly(other))[1]

    # -- helpers ---------------------------------------------------------
    def shift(self, c: Coef) -> "Poly":
        """The polynomial f(T + c)."""
        return Poly(taylor_shift(self.coeffs, Fraction(c)))

    def reverse_pad(self, k: int) -> "Poly":
        """U^k * f(1/U) as a polynomial in U; requires k >= deg f."""
        if k < self.degree:
            raise ValueError("pad degree too small")
        out = [Fraction(0)] * (k + 1)
        for i, c in enumerate(self.coeffs):
            out[k - i] = c
        return Poly(out)

    def ord_at_zero(self) -> int:
        """Multiplicity of the root 0 (valuation at T); raises on zero poly."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError

    def shift_down(self, k: int) -> "Poly":
        """Exact division by T^k."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("not divisible by T^k")
        return Poly(self.coeffs[k:])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a * Poly.const(1 / a.leading)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*T^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    raise TypeError(f"cannot coerce {type(v)} to Poly")


def eval_at(f: Poly, t: Coef) -> Fraction:
    """Exact Horner evaluation f(t)."""
    return Fraction(horner(f.coeffs, Fraction(t)))


def rational_roots(f: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of a nonzero f with multiplicities, ascending.

    The squarefree part h (integral, leading coefficient l) has simple roots
    mod a prime p dividing neither l nor its discriminant; each lifts by
    Newton's step mod q = p^(2^k).  A rational root r has l*r in Z with
    |l*r| <= |l| + max|h_i| (Cauchy's bound), so once q exceeds twice that,
    l*r is the symmetric residue of the lift, checked exactly by h(r) = 0.
    """
    k = f.ord_at_zero()
    out: list[tuple[Fraction, int]] = [(Fraction(0), k)] if k else []
    g = f.shift_down(k)
    h = g // g.gcd(Poly(deriv(g.coeffs)))
    den = math.lcm(*(c.denominator for c in h.coeffs))
    h = [int(c * den) for c in h.coeffs]
    dh = deriv(h)
    lead, bound = h[-1], 2 * (abs(h[-1]) + max(map(abs, h)))
    for p in _SMALL_PRIMES:
        if lead % p and len(pgcd(h, dh, p)) == 1:
            break
    else:
        raise ArithmeticError("no small prime keeps the roots of h distinct")
    for r in (r for r in range(p) if horner(h, r) % p == 0):
        q = p
        while q <= bound:
            q *= q
            r = (r - horner(h, r) * pow(horner(dh, r), -1, q)) % q
        c = lead * r % q
        root = Fraction(c - q if 2 * c > q else c, lead)
        if horner(h, root) == 0:
            m, lin = 0, Poly.monic_linear(root)
            quo, rem = g.divmod(lin)
            while rem.is_zero:
                g, m = quo, m + 1
                quo, rem = g.divmod(lin)
            out.append((root, m))
    return sorted(out)


def splits_linearly(f: Poly) -> bool:
    """True iff f factors into linear polynomials over Q (times a constant)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    return sum(m for _, m in rational_roots(f)) == f.degree


def check_nonsingular_qt(a: Poly, b: Poly) -> None:
    """SingularModelError if b = 0 or a^2 = 4b, for Polys a and b: the one
    singular test for Q(T) models."""
    if b.is_zero or a * a == 4 * b:
        raise SingularModelError("b = 0 or a^2 = 4b")


def model_discriminant(a, b) -> Poly:
    """Discriminant 16(a^2-4b)b^2 of y^2 = x^3 + a x^2 + b x.

    Accepts Poly or rational coefficients; raises on singular models.
    """
    a, b = _as_poly(a), _as_poly(b)
    check_nonsingular_qt(a, b)
    return 16 * (a * a - 4 * b) * b * b


@dataclass(frozen=True)
class SquareClassFT:
    """Element of Q(T)^x/(Q(T)^x)^2 supported on linear places.

    Represents constant_class * prod(T - e) over the roots; only defined
    for classes whose polynomial part splits into linear factors.
    """

    constant: SquareClassQ
    roots: tuple[Fraction, ...]

    def __post_init__(self):
        if any(self.roots[i] >= self.roots[i + 1] for i in range(len(self.roots) - 1)):
            raise ValueError("roots must be strictly increasing")

    @property
    def is_identity(self) -> bool:
        return self.constant.is_identity and not self.roots

    def __str__(self) -> str:
        parts = [str(self.constant.value())] if not self.constant.is_identity or not self.roots else []
        if self.constant.is_identity and not self.roots:
            return "1"
        for r in self.roots:
            parts.append(f"(T - {r})" if r >= 0 else f"(T + {-r})")
        return "*".join(parts) if parts else "1"


def ft_square_class(f: Poly) -> SquareClassFT:
    """Square class of a nonzero f in Q(T)^x/(Q(T)^x)^2.

    Requires f to split into linear factors over Q; a nonlinear
    irreducible factor raises UnsupportedClassError loudly rather than
    being modelled.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    roots = rational_roots(f) if f.degree > 0 else []
    if sum(m for _, m in roots) != f.degree:
        raise UnsupportedClassError("polynomial has a nonlinear irreducible factor")
    odd = tuple(r for r, m in roots if m % 2 == 1)
    return SquareClassFT(square_class(f.leading), odd)


# -- JSON wire format: polynomials as arrays of "num/den", constant first --

def rational_to_str(q: Coef) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    return Fraction(s)


def poly_from_json(data: Sequence[str]) -> Poly:
    return Poly([Fraction(s) for s in data])
