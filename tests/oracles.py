"""Independent brute-force oracles used to cross-check the descent machinery.

Everything here is deliberately primitive: exhaustive candidate
enumeration, flat residue refinement with no multiplicity analysis, no
character sums, no Tamagawa shortcuts.  Slow but hard to fool.

The last section holds code the scan does not run: `specialize`, the
Fraction reference for the fibers, `point_search`, which collects every
point of the x-box with the package's own covering helpers and so is no
independent oracle, and the group law and isogenies on a curve (a, b)
over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from twodescent.arith import (
    FT_INFINITY,
    REAL,
    Place,
    SquareClassQ,
    _require_q_place,
    f2_echelon,
    f2_span,
    int_valuation,
    is_prime,
    local_coords,
    local_pairing,
    local_reps,
    square_class,
)
from twodescent.curve import (
    AffinePoint,
    OffCurveError,
    SingularSpecializationError,
    TwoTorsionModel,
    _reduced_model,
    is_singular,
    on_model,
)
from twodescent.descent import (
    Descent,
    _box_points,
    _check_model,
    _covering_divisors,
    _image_at_place,
    torsor_solvable_at,
)
from twodescent.family import FamilyRecord, FamilyValidationError, classify_places
from twodescent.localdata import bad_places_qt, tate_local
from twodescent.polyq import Poly, SquareClassFT, eval_at, ft_square_class, rational_roots, rational_to_str

INF = 10**9


def vp(n: int, p: int) -> int:
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_factor(n: int) -> tuple[tuple[int, int], ...]:
    """The factorization of n >= 1 as (p, e) pairs, by trial division by
    every integer d with d^2 <= the cofactor."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_is_prime(n: int) -> bool:
    return n > 1 and oracle_factor(n) == ((n, 1),)


def _oracle_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, by Pollard's rho with
    Floyd's cycle finding."""
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise ValueError(f"rho found no factor of {n}")


def oracle_proven_prime(n: int) -> bool:
    """Is n > 1 prime, with a proof either way?  Below 10^10 by trial
    division.  Above, for a < 200 and n - 1 = 2^s d: n is composite if
    a^(n-1) != 1 (Fermat) or if some x in a^d, a^(2d), ... has x^2 = 1 with
    x != +-1 (then gcd(x - 1, n) splits n).  It is prime if some a < 200 has
    order n - 1 modulo n (Lucas): a^(n-1) = 1 and a^((n-1)/q) != 1 for each
    prime q | n - 1.  The q are found by trial division below 10^5, then
    rho splits what is left until each piece is proven prime the same way.
    Raises when neither proof is found."""
    if n < 10**10:
        return oracle_is_prime(n)
    s = vp(n - 1, 2)
    for a in range(2, 200):
        x = pow(a, (n - 1) >> s, n)
        for _ in range(s):
            y = x * x % n
            if y == 1 and x not in (1, n - 1):
                return False
            x = y
        if x != 1:
            return False
    m, qs = n - 1, set()
    for d in range(2, 10**5):
        if m % d == 0:
            qs.add(d)
            while m % d == 0:
                m //= d
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if oracle_proven_prime(m):
            qs.add(m)
        else:
            g = _oracle_rho(m)
            stack += [g, m // g]
    if any(all(pow(a, (n - 1) // q, n) != 1 for q in qs) for a in range(2, 200)):
        return True
    raise ValueError(f"no certificate: no a < 200 of order n - 1 modulo {n}")


def oracle_f2_span(vectors) -> set[int]:
    """The XOR of every subset of vectors (int bitmasks), 0 included."""
    vectors = list(vectors)
    out = set()
    for m in range(1 << len(vectors)):
        x = 0
        for i, v in enumerate(vectors):
            if m >> i & 1:
                x ^= v
        out.add(x)
    return out


def is_reduced_echelon(basis) -> bool:
    """Nonzero masks with strictly decreasing leading bits, none of which is
    set in another mask: the one such basis of their span."""
    leads = [b.bit_length() - 1 for b in basis]
    return (
        all(basis)
        and all(x > y for x, y in zip(leads, leads[1:]))
        and not any(c >> lead & 1 for lead, b in zip(leads, basis) for c in basis if c != b)
    )


def peval(F, z):
    acc = 0
    for c in reversed(F):
        acc = acc * z + c
    return acc


def branch_precision(F, c, p, k) -> int:
    """min v_p of the coefficients of X^j, j >= 1, in F(c + p^k X), expanded
    term by term by the binomial theorem."""
    return min(
        vp(sum(F[i] * math.comb(i, j) * c ** (i - j) for i in range(j, len(F))) * p ** (j * k), p)
        for j in range(1, len(F))
    )


def oracle_qp_points(F, p, start_mod=1, start_res=0, max_depth=None) -> bool:
    """Solvability of w^2 = F(z) for z in start_res + start_mod*Z_p.

    Flat breadth-first residue enumeration.  A branch is accepted when the
    value class is pinned and square, or the value is exactly zero; it dies
    when pinned non-square; it splits into p children otherwise.  The class
    is pinned on c + p^k Z_p when F(c) = p^v u and every other coefficient of
    F(c + p^k X) is divisible by p^(v+3) at 2, p^(v+1) at odd p.  Beyond
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
            if v + margin <= branch_precision(F, c, p, k):  # class pinned on the branch
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


def oracle_torsor_solvable(d: int, a: Fraction, b: Fraction, place: int) -> bool:
    c4 = Fraction(d)
    c2 = -2 * Fraction(a)
    c0 = (Fraction(a) ** 2 - 4 * Fraction(b)) / d
    if place == REAL:
        return oracle_quartic_real(c4, c2, c0)
    l = math.lcm(c4.denominator, c2.denominator, c0.denominator) ** 2
    return oracle_quartic_qp(int(c4 * l), int(c2 * l), int(c0 * l), place)


def oracle_local_image(a: int, b: int, place: int) -> tuple[int, ...]:
    """Im(delta_{E',v}) for the model (a, b) by a full sweep: the torsor of
    every class of Q_v^x/(Q_v^x)^2 is tested, with no bound and no skip.
    Returns the echelon basis, after asserting the solvable set is a subgroup."""
    reps = local_reps(place)
    vecs = {v for v, rep in reps.items() if torsor_solvable_at(rep, a, b, place)}
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
    places = [REAL, 2] + [p for p in sorted(set(_prime_list(abs(support)))) if p % 2 == 1]
    sel = []
    for d in squarefree_sign_divisors(support):
        if all(oracle_torsor_solvable(d, Fraction(A), Fraction(B), pl) for pl in places):
            sel.append(d)
    return sorted(sel, key=lambda x: (abs(x), x))


def selmer_values(D, basis) -> list[int]:
    """The squarefree integers of the F_2 span of the Selmer basis masks over
    D.gens, by |value|, then value: each mask multiplied out, no factoring."""
    values = (math.prod(g for i, g in enumerate(D.gens) if m >> i & 1) for m in f2_span(basis))
    return sorted(values, key=lambda x: (abs(x), x))


def class_product(c: SquareClassQ, d: SquareClassQ) -> SquareClassQ:
    """The product of two square classes over Q: the signs multiply and the
    supports add mod 2."""
    return SquareClassQ(c.sign * d.sign, tuple(sorted(set(c.support) ^ set(d.support))))


def ft_class_product(c: SquareClassFT, d: SquareClassFT) -> SquareClassFT:
    """The product of two Q(T) square classes: the constants' classes
    multiply and the roots add mod 2."""
    return SquareClassFT(class_product(c.constant, d.constant), tuple(sorted(set(c.roots) ^ set(d.roots))))


def valuation(q, p: int) -> int:
    """The exponent v_p(q) of the prime p in the nonzero rational q."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined (would be +infinity)")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def is_square_local(q, place: int) -> bool:
    """Is q a square in the completion at the real place or a prime?"""
    _require_q_place(place)
    return local_coords(q, place) == 0


def hilbert_symbol(x, y, place: int) -> int:
    """The Hilbert symbol (x, y) at the real place or a prime, as +1 or -1,
    from `local_pairing` on the local coordinates."""
    _require_q_place(place)
    return -1 if local_pairing(local_coords(x, place), local_coords(y, place), place) else 1


def local_image(D: Descent, place: int) -> tuple[SquareClassQ, ...]:
    """Im(delta_{E',place}) of the descent D as square classes, one per
    element, in the order of their local coordinates; a place outside the
    tested set is computed here."""
    basis = D.images.get(place)
    if basis is None:
        basis = _image_at_place(D.A, D.B, place)
    reps = local_reps(place)
    return tuple(square_class(reps[v]) for v in sorted(f2_span(basis)))


def local_image_order(A: int, B: int, p: int) -> Fraction:
    """(1/2)|Im(delta_{E',p})| = c_p(E')/c_p(E), for odd primes p, on the
    integral model (A, B) and its dual (-2A, A^2-4B), from two Tate runs."""
    if p == 2:
        raise ValueError("the Tamagawa-ratio formula requires an odd prime")
    c_e = tate_local(A, B, p).tamagawa
    c_dual = tate_local(-2 * A, A * A - 4 * B, p).tamagawa
    return Fraction(c_dual, c_e)


def two_adic_index(A: int, B: int) -> Fraction:
    """2 c_2(E')/c_2(E) 2^(k_E' - k_E) for E = (A, B) and E' = (-2A, A^2-4B)
    from Tate's algorithm at 2, where k = (v_2(model discriminant) -
    v_2(minimal discriminant))/12 and the model discriminants are
    16 B^2 (A^2-4B) and 16 (A^2-4B)^2 16 B: |Im(delta_{E',2})| by Schaefer's
    index formula (J. Number Theory 56, 1996, Lemma 3.8)."""
    bdual = A * A - 4 * B
    e, e_dual = tate_local(A, B, 2), tate_local(-2 * A, bdual, 2)
    shift = int_valuation(16 * B * B * bdual, 2) - e.min_disc_valuation
    shift_dual = int_valuation(256 * bdual * bdual * B, 2) - e_dual.min_disc_valuation
    assert shift % 12 == 0 and shift_dual % 12 == 0, (A, B)
    return 2 * Fraction(e_dual.tamagawa, e.tamagawa) * Fraction(2) ** ((shift_dual - shift) // 12)


def conductor_degree(E: TwoTorsionModel) -> int:
    """deg N of a Q(T) model: bad places count 1 (multiplicative) or 2
    (additive); at residue characteristic 0 there is no wild part."""
    local = bad_places_qt(E)
    if not local:
        raise ValueError("constant/isotrivial curve: no bad linear places")
    return sum(1 if rE.is_multiplicative else 2 for rE, _ in local.values())


def _normalization_point(places: frozenset[Place]) -> Place:
    """Deterministic choice: finite places first, by (numerator height, value)."""
    finite = [pl for pl in places if pl.kind == "ft"]
    if finite:
        return min(finite, key=lambda pl: (abs(pl.e.numerator), pl.e))
    return FT_INFINITY


def _divisor_classes(roots: list[Fraction], has_inf: bool, norm: Place):
    """Squarefree monomial divisors, normalized to be 1 at the chosen place.

    With the place at infinity inside the support, odd degrees are allowed
    (infinity absorbs the parity); otherwise only even-degree divisors are
    unramified at infinity.
    """
    out = []
    n = len(roots)
    for mask in range(1 << n):
        B = [roots[i] for i in range(n) if mask >> i & 1]
        if not has_inf and len(B) % 2 != 0:
            continue
        f = Poly.const(1)
        for e in B:
            f = f * Poly.monic_linear(e)
        if norm.kind == "ft":
            value = eval_at(f, norm.e)
            if value == 0:
                raise FamilyValidationError("normalization point is a root of a divisor")
            f = f * Poly.const(1 / value)
            assert eval_at(f, norm.e) == 1
        else:
            assert f.leading == 1  # monic: trivial square class at infinity
        out.append((tuple(sorted(B)), f))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def admissible_divisor_sets(rec: FamilyRecord):
    """(F, F'): square classes of the admissible divisors of b and a^2-4b."""
    E = rec.E
    cls = classify_places(E)
    if not (cls.M and cls.M_prime):
        raise ValueError("conditions (a)/(b) must hold before computing divisor sets")
    e0 = _normalization_point(cls.M)
    e0p = _normalization_point(cls.M_prime)

    def finite_roots(pls) -> list[Fraction]:
        return sorted(pl.e for pl in pls if pl.kind == "ft")

    roots_b = finite_roots(cls.A | cls.M)
    roots_bp = finite_roots(cls.A | cls.M_prime)
    # sanity: those are exactly the roots of b and of a^2 - 4b
    if set(roots_b) != {r for r, _ in rational_roots(E.b)}:
        raise FamilyValidationError("roots of b do not match A union M")
    if set(roots_bp) != {r for r, _ in rational_roots(E.b_dual)}:
        raise FamilyValidationError("roots of a^2-4b do not match A union M'")

    F = _divisor_classes(roots_b, FT_INFINITY in (cls.A | cls.M), e0p)
    Fp = _divisor_classes(roots_bp, FT_INFINITY in (cls.A | cls.M_prime), e0)
    assert len(F) == 1 << (len(cls.A) + len(cls.M) - 1)
    assert len(Fp) == 1 << (len(cls.A) + len(cls.M_prime) - 1)
    return [ft_square_class(f) for _, f in F], [ft_square_class(f) for _, f in Fp]


def dual_pair(a, b) -> tuple:
    """The 2-isogenous curve (-2a, a^2-4b) of the curve (a, b) over Q."""
    return -2 * a, a * a - 4 * b


def delta_class_q(a, b, P) -> SquareClassQ:
    """Connecting square class on the curve (a, b) over Q: O -> 1,
    (0,0) -> class(b), else class(x), by factoring."""
    if not (P.at_infinity or on_model(a, b, P.x, P.y)):
        raise OffCurveError(f"point {P} is not on the curve")
    if P.at_infinity:
        return square_class(1)
    x = Fraction(P.x)
    return square_class(b) if x == 0 else square_class(x)


def delta_span_dim_q(classes) -> int:
    """F_2-dimension of the span of square classes over Q."""
    bits: dict = {}  # atom -> bit position
    vecs = []
    for cls in classes:
        atoms = [("p", p) for p in cls.support] + ([("sign", -1)] if cls.sign < 0 else [])
        v = 0
        for atom in atoms:
            v |= 1 << bits.setdefault(atom, len(bits))
        vecs.append(v)
    return len(f2_echelon(vecs))


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


def oracle_covering_points(A: int, B: int, d: int, s_max: int, v_max: int) -> list[tuple[int, int, int]]:
    """(s, v, w), w >= 0, with w^2 = d s^4 + A s^2 v^2 + (B/d) v^4, gcd(d s, v) = 1,
    1 <= s <= s_max and 1 <= v <= v_max, in increasing (s, v) order.

    A plain double loop: no sieve, no coprime mask, no sign shortcut.
    """
    pts = []
    for s in range(1, s_max + 1):
        for v in range(1, v_max + 1):
            N = d * s**4 + A * s * s * v * v + B // d * v**4
            if math.gcd(d * s, v) == 1 and N >= 0 and math.isqrt(N) ** 2 == N:
                pts.append((s, v, math.isqrt(N)))
    return pts


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


def poly_to_json(f: Poly) -> list[str]:
    """The coefficients of f, constant term first, as the CLI's curve JSON
    writes them (`polyq.poly_from_json` reads them back)."""
    return [rational_to_str(c) for c in f.coeffs]


# ----------------------------------------------------------------------
# Fraction references and the Q group law, which the scan does not run
# ----------------------------------------------------------------------


def specialize(E: TwoTorsionModel, t) -> tuple[Fraction, Fraction]:
    """The pair (a(t), b(t)) of the fiber at T = t, by Fraction evaluation;
    a singular fiber raises the package's SingularSpecializationError.
    The reference that `IntegerFibers.model` is tested against."""
    t = Fraction(t)
    a, b = eval_at(E.a, t), eval_at(E.b, t)
    if is_singular(a, b):
        raise SingularSpecializationError(f"t = {t} is a root of the discriminant")
    return a, b


def point_search(A: int, B: int, height_bound: int) -> list[AffinePoint]:
    """The points of y^2 = x^3 + A x^2 + B x (A, B integers) whose x is u/v^2
    with |u|, v <= height bound on the reduced model, sorted by x.

    Not an independent oracle: it composes the package's covering helpers
    (`_reduced_model`, `_covering_divisors`, `_box_points`), the x-box walk
    of `rank_bounds`, and collects every covering's points instead of the
    first; `oracle_box_points` is the plain double loop it is checked
    against.  The reduced model divides each p <= 13 out of (A, B) while
    p^2 | A and p^4 | B, as `curve.integral_model` does; the points are
    moved back from it.  The denominator of x is a square for integral
    models with rational 2-torsion, so this shape loses nothing.  Write
    u = d s^2 with d signed and squarefree and gcd(u, v) = 1.  At a prime of
    d not dividing B, u^3 + A u^2 v^2 + B u v^4 has odd valuation; for d | B
    it is (d s)^2 (d s^4 + A s^2 v^2 + (B/d) v^4).  So only d | B with
    |d| <= H are tried, each on its 2-covering with s <= sqrt(H/|d|) and
    v <= H.  u = 0 gives only the 2-torsion point (0, 0).
    """
    _check_model(A, B)
    if height_bound < 1:
        return []
    Ar, Br, scale = _reduced_model(A, B, 1, ())
    primes, m = [], abs(Br)
    for p in range(2, min(height_bound, m) + 1):
        if m % p == 0:  # p is prime: every smaller prime is divided out of m
            primes.append(p)
            while m % p == 0:
                m //= p
    points = [AffinePoint.of(Fraction(0), Fraction(0))]
    for d, _ in _covering_divisors(Br, primes, height_bound):
        points += _box_points(A, B, Ar, Br, scale.denominator, d, height_bound)
    return sorted(points, key=lambda P: P.x)


INFINITY = AffinePoint(at_infinity=True)


def _require_on_model(a, b, P: AffinePoint):
    if not (P.at_infinity or on_model(a, b, P.x, P.y)):
        raise OffCurveError(f"point {P} is not on the curve")


def apply_isogeny(a, b, P: AffinePoint) -> AffinePoint:
    """The degree-2 isogeny (x, y) -> (y^2/x^2, y(b - x^2)/x^2) from (a, b)
    onto its dual (-2a, a^2-4b).

    The kernel {O, (0,0)} maps to the point at infinity; the rational-map
    formula is undefined there, and (0,0) is the one point with x = 0.
    """
    _require_on_model(a, b, P)
    if P.at_infinity or not (P.x or P.y):
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
