import math
import random
from fractions import Fraction

import pytest

from oracles import class_product, delta_class_q, dual_pair
from twodescent.arith import factor, int_valuation
from twodescent.curve import (
    INFINITY,
    AffinePoint,
    IntegerFibers,
    OffCurveError,
    SingularSpecializationError,
    TwoTorsionModel,
    _reduced_model,
    add_points,
    apply_dual_isogeny,
    apply_isogeny,
    delta_class,
    dual_model,
    integral_model,
    j_invariant,
    multiply_point,
    negate,
    on_curve,
    on_model,
    specialize,
)
from twodescent.descent import point_search
from twodescent.family import builtin_families, family_by_name
from twodescent.polyq import Poly, eval_at

T = Poly.x()


def curve_through(rng):
    """Random small curve (a, b) with a marked non-torsion-looking point on it."""
    while True:
        x0 = Fraction(rng.randint(-9, 9))
        if x0 == 0:
            continue
        y0 = Fraction(rng.randint(1, 9))
        a = Fraction(rng.randint(-9, 9))
        b = (y0 * y0 - x0**3 - a * x0 * x0) / x0
        if b == 0 or a * a == 4 * b:
            continue
        return (a, b), AffinePoint.of(x0, y0)


def generic_points_on_fibers(rec, height=3):
    """((a(t), b(t)), [P(t) for the generic points P on E]) at each
    nonsingular t = m/n with |m|, n <= height."""
    for t in sorted({Fraction(m, n) for m in range(-height, height + 1) for n in range(1, height + 1)}):
        try:
            Et = specialize(rec.E, t)
        except SingularSpecializationError:
            continue
        yield Et, [AffinePoint.of(eval_at(P.x, t), eval_at(P.y, t)) for P in rec.points_e]


def test_dual_model_examples():
    E0 = TwoTorsionModel(Poly.const(2), T)
    D = dual_model(E0)
    assert D.a == Poly.const(-4) and D.b == -4 * (T - 1)
    E4 = family_by_name("rank4").E
    D4 = dual_model(E4)
    assert D4.a == 140 * (T * T - 625)
    assert D4.b == 4 * 9 * 49 * (T * T - 625) * (T * T - 1521)
    assert dual_model(TwoTorsionModel(Poly(), Poly.const(1))).b == -4


def test_double_dual_is_scaling():
    rng = random.Random(21)
    models = [rec.E for rec in builtin_families()]
    while len(models) < 25:
        a = Poly([rng.randint(-9, 9) for _ in range(3)])
        b = Poly([rng.randint(-9, 9) for _ in range(5)])
        if b and a * a != 4 * b:
            models.append(TwoTorsionModel(a, b))
    for E in models:
        DD = dual_model(dual_model(E))
        assert DD.a == 4 * E.a and DD.b == 16 * E.b


def test_isogeny_kernel_and_homomorphism():
    rng = random.Random(22)
    for _ in range(50):
        (a, b), P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        assert apply_isogeny(a, b, zero) == INFINITY
        assert apply_isogeny(a, b, INFINITY) == INFINITY
        Q = apply_isogeny(a, b, P)
        assert on_model(*dual_pair(a, b), Q.x, Q.y)
        # phi-hat after phi is multiplication by 2
        R = apply_dual_isogeny(a, b, Q)
        assert R == multiply_point(a, b, P, 2)


def test_on_curve_integer_check_matches_fraction_formula():
    """Over the |a|, |b| <= 10 grid and the dual models, also rescaled to
    non-integral coefficients (a/4, b/16) with x/4 and y/8, on_model agrees
    with the Fraction formula on searched points and on points moved off."""
    seen = {True: 0, False: 0}
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0 or a * a == 4 * b:
                continue
            for (ca, cb), s in ((C, s) for C in ((a, b), dual_pair(a, b)) for s in (1, 2)):
                Ea, Eb = Fraction(ca, s**2), Fraction(cb, s**4)
                pts = [(P.x / s**2, P.y / s**3) for P in point_search(ca, cb, 6)]
                pts += [(x, y + Fraction(1, 3)) for x, y in pts] + [(Fraction(b, 7), Fraction(a, 5))]
                for x, y in pts:
                    want = y * y == x**3 + Ea * x * x + Eb * x
                    assert on_model(Ea, Eb, x, y) == want, (Ea, Eb, x, y)
                    seen[want] += 1
    assert seen == {True: 3249, False: 4903}


def test_isogeny_rejects_off_curve():
    with pytest.raises(OffCurveError):
        apply_isogeny(0, -1, AffinePoint.of(Fraction(5), Fraction(5)))


def test_isogeny_of_generic_point_lands_on_dual():
    """On the fibers of small height of every family, phi maps each
    generic point onto the dual and phi-hat after phi doubles it."""
    fibers = 0
    for rec in builtin_families():
        for Et, points in generic_points_on_fibers(rec):
            for P in points:
                Q = apply_isogeny(*Et, P)
                assert on_model(*dual_pair(*Et), Q.x, Q.y)
                assert apply_dual_isogeny(*Et, Q) == multiply_point(*Et, P, 2)
            fibers += 1
    assert fibers >= 60, fibers


def test_group_law_and_isogenies_commute_with_scaling():
    """x -> u^2 x, y -> u^3 y maps a fiber's rational pair (a, b) onto its
    integral_model pair (A, B) = (u^2 a, u^4 b), and the dual pair onto the
    dual of (A, B); add_points, multiply_point, apply_isogeny and
    apply_dual_isogeny commute with it, on (0, 0) and the generic points of
    rank2 at every nonsingular t of height <= 5, where they lie on the
    Q(T) models too."""
    rec = family_by_name("rank2")
    assert all(on_curve(rec.E, P) for P in rec.points_e)
    assert all(on_curve(rec.dual, Q) for Q in rec.points_eprime)
    zero = AffinePoint.of(Fraction(0), Fraction(0))
    fibers = scaled = 0
    for t in sorted({Fraction(m, n) for m in range(-5, 6) for n in range(1, 6)}):
        try:
            a, b = specialize(rec.E, t)
        except SingularSpecializationError:
            continue
        A, B, u = integral_model(a, b)

        def move(P):
            return P if P.at_infinity else AffinePoint.of(u * u * P.x, u**3 * P.y)

        points, duals = ([AffinePoint.of(eval_at(P.x, t), eval_at(P.y, t)) for P in pts] for pts in (rec.points_e, rec.points_eprime))
        for P in [zero] + points:
            for Q in [INFINITY, zero] + points:
                assert move(add_points(a, b, P, Q)) == add_points(A, B, move(P), move(Q))
            for n in (-2, 3):
                assert move(multiply_point(a, b, P, n)) == multiply_point(A, B, move(P), n)
            R = apply_isogeny(a, b, P)
            assert move(R) == apply_isogeny(A, B, move(P))
            duals.append(R)
        for R in duals:
            assert move(apply_dual_isogeny(a, b, R)) == apply_dual_isogeny(A, B, move(R))
        fibers += 1
        scaled += u != 1
    assert fibers >= 30 and scaled >= 10, (fibers, scaled)


def test_add_points_basics_and_closure():
    rng = random.Random(23)
    zero_count = 0
    for _ in range(200):
        (a, b), P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        assert add_points(a, b, P, INFINITY) == P
        assert add_points(a, b, zero, zero) == INFINITY
        assert add_points(a, b, P, negate(P)) == INFINITY
        for Q in (P, zero, add_points(a, b, P, P)):
            S = add_points(a, b, P, Q)
            assert S.at_infinity or on_model(a, b, S.x, S.y)
            zero_count += 1
    assert zero_count == 600


def test_delta_class_homomorphism():
    rng = random.Random(24)
    for _ in range(200):
        (a, b), P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        for Q in (zero, P, add_points(a, b, P, P)):
            lhs = delta_class_q(a, b, add_points(a, b, P, Q))
            rhs = class_product(delta_class_q(a, b, P), delta_class_q(a, b, Q))
            assert lhs == rhs
        assert delta_class_q(a, b, INFINITY).is_identity


def test_delta_kernel_contains_dual_image():
    # delta_E(phi-hat(Q')) = 1 for Q' on the dual found by search
    rng = random.Random(25)
    tried = 0
    for _ in range(40):
        A, B, _ = integral_model(*curve_through(rng)[0])
        for Q in point_search(-2 * A, A * A - 4 * B, 20):
            if Q.x == 0:
                continue
            image = apply_dual_isogeny(A, B, Q)
            if image.at_infinity:
                continue
            assert delta_class_q(A, B, image).is_identity
            tried += 1
    assert tried >= 10


def test_delta_class_examples():
    rec0 = family_by_name("rank0")
    zero_qt = AffinePoint.of(Poly(), Poly())
    assert str(delta_class(rec0.E, zero_qt)) == "(T - 0)"
    rec4 = family_by_name("rank4")
    c = delta_class(rec4.E, rec4.points_e[0])
    assert c.constant.value() == 14 and c.roots == (Fraction(-11), Fraction(11))


def test_rank2_doubling_class_trivial_or_b():
    """2P = phi-hat(phi(P)), so its class is trivial, or [b] where 2P
    is (0, 0), on the fibers of height <= 5 of rank2."""
    fibers = 0
    for Et, points in generic_points_on_fibers(family_by_name("rank2"), height=5):
        b_cls = delta_class_q(*Et, AffinePoint.of(Fraction(0), Fraction(0)))
        for P in points:
            c = delta_class_q(*Et, add_points(*Et, P, P))
            assert c.is_identity or c == b_cls
        fibers += 1
    assert fibers >= 30, fibers


def test_j_invariant():
    assert j_invariant(0, 1) == 1728
    # cross-check against c4^3/Delta computed from the long-form invariants
    rng = random.Random(26)
    for _ in range(40):
        (a, b), _ = curve_through(rng)
        b2, b4, b6 = 4 * a, 2 * b, Fraction(0)
        b8 = -b * b
        c4 = b2 * b2 - 24 * b4
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        assert j_invariant(a, b) == c4**3 / disc
        # j is a Fraction on an integral model's ints too, and invariant under scaling
        A, B, _ = integral_model(a, b)
        assert j_invariant(A, B) == j_invariant(a, b) and type(j_invariant(A, B)) is Fraction
    a, b = 2, Fraction(1, 2)
    assert j_invariant(a, b) == (16 * a * a - 48 * b) ** 3 / (16 * b * b * (a * a - 4 * b))
    # distinct specializations of a nonisotrivial family have distinct j
    rec0 = family_by_name("rank0")
    assert j_invariant(*specialize(rec0.E, 2)) != j_invariant(*specialize(rec0.E, 3))


def test_specialize_examples():
    rec0 = family_by_name("rank0")
    with pytest.raises(SingularSpecializationError):
        specialize(rec0.E, 0)
    assert specialize(rec0.E, 2) == (2, 2)
    rec4 = family_by_name("rank4")
    assert specialize(rec4.E, 1) == (43680, 58705920)


def test_specialize_commutes_with_dual():
    rng = random.Random(27)
    for rec in builtin_families():
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        done = 0
        while done < 20:
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if t in bad or eval_at(rec.E.b, t) == 0:
                continue
            assert specialize(dual_model(rec.E), t) == dual_pair(*specialize(rec.E, t))
            done += 1


def test_integral_model_scaling():
    a, b = Fraction(259, 100), Fraction(-7, 10)
    A, B, u = integral_model(a, b)
    assert (A, B) == (259, -7000)
    assert Fraction(A) == a * u * u and Fraction(B) == b * u**4


def _integral_model_reference(a, b):
    """integral_model as the per-prime exponents it stands for: u has
    p^max(ceil(va/2), ceil(vb/4)) for the denominator valuations va, vb,
    then each p <= 13 leaves while p^2 | A and p^4 | B."""
    u = Fraction(1)
    for p in factor(a.denominator * b.denominator).primes:
        va, vb = int_valuation(a.denominator, p), int_valuation(b.denominator, p)
        u *= p ** max(-(-va // 2), -(-vb // 4))
    A, B = a * u * u, b * u**4
    for p in (2, 3, 5, 7, 11, 13):
        while (A / p**2).denominator == 1 and (B / p**4).denominator == 1:
            A, B, u = A / p**2, B / p**4, u / p
    return int(A), int(B), u


def test_integral_model_matches_per_prime_exponents():
    rng = random.Random(23)
    primes = (2, 3, 5, 7, 13, 17, 19, 101)
    for _ in range(400):
        den_a = math.prod(rng.choice(primes) ** rng.randint(0, 5) for _ in range(2))
        den_b = math.prod(rng.choice(primes) ** rng.randint(0, 9) for _ in range(2))
        a = Fraction(rng.randint(-10**6, 10**6) * rng.choice(primes) ** rng.randint(0, 6), den_a)
        b = Fraction(rng.randint(1, 10**6) * rng.choice((1, -1)) * rng.choice(primes) ** rng.randint(0, 12), den_b)
        if a * a == 4 * b:
            continue
        assert integral_model(a, b) == _integral_model_reference(a, b), (a, b)


def test_integral_model_of_the_dual_is_the_reduced_dual_side():
    """integral_model of the dual pair (-2a, a^2-4b) is (-2A, A^2-4B)
    reduced by `_reduced_model(., ., 1, ())`, for (A, B) = integral_model(a, b):
    the E' side that `rank_bounds` searches is the model the dual's own
    integral model gave.  Seeded curves whose denominators are squares and fourth
    powers of products of primes below and above 13, often times 2 or 3,
    and whose numerators sometimes carry p^2 and p^4 too."""
    rng = random.Random(28)
    primes = (2, 3, 5, 13, 17, 19)
    scaled = reduced = 0
    for _ in range(3000):
        k = math.prod(rng.choice(primes) for _ in range(rng.randint(0, 2)))
        m = rng.choice((1, 1, 2, 3, 17))
        a = Fraction(rng.randint(-300, 300) * m * m, k * k * rng.choice((1, 1, 2, 3)))
        b = Fraction(rng.choice((1, -1)) * rng.randint(1, 300) * m**4, k**4 * rng.choice((1, 1, 2, 4, 17)))
        if a * a == 4 * b:
            continue
        A, B, u = integral_model(a, b)
        Ad, Bd, s = _reduced_model(-2 * A, A * A - 4 * B, 1, ())
        assert integral_model(*dual_pair(a, b))[:2] == (Ad, Bd), (a, b)
        scaled += u != 1
        reduced += s != 1
    assert scaled > 2000 and reduced > 500, (scaled, reduced)


def test_integer_fibers_match_integral_model_on_family_fibers():
    """On every t of height <= 20 in the five families the integer fiber is
    integral_model(*specialize(E, t)), a singular t raises in both, and the
    points are the generic points at t moved by x -> u^2 x, y -> u^3 y,
    on the integral model and on its dual."""
    checked = singular = 0
    for rec in builtin_families():
        for m in range(-20, 21):
            for n in range(1, 21):
                if math.gcd(m, n) != 1:
                    continue
                t = Fraction(m, n)
                try:
                    want = integral_model(*specialize(rec.E, t))
                except SingularSpecializationError:
                    with pytest.raises(SingularSpecializationError):
                        rec.fibers.model(m, n)
                    singular += 1
                    continue
                A, B, u = rec.fibers.model(m, n)
                assert (A, B, u) == want, (rec.name, t)
                sides = ((A, B), dual_pair(A, B))
                for side, generic, moved in zip(sides, (rec.points_e, rec.points_eprime), rec.fibers.points(m, n, u)):
                    assert len(moved) == len(generic)
                    for P, Q in zip(generic, moved):
                        assert (Q.x, Q.y) == (u * u * eval_at(P.x, t), u**3 * eval_at(P.y, t))
                        assert on_model(*side, Q.x, Q.y)
                checked += 1
    assert checked > 2000 and singular >= 12


@pytest.mark.parametrize(
    "a, b",
    [
        # at t = m/17 both a(t) and b(t) are integral at 17 with room to spare,
        # so 17 leaves u = 17 n^k only down to 17^0
        (17**4 * T * T, 17**8 * T**4 + Poly.const(17**4)),
        # fractional coefficients, cleared by c = lcm(6, 20)
        (T * Fraction(1, 3) + Poly.const(Fraction(1, 2)), T * T * Fraction(1, 5) - Poly.const(Fraction(7, 4))),
        # a = 0 and b of degree 1, so k = 1 comes from b alone
        (Poly(), T * 1250 + Poly.const(3)),
    ],
)
def test_integer_fibers_match_integral_model_on_hand_built_curves(a, b):
    E = TwoTorsionModel(a, b)
    fibers = IntegerFibers(E)
    for m in range(-40, 41):
        for n in (1, 2, 3, 5, 17, 34, 289, 4913):
            if math.gcd(m, n) != 1:
                continue
            try:
                want = integral_model(*specialize(E, Fraction(m, n)))
            except SingularSpecializationError:
                with pytest.raises(SingularSpecializationError):
                    fibers.model(m, n)
                continue
            assert fibers.model(m, n) == want, (m, n)
