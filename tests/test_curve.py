import math
import random
from fractions import Fraction

import pytest

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
    specialize,
)
from twodescent.descent import point_search
from twodescent.family import builtin_families, family_by_name
from twodescent.polyq import Poly, eval_at

T = Poly.x()


def curve_through(rng):
    """Random small curve with a marked non-torsion-looking point on it."""
    while True:
        x0 = Fraction(rng.randint(-9, 9))
        if x0 == 0:
            continue
        y0 = Fraction(rng.randint(1, 9))
        a = Fraction(rng.randint(-9, 9))
        b = (y0 * y0 - x0**3 - a * x0 * x0) / x0
        if b == 0 or a * a == 4 * b:
            continue
        return TwoTorsionModel.over_q(a, b), AffinePoint.of(x0, y0)


def generic_points_on_fibers(rec, height=3):
    """(E_t, [P(t) for the generic points P on E]) at each nonsingular
    t = m/n with |m|, n <= height."""
    for t in sorted({Fraction(m, n) for m in range(-height, height + 1) for n in range(1, height + 1)}):
        try:
            Et = specialize(rec.E, t)
        except SingularSpecializationError:
            continue
        yield Et, [AffinePoint.of(eval_at(P.x, t), eval_at(P.y, t)) for P in rec.points_e]


def test_dual_model_examples():
    E0 = TwoTorsionModel.over_qt(Poly.const(2), T)
    D = dual_model(E0)
    assert D.a == Poly.const(-4) and D.b == -4 * (T - 1)
    E4 = family_by_name("rank4").E
    D4 = dual_model(E4)
    assert D4.a == 140 * (T * T - 625)
    assert D4.b == 4 * 9 * 49 * (T * T - 625) * (T * T - 1521)
    assert dual_model(TwoTorsionModel.over_q(0, 1)).b == -4


def test_double_dual_is_scaling():
    rng = random.Random(21)
    for _ in range(20):
        E, P = curve_through(rng)
        DD = dual_model(dual_model(E))
        assert DD.a == 4 * E.a and DD.b == 16 * E.b


def test_isogeny_kernel_and_homomorphism():
    rng = random.Random(22)
    for _ in range(50):
        E, P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        assert apply_isogeny(E, zero) == INFINITY
        assert apply_isogeny(E, INFINITY) == INFINITY
        Q = apply_isogeny(E, P)
        assert on_curve(dual_model(E), Q)
        # phi-hat after phi is multiplication by 2
        R = apply_dual_isogeny(E, Q)
        assert R == multiply_point(E, P, 2)


def test_on_curve_integer_check_matches_fraction_formula():
    """Over the |a|, |b| <= 10 grid and the dual models, also rescaled to
    non-integral coefficients (a/4, b/16) with x/4 and y/8, on_curve agrees
    with the Fraction formula on searched points and on points moved off."""
    seen = {True: 0, False: 0}
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0 or a * a == 4 * b:
                continue
            E0 = TwoTorsionModel.over_q(a, b)
            for C, s in ((C, s) for C in (E0, dual_model(E0)) for s in (1, 2)):
                E = TwoTorsionModel.over_q(C.a / s**2, C.b / s**4)
                pts = [(P.x / s**2, P.y / s**3) for P in point_search(C.a.numerator, C.b.numerator, 6)]
                pts += [(x, y + Fraction(1, 3)) for x, y in pts] + [(Fraction(b, 7), Fraction(a, 5))]
                for x, y in pts:
                    want = y * y == x**3 + E.a * x * x + E.b * x
                    assert on_curve(E, AffinePoint.of(x, y)) == want, (E, x, y)
                    seen[want] += 1
    assert seen == {True: 3249, False: 4903}


def test_isogeny_rejects_off_curve():
    E = TwoTorsionModel.over_q(0, -1)
    with pytest.raises(OffCurveError):
        apply_isogeny(E, AffinePoint.of(Fraction(5), Fraction(5)))


def test_isogeny_of_generic_point_lands_on_dual():
    """On the fibers of small height of every family, phi maps each
    generic point onto the dual and phi-hat after phi doubles it."""
    fibers = 0
    for rec in builtin_families():
        for Et, points in generic_points_on_fibers(rec):
            for P in points:
                Q = apply_isogeny(Et, P)
                assert on_curve(dual_model(Et), Q)
                assert apply_dual_isogeny(Et, Q) == multiply_point(Et, P, 2)
            fibers += 1
    assert fibers >= 60, fibers


def test_group_law_and_isogenies_run_over_q_only():
    rec = family_by_name("rank2")
    P = rec.points_e[0]
    assert on_curve(rec.E, P)
    for run in (
        lambda: add_points(rec.E, P, P),
        lambda: multiply_point(rec.E, P, 2),
        lambda: apply_isogeny(rec.E, P),
        lambda: apply_dual_isogeny(rec.E, rec.points_eprime[0]),
    ):
        with pytest.raises(ValueError, match="over Q only"):
            run()


def test_add_points_basics_and_closure():
    rng = random.Random(23)
    zero_count = 0
    for _ in range(200):
        E, P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        assert add_points(E, P, INFINITY) == P
        assert add_points(E, zero, zero) == INFINITY
        assert add_points(E, P, negate(P)) == INFINITY
        for Q in (P, zero, add_points(E, P, P)):
            S = add_points(E, P, Q)
            assert on_curve(E, S)
            zero_count += 1
    assert zero_count == 600


def test_delta_class_homomorphism():
    rng = random.Random(24)
    for _ in range(200):
        E, P = curve_through(rng)
        zero = AffinePoint.of(Fraction(0), Fraction(0))
        for Q in (zero, P, add_points(E, P, P)):
            lhs = delta_class(E, add_points(E, P, Q))
            rhs = delta_class(E, P) * delta_class(E, Q)
            assert lhs == rhs
        assert delta_class(E, INFINITY).is_identity


def test_delta_kernel_contains_dual_image():
    # delta_E(phi-hat(Q')) = 1 for Q' on the dual found by search
    rng = random.Random(25)
    tried = 0
    for _ in range(40):
        A, B, _ = integral_model(curve_through(rng)[0])
        E = TwoTorsionModel.over_q(A, B)
        for Q in point_search(-2 * A, A * A - 4 * B, 20):
            if Q.x == 0:
                continue
            image = apply_dual_isogeny(E, Q)
            if image.at_infinity:
                continue
            assert delta_class(E, image).is_identity
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
        b_cls = delta_class(Et, AffinePoint.of(Fraction(0), Fraction(0)))
        for P in points:
            c = delta_class(Et, add_points(Et, P, P))
            assert c.is_identity or c == b_cls
        fibers += 1
    assert fibers >= 30, fibers


def test_j_invariant():
    assert j_invariant(TwoTorsionModel.over_q(0, 1)) == 1728
    # cross-check against c4^3/Delta computed from the long-form invariants
    rng = random.Random(26)
    for _ in range(40):
        E, _ = curve_through(rng)
        a, b = E.a, E.b
        b2, b4, b6 = 4 * a, 2 * b, Fraction(0)
        b8 = -b * b
        c4 = b2 * b2 - 24 * b4
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        assert j_invariant(E) == c4**3 / disc
    E2 = TwoTorsionModel.over_q(2, Fraction(1, 2))
    a, b = E2.a, E2.b
    assert j_invariant(E2) == (16 * a * a - 48 * b) ** 3 / (16 * b * b * (a * a - 4 * b))
    # distinct specializations of a nonisotrivial family have distinct j
    rec0 = family_by_name("rank0")
    assert j_invariant(specialize(rec0.E, 2)) != j_invariant(specialize(rec0.E, 3))


def test_specialize_examples():
    rec0 = family_by_name("rank0")
    with pytest.raises(SingularSpecializationError):
        specialize(rec0.E, 0)
    Et = specialize(rec0.E, 2)
    assert Et.a == 2 and Et.b == 2
    rec4 = family_by_name("rank4")
    E1 = specialize(rec4.E, 1)
    assert E1.a == 43680 and E1.b == 58705920


def test_specialize_commutes_with_dual():
    rng = random.Random(27)
    for rec in builtin_families():
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        done = 0
        while done < 20:
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if t in bad or eval_at(rec.E.b, t) == 0:
                continue
            lhs = specialize(dual_model(rec.E), t)
            rhs = dual_model(specialize(rec.E, t))
            assert lhs.a == rhs.a and lhs.b == rhs.b
            done += 1


def test_integral_model_scaling():
    E = TwoTorsionModel.over_q(Fraction(259, 100), Fraction(-7, 10))
    A, B, u = integral_model(E)
    assert (A, B) == (259, -7000)
    assert Fraction(A) == E.a * u * u and Fraction(B) == E.b * u**4


def _integral_model_reference(E):
    """integral_model as the per-prime exponents it stands for: u has
    p^max(ceil(va/2), ceil(vb/4)) for the denominator valuations va, vb,
    then each p <= 13 leaves while p^2 | A and p^4 | B."""
    a, b = E.a, E.b
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
        E = TwoTorsionModel.over_q(a, b)
        assert integral_model(E) == _integral_model_reference(E), E


def test_integral_model_of_the_dual_is_the_reduced_dual_side():
    """integral_model(dual_model(E)) is (-2A, A^2-4B) reduced by
    `_reduced_model(., ., 1, ())`, for (A, B) = integral_model(E): the E'
    side that `rank_bounds` searches is the model the dual's own integral
    model gave.  Seeded curves whose denominators are squares and fourth
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
        E = TwoTorsionModel.over_q(a, b)
        A, B, u = integral_model(E)
        Ad, Bd, s = _reduced_model(-2 * A, A * A - 4 * B, 1, ())
        assert integral_model(dual_model(E))[:2] == (Ad, Bd), E
        scaled += u != 1
        reduced += s != 1
    assert scaled > 2000 and reduced > 500, (scaled, reduced)


def test_integer_fibers_match_integral_model_on_family_fibers():
    """On every t of height <= 20 in the five families the integer fiber is
    integral_model(specialize(E, t)), a singular t raises in both, and the
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
                    want = integral_model(specialize(rec.E, t))
                except SingularSpecializationError:
                    with pytest.raises(SingularSpecializationError):
                        rec.fibers.model(m, n)
                    singular += 1
                    continue
                A, B, u = rec.fibers.model(m, n)
                assert (A, B, u) == want, (rec.name, t)
                E = TwoTorsionModel.over_q(A, B)
                for curve, generic, moved in zip((E, dual_model(E)), (rec.points_e, rec.points_eprime), rec.fibers.points(m, n, u)):
                    assert len(moved) == len(generic)
                    for P, Q in zip(generic, moved):
                        assert (Q.x, Q.y) == (u * u * eval_at(P.x, t), u**3 * eval_at(P.y, t))
                        assert on_curve(curve, Q)
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
    E = TwoTorsionModel.over_qt(a, b)
    fibers = IntegerFibers(E)
    for m in range(-40, 41):
        for n in (1, 2, 3, 5, 17, 34, 289, 4913):
            if math.gcd(m, n) != 1:
                continue
            try:
                want = integral_model(specialize(E, Fraction(m, n)))
            except SingularSpecializationError:
                with pytest.raises(SingularSpecializationError):
                    fibers.model(m, n)
                continue
            assert fibers.model(m, n) == want, (m, n)
