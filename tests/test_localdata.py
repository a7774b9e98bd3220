import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import conductor_degree, local_image, local_image_order
from twodescent.arith import FT_INFINITY, REAL, Place, factor, parse_place
from twodescent.curve import TwoTorsionModel, clear_denominators, integral_model, specialize
from twodescent.descent import descend
from twodescent.family import builtin_families, excluded_primes, family_by_name
from twodescent.localdata import tate_local
from twodescent.polyq import Poly

T = Poly.x()


# reduction data verified by hand (conductors 32, 48, 14, 15, 24, 64)
KNOWN_Q_CURVES = [
    # (a, b, p, kodaira, tamagawa, reduction, cond_exp)
    (0, -1, 2, "III", 2, "additive", 5),
    (1, 1, 2, "II", 1, "additive", 4),
    (1, 1, 3, "I1", 1, "split-multiplicative", 1),
    (13, 128, 2, "I6", 2, "nonsplit-multiplicative", 1),
    (13, 128, 7, "I3", 3, "split-multiplicative", 1),
    (2, 5, 5, "I2", 2, "nonsplit-multiplicative", 1),
    (5, 125, 5, "I2*", 4, "additive", 2),
    (0, 1, 2, "II", 1, "additive", 6),
    (0, 4, 2, "I3*", 4, "additive", 5),
    (0, -4, 2, "I2*", 4, "additive", 6),
    # the I_m* loop at p = 3 meets the double root X = 1 of 2(X - 1)^2 at m = 2
    (-30, -18, 3, "I3*", 4, "additive", 2),
]


@pytest.mark.parametrize("a,b,p,kod,c,red,f", KNOWN_Q_CURVES)
def test_known_q_reductions(a, b, p, kod, c, red, f):
    r = tate_local(a, b, p)
    assert str(r.kodaira) == kod
    assert r.tamagawa == c
    assert r.reduction == red
    assert r.conductor_exponent == f


def test_tate_is_model_independent():
    # a non-minimal model (scaled by u = p) and a non-integral one (u = 1/p),
    # moved to an integral model by clear_denominators, must give identical
    # local data
    rng = random.Random(31)
    for _ in range(25):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if b == 0 or a * a == 4 * b:
            continue
        p = rng.choice([2, 3, 5, 7])
        r = tate_local(a, b, p)
        A, B, _ = clear_denominators(Fraction(a, p * p), Fraction(b, p**4))
        assert tate_local(a * p * p, b * p**4, p) == r
        assert tate_local(A, B, p) == r


def test_isogenous_curves_share_conductor_exponents():
    """E and E' are isogenous over Q, so their conductors agree at every prime;
    the primes 2 and 3 reach the wild branches of Tate's algorithm."""
    pairs = 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            if b == 0 or a * a == 4 * b:
                continue
            primes = {2, 3, *factor(b).primes, *factor(a * a - 4 * b).primes}
            for p in sorted(primes):
                fE = tate_local(a, b, p).conductor_exponent
                fD = tate_local(-2 * a, a * a - 4 * b, p).conductor_exponent
                assert fE == fD, (a, b, p, fE, fD)
                pairs += 1
    assert pairs >= 1800, pairs


def _tate_grid_lines():
    """One line per (a, b, p, E or E'): |a|, |b| <= 12 and p in {2, 3}.

    tests/data/tate-grid-2-3.txt holds its output, written before the
    residue fields of Tate's algorithm were folded into the DVRs."""
    lines = []
    for a in range(-12, 13):
        for b in range(-12, 13):
            if b == 0 or a * a == 4 * b:
                continue
            for p in (2, 3):
                for side, curve in (("E", (a, b)), ("E'", (-2 * a, a * a - 4 * b))):
                    r = tate_local(*curve, p)
                    lines.append(
                        f"{a} {b} {p} {side} {r.kodaira} {r.tamagawa} {r.reduction} "
                        f"{r.min_disc_valuation} {r.conductor_exponent}\n"
                    )
    return lines


def test_tate_matches_golden_grid_at_2_and_3():
    """Kodaira symbols, Tamagawa numbers, reduction types, minimal discriminant
    valuations and conductor exponents at the wild primes equal the stored
    table (2,376 lines).  At p = 2 it reaches IV and IV* with c = 1 and 3,
    I1*..I5* with c = 2 and 4, III* and II*; at p = 3, Im* with c = 2 and 4."""
    golden = Path(__file__).parent / "data" / "tate-grid-2-3.txt"
    assert "".join(_tate_grid_lines()) == golden.read_text()


def test_family_local_fixtures():
    for rec in builtin_families():
        for fx in rec.local_fixtures:
            curve = rec.E if fx.curve == "E" else rec.dual
            r = tate_local(curve.a, curve.b, fx.place)
            if fx.kodaira is not None:
                assert str(r.kodaira) == fx.kodaira, (rec.name, str(fx.place), r)
            if fx.tamagawa is not None:
                assert r.tamagawa == fx.tamagawa, (rec.name, str(fx.place), r)
            if fx.reduction is not None:
                assert r.reduction == fx.reduction, (rec.name, str(fx.place), r)


def test_ft_minimal_disc_valuations():
    # I(n) places have v(disc_min) = n; I*(n) places have n + 6
    for rec in builtin_families():
        for E in (rec.E, rec.dual):
            for pl in list(rec.expected.all_places):
                r = tate_local(E.a, E.b, pl)
                if r.kodaira.letter == "I":
                    assert r.min_disc_valuation == r.kodaira.n
                elif r.kodaira.letter == "I*":
                    assert r.min_disc_valuation == r.kodaira.n + 6


def _sample_ts(rec, rng, count):
    bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
    out = []
    while len(out) < count:
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        if t not in bad:
            out.append(t)
    return out


def test_isogeny_constraint_on_specializations():
    """E multiplicative iff E' multiplicative; symbols pair as (I(2n), I(n))."""
    rng = random.Random(32)
    checked = 0
    for rec in builtin_families():
        for t in _sample_ts(rec, rng, 14):
            A, B, _ = integral_model(*specialize(rec.E, t))
            disc = 16 * B * B * (A * A - 4 * B)
            for p in factor(disc).primes:
                rE = tate_local(A, B, p)
                rD = tate_local(-2 * A, A * A - 4 * B, p)
                assert rE.is_multiplicative == rD.is_multiplicative
                if rE.is_multiplicative:
                    m, md = rE.kodaira.n, rD.kodaira.n
                    assert {m, md} == {min(m, md), 2 * min(m, md)} or m == md
                    checked += 1
    assert checked >= 200


def test_trivial_image_at_split_or_odd_In_places():
    """At odd p where (E, E') is (I(2n), I(n)) with E split or n odd, the
    local image of delta_{E'} is trivial."""
    rng = random.Random(33)
    hits = 0
    for rec in builtin_families():
        for t in _sample_ts(rec, rng, 6):
            A, B, _ = integral_model(*specialize(rec.E, t))
            disc = 16 * B * B * (A * A - 4 * B)
            D = descend(A, B)
            for p in factor(disc).primes:
                if p == 2:
                    continue
                rE = tate_local(A, B, p)
                rD = tate_local(-2 * A, A * A - 4 * B, p)
                if not (rE.is_multiplicative and rD.is_multiplicative):
                    continue
                n = rD.kodaira.n
                if rE.kodaira.n != 2 * n or n < 1:
                    continue
                if rE.reduction == "split-multiplicative" or n % 2 == 1:
                    img = local_image(D, p)
                    assert len(img) == 1 and img[0].is_identity
                    hits += 1
    assert hits >= 25


def test_unit_image_at_good_odd_places():
    """At odd primes of good reduction the local image consists of unit classes."""
    rng = random.Random(34)
    done = 0
    for rec in builtin_families()[:3]:
        for t in _sample_ts(rec, rng, 3):
            A, B, _ = integral_model(*specialize(rec.E, t))
            D = descend(A, B)
            for p in (3, 5, 7, 11, 13):
                if not tate_local(A, B, p).kodaira.is_good:
                    continue
                if not tate_local(-2 * A, A * A - 4 * B, p).kodaira.is_good:
                    continue
                img = local_image(D, p)
                assert all(p not in cls.support for cls in img)
                done += 1
    assert done >= 10


def test_specialization_transfers_kodaira_symbols():
    """v_p(t - e) = 1 away from family noise copies the fiber data at e to p."""
    rng = random.Random(35)
    transfers = 0
    for rec in builtin_families():
        excl = excluded_primes(rec.name)
        finite = [pl for pl in rec.expected.all_places if pl.kind == "ft"]
        for pl in finite:
            for p in (41, 43, 59, 61, 73):
                if p in excl:
                    continue
                t = pl.e + Fraction(p, p + 1)  # v_p(t - e) = 1, p+1 coprime to p
                if any(t == q.e for q in finite):
                    continue
                try:
                    Et = specialize(rec.E, t)
                except Exception:
                    continue
                gen = tate_local(rec.E.a, rec.E.b, pl)
                sp = tate_local(*integral_model(*Et)[:2], p)
                assert str(sp.kodaira) == str(gen.kodaira), (rec.name, str(pl), p)
                transfers += 1
                break
    assert transfers >= 10


def test_local_image_order():
    # rank-0 family at t = 5
    assert local_image_order(2, 5, 5) == Fraction(1, 2)
    assert local_image_order(2, 5, 7) == 1  # good reduction
    with pytest.raises(ValueError):
        local_image_order(2, 5, 2)


def test_tamagawa_ratio_matches_pattern_classes():
    """Specializations with v_p(t-e) = 1: the ratio c_p(E')/c_p(E) is 1/2 at
    M-places, 2 at M'-places and 1 at A-places."""
    expected = {"M": Fraction(1, 2), "M'": Fraction(2), "A": Fraction(1)}
    rng = random.Random(36)
    done = 0
    for rec in builtin_families():
        excl = excluded_primes(rec.name)
        for pl in sorted(rec.expected.all_places, key=str):
            if pl.kind != "ft":
                continue
            p = 53 if 53 not in excl else 89
            t = pl.e + Fraction(p * rng.randint(1, 3), p * rng.randint(1, 3) + 1)
            A, B, _ = integral_model(*specialize(rec.E, t))
            got = local_image_order(A, B, p)
            assert got == expected[rec.expected.class_of(pl)], (rec.name, str(pl), got)
            done += 1
    assert done >= 10


def test_conductor_degree():
    assert conductor_degree(family_by_name("rank4").E) == 8
    assert conductor_degree(family_by_name("rank0").E) == 4
    const_curve = TwoTorsionModel(Poly.const(1), Poly.const(3))
    with pytest.raises(ValueError):
        conductor_degree(const_curve)


def test_conductor_degree_rejects_nonlinear_bad_place():
    from twodescent.polyq import UnsupportedClassError

    E = TwoTorsionModel(Poly.const(0), T * T + 1)
    with pytest.raises(UnsupportedClassError):
        conductor_degree(E)


def test_parse_place_and_symbols():
    assert parse_place("7") == 7
    assert parse_place("T-3/2").e == Fraction(3, 2)
    assert parse_place("T+16").e == Fraction(-16)
    assert parse_place("inf") == FT_INFINITY


def test_split_test_uses_exact_rational_squareness():
    # rank-3 family at infinity: node slope discriminant is the square 49,
    # so reduction is split over the residue field Q
    rec3 = family_by_name("rank3")
    r = tate_local(rec3.E.a, rec3.E.b, FT_INFINITY)
    assert r.reduction == "split-multiplicative"
    # rank-0 family at T: tangent slope 2 is not a rational square: nonsplit
    rec0 = family_by_name("rank0")
    r0 = tate_local(rec0.E.a, rec0.E.b, Place.ft(0))
    assert r0.reduction == "nonsplit-multiplicative"


def test_tate_local_takes_the_ring_of_its_place():
    """The place picks the ring: ints at a prime, Polys at T - e and at
    infinity; a Fraction at a prime (even an integral one) or a Poly there,
    and an int at a place of Q(T), is a TypeError, and the real place has
    no Tate run."""
    rec0 = family_by_name("rank0")
    for a, b, place in (
        (Fraction(0), Fraction(-1), 2),
        (rec0.E.a, rec0.E.b, 2),
        (0, -1, Place.ft(0)),
        (0, -1, FT_INFINITY),
    ):
        with pytest.raises(TypeError):
            tate_local(a, b, place)
    with pytest.raises(ValueError):
        tate_local(rec0.E.a, rec0.E.b, REAL)
