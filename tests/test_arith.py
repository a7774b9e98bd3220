import random
from fractions import Fraction

import pytest

from twodescent.arith import (
    PrimeFactorization,
    SquareClassQ,
    factor,
    factor_rational,
    hilbert_symbol,
    is_prime,
    is_square_local,
    square_class,
    valuation,
)
from twodescent.descent import _place_representatives
from twodescent.localdata import REAL, Place

# Serre, A Course in Arithmetic, III.1.2: rows and columns in the order of
# the heading, "+" for +1 and "-" for -1
SERRE_TABLES = {
    "real": ((1, -1), ("++", "+-")),
    2: (
        (1, 5, -1, -5, 2, 10, -2, -10),
        (
            "++++++++",
            "++++----",
            "++--++--",
            "++----++",
            "+-+-+-+-",
            "+-+--+-+",
            "+--++--+",
            "+--+-++-",
        ),
    ),
    3: ((1, 2, 3, 6), ("++++", "++--", "+--+", "+-+-")),
    5: ((1, 2, 5, 10), ("++++", "++--", "+-+-", "+--+")),
}
HILBERT_PLACES = [REAL] + [Place.prime(p) for p in (2, 3, 5, 7, 11, 13, 23, 10007)]


def _key(place):
    return "real" if place.kind == "real" else place.p


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(3, 4), 2) == -2
    # Delta(5) for the rank-0 model: -2^6 * 25 * 4
    assert valuation(-(2**6) * 25 * 4, 5) == 2


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(0, 3)
    with pytest.raises(ValueError):
        valuation(10, 6)


def test_valuation_additive():
    rng = random.Random(1)
    for _ in range(200):
        q1 = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        q2 = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        for p in (2, 3, 5, 7):
            assert valuation(q1 * q2, p) == valuation(q1, p) + valuation(q2, p)


def test_factor_examples():
    f = factor(-6400)
    assert f.sign == -1 and f.factors == ((2, 8), (5, 2))
    assert factor(1) == PrimeFactorization(1, ())
    # numerator of Delta'(2) = 2^12 * 2 * 1 for the rank-0 model
    assert factor(2**13).factors == ((2, 13),)
    with pytest.raises(ValueError):
        factor(0)


def test_factor_roundtrip():
    rng = random.Random(2)
    values = [rng.randint(2, 10**9) for _ in range(60)] + [2**30, 3**12 * 5**4, 999999937]
    for n in values:
        f = factor(n)
        assert f.value() == n
        assert all(is_prime(p) for p in f.primes)
        assert list(f.primes) == sorted(f.primes)
    q = Fraction(-84, 550)
    assert factor_rational(q).value() == q


def test_is_square_local_examples():
    assert is_square_local(17, 2) is True
    assert is_square_local(2, 7) is True
    assert is_square_local(-4, "real") is False


def test_is_square_local_properties():
    rng = random.Random(3)
    primes = [p for p in range(2, 101) if is_prime(p)]
    for _ in range(50):
        q = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        for p in primes:
            assert is_square_local(q * q, p)
        assert is_square_local(q * q, "real")
        for p in primes:
            if p != 2:
                assert not is_square_local(p * q * q, p)


def test_square_class_examples():
    assert square_class(18) == SquareClassQ(1, (2,))
    assert square_class(Fraction(-75, 4)) == SquareClassQ(-1, (3,))
    assert square_class(1).is_identity


def test_square_class_homomorphism():
    rng = random.Random(4)
    for _ in range(1000):
        q1 = Fraction(rng.randint(1, 4000), rng.randint(1, 400)) * rng.choice([1, -1])
        q2 = Fraction(rng.randint(1, 4000), rng.randint(1, 400)) * rng.choice([1, -1])
        assert square_class(q1 * q2) == square_class(q1) * square_class(q2)


def test_square_class_invariance_under_squares():
    rng = random.Random(5)
    for _ in range(200):
        q = Fraction(rng.randint(1, 999), rng.randint(1, 99)) * rng.choice([1, -1])
        r = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        assert square_class(q * r * r) == square_class(q)
    with pytest.raises(ValueError):
        square_class(0)


def test_hilbert_symbol_serre_tables():
    for place, (reps, rows) in SERRE_TABLES.items():
        for x, row in zip(reps, rows):
            for y, sign in zip(reps, row):
                assert hilbert_symbol(x, y, place) == (1 if sign == "+" else -1), (x, y, place)
    # rationals enter through their square classes
    assert hilbert_symbol(Fraction(1, 2), 5, 2) == -1
    assert hilbert_symbol(Fraction(3, 4), Fraction(9, 2), 3) == hilbert_symbol(3, 2, 3) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 3)


def test_hilbert_symbol_symmetric_and_bilinear():
    for pl in HILBERT_PLACES:
        reps = [r.value() for r in _place_representatives(pl)]
        for x in reps:
            for y in reps:
                s = hilbert_symbol(x, y, _key(pl))
                assert s == hilbert_symbol(y, x, _key(pl)), (x, y, str(pl))
                for z in reps:
                    assert hilbert_symbol(x * z, y, _key(pl)) == s * hilbert_symbol(z, y, _key(pl)), (x, y, z, str(pl))


def test_hilbert_symbol_steinberg_relations():
    """(x, -x) = 1 for every x, and (x, 1 - x) = 1 for x != 0, 1."""
    rng = random.Random(6)
    for _ in range(300):
        x = Fraction(rng.randint(1, 2000), rng.randint(1, 200)) * rng.choice([1, -1])
        for pl in HILBERT_PLACES:
            assert hilbert_symbol(x, -x, _key(pl)) == 1, (x, str(pl))
            if x != 1:
                assert hilbert_symbol(x, 1 - x, _key(pl)) == 1, (x, str(pl))


def test_hilbert_symbol_product_formula():
    """prod_v (x, y)_v = 1 over the real place and the primes of 2xy."""
    rng = random.Random(7)
    pairs = 0
    while pairs < 3000:
        x, y = (rng.randint(1, 10**5) * rng.choice([1, -1]) for _ in range(2))
        if square_class(x).value() != x or square_class(y).value() != y:
            continue
        prod = hilbert_symbol(x, y, "real")
        for p in set(factor(2 * x * y).primes):
            prod *= hilbert_symbol(x, y, p)
        assert prod == 1, (x, y)
        pairs += 1
