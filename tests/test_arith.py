import random
from fractions import Fraction

import pytest

from twodescent.arith import (
    REAL,
    Place,
    PrimeFactorization,
    SquareClassQ,
    factor,
    hilbert_symbol,
    is_prime,
    is_square_local,
    local_coords,
    local_dim,
    local_pairing,
    local_reps,
    smallest_nonresidue,
    square_class,
    valuation,
)

# Serre, A Course in Arithmetic, III.1.2: rows and columns in the order of
# the heading, "+" for +1 and "-" for -1
SERRE_TABLES = {
    REAL: ((1, -1), ("++", "+-")),
    Place.prime(2): (
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
    Place.prime(3): ((1, 2, 3, 6), ("++++", "++--", "+--+", "+-+-")),
    Place.prime(5): ((1, 2, 5, 10), ("++++", "++--", "+-+-", "+--+")),
}
HILBERT_PLACES = [REAL] + [Place.prime(p) for p in (2, 3, 5, 7, 11, 13, 23, 10007)]


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


def test_is_square_local_examples():
    assert is_square_local(17, Place.prime(2)) is True
    assert is_square_local(2, Place.prime(7)) is True
    assert is_square_local(-4, REAL) is False
    with pytest.raises(ValueError):
        is_square_local(0, Place.prime(3))
    with pytest.raises(ValueError):
        is_square_local(3, Place.prime(15))


def test_is_square_local_properties():
    rng = random.Random(3)
    primes = [p for p in range(2, 101) if is_prime(p)]
    for _ in range(50):
        q = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        for p in primes:
            assert is_square_local(q * q, Place.prime(p))
        assert is_square_local(q * q, REAL)
        for p in primes:
            if p != 2:
                assert not is_square_local(p * q * q, Place.prime(p))


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
                assert hilbert_symbol(x, y, place) == (1 if sign == "+" else -1), (x, y, str(place))
    # rationals enter through their square classes
    two, three = Place.prime(2), Place.prime(3)
    assert hilbert_symbol(Fraction(1, 2), 5, two) == -1
    assert hilbert_symbol(Fraction(3, 4), Fraction(9, 2), three) == hilbert_symbol(3, 2, three) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, three)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, Place.prime(6))


def test_hilbert_symbol_symmetric_and_bilinear():
    for pl in HILBERT_PLACES:
        reps = list(local_reps(pl).values())
        for x in reps:
            for y in reps:
                s = hilbert_symbol(x, y, pl)
                assert s == hilbert_symbol(y, x, pl), (x, y, str(pl))
                for z in reps:
                    assert hilbert_symbol(x * z, y, pl) == s * hilbert_symbol(z, y, pl), (x, y, z, str(pl))


def test_hilbert_symbol_steinberg_relations():
    """(x, -x) = 1 for every x, and (x, 1 - x) = 1 for x != 0, 1."""
    rng = random.Random(6)
    for _ in range(300):
        x = Fraction(rng.randint(1, 2000), rng.randint(1, 200)) * rng.choice([1, -1])
        for pl in HILBERT_PLACES:
            assert hilbert_symbol(x, -x, pl) == 1, (x, str(pl))
            if x != 1:
                assert hilbert_symbol(x, 1 - x, pl) == 1, (x, str(pl))


def test_hilbert_symbol_product_formula():
    """prod_v (x, y)_v = 1 over the real place and the primes of 2xy."""
    rng = random.Random(7)
    pairs = 0
    while pairs < 3000:
        x, y = (rng.randint(1, 10**5) * rng.choice([1, -1]) for _ in range(2))
        if square_class(x).value() != x or square_class(y).value() != y:
            continue
        prod = hilbert_symbol(x, y, REAL)
        for p in set(factor(2 * x * y).primes):
            prod *= hilbert_symbol(x, y, Place.prime(p))
        assert prod == 1, (x, y)
        pairs += 1


def _random_rational(rng, p):
    """A signed rational times a random power of p, so that every class at p occurs."""
    q = Fraction(rng.randint(1, 2000), rng.randint(1, 200)) * rng.choice([1, -1])
    return q * Fraction(p) ** rng.randint(-3, 3)


def test_local_coords_bit_layout():
    """The documented bits: the sign at the real place; (u|p) = -1 and an odd
    valuation at odd p; u = 3 (mod 4), u = +-3 (mod 8) and an odd valuation
    at 2.  Swapping the last two bits at 2 leaves the pairing unchanged, so
    only this test pins them."""
    assert [local_coords(x, REAL) for x in (5, Fraction(-1, 3))] == [0, 1]
    three, two = Place.prime(3), Place.prime(2)
    assert [local_coords(x, three) for x in (7, 2, 3, Fraction(-1, 3))] == [0, 0b01, 0b10, 0b11]
    assert [local_coords(x, two) for x in (17, -1, 5, 2, Fraction(-5, 2))] == [0, 0b001, 0b010, 0b100, 0b111]
    with pytest.raises(ValueError):
        local_coords(0, Place.prime(5))


def test_local_reps_by_construction():
    """The representatives built from their definition (1, u, p, u p at odd
    p with u the least non-residue; constants at 2 and the real place) are
    squarefree and keyed by their own local coordinates, for every prime
    below 2000 and the real place."""
    places = [REAL, Place.prime(2)] + [Place.prime(p) for p in range(3, 2000, 2) if is_prime(p)]
    for pl in places:
        reps = local_reps(pl)
        assert reps == {local_coords(c, pl): c for c in reps.values()}, str(pl)
        assert sorted(reps) == list(range(1 << local_dim(pl))), str(pl)
        assert all(square_class(c).value() == c for c in reps.values()), str(pl)
        if pl.kind == "prime" and pl.p != 2:
            u = smallest_nonresidue(pl.p)
            assert list(reps.values()) == [1, u, pl.p, u * pl.p], str(pl)


def test_local_coords_homomorphism_square_invariant_zero_on_squares():
    """local_coords is a homomorphism Q^x -> F_2^dim that is constant on
    square classes, reaches every vector once on the representatives, and
    is zero exactly on the local squares: x > 0 at the real place, else an
    even valuation and a unit part among the squares mod p (mod 8 at 2),
    found by enumerating the residues."""
    rng = random.Random(8)
    for pl in HILBERT_PLACES:
        assert sorted(local_reps(pl)) == list(range(1 << local_dim(pl)))
        p = 3 if pl.kind == "real" else pl.p  # any base for the powers at the real place
        m = 8 if p == 2 else p
        residue_squares = {s * s % m for s in range(m)}
        for _ in range(300):
            x, y = _random_rational(rng, p), _random_rational(rng, p)
            r = Fraction(rng.randint(1, 300), rng.randint(1, 300)) * Fraction(p) ** rng.randint(-2, 2)
            cx = local_coords(x, pl)
            assert local_coords(x * y, pl) == cx ^ local_coords(y, pl), (x, y, str(pl))
            assert local_coords(x * r * r, pl) == cx, (x, r, str(pl))
            if pl.kind == "real":
                is_square = x > 0
            else:
                n = x.numerator * x.denominator
                v = valuation(n, p)
                is_square = v % 2 == 0 and n // p**v % m in residue_squares
            assert (cx == 0) == is_square, (x, str(pl))


def test_local_pairing_non_degenerate():
    """Every nonzero local class pairs to -1 with some class, at every place."""
    for pl in HILBERT_PLACES:
        vecs = range(1 << local_dim(pl))
        for x in vecs:
            assert any(local_pairing(x, y, pl) for y in vecs) == (x != 0), (x, str(pl))
