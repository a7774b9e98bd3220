import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    class_product,
    hilbert_symbol,
    is_reduced_echelon,
    is_square_local,
    oracle_f2_span,
    oracle_factor,
    oracle_is_prime,
    oracle_proven_prime,
    valuation,
)
from twodescent.arith import (
    FT_INFINITY,
    REAL,
    Place,
    PrimeFactorization,
    SquareClassQ,
    f2_echelon,
    f2_span,
    factor,
    is_prime,
    local_coords,
    local_dim,
    local_pairing,
    local_reps,
    parse_place,
    smallest_nonresidue,
    square_class,
)
from twodescent.descent import torsor_solvable_at
from twodescent.localdata import tate_local

# Serre, A Course in Arithmetic, III.1.2: rows and columns in the order of
# the heading, "+" for +1 and "-" for -1
SERRE_TABLES = {
    REAL: ((1, -1), ("++", "+-")),
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
HILBERT_PLACES = [REAL, 2, 3, 5, 7, 11, 13, 23, 10007]


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


# OEIS A014233: psi_k, the least strong pseudoprime to each of the first k
# prime bases, for k = 1, ..., 13 (psi_8 = psi_7 and psi_10 = psi_11 = psi_9)
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# the least strong pseudoprimes to the prime bases 2..7, 2..11, 2..13,
# 2..17, 2..23 and 2..37 (psi_4, ..., psi_7, psi_9, psi_12): Miller-Rabin on
# those bases alone calls them prime
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321, PSI[8], PSI[11])


def test_factor_and_is_prime_match_trial_division():
    """factor and is_prime agree with trial division around the trial limit
    4096 (4099^2 is the least composite with no factor below it), on random
    n <= 10^10, and on strong pseudoprimes, which come out composite with
    their exact factorization."""
    edges = [4093, 4099, 4093**2, 4093 * 4099, 4099**2, 4096**2 - 1, 4096**2 + 1, 2**40 * 4093]
    rng = random.Random(30)
    for n in edges + [rng.randint(2, 10**10) for _ in range(150)]:
        assert factor(n).factors == oracle_factor(n), n
        assert factor(-n).sign == -1
        assert is_prime(n) == oracle_is_prime(n), n
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n)
        f = factor(n)
        assert f.value() == n and len(f.factors) > 1 and list(f.primes) == sorted(f.primes)
        assert all(e == 1 and oracle_is_prime(p) for p, e in f.factors), f


def test_is_prime_matches_proofs_around_the_base_bounds():
    """At every psi_k, and at every n from the prime below it to the prime
    above it, is_prime agrees with a primality proof: trial division below
    10^10, a Fermat or square-root-of-1 witness for a composite, a Lucas
    certificate for a prime.  Below psi_13 the bases run are proven; at
    psi_13 itself the 13 bases 2..41 all pass, and base 43 must reject it."""
    for psi in sorted(set(PSI)):
        assert not oracle_proven_prime(psi)
        for step in (-1, 1):
            n = psi
            while True:
                assert is_prime(n) == oracle_proven_prime(n), n
                if n != psi and is_prime(n):
                    break
                n += step


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda w: st.lists(st.integers(0, (1 << w) - 1), max_size=10)),
    st.randoms(use_true_random=False),
)
def test_f2_echelon_matches_brute_force(vectors, rnd):
    """f2_echelon spans what the subsets of its input XOR to, with one
    vector per dimension, is the reduced echelon basis (decreasing,
    pairwise-reduced leading bits), and depends on the span alone: a
    shuffle with duplicates and zeros gives the same tuple."""
    basis = f2_echelon(vectors)
    span = oracle_f2_span(vectors)
    assert f2_span(basis) == span and 1 << len(basis) == len(span)
    assert is_reduced_echelon(basis), basis
    padded = vectors + [rnd.choice(vectors) for _ in range(rnd.randint(0, 5)) if vectors] + [0] * rnd.randint(0, 3)
    rnd.shuffle(padded)
    assert f2_echelon(padded) == basis


def test_is_square_local_examples():
    assert is_square_local(17, 2) is True
    assert is_square_local(2, 7) is True
    assert is_square_local(-4, REAL) is False
    with pytest.raises(ValueError):
        is_square_local(0, 3)
    with pytest.raises(ValueError):
        is_square_local(3, parse_place("15"))


def test_is_square_local_properties():
    rng = random.Random(3)
    primes = [p for p in range(2, 101) if is_prime(p)]
    for _ in range(50):
        q = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        for p in primes:
            assert is_square_local(q * q, p)
        assert is_square_local(q * q, REAL)
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
        assert square_class(q1 * q2) == class_product(square_class(q1), square_class(q2))


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
    two, three = 2, 3
    assert hilbert_symbol(Fraction(1, 2), 5, two) == -1
    assert hilbert_symbol(Fraction(3, 4), Fraction(9, 2), three) == hilbert_symbol(3, 2, three) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, three)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, parse_place("6"))


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
            prod *= hilbert_symbol(x, y, p)
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
    three, two = 3, 2
    assert [local_coords(x, three) for x in (7, 2, 3, Fraction(-1, 3))] == [0, 0b01, 0b10, 0b11]
    assert [local_coords(x, two) for x in (17, -1, 5, 2, Fraction(-5, 2))] == [0, 0b001, 0b010, 0b100, 0b111]
    with pytest.raises(ValueError):
        local_coords(0, 5)


def test_local_reps_by_construction():
    """The representatives built from their definition (1, u, p, u p at odd
    p with u the least non-residue; constants at 2 and the real place) are
    squarefree and keyed by their own local coordinates, for every prime
    below 2000 and the real place."""
    places = [REAL, 2] + [p for p in range(3, 2000, 2) if is_prime(p)]
    for pl in places:
        reps = local_reps(pl)
        assert reps == {local_coords(c, pl): c for c in reps.values()}, str(pl)
        assert sorted(reps) == list(range(1 << local_dim(pl))), str(pl)
        assert all(square_class(c).value() == c for c in reps.values()), str(pl)
        if pl not in (REAL, 2):
            u = smallest_nonresidue(pl)
            assert list(reps.values()) == [1, u, pl, u * pl], str(pl)


def test_local_coords_homomorphism_square_invariant_zero_on_squares():
    """local_coords is a homomorphism Q^x -> F_2^dim that is constant on
    square classes, reaches every vector once on the representatives, and
    is zero exactly on the local squares: x > 0 at the real place, else an
    even valuation and a unit part among the squares mod p (mod 8 at 2),
    found by enumerating the residues."""
    rng = random.Random(8)
    for pl in HILBERT_PLACES:
        assert sorted(local_reps(pl)) == list(range(1 << local_dim(pl)))
        p = 3 if pl == REAL else pl  # any base for the powers at the real place
        m = 8 if p == 2 else p
        residue_squares = {s * s % m for s in range(m)}
        for _ in range(300):
            x, y = _random_rational(rng, p), _random_rational(rng, p)
            r = Fraction(rng.randint(1, 300), rng.randint(1, 300)) * Fraction(p) ** rng.randint(-2, 2)
            cx = local_coords(x, pl)
            assert local_coords(x * y, pl) == cx ^ local_coords(y, pl), (x, y, str(pl))
            assert local_coords(x * r * r, pl) == cx, (x, r, str(pl))
            if pl == REAL:
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


@pytest.mark.parametrize("place", [FT_INFINITY, Place.ft(1), Place.ft(Fraction(-2, 3))], ids=str)
def test_local_square_classes_reject_function_field_places(place):
    """The local square classes are those of Q_v: a place of Q(T) is a
    ValueError that names it, not a wrong dimension or a TypeError."""
    calls = [
        lambda: local_dim(place),
        lambda: local_reps(place),
        lambda: is_square_local(2, place),
        lambda: hilbert_symbol(2, 3, place),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=str(place).replace("+", r"\+")):
            call()


@pytest.mark.parametrize("place", [1, 15, 4097 * 4099, -3])
def test_q_layer_rejects_places_that_are_not_prime(place):
    """A place of Q is 0 or a prime: a composite (or 1, or a negative int)
    is a ValueError that names it, not the local data of a wrong ring."""
    calls = [
        lambda: local_dim(place),
        lambda: local_reps(place),
        lambda: torsor_solvable_at(2, 1, 15, place),
        lambda: tate_local(1, 15, place),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=str(place)):
            call()
