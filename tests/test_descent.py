import itertools
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_box_points, oracle_local_image, oracle_torsor_solvable
from twodescent import descent
from twodescent.arith import REAL, Place, SquareClassQ, factor, local_reps, square_class
from twodescent.curve import TwoTorsionModel, dual_model, integral_model, specialize
from twodescent.descent import (
    _SIEVE_MODULI,
    RankStatus,
    _dual_image,
    _image_at_place,
    _residue_pattern,
    descend,
    point_search,
    rank_bounds,
    torsor_solvable_at,
)
from twodescent.family import family_by_name
from twodescent.localdata import local_image_order
from twodescent.scan import _specialized_points, enumerate_heights


def selmer_values(S):
    return sorted((c.value() for c in S.elements()), key=lambda x: (abs(x), x))


def test_torsor_validation():
    for place in (REAL, Place.prime(3)):
        with pytest.raises(ValueError):
            torsor_solvable_at(0, 1, 1, place)
    with pytest.raises(TypeError):
        torsor_solvable_at(1, Fraction(1, 2), 1, REAL)  # coefficients of an integral model only
    with pytest.raises(TypeError):
        torsor_solvable_at(1.0, 1, 1, Place.prime(2))
    with pytest.raises(ValueError):
        torsor_solvable_at(1, 1, 1, Place.ft(1))
    assert torsor_solvable_at(-6, 2, 3, REAL)
    assert torsor_solvable_at(12, 1, 1, Place.prime(3))  # d need not be squarefree


def test_trivial_and_bdual_classes_always_solvable():
    rng = random.Random(41)
    for _ in range(20):
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        if b == 0 or a * a == 4 * b:
            continue
        bdual = a * a - 4 * b
        d_triv = 1
        d_bd = square_class(bdual).value()
        places = [REAL, Place.prime(2), Place.prime(3), Place.prime(5)]
        for d in (d_triv, d_bd):
            assert all(torsor_solvable_at(d, a, b, pl) for pl in places)


def _deep_shape(p, k, m, h, on_b):
    """(a, b) = (h, p^k m), or (2h, h^2 - p^k m), where a^2 - 4b = 4 p^k m."""
    c = p**k * m
    return (h, c) if on_b else (2 * h, h * h - c)


def test_torsor_solvability_matches_oracle():
    """torsor_solvable_at agrees with the oracle's flat residue sweep: at the
    real place, 2, 3, 5 and 7 on small curves, and at p for every class on
    curves of the deep_curves shapes, with 2^k for 4 <= k <= 10 (the deep
    2-adic refinement) or p^k for p in {23, 29, 31} and k <= 3 (the gcd and
    Weil-bound path of _fp_analysis)."""
    rng = random.Random(42)
    for _ in range(120):
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        if b == 0 or a * a == 4 * b:
            continue
        d = rng.choice([1, -1, 2, -2, 3, 5, -5, 6, 7, -7, 10, 15, -15])
        for pl in (REAL, Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7)):
            got = torsor_solvable_at(d, a, b, pl)
            want = oracle_torsor_solvable(d, Fraction(a), Fraction(b), pl)
            assert got == want, (a, b, d, str(pl))
    for p, ks, count in ((2, range(4, 11), 40), (23, range(1, 4), 14), (29, range(1, 4), 14), (31, range(1, 4), 14)):
        pl = Place.prime(p)
        while count:
            m, h = rng.randint(-40, 40), rng.randint(-40, 40)
            a, b = _deep_shape(p, rng.choice(ks), m, h, rng.random() < 0.5)
            if m % p == 0 or b == 0 or a * a == 4 * b:
                continue
            count -= 1
            for d in local_reps(pl).values():
                got = torsor_solvable_at(d, a, b, pl)
                assert got == oracle_torsor_solvable(d, Fraction(a), Fraction(b), pl), (a, b, d, p)


@st.composite
def square_class_multiples(draw):
    """(d, k, a, b, place) with d, k nonzero and (a, b) of a _deep_shape at the
    place's prime (2 at the real place); k is often a multiple of that prime,
    so d k^2 moves the valuation of d."""
    place = draw(st.sampled_from([REAL, *map(Place.prime, (2, 3, 5, 7, 23, 29, 31))]))
    p = 2 if place == REAL else place.p
    e = draw(st.integers(4, 10) if p == 2 else st.integers(1, 3))
    m = draw(st.integers(-40, 40).filter(lambda m: m % p))
    a, b = _deep_shape(p, e, m, draw(st.integers(-40, 40)), draw(st.booleans()))
    assume(b != 0 and a * a != 4 * b)
    d = draw(st.integers(-60, 60).filter(bool))
    k = draw(st.integers(1, 12)) * draw(st.sampled_from([1, p, p * p]))
    return d, k, a, b, place


@settings(derandomize=True, max_examples=400, deadline=None)
@given(square_class_multiples())
def test_torsor_depends_only_on_square_class(case):
    """The torsors of d and d k^2 are isomorphic over Q (z = Z/k, w = W/k)."""
    d, k, a, b, place = case
    assert torsor_solvable_at(d, a, b, place) == torsor_solvable_at(d * k * k, a, b, place), case


def test_selmer_matches_bruteforce_oracle(oracle_selmer_corpus):
    """Criterion-6 style: exhaustive oracle agreement on the 30-curve corpus."""
    for E, A, B, oracle_phi, oracle_hat in oracle_selmer_corpus:
        D = descend(E)
        assert selmer_values(D.phi) == oracle_phi, (A, B)
        assert selmer_values(D.phi_hat) == oracle_hat, (A, B)


def _selmer_grid_lines():
    """One line per curve with |a|, |b| <= 15: a, b, then the basis of
    Sel_phi and of Sel_phi-hat as squarefree integers.

    tests/data/selmer-bases.txt holds its output, written before the local
    square classes moved into arith and the Selmer kernel onto f2_echelon."""
    lines = []
    for a in range(-15, 16):
        for b in range(-15, 16):
            if b != 0 and a * a != 4 * b:
                D = descend(TwoTorsionModel.over_q(a, b))
                phi = " ".join(str(c) for c in D.phi.basis)
                hat = " ".join(str(c) for c in D.phi_hat.basis)
                lines.append(f"{a} {b} | {phi} | {hat}\n")
    return lines


def test_selmer_bases_match_golden_grid():
    """Both Selmer bases, element for element and in order, equal the stored
    table (924 curves)."""
    golden = Path(__file__).parent / "data" / "selmer-bases.txt"
    assert "".join(_selmer_grid_lines()) == golden.read_text()


def test_bounded_sweep_tests_few_torsors(monkeypatch):
    """On the |a|, |b| <= 15 grid, descend tests 3,439 torsors; the full sweep
    of 2 + 8 + 4 classes per odd prime of b(a^2-4b) would test 16,008."""
    calls = 0

    def counted(d, a, b, place):
        nonlocal calls
        calls += 1
        return torsor_solvable_at(d, a, b, place)

    monkeypatch.setattr(descent, "torsor_solvable_at", counted)
    full = 0
    for a in range(-15, 16):
        for b in range(-15, 16):
            if b != 0 and a * a != 4 * b:
                full += 10 + 4 * len(descend(TwoTorsionModel.over_q(a, b)).odd_support)
    assert full == 16008
    assert calls <= 3439


def test_cassels_ratio_on_corpus(small_curve_corpus):
    for E in small_curve_corpus:
        assert descend(E).cassels_ok


def test_selmer_contains_identity_and_marked_classes(small_curve_corpus):
    for E in small_curve_corpus:
        A, B, _ = integral_model(E)
        D = descend(E)
        S_phi, S_hat = D.phi, D.phi_hat
        assert S_phi.contains(SquareClassQ(1, ()))
        assert S_phi.contains(square_class(A * A - 4 * B))
        assert S_hat.contains(square_class(B))


def test_searched_points_pass_local_solvability(small_curve_corpus):
    """Soundness: delta classes of rational points lie in the Selmer group."""
    found = 0
    for E in small_curve_corpus[:12]:
        D = descend(E)
        S_hat = D.phi_hat
        for P in point_search(E, 25):
            cls = (
                square_class(E.b) if P.x == 0 else square_class(P.x)
            )
            assert S_hat.contains(cls)
            found += 1
        Ed = dual_model(E)
        S_phi = D.phi
        for Q in point_search(Ed, 25):
            cls = square_class(Ed.b) if Q.x == 0 else square_class(Q.x)
            assert S_phi.contains(cls)
            found += 1
    assert found >= 30


def assert_dual_images_match_sweep(A, B) -> int:
    """At the real place, 2, 3, 5 and the primes of B(A^2-4B), the bounded
    sweep of (A, B) equals the full sweep of its torsors, and the image
    derived from it by Hilbert duality equals the full sweep of (-2A, A^2-4B).
    Returns the number of places compared."""
    primes = {2, 3, 5, *factor(B).primes, *factor(A * A - 4 * B).primes}
    places = [REAL] + [Place.prime(p) for p in sorted(primes)]
    for pl in places:
        image = _image_at_place(A, B, pl)
        assert image == oracle_local_image(A, B, pl), (A, B, str(pl))
        assert _dual_image(image, pl) == oracle_local_image(-2 * A, A * A - 4 * B, pl), (A, B, str(pl))
    return len(places)


def test_dual_images_match_sweep_on_grid():
    pairs = 0
    for a in range(-20, 21):
        for b in range(-20, 21):
            if b != 0 and a * a != 4 * b:
                pairs += assert_dual_images_match_sweep(a, b)
    assert pairs == 8250


def test_dual_images_match_sweep_on_corpus_and_fibers(small_curve_corpus):
    curves = list(small_curve_corpus)
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        ts = [Fraction(m, n) for m, n in enumerate_heights(6) if Fraction(m, n) not in bad]
        curves += [specialize(rec.E, t) for t in ts]
    pairs = 0
    for E in curves:
        A, B, _ = integral_model(E)
        pairs += assert_dual_images_match_sweep(A, B)
    assert pairs >= 1600, pairs


@st.composite
def deep_curves(draw):
    """(a, b) with p^k | b or p^k | a^2-4b for a prime p >= 23 (the gcd and
    Weil-bound path of _fp_analysis) or 2^k with k >= 4 (deep 2-adic
    refinement)."""
    p = draw(st.sampled_from([2, 23, 29, 31, 37, 43, 97, 101, 1009]))
    k = draw(st.integers(4, 20) if p == 2 else st.integers(1, 4))
    m = draw(st.integers(-40, 40).filter(bool))
    a, b = _deep_shape(p, k, m, draw(st.integers(-40, 40)), draw(st.booleans()))
    assume(b != 0 and a * a != 4 * b)
    return a, b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(deep_curves())
def test_dual_images_match_sweep_on_deep_valuations(ab):
    assert_dual_images_match_sweep(*ab)


def test_local_image_is_group_of_size_1_2_4_or_8(small_curve_corpus):
    for E in small_curve_corpus[:10]:
        D = descend(E)
        for pl in (REAL, Place.prime(2), Place.prime(3)):
            img = D.local_image(pl)
            assert len(img) in (1, 2, 4, 8)


def test_local_images_match_tamagawa_ratios(small_curve_corpus):
    """|Im(delta_{E',p})| = 2 c_p(E')/c_p(E) at every odd prime of B(A^2-4B),
    on the corpus and the first 40 fibers of height <= 6 of each family: the
    torsor tests of the descent agree with Tate's algorithm."""
    curves = list(small_curve_corpus)
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        ts = [Fraction(m, n) for m, n in enumerate_heights(6) if Fraction(m, n) not in bad]
        curves += [specialize(rec.E, t) for t in ts[:40]]
    pairs = 0
    for E in curves:
        D = descend(E)
        for p in D.odd_support:
            assert len(D.local_image(Place.prime(p))) == 2 * local_image_order(E, p), (E, p)
            pairs += 1
    assert pairs >= 800, pairs


def test_point_search_examples():
    from twodescent.polyq import Poly, eval_at

    E = TwoTorsionModel.over_q(0, 1)
    pts = point_search(E, 10)
    assert any(p.x == 0 and p.y == 0 for p in pts)

    # rank-4 family at t = 3: all four specialized generators are found
    T = Poly.x()
    t = Fraction(3)
    Et = specialize(family_by_name("rank4").E, t)
    pts = point_search(Et, 64)
    xs = {p.x for p in pts}
    for xpoly in (
        14 * (T * T - 121),
        2 * (T - 11) * (T - 25),
        14 * (T * T - 625),
        8 * (T + 11) * (T + 25),
    ):
        assert eval_at(xpoly, t) in xs


def test_point_search_rank0_finds_no_infinite_order():
    # rank-0 family at an accepted t: exhaustive small search certifies rank 0
    Et = specialize(family_by_name("rank0").E, 2)
    pts = point_search(Et, 200)
    rs = rank_bounds(descend(Et), pts, point_search(dual_model(Et), 200))
    assert rs.kind == "determined" and rs.value == 0


def assert_point_search_matches_box(E, H) -> list:
    """point_search(E, H) returns exactly the points of a plain box search
    over |u|, v <= H on the integral model, scaled back to E; returns them."""
    A, B, u = integral_model(E)
    expected = [(x / u**2, y / u**3) for x, y in oracle_box_points(A, B, H)]
    found = [(P.x, P.y) for P in point_search(E, H)]
    assert found == expected, (E, H)
    return found


def test_point_search_matches_box_on_grid():
    E = TwoTorsionModel.over_q(0, -25)
    assert point_search(E, 0) == point_search(E, -1) == []
    found = []
    for a in range(-20, 21):
        for b in range(-20, 21):
            if b != 0 and a * a != 4 * b:
                E = TwoTorsionModel.over_q(a, b)
                for C in (E, dual_model(E)):
                    for H in (1, 7, 30):
                        found += assert_point_search_matches_box(C, H)
    assert len(found) == 17636
    assert sum(x < 0 for x, _ in found) == 2748


def test_point_search_matches_box_at_bounds_0_and_1():
    """At bound 1 the search returns (0, 0), which it emits without sieving
    u = 0, and the points with u = +-1, v = 1; at bound 0 it returns none."""
    found = []
    for a, b in ((0, -25), (0, 1), (-1, -2), (3, 2), (-2 * 999_999, 999_999**2 - 4), (10**6, -(10**6))):
        E = TwoTorsionModel.over_q(a, b)
        for C in (E, dual_model(E)):
            assert assert_point_search_matches_box(C, 0) == []
            found += assert_point_search_matches_box(C, 1)
    assert found.count((0, 0)) == 12
    assert len(found) > 12


def test_point_search_matches_box_on_fibers():
    found = 0
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        for m, n in enumerate_heights(6):
            if Fraction(m, n) not in bad:
                Et = specialize(rec.E, Fraction(m, n))
                for C in (Et, dual_model(Et)):
                    found += len(assert_point_search_matches_box(C, 32))
    assert found == 1400


def test_point_search_matches_box_on_fibers_at_128():
    """A fixed slice of the height <= 20 fibers, at the rank_search bound."""
    found = 0
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        for m, n in enumerate_heights(20)[7::40]:
            if Fraction(m, n) not in bad:
                Et = specialize(rec.E, Fraction(m, n))
                for C in (Et, dual_model(Et)):
                    found += len(assert_point_search_matches_box(C, 128))
    assert found == 573


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool))
def test_point_search_matches_box_on_large_coefficients(a, b):
    assume(a * a != 4 * b)
    E = TwoTorsionModel.over_q(a, b)
    assert_point_search_matches_box(E, 128)
    assert_point_search_matches_box(dual_model(E), 128)


def fresh_patterns() -> dict[int, array]:
    """Residue tables of the sieve moduli with no entry filled yet."""
    return {q: array("i", [-1]) * len(table) for q, table in descent._PATTERNS.items()}


def test_residue_pattern_exhaustive(monkeypatch):
    """Bit v < q of the sieve pattern is set iff r3 + r2 v^2 + r1 v^4 is a
    square mod q, for every sieve modulus and every residue triple: the
    first read fills the entry of a fresh table, the second reads it back."""
    monkeypatch.setattr(descent, "_PATTERNS", fresh_patterns())
    for q in _SIEVE_MODULI:
        squares = {x * x % q for x in range(q)}
        for r3, r2, r1 in itertools.product(range(q), repeat=3):
            expected = sum(1 << v for v in range(q) if (r3 + r2 * v * v + r1 * v**4) % q in squares)
            assert _residue_pattern(q, r3, r2, r1) == expected, (q, r3, r2, r1)
            assert _residue_pattern(q, r3, r2, r1) == expected, (q, r3, r2, r1)
        assert -1 not in descent._PATTERNS[q]


def test_point_search_does_not_depend_on_call_order(monkeypatch):
    """Every search in a process reads the same residue tables: fresh
    tables filled in forward and in reverse call order give the same lists."""
    calls = [(TwoTorsionModel.over_q(0, -25), 64), (TwoTorsionModel.over_q(10**6 - 3, -(10**6) + 7), 128)]
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        for t in (Fraction(3), Fraction(-7, 5), Fraction(13, 4)):
            Et = specialize(family_by_name(name).E, t)
            calls += [(Et, 32), (dual_model(Et), 128)]
    runs = []
    for order in (calls, calls[::-1]):
        monkeypatch.setattr(descent, "_PATTERNS", fresh_patterns())
        runs.append([point_search(C, H) for C, H in order])
    assert runs[0] == runs[1][::-1]
    assert sum(map(len, runs[0])) == 133


DIVISORS_30030 = [d for d in range(1, 78) if 30030 % d == 0]  # the 24 up to 77


@st.composite
def many_divisor_curves(draw):
    """(a, b, H) with 30030 = 2*3*5*7*11*13 dividing b, so that B has the most
    squarefree divisors below H; half of the curves carry the point x = d for
    a signed divisor d of 30030 (b = 30030 k, a = m^2 - d - b/d)."""
    b = 30030 * draw(st.integers(-20, 20).filter(bool))
    if draw(st.booleans()):
        d = draw(st.sampled_from(DIVISORS_30030)) * draw(st.sampled_from([1, -1]))
        a = draw(st.integers(0, 40)) ** 2 - d - b // d
    else:
        a = draw(st.integers(-200, 200))
    assume(a * a != 4 * b)
    return a, b, draw(st.integers(1, 64))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(many_divisor_curves())
def test_point_search_matches_box_when_b_has_many_divisors(abh):
    a, b, H = abh
    E = TwoTorsionModel.over_q(a, b)
    assert_point_search_matches_box(E, H)
    assert_point_search_matches_box(dual_model(E), H)


def test_rank_bounds_statuses():
    with pytest.raises(ValueError):
        RankStatus(2, 1)
    assert RankStatus(1, 1).kind == "determined"
    assert RankStatus(0, 2).kind == "bounded"

    # Sel dims (1,1) and only 2-torsion: determined 0
    E = TwoTorsionModel.over_q(0, -1)
    rs = rank_bounds(descend(E))
    assert rs.kind == "determined" and rs.value == 0

    # a curve with Selmer gap stays bounded without points
    E2 = TwoTorsionModel.over_q(0, -25)
    rs2 = rank_bounds(descend(E2))
    assert rs2.kind == "bounded" and rs2.lo < rs2.hi


def test_rank_status_json_is_strict():
    for rank in (RankStatus(0, 0), RankStatus(1, 1), RankStatus(0, 2)):
        assert RankStatus.from_json(rank.to_json()) == rank
    for data in (
        {"kind": "bounded", "lo": 1, "hi": 1},  # kind disagrees with the bounds
        {"kind": "determined", "lo": 0, "hi": 2},
        {"kind": "bounded", "lo": 2, "hi": 1},
        {"kind": "bounded", "lo": 0},  # a bound is missing
        {"kind": "determined"},
        {"lo": 0, "hi": 2},
        {"kind": "determined", "value": 1, "lo": 1},
        {"kind": "determined", "value": "1"},
        {"kind": "bounded", "lo": 0, "hi": 2.0},
        {"kind": "exact", "lo": 0, "hi": 2},
    ):
        with pytest.raises(ValueError):
            RankStatus.from_json(data)


def test_rank_bounds_monotone_in_search_bound():
    E = TwoTorsionModel.over_q(0, -25)
    D = descend(E)
    los = []
    for bound in (0, 10, 60):
        pts = point_search(E, bound) if bound else []
        ptsd = point_search(dual_model(E), bound) if bound else []
        los.append(rank_bounds(D, pts, ptsd).lo)
    assert los == sorted(los)
    # Selmer dims are independent of the search bound
    assert descend(E).phi.dim == D.phi.dim


def assert_search_skip_changes_nothing(D, pts, ptsd, H):
    """rank_bounds searching only the sides its points leave open equals
    rank_bounds given both sides' full search."""
    E, Ed = D.curve, dual_model(D.curve)
    full = rank_bounds(D, pts + point_search(E, H), ptsd + point_search(Ed, H))
    assert rank_bounds(D, pts, ptsd, H) == full, (E, H)


def test_rank_bounds_search_skip_on_family_fibers():
    """Every fiber of height <= 6 in the five families, with its specialized
    generic points, at the scan's search bound 32."""
    checked = 0
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad_ts = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        for m, n in enumerate_heights(6):
            t = Fraction(m, n)
            if t in bad_ts:
                continue
            Et = specialize(rec.E, t)
            pts = _specialized_points(rec, t, dualside=False)
            ptsd = _specialized_points(rec, t, dualside=True)
            assert_search_skip_changes_nothing(descend(Et), pts, ptsd, 32)
            checked += 1
    assert checked > 200


def test_rank_bounds_search_skip_on_seeded_curves():
    rng = random.Random(14)
    for _ in range(40):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if b == 0 or a * a == 4 * b:
            continue
        assert_search_skip_changes_nothing(descend(TwoTorsionModel.over_q(a, b)), [], [], 128)


def test_rank_bounds_searches_only_open_sides(monkeypatch):
    """y^2 = x^3 + 2x has Selmer dims (1, 1), both filled by (0,0): no search.
    On y^2 = x^3 - x, (0,0) fills the E side only; the dual y^2 = x^3 + 4x
    needs its 4-torsion point (2, 4), so that side alone is searched.
    y^2 = x^3 - 25x stays bounded without points, so it is searched."""
    calls = []

    def counted(E, H):
        calls.append(E)
        return point_search(E, H)

    monkeypatch.setattr(descent, "point_search", counted)
    assert rank_bounds(descend(TwoTorsionModel.over_q(0, 2)), search_bound=32) == RankStatus(0, 0)
    assert calls == []
    assert rank_bounds(descend(TwoTorsionModel.over_q(0, -1)), search_bound=32) == RankStatus(0, 0)
    assert calls == [TwoTorsionModel.over_q(0, 4)]
    assert rank_bounds(descend(TwoTorsionModel.over_q(0, -25)), search_bound=32) == RankStatus(1, 1)
    assert len(calls) > 1
    with pytest.raises(ValueError):
        rank_bounds(descend(TwoTorsionModel.over_q(0, -25)), search_bound=-1)


def test_selmer_pair_shares_support():
    E = TwoTorsionModel.over_q(259, -7000)
    D = descend(E)
    assert D.cassels_ok
    assert D.phi_hat.dim == 2 and D.phi.dim == 2
    support = {p for c in D.phi.basis + D.phi_hat.basis for p in c.support}
    assert support <= {2, *D.odd_support}
    # oracle-verified values for this curve
    assert selmer_values(D.phi) == [1, 119, 329, 799]
    assert selmer_values(D.phi_hat) == [1, 2, -35, -70]
