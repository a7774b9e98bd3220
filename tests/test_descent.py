import dataclasses
import itertools
import math
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    delta_class_q,
    delta_span_dim_q,
    is_reduced_echelon,
    local_image,
    local_image_order,
    oracle_box_points,
    oracle_covering_points,
    oracle_f2_span,
    oracle_local_image,
    oracle_quartic_qp,
    oracle_torsor_solvable,
    point_search,
    selmer_values,
    specialize,
    two_adic_index,
)
from twodescent import cli, descent
from twodescent.arith import (
    REAL,
    Place,
    SquareClassQ,
    f2_echelon,
    f2_reduce,
    f2_span,
    factor,
    int_valuation,
    is_prime,
    local_coords,
    local_dim,
    local_pairing,
    local_reps,
    smallest_nonresidue,
    square_class,
)
from twodescent.curve import (
    AffinePoint,
    OffCurveError,
    _reduced_model,
    integral_model,
)
from twodescent.descent import (
    _SIEVE_MODULI,
    RankStatus,
    _class_vector,
    _coprime_mask,
    _covering_points,
    _dual_image,
    _gen_coords,
    _image_at_place,
    _pairs_trivially,
    _place_class,
    _point_vector,
    _quotients,
    _residue_pattern,
    _selmer_bases,
    descend,
    quartic_solvable_qp,
    rank_bounds,
    torsor_solvable_at,
)
from twodescent.family import family_by_name
from twodescent.localdata import tate_local
from twodescent.polyq import SingularModelError, eval_at
from twodescent.scan import enumerate_heights


def integral_sides(E) -> list[tuple[int, int]]:
    """The two integral sides (A, B) and (-2A, A^2-4B) of the curve E = (a, b) over Q."""
    A, B, _ = integral_model(*E)
    return [(A, B), (-2 * A, A * A - 4 * B)]


def test_torsor_validation():
    for place in (REAL, 3):
        with pytest.raises(ValueError):
            torsor_solvable_at(0, 1, 1, place)
    with pytest.raises(TypeError):
        torsor_solvable_at(1, Fraction(1, 2), 1, REAL)  # coefficients of an integral model only
    with pytest.raises(TypeError):
        torsor_solvable_at(1.0, 1, 1, 2)
    with pytest.raises(ValueError):
        torsor_solvable_at(1, 1, 1, Place.ft(1))
    assert torsor_solvable_at(-6, 2, 3, REAL)
    assert torsor_solvable_at(12, 1, 1, 3)  # d need not be squarefree


def test_trivial_and_bdual_classes_always_solvable():
    rng = random.Random(41)
    for _ in range(20):
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        if b == 0 or a * a == 4 * b:
            continue
        bdual = a * a - 4 * b
        d_triv = 1
        d_bd = square_class(bdual).value()
        places = [REAL, 2, 3, 5]
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
        for pl in (REAL, 2, 3, 5, 7):
            got = torsor_solvable_at(d, a, b, pl)
            want = oracle_torsor_solvable(d, Fraction(a), Fraction(b), pl)
            assert got == want, (a, b, d, str(pl))
    for p, ks, count in ((2, range(4, 11), 40), (23, range(1, 4), 14), (29, range(1, 4), 14), (31, range(1, 4), 14)):
        while count:
            m, h = rng.randint(-40, 40), rng.randint(-40, 40)
            a, b = _deep_shape(p, rng.choice(ks), m, h, rng.random() < 0.5)
            if m % p == 0 or b == 0 or a * a == 4 * b:
                continue
            count -= 1
            for d in local_reps(p).values():
                got = torsor_solvable_at(d, a, b, p)
                assert got == oracle_torsor_solvable(d, Fraction(a), Fraction(b), p), (a, b, d, p)


@st.composite
def general_quartics(draw):
    """(A4, A2, A0, p): each coefficient a unit part up to 10^6 times p^e,
    e <= 12, with A2 = 0 about one time in six, so that the leading and
    constant valuations vary and both patches of P^1 are reached.  One time
    in three A0 is A4 s^2 + (such a coefficient) and A2 = -2 A4 s instead:
    then F = A4 (z^2 - s)^2 + A0 - A4 s^2 has multiple roots mod p at the
    square roots of s, and the odd-p walker refines at nonzero residues."""
    p = draw(st.sampled_from((2, 3, 5, 7, 23, 29)))

    def coeff():
        u = draw(st.integers(1, 10**6).filter(lambda u: u % p))
        return draw(st.sampled_from((1, -1))) * u * p ** draw(st.integers(0, 12))

    A4, A0 = coeff(), coeff()
    if draw(st.integers(0, 2)):
        A2 = coeff() if draw(st.integers(0, 5)) else 0
    else:
        s = draw(st.integers(1, 10**3))
        A2, A0 = -2 * A4 * s, A4 * s * s + A0
    assume(A0 != 0 and A2 * A2 != 4 * A4 * A0)
    return A4, A2, A0, p


@settings(derandomize=True, max_examples=600, deadline=None)
@given(general_quartics())
def test_quartic_walkers_match_oracle_on_general_quartics(case):
    """The node-expansion walkers at 2 and at odd p agree with the oracle's
    flat residue sweep on quartics of any shape, not only torsors."""
    A4, A2, A0, p = case
    assert quartic_solvable_qp(A4, A2, A0, p) == oracle_quartic_qp(A4, A2, A0, p)


@st.composite
def square_class_multiples(draw):
    """(d, k, a, b, place) with d, k nonzero and (a, b) of a _deep_shape at the
    place's prime (2 at the real place); k is often a multiple of that prime,
    so d k^2 moves the valuation of d."""
    place = draw(st.sampled_from([REAL, 2, 3, 5, 7, 23, 29, 31]))
    p = 2 if place == REAL else place
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
        D = descend(A, B)
        assert selmer_values(D, D.phi) == oracle_phi, (A, B)
        assert selmer_values(D, D.phi_hat) == oracle_hat, (A, B)


def _selmer_lines(curves):
    """One line per curve (a, b): a, b, then the basis of Sel_phi and of
    Sel_phi-hat as squarefree integers."""
    lines = []
    for a, b in curves:
        D = descend(*integral_model(a, b)[:2])
        phi = " ".join(str(c) for c in D.classes(D.phi))
        hat = " ".join(str(c) for c in D.classes(D.phi_hat))
        lines.append(f"{a} {b} | {phi} | {hat}\n")
    return lines


def test_selmer_bases_match_golden_grid():
    """Both Selmer bases, element for element and in order, equal the stored
    table for the 924 curves with |a|, |b| <= 15.

    tests/data/selmer-bases.txt was written before the local square classes
    moved into arith and the Selmer kernel onto f2_echelon."""
    grid = [(a, b) for a in range(-15, 16) for b in range(-15, 16) if b != 0 and a * a != 4 * b]
    golden = Path(__file__).parent / "data" / "selmer-bases.txt"
    assert "".join(_selmer_lines(grid)) == golden.read_text()


def _large_curves(count=300, bound=10**6):
    rng = random.Random("selmer-bases-large")
    out = []
    while len(out) < count:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if b != 0 and a * a != 4 * b:
            out.append((a, b))
    return out


def test_selmer_bases_match_golden_large():
    """The same for 300 seeded curves with |a|, |b| <= 10^6, whose supports
    reach the primes where quadratic reciprocity and the p >= 23 torsor
    path decide the basis.

    tests/data/selmer-bases-large.txt was written before the descent's F_2
    bookkeeping moved onto per-place-class tables."""
    golden = Path(__file__).parent / "data" / "selmer-bases-large.txt"
    assert "".join(_selmer_lines(_large_curves())) == golden.read_text()


def test_descend_keys_images_by_int_places_and_builds_no_place(monkeypatch):
    """A place of Q is an int: on 1,000 seeded curves with |A|, |B| <= 10^6,
    `images` is keyed by exactly REAL = 0, 2 and the odd support, in that
    order, and descend builds no `Place`, which names a place of Q(T)."""
    built = 0
    init = Place.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Place, "__init__", counted)
    rng = random.Random(34)
    curves = 0
    while curves < 1000:
        A, B = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        if B == 0 or A * A == 4 * B:
            continue
        D = descend(A, B)
        assert tuple(D.images) == (REAL, 2, *D.odd_support), (A, B)
        assert all(type(p) is int for p in D.images), (A, B)
        curves += 1
    assert built == 0


def test_bounded_sweep_tests_few_torsors(monkeypatch):
    """On the |a|, |b| <= 15 grid, descend tests 1,837 torsors; the full sweep
    of 2 + 8 + 4 classes per odd prime of b(a^2-4b) would test 16,008.  None
    is tested at an odd prime of b(a^2-4b) that does not divide a, where the
    image is read off the node."""
    calls = 0

    def counted(d, a, b, place):
        nonlocal calls
        calls += 1
        p = 2 if place == REAL else place  # the real place is swept too
        assert p == 2 or a % p == 0 or b * (a * a - 4 * b) % p, (d, a, b, p)
        return torsor_solvable_at(d, a, b, place)

    monkeypatch.setattr(descent, "torsor_solvable_at", counted)
    full = 0
    for a in range(-15, 16):
        for b in range(-15, 16):
            if b != 0 and a * a != 4 * b:
                full += 10 + 4 * len(descend(*integral_model(a, b)[:2]).odd_support)
    assert full == 16008
    assert calls <= 1837, calls


def test_cassels_ratio_on_corpus(small_curve_corpus):
    for E in small_curve_corpus:
        assert descend(*integral_model(*E)[:2]).cassels_ok


def test_selmer_contains_identity_and_marked_classes(small_curve_corpus):
    for E in small_curve_corpus:
        A, B, _ = integral_model(*E)
        D = descend(A, B)
        S_phi, S_hat = selmer_values(D, D.phi), selmer_values(D, D.phi_hat)
        assert SquareClassQ(1, ()).value() in S_phi
        assert square_class(A * A - 4 * B).value() in S_phi
        assert square_class(B).value() in S_hat


def test_selmer_bases_are_echelon_masks_over_gens(small_curve_corpus):
    """Each Selmer basis is its own reduced echelon form with no bit past the
    generators, as the f2_reduce of `rank_bounds` needs, and `classes` names
    each mask by the product of its generators."""
    for E in small_curve_corpus:
        D = descend(*integral_model(*E)[:2])
        for basis in (D.phi, D.phi_hat):
            assert basis == f2_echelon(basis) and all(0 < m < 1 << len(D.gens) for m in basis), E
            values = sorted(math.prod(g for i, g in enumerate(D.gens) if m >> i & 1) for m in basis)
            assert sorted(c.value() for c in D.classes(basis)) == values, E


def test_searched_points_pass_local_solvability(small_curve_corpus):
    """Soundness: delta classes of rational points lie in the Selmer group."""
    found = 0
    for E in small_curve_corpus[:12]:
        (A, B), (Ad, Bd) = integral_sides(E)
        D = descend(A, B)
        S_hat = selmer_values(D, D.phi_hat)
        for P in point_search(A, B, 25):
            cls = square_class(B) if P.x == 0 else square_class(P.x)
            assert cls.value() in S_hat
            found += 1
        S_phi = selmer_values(D, D.phi)
        for Q in point_search(Ad, Bd, 25):
            cls = square_class(Bd) if Q.x == 0 else square_class(Q.x)
            assert cls.value() in S_phi
            found += 1
    assert found >= 30


def assert_dual_images_match_sweep(A, B) -> int:
    """At the real place, 2, 3, 5 and the primes of B(A^2-4B), the bounded
    sweep of (A, B) equals the full sweep of its torsors, and the image
    derived from it by Hilbert duality equals the full sweep of (-2A, A^2-4B).
    Returns the number of places compared."""
    primes = {2, 3, 5, *factor(B).primes, *factor(A * A - 4 * B).primes}
    places = [REAL, *sorted(primes)]
    for pl in places:
        image = _image_at_place(A, B, pl)
        assert image == oracle_local_image(A, B, pl), (A, B, str(pl))
        dual = _dual_image(image, _place_class(pl))
        assert dual == oracle_local_image(-2 * A, A * A - 4 * B, pl), (A, B, str(pl))
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
        A, B, _ = integral_model(*E)
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


def _node_case(a, b, p):
    """(p | b, split, v_p even) at an odd prime p of b(a^2-4b) not dividing a:
    the reduction is multiplicative, split when a (p | b) or -2a (p | a^2-4b)
    is a residue mod p, and v_p is that of b or of a^2-4b."""
    c, e = (a, b) if b % p == 0 else (-2 * a, a * a - 4 * b)
    return b % p == 0, pow(c % p, p >> 1, p) == 1, int_valuation(e, p) % 2 == 0


def assert_node_images_match_sweep(a, b) -> set:
    """At every odd prime p not dividing a, among those of b(a^2-4b) and 3, 5
    and 7, the image equals the full sweep of the torsors: read off the node
    where p | b(a^2-4b), swept where E has good reduction.  Returns the
    (p, case) pairs reached at the multiplicative primes."""
    support = {*factor(b).primes, *factor(a * a - 4 * b).primes}
    reached = set()
    for p in sorted(support | {3, 5, 7}):
        if p == 2 or a % p == 0:
            continue
        assert _image_at_place(a, b, p) == oracle_local_image(a, b, p), (a, b, p)
        if p in support:
            reached.add((p, _node_case(a, b, p)))
    return reached


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool))
def test_node_images_match_sweep_on_large_coefficients(a, b):
    assume(a * a != 4 * b)
    assert_node_images_match_sweep(a, b)


def test_node_images_match_sweep_in_all_eight_cases():
    """At p in {3, 5, 7, 23, 29, 43} and v_p = k from 1 to 7, the curves
    `_deep_shape(p, k, m, h, on_b)` with h = +-1 or +-(a non-residue mod p):
    each of the 8 cases (p | b or p | a^2-4b, split or not, v_p even or odd)
    is reached at each p."""
    primes = (3, 5, 7, 23, 29, 43)
    reached = set()
    for p in primes:
        n = smallest_nonresidue(p)
        for k, m, h, on_b in itertools.product(range(1, 8), (1, -1, 2), (1, -1, n, -n), (True, False)):
            reached |= assert_node_images_match_sweep(*_deep_shape(p, k, m, h, on_b))
    cases = set(itertools.product((True, False), repeat=3))
    for p in primes:
        assert {case for q, case in reached if q == p} == cases, p


def _primes_above_million():
    """The least prime above 10^6 in each class 1, 3, 5, 7 (mod 8)."""
    return [next(p for p in itertools.count(10**6 + r, 8) if is_prime(p)) for r in (1, 3, 5, 7)]


def test_gen_coords_table_matches_local_coords():
    """Every (generator, place) entry of the reciprocity table equals
    local_coords, on seeded supports of primes below 3,000 and above 10^6
    in every class mod 8, and on the support of all the large ones."""
    small = [p for p in range(3, 3000) if is_prime(p)]
    large = _primes_above_million()
    rng = random.Random(21)
    supports = [large, sorted(large + small[:4])]
    supports += [sorted(rng.sample(small + large, rng.randint(0, 9))) for _ in range(300)]
    for support in supports:
        gens = [-1, 2, *support]
        places = [REAL, 2, *support]
        assert _gen_coords(tuple(support)) == [[local_coords(g, pl) for pl in places] for g in gens], support


def test_class_tables_match_actual_places():
    """Each table entry, looked up through the place class, equals
    local_pairing, the annihilator computed at the place itself, and
    f2_reduce by the subspace and by that annihilator, for every class y
    and every subspace of local classes."""
    odd = [5, 13, 3, 7, 23, 29, *_primes_above_million()]
    for pl in [REAL, 2, *odd]:
        cls, size = _place_class(pl), 1 << local_dim(pl)
        for y in range(size):
            assert _pairs_trivially(y, cls) == tuple(v for v in range(size) if not local_pairing(v, y, pl))
        subspaces = {f2_echelon(vs) for r in range(4) for vs in itertools.combinations(range(1, size), r)}
        assert len(subspaces) == {2: 2, 4: 5, 8: 16}[size]
        for S in subspaces:
            annihilator = {v for v in range(size) if not any(local_pairing(v, g, pl) for g in S)}
            dual = f2_echelon(annihilator)
            assert _dual_image(S, cls) == dual, (str(pl), S)
            quotient, dual_quotient = (tuple(f2_reduce(v, T) for v in range(size)) for T in (S, dual))
            assert _quotients(S, cls) == (local_dim(pl), quotient, dual_quotient), (str(pl), S)


@st.composite
def selmer_rows(draw):
    """(gen_coords, classes, images) as `_selmer_bases` takes them: up to 10
    generators' local coordinates at 1 to 6 places, each of a place class
    drawn with a random echelonized image."""
    place_classes = [REAL, 2, _place_class(5), _place_class(3)]
    classes = draw(st.lists(st.sampled_from(place_classes), min_size=1, max_size=6))
    coords = [st.integers(0, (1 << local_dim(cls)) - 1) for cls in classes]
    images = [f2_echelon(draw(st.lists(c, max_size=3))) for c in coords]
    n = draw(st.integers(0, 10))
    return [[draw(c) for c in coords] for _ in range(n)], classes, images


def _brute_kernel(gen_coords, subgroups) -> set[int]:
    """The generator masks whose summed local coordinates lie in the given
    subgroup at every place, over all 2^n masks."""
    out = set()
    for m in range(1 << len(gen_coords)):
        total = [0] * len(subgroups)
        for i, row in enumerate(gen_coords):
            if m >> i & 1:
                total = [t ^ v for t, v in zip(total, row)]
        if all(t in sub for t, sub in zip(total, subgroups)):
            out.add(m)
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(selmer_rows())
def test_selmer_bases_match_brute_force_kernels(rows):
    """Both bases of `_selmer_bases` are the reduced echelon bases of the
    brute-force kernels: the masks whose local coordinates fall in the
    image at every place, and in its annihilator under local_pairing."""
    gen_coords, classes, images = rows
    spans = [oracle_f2_span(img) for img in images]
    duals = [
        {v for v in range(1 << local_dim(cls)) if not any(local_pairing(v, g, cls) for g in img)}
        for cls, img in zip(classes, images)
    ]
    for basis, subgroups in zip(_selmer_bases(gen_coords, classes, images), (spans, duals)):
        kernel = _brute_kernel(gen_coords, subgroups)
        assert is_reduced_echelon(basis) and f2_span(basis) == kernel and 1 << len(basis) == len(kernel), basis


def test_local_image_is_group_of_size_1_2_4_or_8(small_curve_corpus):
    for E in small_curve_corpus[:10]:
        D = descend(*integral_model(*E)[:2])
        for pl in (REAL, 2, 3):
            img = local_image(D, pl)
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
        D = descend(*integral_model(*E)[:2])
        for p in D.odd_support:
            assert len(local_image(D, p)) == 2 * local_image_order(D.A, D.B, p), (E, p)
            pairs += 1
    assert pairs >= 800, pairs


def test_image_at_3_matches_tamagawa_ratio_on_powers_of_3():
    """|Im(delta_{E',3})| = 2 c_3(E')/c_3(E) beyond the |a|, |b| <= 12 grid of
    the golden Tate table: on 3,000 seeded integral models of A = u 3^i,
    B = w 3^j with |u|, |w| <= 300, i <= 6 and j <= 12, whose Tate runs at
    3 on E and E' reach III, III*, I0*, I1* to I14* and the even I_n* to
    I26*.  The torsor
    walker at 3 against Tate's algorithm at 3, where the star steps tell a
    double root of their cubic from a triple one."""
    rng = random.Random(3)
    three = 3
    curves = []
    while len(curves) < 3000:
        A = rng.randint(-300, 300) * 3 ** rng.randint(0, 6)
        B = rng.randint(-300, 300) * 3 ** rng.randint(0, 12)
        if B and A * A != 4 * B:
            curves.append(integral_model(A, B)[:2])
    reached = set()
    for A, B in curves:
        assert 1 << len(_image_at_place(A, B, three)) == 2 * local_image_order(A, B, 3), (A, B)
        for side in ((A, B), (-2 * A, A * A - 4 * B)):
            reached.add(str(tate_local(*side, three).kodaira))
    stars = {f"I{n}*" for n in [*range(15), *range(16, 27, 2)]}
    assert {"III", "III*"} | stars <= reached, sorted(reached)


def test_image_at_real_place_holds_minus_1_by_the_square_law():
    """Im(delta_{E',R}) for the model (A, B) holds -1 exactly when B > 0 and
    (A <= 0 or A^2 < 4B), with no sampling.

    -1 is in the image exactly when the torsor of d = -1 has a real point.
    Completing the square, that torsor is w^2 = -z^4 - 2A z^2 - (A^2 - 4B)
    = -(z^2 + A)^2 + 4B.  Its leading coefficient is negative, so it has no
    point at z = infinity, and it has one at a real z exactly when
    (z^2 + A)^2 <= 4B there.  For B < 0 no z qualifies.  For B > 0,
    z^2 = -A reaches 0 when A <= 0; when A > 0 the least value is A^2, at
    z = 0, and A^2 = 4B is singular.  On the nonsingular (A, B) of the
    |A|, |B| <= 40 grid and of 20,000 seeded pairs with |A|, |B| <= 10^9."""
    rng = random.Random(21)
    pairs = [(A, B) for A in range(-40, 41) for B in range(-40, 41)]
    pairs += [(rng.randint(-(10**9), 10**9), rng.randint(-(10**9), 10**9)) for _ in range(20000)]
    curves = [(A, B) for A, B in pairs if B and A * A != 4 * B]
    for A, B in curves:
        assert (len(_image_at_place(A, B, REAL)) == 1) == (B > 0 and (A <= 0 or A * A < 4 * B)), (A, B)
    assert len(curves) == 26468


def test_image_at_2_matches_tate_index_formula():
    """|Im(delta_{E',2})| = 2 c_2(E')/c_2(E) 2^(k_E' - k_E), Schaefer's index
    formula (J. Number Theory 56, 1996, Lemma 3.8) at 2, where phi also
    scales the Neron differentials: the 2-adic torsor walker against Tate's
    algorithm at 2, with no oracle.  On 3,000 seeded (A, B), 2,000 with
    |A|, |B| <= 300 and 1,000 with |A|, |B| <= 10^6, each shifted by up to
    8 and 16 bits, and on the selmer-walk golden curves."""
    rng = random.Random(18)
    curves = [(-1, 3584), (2, 1024), (3, -5120), (23, 1058), (46, -1587), (29, 1682), (62, -2883), (124, 6727)]
    for count, bound in ((2000, 300), (1000, 10**6)):
        while count:
            A = rng.randint(-bound, bound) << rng.randint(0, 8)
            B = rng.randint(-bound, bound) << rng.randint(0, 16)
            if B and A * A != 4 * B:
                curves.append((A, B))
                count -= 1
    for A, B in curves:
        assert 1 << len(_image_at_place(A, B, 2)) == two_adic_index(A, B), (A, B)


def test_point_search_examples():
    from twodescent.polyq import Poly, eval_at

    pts = point_search(0, 1, 10)
    assert any(p.x == 0 and p.y == 0 for p in pts)

    # rank-4 family at t = 3: all four specialized generators are found
    T = Poly.x()
    t = Fraction(3)
    A, B, u = integral_model(*specialize(family_by_name("rank4").E, t))
    pts = point_search(A, B, 64)
    xs = {p.x / u**2 for p in pts}
    for xpoly in (
        14 * (T * T - 121),
        2 * (T - 11) * (T - 25),
        14 * (T * T - 625),
        8 * (T + 11) * (T + 25),
    ):
        assert eval_at(xpoly, t) in xs


def test_point_search_rank0_finds_no_infinite_order():
    # rank-0 family at an accepted t: exhaustive small search certifies rank 0
    (A, B), (Ad, Bd) = integral_sides(specialize(family_by_name("rank0").E, 2))
    pts = point_search(A, B, 200)
    rs = rank_bounds(descend(A, B), pts, point_search(Ad, Bd, 200))
    assert rs.kind == "determined" and rs.value == 0


def assert_point_search_matches_box(A, B, H) -> list:
    """point_search(A, B, H) returns exactly the points of a plain box search
    over |u|, v <= H on the reduced model, moved back to (A, B); returns them."""
    A1, B1, s = _reduced_model(A, B, 1, ())
    expected = [(x / s**2, y / s**3) for x, y in oracle_box_points(A1, B1, H)]
    found = [(P.x, P.y) for P in point_search(A, B, H)]
    assert found == expected, (A, B, H)
    return found


def test_point_search_matches_box_on_grid():
    assert point_search(0, -25, 0) == point_search(0, -25, -1) == []
    found = []
    for a in range(-20, 21):
        for b in range(-20, 21):
            if b != 0 and a * a != 4 * b:
                for C in ((a, b), (-2 * a, a * a - 4 * b)):
                    for H in (1, 7, 30):
                        found += assert_point_search_matches_box(*C, H)
    assert len(found) == 17636
    assert sum(x < 0 for x, _ in found) == 2748


def test_point_search_matches_box_at_bounds_0_and_1():
    """At bound 1 the search returns (0, 0), which it emits without sieving
    u = 0, and the points with u = +-1, v = 1; at bound 0 it returns none."""
    found = []
    for a, b in ((0, -25), (0, 1), (-1, -2), (3, 2), (-2 * 999_999, 999_999**2 - 4), (10**6, -(10**6))):
        for C in ((a, b), (-2 * a, a * a - 4 * b)):
            assert assert_point_search_matches_box(*C, 0) == []
            found += assert_point_search_matches_box(*C, 1)
    assert found.count((0, 0)) == 12
    assert len(found) > 12


def test_point_search_matches_box_on_fibers():
    found = 0
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        for m, n in enumerate_heights(6):
            if Fraction(m, n) not in bad:
                for C in integral_sides(specialize(rec.E, Fraction(m, n))):
                    found += len(assert_point_search_matches_box(*C, 32))
    assert found == 1400


def fibers_at_128() -> list:
    """(family record, t) for a fixed slice of the height <= 20 fibers of
    the five families, the corpus of the searches at the rank_search bound
    128."""
    fibers = []
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        bad = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
        fibers += [(rec, Fraction(m, n)) for m, n in enumerate_heights(20)[7::40] if Fraction(m, n) not in bad]
    return fibers


def fiber_slice_at_128() -> list[tuple[Fraction, Fraction]]:
    """The curves of `fibers_at_128`."""
    return [specialize(rec.E, t) for rec, t in fibers_at_128()]


def test_point_search_matches_box_on_fibers_at_128():
    """A fixed slice of the height <= 20 fibers, at the rank_search bound."""
    found = 0
    for Et in fiber_slice_at_128():
        for C in integral_sides(Et):
            found += len(assert_point_search_matches_box(*C, 128))
    assert found == 573


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool))
def test_point_search_matches_box_on_large_coefficients(a, b):
    assume(a * a != 4 * b)
    assert_point_search_matches_box(a, b, 128)
    assert_point_search_matches_box(-2 * a, a * a - 4 * b, 128)


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
    calls = [(0, -25, 64), (10**6 - 3, -(10**6) + 7, 128)]
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        for t in (Fraction(3), Fraction(-7, 5), Fraction(13, 4)):
            E_side, dual_side = integral_sides(specialize(family_by_name(name).E, t))
            calls += [(*E_side, 32), (*dual_side, 128)]
    runs = []
    for order in (calls, calls[::-1]):
        monkeypatch.setattr(descent, "_PATTERNS", fresh_patterns())
        runs.append([point_search(A, B, H) for A, B, H in order])
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
    assert_point_search_matches_box(a, b, H)
    assert_point_search_matches_box(-2 * a, a * a - 4 * b, H)


SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)  # the primes of _SIEVE_MODULI


def test_coprime_mask_matches_gcd():
    for v_max in (1, 2, 23, 128):
        for n in range(1, 400):
            expected = sum(1 << v for v in range(1, v_max + 1) if math.gcd(n, v) == 1)
            assert _coprime_mask(n, v_max) == expected, (n, v_max)


def assert_covering_points_match_loop(A, B, d, s_max, v_max) -> list:
    found = list(_covering_points(A, B, d, s_max, v_max))
    assert found == oracle_covering_points(A, B, d, s_max, v_max), (A, B, d, s_max, v_max)
    return found


def test_covering_points_when_a_sieve_prime_divides_d():
    """d = +-p k for every prime p of a sieve modulus: the triple (d s^4, A s^2,
    B/d) is not 0 mod p, and the coprime mask drops the v divisible by p."""
    hits = {p: 0 for p in SIEVE_PRIMES}
    for p in SIEVE_PRIMES:
        for d in (p, -p, 3 * p, -2 * p):
            for A in range(-6, 7):
                for e in (-7, -4, -2, -1, 1, 3, 4, 9):
                    hits[p] += len(assert_covering_points_match_loop(A, d * e, d, 4, 40))
    assert all(hits.values()), hits


@st.composite
def coverings(draw):
    """(A, B, d, s_max, v_max): d a multiple of a sieve prime, B = d e, and
    one of three kinds: a planted point (s0, 1, w0) whose multiples (k s0, k)
    also solve the quartic, so the gcd condition decides them; a covering
    with d < 0 and B/d < 0 on either side of the definite boundary; or a
    random one."""
    d = draw(st.sampled_from(SIEVE_PRIMES)) * draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["planted", "negative", "random"]))
    if kind == "planted":
        s0, w0, A = draw(st.integers(1, 3)), draw(st.integers(0, 60)), draw(st.integers(-50, 50))
        e = w0 * w0 - d * s0**4 - A * s0 * s0
        assume(e != 0)
    elif kind == "negative":
        d, e, A = -abs(d), -draw(st.integers(1, 40)), draw(st.integers(-40, 80))
    else:
        e, A = draw(st.integers(-500, 500).filter(bool)), draw(st.integers(-500, 500))
    return A, d * e, d, draw(st.integers(1, 8)), draw(st.integers(1, 48))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coverings())
def test_covering_points_match_naive_loop(cov):
    assert_covering_points_match_loop(*cov)


def test_covering_points_at_the_definite_boundary():
    """d < 0, B/d < 0 and A^2 = 4 d (B/d): the quartic is -|d| (S^2 - r V^2)^2,
    negative except on a line, and its w = 0 points are found (the model
    y^2 = x (x + A/2)^2 is singular, so only the covering is tested)."""
    for A, d, e, expected in (
        (2, -1, -1, [(1, 1, 0)]),
        (4, -2, -2, [(1, 1, 0)]),
        (8, -4, -4, [(1, 1, 0)]),
        (8, -1, -16, [(2, 1, 0)]),
        (6, -9, -1, []),  # S^2 = V^2 / 3 has no rational point
    ):
        assert A * A == 4 * d * e
        assert assert_covering_points_match_loop(A, d * e, d, 4, 16) == expected
    # just inside the definite region there is nothing, just outside there is
    assert assert_covering_points_match_loop(1, 1, -1, 4, 16) == []
    assert assert_covering_points_match_loop(3, 1, -1, 4, 16) != []


@st.composite
def curves_with_sieve_primes_in_b(draw):
    """(a, b, H): b divisible by two sieve primes, so that coverings d with a
    sieve prime are searched; H in {0, 1, 2, 128}."""
    b = draw(st.sampled_from(SIEVE_PRIMES)) * draw(st.sampled_from(SIEVE_PRIMES)) * draw(st.integers(-300, 300).filter(bool))
    a = draw(st.integers(-300, 300))
    assume(a * a != 4 * b)
    return a, b, draw(st.sampled_from([0, 1, 2, 128]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(curves_with_sieve_primes_in_b())
def test_point_search_matches_box_at_small_and_bench_bounds(abh):
    a, b, H = abh
    assert_point_search_matches_box(a, b, H)
    assert_point_search_matches_box(-2 * a, a * a - 4 * b, H)


def test_rank_bounds_statuses():
    with pytest.raises(ValueError):
        RankStatus(2, 1)
    assert RankStatus(1, 1).kind == "determined"
    assert RankStatus(0, 2).kind == "bounded"

    # Sel dims (1,1) and only 2-torsion: determined 0
    rs = rank_bounds(descend(0, -1))
    assert rs.kind == "determined" and rs.value == 0

    # a curve with Selmer gap stays bounded without points
    rs2 = rank_bounds(descend(0, -25))
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
    D = descend(0, -25)
    los = []
    for bound in (0, 10, 60):
        pts = point_search(0, -25, bound) if bound else []
        ptsd = point_search(0, 100, bound) if bound else []
        los.append(rank_bounds(D, pts, ptsd).lo)
    assert los == sorted(los)
    # Selmer dims are independent of the search bound
    assert len(descend(0, -25).phi) == len(D.phi)


def assert_search_skip_changes_nothing(D, pts, ptsd, H):
    """rank_bounds searching only the sides its points leave open equals
    rank_bounds given both sides' full search."""
    A, B = D.A, D.B
    full = rank_bounds(D, pts + point_search(A, B, H), ptsd + point_search(-2 * A, A * A - 4 * B, H))
    assert rank_bounds(D, pts, ptsd, H) == full, (A, B, H)


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
            A, B, u = integral_model(*specialize(rec.E, t))
            # x -> u^2 x, y -> u^3 y moves the points onto the integral sides
            pts, ptsd = (
                [AffinePoint.of(eval_at(P.x, t) * u**2, eval_at(P.y, t) * u**3) for P in points]
                for points in (rec.points_e, rec.points_eprime)
            )
            assert_search_skip_changes_nothing(descend(A, B), pts, ptsd, 32)
            checked += 1
    assert checked > 200


def test_rank_bounds_search_skip_on_seeded_curves():
    rng = random.Random(14)
    for _ in range(40):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if b == 0 or a * a == 4 * b:
            continue
        assert_search_skip_changes_nothing(descend(*integral_model(a, b)[:2]), [], [], 128)


def test_rank_bounds_searches_only_open_sides(monkeypatch):
    """y^2 = x^3 + 2x has Selmer dims (1, 1), both filled by (0,0): no search.
    On y^2 = x^3 - x, (0,0) fills the E side only; the dual y^2 = x^3 + 4x
    needs its 4-torsion point (2, 4), so that side alone is searched.
    y^2 = x^3 - 25x stays bounded without points, so it is searched."""
    calls = []

    def counted(A, B, d, s_max, v_max):
        calls.append((A, B, d, s_max, v_max))
        return _covering_points(A, B, d, s_max, v_max)

    monkeypatch.setattr(descent, "_covering_points", counted)
    assert rank_bounds(descend(0, 2), search_bound=32) == RankStatus(0, 0)
    assert calls == []
    assert rank_bounds(descend(0, -1), search_bound=32) == RankStatus(0, 0)
    assert calls and {C[:2] for C in calls} == {(0, 4)}
    assert rank_bounds(descend(0, -25), search_bound=32) == RankStatus(1, 1)
    assert len(calls) > 2
    # two calls on one descent search each (side, bound, d) once, and it
    # keeps each searched covering's first point, or None, by d
    D, before = descend(0, -25), len(calls)
    for _ in range(2):
        assert rank_bounds(D, search_bound=32) == RankStatus(1, 1)
    searched = calls[before:]
    assert searched and len(searched) == len(set(searched)) == sum(map(len, D.searches.values()))
    assert sorted(D.searches) == [(0, 32), (1, 32)]
    for (side, H), found in D.searches.items():
        box = point_search(*[(0, -25), (0, 100)][side], H)
        assert any(found.values()) and all(P is None or P in box for P in found.values())
    assert D == descend(0, -25)  # the searches take no part in equality
    with pytest.raises(ValueError):
        rank_bounds(descend(0, -25), search_bound=-1)


def assert_walk_spans_the_box(D, pts, ptsd, H) -> int:
    """rank_bounds at H, on a copy of D that keeps no searches yet, gives
    each side the span of its x-box: (0,0), the given points and the first
    points its covering walk keeps span what (0,0), the given points and
    every point of `point_search` span, and its lower bound is the one
    those dims give.  Returns the number of coverings searched."""
    D = dataclasses.replace(D)
    rank = rank_bounds(D, pts, ptsd, H)
    A, B, gens = D.A, D.B, D.gens
    dims = []
    for side, (a, b), given in ((0, (A, B), pts), (1, (-2 * A, A * A - 4 * B), ptsd)):
        kept = [P for P in D.searches.get((side, H), {}).values() if P is not None]
        walked = f2_echelon([_class_vector(b, gens)] + [_point_vector(b, P, gens) for P in [*given, *kept]])
        boxed = f2_echelon([_class_vector(b, gens)] + [_point_vector(b, P, gens) for P in [*given, *point_search(a, b, H)]])
        assert walked == boxed, (A, B, side, H)
        dims.append(len(walked))
    assert rank.lo == max(sum(dims) - 2, 0), (A, B, H)
    return sum(map(len, D.searches.values()))


@st.composite
def curves_with_given_points(draw):
    """(A, B, H, pts, ptsd): the integral model of a curve with |a|, |b| <=
    300, a bound H in {0, 1, 32, 128}, and on each side up to three of its
    points at bound 16, which put their coverings in the span."""
    a, b = draw(st.integers(-300, 300)), draw(st.integers(-300, 300).filter(bool))
    assume(a * a != 4 * b)
    A, B, _ = integral_model(a, b)
    given = [draw(st.lists(st.sampled_from(point_search(*side, 16)), max_size=3)) for side in ((A, B), (-2 * A, A * A - 4 * B))]
    return A, B, draw(st.sampled_from([0, 1, 32, 128])), *given


@settings(derandomize=True, max_examples=80, deadline=None)
@given(curves_with_given_points())
def test_rank_bounds_walk_spans_the_box_on_random_curves(case):
    A, B, H, pts, ptsd = case
    assert_walk_spans_the_box(descend(A, B), pts, ptsd, H)


def test_rank_bounds_walk_spans_the_box_on_fibers_at_128():
    """The fibers-at-128 corpus, with and without its specialized generic
    points; the points spare the walk some coverings."""
    searched = {False: 0, True: 0}
    for rec, t in fibers_at_128():
        A, B, u = integral_model(*specialize(rec.E, t))
        D = descend(A, B)
        # x -> u^2 x, y -> u^3 y moves the points onto the integral sides
        pts, ptsd = (
            [AffinePoint.of(eval_at(P.x, t) * u**2, eval_at(P.y, t) * u**3) for P in points]
            for points in (rec.points_e, rec.points_eprime)
        )
        for H in (0, 1, 32, 128):
            searched[False] += assert_walk_spans_the_box(D, [], [], H)
            searched[True] += assert_walk_spans_the_box(D, pts, ptsd, H)
    assert 0 < searched[True] < searched[False], searched


def test_rank_bounds_walk_spans_the_box_on_rank_cli_cases():
    """The curves and points of tests/data/rank-cli.jsonl, moved onto the
    integral sides as the rank command moves them."""
    from test_cli import GOLDEN_CLI

    for argv in GOLDEN_CLI["rank-cli.jsonl"]:
        args = cli._parser().parse_args(argv)
        A, B, u = integral_model(*args.curve)
        pts, ptsd = ([AffinePoint.of(P.x * u * u, P.y * u**3) for P in side] for side in args.points or ([], []))
        for H in (0, 1, 32, 128):
            assert_walk_spans_the_box(descend(A, B), pts, ptsd, H)
            assert_walk_spans_the_box(descend(A, B), [], [], H)


def test_class_vectors_match_delta_class_on_fibers_at_128():
    """On every point of the fibers-at-128 corpus, and on (0, 0), the class
    vector over the descent's generators names the class of
    `oracles.delta_class_q`, and both give the same span dimension on each
    side."""
    points = 0
    for Et in fiber_slice_at_128():
        sides = integral_sides(Et)
        gens = descend(*sides[0]).gens
        for a, b in sides:
            pts = [AffinePoint.of(Fraction(0), Fraction(0))] + point_search(a, b, 128)
            vecs = [_point_vector(b, P, gens) for P in pts]
            classes = [delta_class_q(a, b, P) for P in pts]
            for v, c in zip(vecs, classes):
                assert math.prod(g for i, g in enumerate(gens) if v >> i & 1) == c.value(), (a, b, v, c)
            assert len(f2_echelon(vecs)) == delta_span_dim_q(classes), (a, b)
            points += len(pts)
    assert points > 573


def test_rank_bounds_catches_a_class_outside_selmer():
    """A Descent of y^2 = x^3 - 25x whose Sel_phi-hat basis <-1, 5> is
    replaced by <-1, 2>: the point (5, 0) has class 5, outside it, while the
    span of (0,0) and (5, 0), <-1, 5>, has dimension 2, the Selmer dimension.
    A dimension check passes it; the membership check raises."""
    D = descend(0, -25)
    P = AffinePoint.of(Fraction(5), Fraction(0))
    assert [c.value() for c in D.classes(D.phi_hat)] == [-1, 5]
    assert rank_bounds(D, [P]) == RankStatus(0, 1)
    bad = dataclasses.replace(D, phi_hat=(0b10, 0b1))  # the echelon masks of <2, -1> over (-1, 2, 5)
    assert [c.value() for c in bad.classes(bad.phi_hat)] == [-1, 2]
    zero = AffinePoint.of(Fraction(0), Fraction(0))
    assert delta_span_dim_q([delta_class_q(0, -25, zero), delta_class_q(0, -25, P)]) <= len(bad.phi_hat)
    with pytest.raises(AssertionError, match="escaped its Selmer group"):
        rank_bounds(bad, [P])
    # a searched point is held to the same test: (-5, 0) and (5, 0) are in the search
    with pytest.raises(AssertionError, match="escaped its Selmer group"):
        rank_bounds(bad, search_bound=8)


def test_class_vector_needs_a_square_cofactor():
    gens = (-1, 2, 5)
    assert _class_vector(Fraction(-45, 4), gens) == 0b101  # -1 * 5 times the square 9/4
    assert _class_vector(Fraction(81 * 5, 16 * 49), gens) == 0b100
    for q in (Fraction(3), Fraction(12), Fraction(-5, 7), Fraction(5, 6)):
        with pytest.raises(AssertionError, match="not supported on the descent's primes"):
            _class_vector(q, gens)
    # an on-curve point whose class needs a prime the descent was told to drop
    D = descend(0, -25)
    P = AffinePoint.of(Fraction(5), Fraction(0))
    with pytest.raises(AssertionError, match="not supported on the descent's primes"):
        rank_bounds(dataclasses.replace(D, odd_support=()), [P])


def test_descend_rejects_coefficients_that_are_not_ints():
    """descend takes the integral model as two ints, as torsor_solvable_at
    does; a Fraction, even an integral one, a float or a string is a
    TypeError, and so is each of them in point_search."""
    for A, B in ((Fraction(1, 2), 1), (0, Fraction(-25)), (1.0, 2), (0, "-25")):
        with pytest.raises(TypeError):
            descend(A, B)
        with pytest.raises(TypeError):
            point_search(A, B, 8)


def test_descend_rejects_singular_models():
    """B = 0 or A^2 = 4B raises SingularModelError before anything is
    factored (factor(0) would raise its own "cannot factor 0")."""
    for A, B in ((3, 0), (0, 0), (2, 1), (-6, 9), (10**6, 25 * 10**10)):
        with pytest.raises(SingularModelError):
            descend(A, B)
        with pytest.raises(SingularModelError):
            point_search(A, B, 8)


def test_rank_bounds_rejects_a_point_off_its_curve():
    D = descend(0, -25)
    with pytest.raises(OffCurveError):
        rank_bounds(D, [AffinePoint.of(Fraction(5), Fraction(1))])
    with pytest.raises(OffCurveError):
        rank_bounds(D, (), [AffinePoint.of(Fraction(-4), Fraction(6))])


def test_selmer_pair_shares_support():
    D = descend(259, -7000)
    assert D.cassels_ok
    assert len(D.phi_hat) == 2 and len(D.phi) == 2
    support = {p for c in D.classes(D.phi) + D.classes(D.phi_hat) for p in c.support}
    assert support <= {2, *D.odd_support}
    # oracle-verified values for this curve
    assert selmer_values(D, D.phi) == [1, 119, 329, 799]
    assert selmer_values(D, D.phi_hat) == [1, 2, -35, -70]
