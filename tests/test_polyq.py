import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ft_class_product, oracle_rational_roots, poly_to_json
from twodescent.arith import SquareClassQ
from twodescent.family import builtin_families, family_by_name
from twodescent.polyq import (
    Poly,
    SingularModelError,
    UnsupportedClassError,
    eval_at,
    ft_square_class,
    model_discriminant,
    poly_from_json,
    rational_roots,
    splits_linearly,
)

T = Poly.x()


def rand_poly(rng, deg, bound=9, den=4):
    return Poly([Fraction(rng.randint(-bound, bound), rng.randint(1, den)) for _ in range(deg + 1)])


def test_eval_examples():
    rank0_disc = model_discriminant(Poly.const(2), T)
    assert eval_at(rank0_disc, 1) == 0
    assert eval_at(Poly(), 17) == 0
    assert eval_at(T * T - 121, 39) == 1400  # (39-11)(39+11) = 28*50


def test_eval_is_ring_homomorphism():
    """On small polynomials, then on wider ones (degree up to 12) whose
    coefficients have large, mostly different denominators."""
    rng = random.Random(10)
    for deg, bound, den in ((4, 9, 4), (12, 10**6, 10**4)):
        for _ in range(500):
            f = rand_poly(rng, rng.randint(0, deg), bound, den)
            g = rand_poly(rng, rng.randint(0, deg), bound, den)
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            assert eval_at(f + g, t) == eval_at(f, t) + eval_at(g, t)
            assert eval_at(f * g, t) == eval_at(f, t) * eval_at(g, t)
            assert eval_at(f.shift(c), t) == eval_at(f, t + c)


def test_rational_roots_examples():
    d0 = model_discriminant(Poly.const(2), T)
    assert rational_roots(d0) == [(Fraction(0), 2), (Fraction(1), 1)]
    rec4 = family_by_name("rank4")
    roots4 = rational_roots(model_discriminant(rec4.E.a, rec4.E.b))
    assert roots4 == [
        (Fraction(-39), 1),
        (Fraction(-25), 3),
        (Fraction(-11), 2),
        (Fraction(11), 2),
        (Fraction(25), 3),
        (Fraction(39), 1),
    ]
    assert rational_roots(T * T + 1) == []
    with pytest.raises(ValueError):
        rational_roots(Poly())


@st.composite
def split_times_irreducible(draw):
    """(f, splits): a rational content times products of (n T - m)^k with
    |m| <= 10, 1 <= n <= 5, k <= 3, sometimes times T^k, and sometimes
    times T^2 + c or T^3 - c with c >= 1, which have no linear factor over Q
    apart from T - c^(1/3) for a cube c; splits says whether f splits."""
    f = Poly.const(Fraction(draw(st.integers(-30, 30).filter(bool)), draw(st.integers(1, 12))))
    for _ in range(draw(st.integers(0, 3))):
        m, n = draw(st.integers(-10, 10)), draw(st.integers(1, 5))
        f = f * Poly([-m, n]) ** draw(st.integers(1, 3))
    f = f * T ** draw(st.sampled_from([0, 0, 1, 2, 3]))
    extra = draw(st.sampled_from(["", "", "quadratic", "cubic"]))
    c = draw(st.integers(1, 30))
    if extra == "quadratic":
        f = f * (T * T + c)
    elif extra == "cubic":
        f = f * (T**3 - c)
    return f, not extra


@settings(derandomize=True, max_examples=400, deadline=None)
@given(split_times_irreducible())
def test_rational_roots_match_divisor_oracle(case):
    f, splits = case
    assert rational_roots(f) == oracle_rational_roots(f.coeffs), f
    assert splits_linearly(f) == splits, f


def test_splits_linearly():
    rec3 = family_by_name("rank3")
    assert splits_linearly(model_discriminant(rec3.E.a, rec3.E.b))
    assert not splits_linearly(T * T + 1)
    assert splits_linearly(Poly.const(5))


def test_model_discriminant_examples():
    assert model_discriminant(Poly.const(2), T) == -64 * T * T * (T - 1)
    d2 = model_discriminant(10 * (T + 16), 9 * T * (T + 16))
    assert d2 == 2**10 * 3**4 * T * T * (T + 16) ** 3 * (T + 25)
    assert model_discriminant(Poly.const(0), Poly.const(-1)) == Poly.const(64)
    with pytest.raises(SingularModelError):
        model_discriminant(Poly.const(2), Poly.const(1))  # a^2 = 4b
    with pytest.raises(SingularModelError):
        model_discriminant(T, Poly())


def test_discriminants_match_printed_polynomials():
    # the fixture stores the printed factored forms; the formulas must
    # reproduce them exactly for every family
    for rec in builtin_families():
        assert model_discriminant(rec.E.a, rec.E.b) == rec.disc_expected
        assert model_discriminant(rec.dual.a, rec.dual.b) == rec.disc_dual_expected


def test_ft_square_class_examples():
    c = ft_square_class(14 * (T - 11) * (T + 11))
    assert c.constant == SquareClassQ(1, (2, 7)) and c.roots == (Fraction(-11), Fraction(11))
    assert ft_square_class(9 * (T - 2) * (T - 2)).is_identity
    c2 = ft_square_class(9 * T * (T + 16))
    assert c2.constant.is_identity and c2.roots == (Fraction(-16), Fraction(0))
    with pytest.raises(UnsupportedClassError):
        ft_square_class(T * T + 1)


def test_ft_square_class_mod_squares():
    rng = random.Random(11)
    for _ in range(100):
        roots_f = [rng.randint(-6, 6) for _ in range(rng.randint(0, 3))]
        roots_g = [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))]
        cf = rng.choice([1, -1]) * rng.randint(1, 30)
        cg = rng.choice([1, -1]) * rng.randint(1, 12)
        f = Poly.const(cf)
        for r in roots_f:
            f = f * Poly.monic_linear(r)
        g = Poly.const(cg)
        for r in roots_g:
            g = g * Poly.monic_linear(r)
        assert ft_square_class(f * g * g) == ft_square_class(f)


def test_ft_class_group_law():
    """The class of f g is the product of the classes of f and g: the
    constants' classes multiply and the odd roots add mod 2."""
    assert ft_square_class(2 * (T - 1) * 3 * (T - 1) * (T + 4)) == ft_square_class(6 * (T + 4))
    rng = random.Random(12)

    def split_poly():
        f = Poly.const(rng.choice([1, -1]) * rng.randint(1, 30))
        for _ in range(rng.randint(0, 3)):
            f = f * Poly.monic_linear(rng.randint(-6, 6))
        return f

    for _ in range(100):
        f, g = split_poly(), split_poly()
        assert ft_square_class(f * g) == ft_class_product(ft_square_class(f), ft_square_class(g)), (f, g)


def test_poly_json_roundtrip():
    f = Poly([Fraction(1, 2), 0, Fraction(-3)])
    assert poly_from_json(poly_to_json(f)) == f
    assert poly_to_json(f)[0] == "1/2"


def test_divmod_and_gcd():
    f = (T - 1) * (T - 2) * (T + 3)
    q, r = f.divmod(T - 2)
    assert r.is_zero and q == (T - 1) * (T + 3)
    assert f.gcd((T - 2) * (T + 7)) == T - 2


def _golden_root_polys():
    """(label, f): the discriminant, dual discriminant, b and a^2-4b of each
    family, each also as f(T + e) at each finite bad place e and reversed
    (T^deg f(1/T), the view from infinity); 600 seeded products of
    (T - m/n)^k with |m| <= 10^6 and n <= 10^4, some times T^k, T^2 + c or
    T^3 - c; and prod (T - r), r = 0..39, whose roots mod p collide for
    every p <= 37."""
    out = []
    for rec in builtin_families():
        E = rec.E
        polys = {
            "disc": model_discriminant(E.a, E.b),
            "dual-disc": model_discriminant(rec.dual.a, rec.dual.b),
            "b": E.b,
            "b-dual": E.b_dual,
        }
        places = sorted({r for r, _ in rational_roots(polys["disc"])})
        for name, f in polys.items():
            out.append((f"{rec.name} {name}", f))
            for e in places:
                out.append((f"{rec.name} {name} shifted by {e}", f.shift(e)))
            out.append((f"{rec.name} {name} reversed", f.reverse_pad(f.degree)))
    rng = random.Random(20261018)
    for i in range(600):
        f = Poly.const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**3)))
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            f = f * Poly.monic_linear(root) ** rng.randint(1, 3)
        extra = rng.randrange(4)
        if extra == 1:
            f = f * T ** rng.randint(1, 3)
        elif extra == 2:
            f = f * (T * T + rng.randint(1, 10**6))
        elif extra == 3:
            f = f * (T**3 - rng.randint(2, 10**6))
        out.append((f"seeded {i}", f))
    f = Poly.const(1)
    for r in range(40):
        f = f * Poly.monic_linear(r)
    out.append(("prod T-r r=0..39", f))
    return out


def _rational_roots_lines():
    """One line per polynomial of _golden_root_polys: its label, then its
    rational roots as root:multiplicity, ascending.

    tests/data/rational-roots.txt holds its output, written while the roots
    were read off sympy's factorization over Q."""
    lines = []
    for label, f in _golden_root_polys():
        roots = "".join(f" {r}:{m}" for r, m in rational_roots(f))
        lines.append(f"{label} |{roots}\n")
    return lines


def test_rational_roots_match_golden_file():
    golden = Path(__file__).parent / "data" / "rational-roots.txt"
    assert "".join(_rational_roots_lines()) == golden.read_text()
