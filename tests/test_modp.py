from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent.arith import smallest_nonresidue
from twodescent.descent import _fp_analysis
from twodescent.modp import count_roots, split_part


def brute_roots(f, p):
    return [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]


def mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def monic_from_roots(roots, p):
    out = [1]
    for r in roots:
        out = mul(out, [-r % p, 1], p)
    return out


def brute_fp_analysis(f, p):
    """(simple root exists, sorted multiple roots, nonzero square value exists)
    of f mod p, read off a sweep of F_p."""
    df = [i * c for i, c in enumerate(f)][1:]
    roots = brute_roots(f, p)
    multiple = [r for r in roots if sum(c * r**i for i, c in enumerate(df)) % p == 0]
    squares = {x * x % p for x in range(1, p)}
    values = {sum(c * x**i for i, c in enumerate(f)) % p for x in range(p)}
    return len(multiple) < len(roots), multiple, bool(values & squares)


@st.composite
def even_polys(draw, p):
    """f(X) = h(X^2) mod p, f not constant, h = c0 + c2 Y + c4 Y^2 of one of
    four shapes: c0 = 0 (X^2 divides f), c4 = 0 (degree 2), c (Y - y)^2 (a
    double root of h) or c (Y - n)(Y - y) with n a non-residue, whose square
    roots are not in F_p.  y is drawn from a few values so that it is often
    0, a residue or a non-residue."""
    coeff = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    y = draw(st.sampled_from([0, 1, 4, p - 1]) | coeff)
    shape = draw(st.sampled_from(["c0 = 0", "c4 = 0", "double root", "non-residue root"][: 3 if p == 2 else 4]))
    if shape == "c0 = 0":
        h = [0, draw(coeff), draw(coeff)]
    elif shape == "c4 = 0":
        h = [draw(coeff), draw(unit)]
    elif shape == "double root":
        h = mul([draw(unit)], mul([-y % p, 1], [-y % p, 1], p), p)
    else:
        n = smallest_nonresidue(p) * draw(unit) ** 2 % p
        h = mul([draw(unit)], mul([-n % p, 1], [-y % p, 1], p), p)
    f = [c for hc in h for c in (hc, 0)][:-1]
    while f and f[-1] == 0:
        f.pop()
    return f if len(f) > 1 else [0, 0, 1]


@st.composite
def polys_mod_p(draw):
    """(f, p): f reduced mod p with a nonzero top coefficient and degree <= 4.
    A quarter are random; a quarter are c * prod (X - r_i), roots drawn from a
    few values so that they repeat, times a random factor that fills the
    degree up to at most 4; a quarter are c * h^2 with h monic of degree 1 or
    2, which at odd p includes the irreducible X^2 - n for a non-residue n;
    a quarter are even in X (`even_polys`)."""
    p = draw(st.sampled_from([2, 3, 5, 23, 29, 101, 1009]))
    coeff = st.integers(0, p - 1)
    shape = draw(st.sampled_from(["random", "roots", "scaled square", "even"]))
    if shape == "random":
        f = draw(st.lists(coeff, min_size=1, max_size=5))
    elif shape == "roots":
        roots = draw(st.lists(st.sampled_from([0, 1, 5, 7, p - 1]), min_size=1, max_size=4))
        rest = draw(st.lists(coeff, min_size=1, max_size=5 - len(roots)))
        f = mul(monic_from_roots(roots, p), rest, p)
    elif shape == "scaled square":
        non_residues = sorted(set(range(1, p)) - {x * x % p for x in range(p)})
        h = draw(st.lists(coeff, min_size=1, max_size=2)) + [1]
        if non_residues and draw(st.booleans()):
            h = [-draw(st.sampled_from(non_residues)) % p, 0, 1]
        f = mul([draw(st.integers(1, p - 1))], mul(h, h, p), p)
    else:
        f = draw(even_polys(p))
    while f and f[-1] == 0:
        f.pop()
    f = f or [draw(st.integers(1, p - 1))]
    return f, p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(polys_mod_p())
def test_split_part_and_count_roots_match_brute_force(fp):
    f, p = fp
    roots = brute_roots(f, p)
    assert split_part(f, p) == monic_from_roots(roots, p), (f, p)
    assert count_roots(f, p) == len(roots), (f, p)
    if p > 2:
        assert _fp_analysis(f, p) == brute_fp_analysis(f, p), (f, p)
