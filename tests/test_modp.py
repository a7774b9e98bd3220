from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def polys_mod_p(draw):
    """(f, p): f reduced mod p with a nonzero top coefficient and degree <= 4;
    half are c * prod (X - r_i), roots drawn from a few values so that they
    repeat, times a random factor that fills the degree up to at most 4."""
    p = draw(st.sampled_from([23, 29, 101, 1009]))
    coeff = st.integers(0, p - 1)
    if draw(st.booleans()):
        f = draw(st.lists(coeff, min_size=1, max_size=5))
    else:
        roots = draw(st.lists(st.sampled_from([0, 1, 5, 7, p - 1]), min_size=1, max_size=4))
        rest = draw(st.lists(coeff, min_size=1, max_size=5 - len(roots)))
        f = mul(monic_from_roots(roots, p), rest, p)
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
