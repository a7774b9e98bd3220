from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import oracle_selmer
from twodescent.curve import integral_model


def random_small_curves(count: int, coeff_bound: int, seed: int) -> list[tuple[int, int]]:
    """Random integral curves y^2 = x^3 + ax^2 + bx, as pairs (a, b), with |a|, |b| <= bound."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(-coeff_bound, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        if b == 0 or a * a == 4 * b:
            continue
        out.append((a, b))
    return out


@pytest.fixture(scope="session")
def small_curve_corpus():
    return random_small_curves(30, 20, seed=20260810)


@pytest.fixture(scope="session")
def oracle_selmer_corpus(small_curve_corpus):
    """(E, A, B, Sel of (A, B), Sel of (-2A, A^2-4B)) for each corpus curve,
    on its integral model (A, B), from the brute-force oracle; the oracle is
    the slowest part of the suite, so it runs once per session."""
    out = []
    for E in small_curve_corpus:
        A, B, _ = integral_model(*E)
        out.append((E, A, B, oracle_selmer(A, B), oracle_selmer(-2 * A, A * A - 4 * B)))
    return out
