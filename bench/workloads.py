"""Seeded inputs, in-process CLI calls and reference checks for the benchmark.

Every workload drives the program through ``twodescent.cli.main(argv)``,
the interface users call, and turns each printed result into item
outcomes: an item (a fiber record in ``scan``, a curve in ``selmer_q``
and ``rank_search``) fails when its call raises, when it is recorded as
skipped, when an invariant of its output does not hold, or when it
disagrees with the stored reference.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
FAMILY_DATA = ROOT / "src" / "twodescent" / "data" / "families.json"

FAMILIES = ("rank0", "rank1", "rank2", "rank3", "rank4")
SCAN_HEIGHT = 12
SELMER_COEFF_BOUND = 10**6
RANK_T_HEIGHT = 20
RANK_SEARCH_BOUND = 128
RANK_STRATA = 50  # height strata per family in the rank_search order
DEFAULT_SEED = 0


class ProgramError(Exception):
    """A CLI call exited with a nonzero status or by argparse's SystemExit."""


def call_cli(main, argv: list[str]) -> str:
    """Run ``main(argv)`` in-process and return what it printed."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        raise ProgramError(f"{argv[0]} exited with {exc.code}") from None
    if rc != 0:
        raise ProgramError(f"{argv[0]} returned {rc}")
    return buf.getvalue()


def curve_json(a: Fraction, b: Fraction) -> str:
    a, b = Fraction(a), Fraction(b)
    return json.dumps(
        {"domain": "Q", "a": f"{a.numerator}/{a.denominator}", "b": f"{b.numerator}/{b.denominator}"},
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def selmer_inputs(seed: int, count: int) -> list[tuple[int, int]]:
    """Integral (a, b), |a|, |b| <= 10^6, b != 0, a^2 != 4b.

    The bound keeps b(a^2-4b) below 3.3e24, the range where the program's
    Miller-Rabin primality test is proven deterministic.
    """
    rng = random.Random(f"selmer_q/{seed}")
    out = []
    while len(out) < count:
        a = rng.randint(-SELMER_COEFF_BOUND, SELMER_COEFF_BOUND)
        b = rng.randint(-SELMER_COEFF_BOUND, SELMER_COEFF_BOUND)
        if b != 0 and a * a != 4 * b:
            out.append((a, b))
    return out


def _horner(coeffs: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def family_fibers() -> dict[str, list[tuple[str, Fraction, Fraction, Fraction]]]:
    """(family, t, a(t), b(t)) for every nonsingular fiber with height(t) <= 20,
    ordered by the height of t.

    Read from the shipped family data, so the program takes part only in
    descending the fibers, not in building them.
    """
    data = json.loads(FAMILY_DATA.read_text())
    out = {}
    for fam in data["families"]:
        a = [Fraction(c) for c in fam["a"]]
        b = [Fraction(c) for c in fam["b"]]
        fibers = []
        for m in range(-RANK_T_HEIGHT, RANK_T_HEIGHT + 1):
            for n in range(1, RANK_T_HEIGHT + 1):
                if math.gcd(m, n) != 1:
                    continue
                t = Fraction(m, n)
                at, bt = _horner(a, t), _horner(b, t)
                if bt != 0 and at * at != 4 * bt:
                    fibers.append((fam["name"], t, at, bt))
        fibers.sort(key=lambda f: (max(abs(f[1].numerator), f[1].denominator), f[1]))
        out[fam["name"]] = fibers
    return out


def _round_robin(lists: list[list]) -> list:
    """First elements of every list, then second elements, and so on."""
    return [x[i] for i in range(max(map(len, lists))) for x in lists if i < len(x)]


def rank_inputs(seed: int) -> list[tuple[str, Fraction, Fraction, Fraction]]:
    """Every fiber once, in a seeded order, families taken round-robin.

    Each family's fibers, ordered by height, are cut into RANK_STRATA equal
    strata, and each sweep of the order draws one fiber from every
    stratum.  The cost of a fiber grows with its height, so any prefix a
    run gets through has the same mix of heights, whatever the seed.
    """
    rng = random.Random(f"rank_search/{seed}")
    orders = []
    for fibers in family_fibers().values():
        edges = [len(fibers) * i // RANK_STRATA for i in range(RANK_STRATA + 1)]
        strata = [fibers[lo:hi] for lo, hi in zip(edges, edges[1:])]
        for stratum in strata:
            rng.shuffle(stratum)
        orders.append(_round_robin(strata))
    return _round_robin(orders)


def rank_key(item) -> str:
    """Reference key of a rank_search input: its curve, whatever its family."""
    _, _, a, b = item
    return f"{a}|{b}"


# ----------------------------------------------------------------------
# invariants and references
# ----------------------------------------------------------------------


def span(basis: list[int]) -> frozenset[int]:
    """All products of a basis of signed squarefree integers, mod squares."""
    out = {1}
    for g in basis:
        out |= {_sqfree_product(s, g) for s in out}
    return frozenset(out)


def _sqfree_product(x: int, y: int) -> int:
    g = math.gcd(x, y)
    return (x // g) * (y // g)


def _class_value(cls: dict) -> int:
    v = cls["sign"]
    for p in cls["support"]:
        v *= p
    return v


def _in_span(q: Fraction, elements: frozenset[int]) -> bool:
    n = q.numerator * q.denominator
    return any(n * s > 0 and math.isqrt(n * s) ** 2 == n * s for s in elements)


def parse_selmer(text: str, a: int, b: int) -> dict:
    """Selmer output as spans; raises ValueError when an invariant fails.

    The 2-torsion point (0, 0) maps to the class of b in Sel_phi-hat and to
    the class of a^2-4b in Sel_phi, so each group must contain it.
    """
    out = json.loads(text)
    res = {}
    for key in ("phi", "phi_hat"):
        basis = [_class_value(c) for c in out[key]["basis"]]
        if out[key]["dim"] != len(basis):
            raise ValueError(f"{key}: dim {out[key]['dim']} but {len(basis)} basis classes")
        res[key] = span(basis)
        if len(res[key]) != 1 << len(basis):
            raise ValueError(f"{key}: basis is not independent")
    if not _in_span(Fraction(b), res["phi_hat"]):
        raise ValueError("class of b missing from Sel_phi-hat")
    if not _in_span(Fraction(a * a - 4 * b), res["phi"]):
        raise ValueError("class of a^2-4b missing from Sel_phi")
    return res


def rank_interval(rank: dict) -> tuple[int, int]:
    if rank["kind"] == "determined":
        return rank["value"], rank["value"]
    lo, hi = rank["lo"], rank["hi"]
    if not 0 <= lo < hi:
        raise ValueError(f"bad rank interval {rank}")
    return lo, hi


def overlaps(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Both intervals are certified to hold the true rank, so they must meet."""
    return max(x[0], y[0]) <= min(x[1], y[1])


def same_record(got: dict, ref: dict) -> bool:
    """Scan records agree field by field; rank intervals need only overlap."""
    if got.keys() != ref.keys():
        return False
    for k in got:
        if k == "rank":
            if not overlaps(rank_interval(got[k]), rank_interval(ref[k])):
                return False
        elif got[k] != ref[k]:
            return False
    return True


def load_reference(name: str):
    path = REFERENCE / name
    if not path.exists():
        return None
    return json.loads(path.read_text())
