"""Specialization scan: enumerate fibers E_t, certify ranks, persist results.

The scan enumerates all t = m/n of bounded height rather than selecting t
by prime constellations: the selection argument proves existence, while
enumeration finds witnesses at desk scale.  Each fiber is built from the
family's integer binary forms (`FamilyRecord.fibers`): the integral model
(A, B) of E_t, its j and the generic points moved onto it, with no Fraction
arithmetic.  The descent runs on (A, B) as ints (`descend(A, B)`), and
`rank_bounds` on (A, B) and its dual (-2A, A^2-4B); Tate's algorithm and
`curve.j_invariant` take (A, B) too, so no Fraction model is built.  A task
is the group of fibers t = +-m/n that share (|m|, n); a memo keyed by
(A, B) makes the descent, Tate runs and covering searches once per curve in
a task (in an even family E_t and E_-t are one curve).  A support prime,
2 included, where the model is visibly minimal (v_p(c4) < 4 or
v_p(disc) < 12) is bad with no Tate run.
Results are put in (height, t) order, so two runs with identical
parameters produce byte-identical output.
The family's bad-place forms drop each t = e and give the pattern primes
whose c_p(E')/c_p(E) `tamagawa_pattern` checks; `tamagawa_ratio` reads it
off the descent's local image at p, with no Tate run.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .curve import j_invariant
from .descent import Descent, RankStatus, descend, rank_bounds, run_or_reason
from .family import family_by_name
from .localdata import tate_local
from .polyq import rational_from_str, rational_to_str

DEFAULT_SEARCH_BOUND = 32


@dataclass(frozen=True)
class ScanResult:
    family: str
    t: Fraction
    bad_primes: tuple[int, ...] = ()
    selmer_dims: tuple[int, int] = (0, 0)  # (phi-hat, phi)
    rank: RankStatus | None = None
    j: Fraction | None = None
    checks: dict | None = None
    skipped: str | None = None

    def to_json(self) -> dict:
        if self.skipped is not None:
            return {"family": self.family, "t": rational_to_str(self.t), "skipped": self.skipped}
        return {
            "family": self.family,
            "t": rational_to_str(self.t),
            "bad_primes": list(self.bad_primes),
            "selmer_dims": list(self.selmer_dims),
            "rank": self.rank.to_json(),
            "j": rational_to_str(self.j),
            "checks": self.checks,
        }

    @staticmethod
    def from_json(data: dict) -> "ScanResult":
        """The record that `to_json` wrote as `data`.  Anything else raises
        ValueError: a missing or unknown key, a value of the wrong type or
        length, or a rational not written as "num/den" in lowest terms."""
        try:
            t = rational_from_str(data["t"])
            if "skipped" in data:
                r = ScanResult(data["family"], t, skipped=data["skipped"])
            else:
                r = ScanResult(
                    data["family"], t, tuple(data["bad_primes"]), tuple(data["selmer_dims"]),
                    RankStatus.from_json(data["rank"]), rational_from_str(data["j"]), data["checks"],
                )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scan record {data!r}") from exc
        ok = type(r.skipped) is str if r.skipped is not None else (
            len(r.selmer_dims) == 2
            and all(type(v) is int for v in r.bad_primes + r.selmer_dims)
            and type(r.checks) is dict
            and r.checks.keys() == {"cassels_ratio", "tamagawa_pattern"}
            and all(v in ("pass", "fail") for v in r.checks.values())
        )
        if type(r.family) is not str or not ok or r.to_json() != data:
            raise ValueError(f"scan record {data!r} is not one that to_json writes")
        return r


def _height_order(t: Fraction) -> tuple[int, Fraction]:
    return max(abs(t.numerator), t.denominator), t


def enumerate_heights(height_bound: int) -> list[tuple[int, int]]:
    """Coprime pairs (m, n), |m| <= H, 1 <= n <= H, ordered by (height, value)."""
    pairs = []
    for n in range(1, height_bound + 1):
        for m in range(-height_bound, height_bound + 1):
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
    pairs.sort(key=lambda mn: _height_order(Fraction(*mn)))
    return pairs


class _CurveRuns:
    """What a fiber's record takes from its integral model (A, B) alone:
    the descent (which keeps the covering searches of `rank_bounds`), j and
    the bad primes, made on first use."""

    def __init__(self, A: int, B: int):
        self.descent = descend(A, B)
        self.j = j_invariant(A, B)
        # c4 and the discriminant of the model
        self._c4, self._disc = 16 * (A * A - 3 * B), 16 * B * B * (A * A - 4 * B)

    @cached_property
    def bad_primes(self) -> tuple[int, ...]:
        """2 and the odd support primes where the model has bad reduction.

        Each of them divides the discriminant (v_2(disc) >= 4), so it is bad
        wherever the model is minimal, which v_p(c4) < 4 or v_p(disc) < 12
        shows (Silverman, AEC VII.1); v_2(c4) >= 4 always, so only the
        second settles 2.  Tate runs, once per prime, where minimality is
        in doubt, on (A, B)."""
        D = self.descent
        return tuple(
            p
            for p in (2,) + D.odd_support
            if self._c4 % p**4
            or self._disc % p**12
            or not tate_local(D.A, D.B, p).kodaira.is_good
        )


def tamagawa_ratio(D: Descent, p: int) -> Fraction:
    """c_p(E')/c_p(E) at an odd prime p, read off the descent's image
    `D.images[p]`, keyed by the int p like every place of Q.

    phi has degree 2, so it is an isomorphism on the formal groups at odd
    p, and Schaefer's index formula (J. Number Theory 56 (1996), Lemma 3.8)
    gives |Im(delta_{E',p})|/2; the tests' `oracles.local_image_order` is
    the same ratio from two Tate runs.  A p outside the odd support divides
    no B(A^2-4B), so E and E' are both good there and the ratio is 1.  At a
    pattern prime not dividing A the reduction is multiplicative and the
    descent reads the image off the node with no torsor test, so there the
    ratio comes from that closed form; `test_scan` compares it with Tate
    at every pattern prime of height <= 20."""
    basis = D.images.get(p)
    return Fraction(1) if basis is None else Fraction(2) ** (len(basis) - 1)


def scan_one(name: str, m: int, n: int, memo: dict | None = None) -> ScanResult:
    """Full descent record for the fiber at t = m/n.

    The fiber is built on integers as the model (A, B) of
    `integral_model(*specialize(E, t))`, with the generic points moved onto
    it and its dual (-2A, A^2-4B), the sides of `rank_bounds`.  `memo` maps
    (A, B) to its runs; fibers that pass one memo and share that model
    share the descent, Tate runs and covering searches.  The record is the
    same with or without it."""
    rec = family_by_name(name)
    t = Fraction(m, n)
    m, n = t.numerator, t.denominator
    A, B, u = rec.fibers.model(m, n)
    memo = {} if memo is None else memo
    if (A, B) not in memo:
        # the runs of the model, or why its fibers are skipped
        memo[A, B] = run_or_reason(_CurveRuns, A, B)
    curve = memo[A, B]
    if isinstance(curve, str):
        return ScanResult(name, t, skipped=curve)
    D = curve.descent

    tamagawa_ok = all(tamagawa_ratio(D, p) == order for p, order in rec.pattern_primes(m, n))
    pts_e, pts_ep = rec.fibers.points(m, n, u)
    rank = rank_bounds(D, pts_e, pts_ep, DEFAULT_SEARCH_BOUND)
    checks = {
        "cassels_ratio": "pass" if D.cassels_ok else "fail",
        "tamagawa_pattern": "pass" if tamagawa_ok else "fail",
    }
    return ScanResult(
        name,
        t,
        bad_primes=curve.bad_primes,
        selmer_dims=(len(D.phi_hat), len(D.phi)),
        rank=rank,
        j=curve.j,
        checks=checks,
    )


def _worker(args) -> list[ScanResult]:
    """The records of one task's fibers, which share one memo."""
    family, fibers = args
    memo: dict = {}
    return [scan_one(family, m, n, memo) for m, n in fibers]


def run_scan(family: str, height_bound: int, jobs: int = 1) -> list[ScanResult]:
    """Descent records for every admissible t of height at most height_bound."""
    rec = family_by_name(family)
    if height_bound < 1 or jobs < 1:
        raise ValueError("bounds and job counts must be positive")
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, n in enumerate_heights(height_bound):
        # a finite bad place's form vanishes exactly at t = e
        if all(alpha * m + beta * n for alpha, beta, _ in rec.pattern_forms):
            groups.setdefault((abs(m), n), []).append((m, n))
    tasks = [(family, fibers) for fibers in groups.values()]
    if jobs == 1:
        done = list(map(_worker, tasks))
    else:
        # a chunk of 16 tasks holds about 32 fibers
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_worker, tasks, chunksize=16))
    return sorted((r for records in done for r in records), key=lambda r: _height_order(r.t))


def emit_report(results: list[ScanResult], out: str) -> dict:
    """Append results as JSON lines; return the summary tallies.

    A previous partial write (no trailing newline on the last record) is
    truncated back to the last complete line before appending.
    """
    if not results:
        raise ValueError("no results to report")
    _truncate_partial_line(out)
    with open(out, "a", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")) + "\n")
    by_family = {r.family for r in results}
    summary = {
        "total": len(results),
        "skipped": sum(1 for r in results if r.skipped is not None),
        "bounded": sum(1 for r in results if r.skipped is None and r.rank.kind == "bounded"),
        "determined": {},
        "distinct_j_at_target": 0,
    }
    det: dict[int, int] = {}
    target_js = set()
    for r in results:
        if r.skipped is not None or r.rank.kind != "determined":
            continue
        det[r.rank.value] = det.get(r.rank.value, 0) + 1
        target = family_by_name(r.family).target_rank
        if r.rank.value == target:
            target_js.add((r.family, r.j))
    summary["determined"] = {str(k): v for k, v in sorted(det.items())}
    summary["distinct_j_at_target"] = len(target_js)
    summary["families"] = sorted(by_family)
    return summary


def _truncate_partial_line(path: str):
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        cut = data.rfind(b"\n")
        fh.truncate(cut + 1 if cut >= 0 else 0)
