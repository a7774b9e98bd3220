"""Specialization scan: enumerate fibers E_t, certify ranks, persist results.

The scan enumerates all t = m/n of bounded height rather than selecting t
by prime constellations: the selection argument proves existence, while
enumeration finds witnesses at desk scale.  A task is the group of fibers
t = +-m/n that share (|m|, n); in an even family E_t and E_-t are one curve,
and its descent, Tate runs and point searches are made once per task.
Results are put in (height, t) order, so two runs with identical parameters
produce byte-identical output.  The family's bad-place forms drop each t = e
and give the pattern primes whose c_p(E')/c_p(E) `tamagawa_pattern` checks.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import FactorizationEffortError, Place
from .curve import AffinePoint, TwoTorsionModel, dual_model, j_invariant, specialize
from .descent import Descent, RankStatus, SolvabilityPrecisionError, descend, rank_bounds
from .family import FamilyRecord, family_by_name
from .localdata import LocalReduction, tate_local
from .polyq import eval_at, rational_from_str, rational_to_str

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


def _specialized_points(rec: FamilyRecord, t: Fraction, dualside: bool) -> list[AffinePoint]:
    """The family's generic points on E (or E') at T = t; `rank_bounds`
    checks that they lie on E_t (or its dual)."""
    src = rec.points_eprime if dualside else rec.points_e
    return [AffinePoint.of(eval_at(P.x, t), eval_at(P.y, t)) for P in src]


class _CurveRuns:
    """What a fiber's record takes from its curve E_t alone: the descent,
    j, the Tate runs on the integral model and its dual and the point
    searches of `rank_bounds`, each run made on first use."""

    def __init__(self, D: Descent):
        self.descent = D
        self.j = j_invariant(D.integral)
        self.searched: dict = {}
        self._models = (D.integral, dual_model(D.integral))
        self._runs: tuple[dict[int, LocalReduction], ...] = ({}, {})

    def tate(self, p: int, dual: bool = False) -> LocalReduction:
        runs = self._runs[dual]
        if p not in runs:
            # p is 2 or came out of factor, so it is prime: no second test
            runs[p] = tate_local(self._models[dual], Place("prime", p=p))
        return runs[p]


def _curve_runs(E_t: TwoTorsionModel) -> _CurveRuns | str:
    """The runs of E_t, or why its fibers are skipped."""
    try:
        return _CurveRuns(descend(E_t))
    except FactorizationEffortError as exc:
        return f"factorization: {exc}"
    except SolvabilityPrecisionError as exc:
        return f"local solvability: {exc}"


def scan_one(name: str, m: int, n: int, memo: dict | None = None) -> ScanResult:
    """Full descent record for the fiber at t = m/n.

    `memo` maps a specialized curve (a, b) to its runs; fibers that pass
    one memo and specialize to the same curve share the descent, Tate runs
    and point searches.  The record is the same with or without it."""
    rec = family_by_name(name)
    t = Fraction(m, n)
    E_t = specialize(rec.E, t)
    memo = {} if memo is None else memo
    key = (E_t.a, E_t.b)
    if key not in memo:
        memo[key] = _curve_runs(E_t)
    curve = memo[key]
    if isinstance(curve, str):
        return ScanResult(name, t, skipped=curve)
    D = curve.descent

    # one Tate run per prime on the integral model, shared by the bad-prime
    # list, the Tamagawa-pattern check below and the fibers of one curve
    bad = [p for p in (2,) + D.odd_support if not curve.tate(p).kodaira.is_good]

    pts_e = _specialized_points(rec, t, dualside=False)
    pts_ep = _specialized_points(rec, t, dualside=True)
    rank = rank_bounds(D, pts_e, pts_ep, DEFAULT_SEARCH_BOUND, curve.searched)

    tamagawa_ok = all(
        Fraction(curve.tate(p, dual=True).tamagawa, curve.tate(p).tamagawa) == order
        for p, order in rec.pattern_primes(t.numerator, t.denominator)
    )
    checks = {
        "cassels_ratio": "pass" if D.cassels_ok else "fail",
        "tamagawa_pattern": "pass" if tamagawa_ok else "fail",
    }
    return ScanResult(
        name,
        t,
        bad_primes=tuple(bad),
        selmer_dims=(D.phi_hat.dim, D.phi.dim),
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
