"""Specialization scan: enumerate fibers E_t, certify ranks, persist results.

The scan enumerates all t = m/n of bounded height rather than selecting t
by prime constellations: the selection argument proves existence, while
enumeration finds witnesses at desk scale.  Tasks are ordered by
(height, t) and worker processes return results in task order, so two runs
with identical parameters produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import FactorizationEffortError, Place, factor
from .curve import AffinePoint, TwoTorsionModel, dual_model, j_invariant, on_curve, specialize
from .descent import RankStatus, SolvabilityPrecisionError, descend, point_search, rank_bounds
from .family import FamilyRecord, excluded_primes, family_by_name
from .localdata import tate_local
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
        t = rational_from_str(data["t"])
        if "skipped" in data:
            return ScanResult(data["family"], t, skipped=data["skipped"])
        rk = data["rank"]
        rank = (
            RankStatus("determined", rk["value"], rk["value"])
            if rk["kind"] == "determined"
            else RankStatus("bounded", rk["lo"], rk["hi"])
        )
        return ScanResult(
            data["family"],
            t,
            bad_primes=tuple(data["bad_primes"]),
            selmer_dims=tuple(data["selmer_dims"]),
            rank=rank,
            j=rational_from_str(data["j"]),
            checks=data["checks"],
        )


def enumerate_heights(height_bound: int) -> list[tuple[int, int]]:
    """Coprime pairs (m, n), |m| <= H, 1 <= n <= H, ordered by (height, value)."""
    pairs = []
    for n in range(1, height_bound + 1):
        for m in range(-height_bound, height_bound + 1):
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
    pairs.sort(key=lambda mn: (max(abs(mn[0]), mn[1]), Fraction(mn[0], mn[1])))
    return pairs


def _specialized_points(rec: FamilyRecord, E_t: TwoTorsionModel, t: Fraction, dualside: bool):
    pts = []
    src = rec.points_eprime if dualside else rec.points_e
    target = dual_model(E_t) if dualside else E_t
    for P in src:
        x, y = eval_at(P.x, t), eval_at(P.y, t)
        Q = AffinePoint.of(x, y)
        pts.append(Q)
        # specialization of an on-curve identity stays on-curve; anything else
        # is a fixture or specialization bug
        assert on_curve(target, Q), (rec.name, t, str(Q))
    return pts


def _pattern_primes(rec: FamilyRecord, t: Fraction):
    """(p, class) for odd non-excluded primes with v_p(t - e) = 1, e in B; the
    place at infinity is read through its uniformizer 1/T."""
    excl = excluded_primes(rec.name)
    out = []
    for pl in sorted(rec.expected.all_places, key=str):
        if pl.kind == "ft":
            diff = t - pl.e
        elif t:
            diff = 1 / t
        else:
            continue
        if diff == 0:
            continue
        for p, e in factor(diff.numerator).factors:
            if e == 1 and p != 2 and p not in excl:
                out.append((p, rec.expected.class_of(pl)))
    return out


def scan_one(name: str, m: int, n: int) -> ScanResult:
    """Full descent record for the fiber at t = m/n."""
    rec = family_by_name(name)
    t = Fraction(m, n)
    E_t = specialize(rec.E, t)
    try:
        D = descend(E_t)
    except FactorizationEffortError as exc:
        return ScanResult(name, t, skipped=f"factorization: {exc}")
    except SolvabilityPrecisionError as exc:
        return ScanResult(name, t, skipped=f"local solvability: {exc}")
    E_int = D.integral

    # one Tate run per prime on E_int, shared by the bad-prime list and the
    # Tamagawa-pattern check below
    red_e = {p: tate_local(E_int, Place.prime(p)) for p in (2,) + D.odd_support}
    bad = [p for p, red in red_e.items() if not red.kodaira.is_good]

    pts_e = _specialized_points(rec, E_t, t, dualside=False)
    pts_ep = _specialized_points(rec, E_t, t, dualside=True)
    pts_e += point_search(E_t, DEFAULT_SEARCH_BOUND)
    pts_ep += point_search(dual_model(E_t), DEFAULT_SEARCH_BOUND)
    rank = rank_bounds(D, pts_e, pts_ep)

    # (1/2)|Im(delta_{E',p})| = c_p(E')/c_p(E) at odd p, as in
    # localdata.local_image_order
    expected_order = {"M": Fraction(1, 2), "M'": Fraction(2), "A": Fraction(1)}
    E_dual = dual_model(E_int)
    tamagawa_ok = True
    for p, klass in _pattern_primes(rec, t):
        place = Place.prime(p)
        c_e = (red_e.get(p) or tate_local(E_int, place)).tamagawa
        if Fraction(tate_local(E_dual, place).tamagawa, c_e) != expected_order[klass]:
            tamagawa_ok = False
            break
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
        j=j_invariant(E_int),
        checks=checks,
    )


def _worker(args) -> ScanResult:
    return scan_one(*args)


def run_scan(family: str, height_bound: int, jobs: int = 1) -> list[ScanResult]:
    """Descent records for every admissible t of height at most height_bound."""
    rec = family_by_name(family)
    if height_bound < 1 or jobs < 1:
        raise ValueError("bounds and job counts must be positive")
    bad_ts = {pl.e for pl in rec.expected.all_places if pl.kind == "ft"}
    tasks = [(family, m, n) for m, n in enumerate_heights(height_bound) if Fraction(m, n) not in bad_ts]
    if jobs == 1:
        results = [_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, tasks, chunksize=32))
    return results


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
