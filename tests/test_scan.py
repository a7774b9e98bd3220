import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import specialize, valuation
from twodescent import descent, scan
from twodescent.arith import FT_INFINITY, FactorizationEffortError
from twodescent.curve import integral_model
from twodescent.family import FamilyRecord, excluded_primes, family_by_name
from twodescent.localdata import tate_local
from twodescent.scan import ScanResult, emit_report, enumerate_heights, run_scan, scan_one


def test_enumeration_order_and_coprimality():
    pairs = enumerate_heights(4)
    assert all(Fraction(m, n).denominator == n for m, n in pairs)
    heights = [max(abs(m), n) for m, n in pairs]
    assert heights == sorted(heights)
    assert (0, 1) in pairs and (0, 2) not in pairs


def test_bad_ts_are_excluded():
    results = run_scan("rank0", 2)
    ts = {r.t for r in results}
    assert Fraction(0) not in ts and Fraction(1) not in ts
    assert Fraction(2) in ts


def test_scan_rank0_small_height_has_determined_zero():
    results = run_scan("rank0", 6)
    det0 = [r for r in results if not r.skipped and r.rank.kind == "determined" and r.rank.value == 0]
    assert len(det0) >= 1
    for r in results:
        if r.skipped:
            continue
        # determined => dims sum - 2 equals the value
        if r.rank.kind == "determined":
            assert sum(r.selmer_dims) - 2 >= r.rank.value
        assert r.checks["cassels_ratio"] == "pass"
        assert r.checks["tamagawa_pattern"] == "pass"


def test_scan_records_roundtrip_json():
    results = run_scan("rank1", 4)
    for r in results:
        assert ScanResult.from_json(json.loads(json.dumps(r.to_json()))) == r


def test_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = run_scan("rank2", 4)
    r2 = run_scan("rank2", 4)
    emit_report(r1, str(out1))
    emit_report(r2, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_matches_golden_records(tmp_path):
    """emit_report bytes for all five families at height 6 equal the stored
    records (227 lines, also the height <= 6 lines of the benchmark's
    height-12 reference)."""
    out = tmp_path / "h6.records"
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        emit_report(run_scan(name, 6), str(out))
    golden = Path(__file__).parent / "data" / "scan-h6.records"
    assert out.read_bytes() == golden.read_bytes()


def test_golden_records_parse_and_write_back(tmp_path):
    """Every stored record, 56 of them bounded, parses through
    ScanResult.from_json, and emit_report writes them back byte for byte."""
    golden = Path(__file__).parent / "data" / "scan-h6.records"
    results = [ScanResult.from_json(json.loads(line)) for line in golden.read_text().splitlines()]
    assert sum(r.rank.kind == "bounded" for r in results) == 56
    out = tmp_path / "h6.records"
    emit_report(results, str(out))
    assert out.read_bytes() == golden.read_bytes()


_RECORD = {
    "family": "rank0",
    "t": "1/1",
    "bad_primes": [2],
    "selmer_dims": [1, 1],
    "rank": {"kind": "determined", "value": 0},
    "j": "1/1",
    "checks": {"cassels_ratio": "pass", "tamagawa_pattern": "pass"},
}


def _record_with(**change):
    """_RECORD with the given values; None drops the key."""
    return {k: v for k, v in {**_RECORD, **change}.items() if v is not None}


@pytest.mark.parametrize(
    "data",
    [
        _record_with(bad_primes=None),
        _record_with(selmer_dims=[1, 1, 5]),
        _record_with(selmer_dims=[1, True]),
        _record_with(bad_primes=[2.0]),
        _record_with(checks="x"),
        _record_with(checks=["cassels_ratio", "tamagawa_pattern"]),
        _record_with(checks={"cassels_ratio": "pass"}),
        _record_with(checks={"cassels_ratio": "pass", "tamagawa_pattern": "maybe"}),
        _record_with(checks={1: "pass", "tamagawa_pattern": []}),
        _record_with(t="0.5"),
        _record_with(t="2/4"),
        _record_with(t=1),
        _record_with(j=None),
        _record_with(rank={"kind": "bounded", "lo": 1, "hi": 1}),
        _record_with(family=0),
        _record_with(extra=1),
        _record_with(skipped="factorization: cap"),
        {"family": "rank0", "t": "1/1", "skipped": 3},
        [],
    ],
)
def test_scan_result_from_json_is_strict(data):
    """A record that to_json cannot have written raises ValueError."""
    assert ScanResult.from_json(_RECORD).to_json() == _RECORD
    with pytest.raises(ValueError):
        ScanResult.from_json(data)


def test_parallel_matches_serial(tmp_path):
    serial = run_scan("rank0", 4, jobs=1)
    parallel = run_scan("rank0", 4, jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    # an even family at a height where t and -t lie more than 32 fibers
    # apart in (height, t) order, and one task holds both
    serial = run_scan("rank3", 8, jobs=1)
    index = {r.t: i for i, r in enumerate(serial)}
    assert any(t > 0 and -t in index and index[t] // 32 != index[-t] // 32 for t in index)
    parallel = run_scan("rank3", 8, jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_emit_report_summary_and_recovery(tmp_path):
    out = tmp_path / "scan.jsonl"
    results = run_scan("rank0", 5)
    summary = emit_report(results, str(out))
    assert summary["total"] == len(results)
    assert set(summary["determined"]) <= {"0", "1", "2"}
    assert summary["families"] == ["rank0"]
    n_lines = len(out.read_text().splitlines())
    assert n_lines == len(results)
    # partial trailing line is truncated before appending
    with open(out, "a") as fh:
        fh.write('{"family": "rank0", "t": "9999')
    emit_report(results[:3], str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == n_lines + 3
    for line in lines:
        json.loads(line)
    with pytest.raises(ValueError):
        emit_report([], str(out))


def test_good_reduction_at_infinity_property():
    """For the family with good reduction at infinity, v_p(t) < 0 at a
    non-excluded odd prime forces good reduction at p."""
    rec = family_by_name("rank4")
    assert FT_INFINITY not in rec.expected.all_places
    excl = excluded_primes("rank4")
    checked = 0
    for m, n in ((1, 17), (3, 17), (2, 19), (5, 23), (1, 17 * 19)):
        r = scan_one("rank4", m, n)
        assert not r.skipped
        for p in (17, 19, 23):
            if p in excl or n % p != 0:
                continue
            assert valuation(r.t, p) < 0
            assert p not in r.bad_primes, (str(r.t), p, r.bad_primes)
            checked += 1
    assert checked >= 5


def test_skipped_shape():
    r = ScanResult("rank0", Fraction(3, 2), skipped="factorization: cap")
    data = r.to_json()
    assert data == {"family": "rank0", "t": "3/2", "skipped": "factorization: cap"}
    assert ScanResult.from_json(data) == r


def test_scan_one_matches_run_scan():
    one = scan_one("rank2", 3, 1)
    batch = {r.t: r for r in run_scan("rank2", 3)}
    assert batch[Fraction(3)].to_json() == one.to_json()


def test_rank4_accepted_fiber_has_selmer_dims_3_3():
    r = scan_one("rank4", 1, 1)
    assert r.selmer_dims == (3, 3)
    assert r.rank.kind == "determined" and r.rank.value == 4


def test_determined_zero_record_agrees_with_bruteforce_descent():
    """Take a determined(0) fiber and re-derive its rank with the
    independent oracle: exhaustive Selmer + exhaustive small point search."""
    from oracles import oracle_box_points, oracle_selmer

    results = [
        r
        for r in run_scan("rank0", 8)
        if not r.skipped and r.rank.kind == "determined" and r.rank.value == 0
    ]
    assert results
    r = results[0]
    Et = specialize(family_by_name("rank0").E, r.t)
    A, B, _ = integral_model(*Et)
    sel_phi = oracle_selmer(A, B)
    sel_hat = oracle_selmer(-2 * A, A * A - 4 * B)
    import math

    dims = (int(math.log2(len(sel_hat))), int(math.log2(len(sel_phi))))
    assert dims == r.selmer_dims
    assert sum(dims) - 2 == 0
    # and no point of infinite order below an exhaustive small bound
    for x, y in oracle_box_points(A, B, 120) + oracle_box_points(-2 * A, A * A - 4 * B, 120):
        assert y == 0 or x == 0


def _count_calls(monkeypatch, name: str, module=scan) -> list:
    """Record the arguments of every call to <module>.<name>."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family, fibers, curves", [("rank0", 45, 45), ("rank3", 45, 23)])
def test_one_descent_per_distinct_curve(monkeypatch, family, fibers, curves):
    """rank3 is even in T, so t and -t give one curve and one descent;
    rank0 is not, and each fiber gets its own."""
    descents = _count_calls(monkeypatch, "descend")
    tates = _count_calls(monkeypatch, "tate_local")
    coverings = _count_calls(monkeypatch, "_covering_points", descent)
    results = run_scan(family, 6)
    rec = family_by_name(family)
    assert len(results) == fibers
    assert len({specialize(rec.E, r.t) for r in results}) == curves
    assert len(descents) == curves
    # no Tate run repeats a (model, place), and no covering search a (model, d, box)
    assert len(tates) == len(set(tates))
    assert coverings and len(coverings) == len(set(coverings))


@pytest.mark.parametrize("family", ["rank3", "rank4"])
def test_scan_one_matches_run_scan_on_both_signs(family):
    """A record made alone equals the one made in a task beside its -t
    twin, and the twins agree on everything that depends on E_t alone."""
    batch = {r.t: r for r in run_scan(family, 4)}
    pairs = [t for t in batch if t > 0 and -t in batch]
    assert pairs
    for t in pairs:
        for s in (t, -t):
            assert scan_one(family, s.numerator, s.denominator).to_json() == batch[s].to_json()
        plus, minus = batch[t], batch[-t]
        assert (plus.bad_primes, plus.selmer_dims, plus.j) == (minus.bad_primes, minus.selmer_dims, minus.j)


def test_skipped_curve_skips_both_signs(monkeypatch):
    """A curve whose descent gives up skips both of its fibers with the
    record scan_one gives, and is descended once per task, on its integral
    model."""
    rec = family_by_name("rank3")
    t = Fraction(3)
    target = integral_model(*specialize(rec.E, t))[:2]
    real, calls = scan.descend, []

    def descend(A, B):
        if (A, B) == target:
            calls.append((A, B))
            raise FactorizationEffortError("effort cap")
        return real(A, B)

    monkeypatch.setattr(scan, "descend", descend)
    batch = {r.t: r for r in run_scan("rank3", 3)}
    assert len(calls) == 1
    for s in (t, -t):
        alone = scan_one("rank3", s.numerator, s.denominator)
        assert alone == ScanResult("rank3", s, skipped="factorization: effort cap")
        assert batch[s] == alone
    assert not any(r.skipped for r in batch.values() if abs(r.t) != t)


def _tate_bad_primes(runs) -> tuple[int, ...]:
    """The bad-prime list with a Tate run at every prime."""
    A, B = runs.descent.A, runs.descent.B
    return tuple(p for p in (2,) + runs.descent.odd_support if not tate_local(A, B, p).kodaira.is_good)


def test_bad_primes_match_tate_on_family_fibers():
    """On every integral model of a fiber of height <= 20 in the five
    families, the bad-prime list with the minimality test equals the one
    Tate gives at every prime."""
    models = set()
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        for m, n in enumerate_heights(20):
            if all(alpha * m + beta * n for alpha, beta, _ in rec.pattern_forms):
                models.add(rec.fibers.model(m, n)[:2])
    for A, B in models:
        runs = scan._CurveRuns(A, B)
        assert runs.bad_primes == _tate_bad_primes(runs), (A, B)
    assert len(models) > 2000


@pytest.mark.parametrize(
    "A, B, tate_primes",
    [
        # 17^2 | A, 17^4 | B: integral_model keeps 17, where the model is not
        # minimal; Tate finds y^2 = x^3 + x^2 + 2x good there.  7 is settled by
        # v_7(disc) = 1 and 2 by v_2(disc) = 5
        (17**2, 2 * 17**4, {17}),
        # c4 = 16 (A^2 - 3B) = 0, so v_3(c4) >= 4; v_3(disc) = 3 < 12 settles 3
        # and v_2(disc) = 4 settles 2
        (3, 3, set()),
        # v_17(disc) = 12, v_17(c4) = 0 < 4 settles 17; v_2(disc) = 4
        (1, 17**6, set()),
        # v_2(disc) = 12 and v_2(c4) >= 4 leave 2 in doubt; Tate finds the model good there
        (-10, -39, {2}),
        # v_2(disc) = 15: Tate runs at 2 and finds I5*
        (-12, -60, {2}),
    ],
)
def test_bad_primes_run_tate_only_where_minimality_is_in_doubt(monkeypatch, A, B, tate_primes):
    tates = _count_calls(monkeypatch, "tate_local")
    runs = scan._CurveRuns(A, B)
    bad = runs.bad_primes
    assert {place for *_, place in tates} == tate_primes
    assert bad == _tate_bad_primes(runs)
    assert (2 in bad) == ((A, B) != (-10, -39))


def _tate_ratio(D, p: int) -> Fraction:
    """c_p(E')/c_p(E) from Tate's algorithm on the model and its dual."""
    A, B = D.A, D.B
    return Fraction(tate_local(-2 * A, A * A - 4 * B, p).tamagawa, tate_local(A, B, p).tamagawa)


def test_tamagawa_ratio_matches_tate_at_pattern_primes():
    """At every pattern prime of every fiber of height <= 20 in the five
    families (7,884 pairs on 2,498 fibers), the ratio the scan reads off the
    local image equals the one Tate gives on the integral model and its dual."""
    pairs = 0
    for name in ("rank0", "rank1", "rank2", "rank3", "rank4"):
        rec = family_by_name(name)
        descents: dict = {}
        for m, n in enumerate_heights(20):
            if not all(alpha * m + beta * n for alpha, beta, _ in rec.pattern_forms):
                continue
            primes = rec.pattern_primes(m, n)
            if not primes:
                continue
            A, B, _ = rec.fibers.model(m, n)
            if (A, B) not in descents:
                descents[A, B] = descent.descend(A, B)
            D = descents[A, B]
            for p, _ in primes:
                assert scan.tamagawa_ratio(D, p) == _tate_ratio(D, p), (name, m, n, p)
                pairs += 1
    assert pairs >= 7800, pairs


def test_tamagawa_ratio_is_one_outside_the_odd_support():
    """5 divides neither B = 3 nor A^2 - 4B = -3: both models are good there."""
    D = descent.descend(3, 3)
    assert 5 not in D.odd_support
    assert scan.tamagawa_ratio(D, 5) == 1 == _tate_ratio(D, 5)


def test_wrong_pattern_order_fails_only_the_tamagawa_check(monkeypatch):
    """A fiber whose pattern primes carry a wrong order (30 of the 45 rank0
    fibers of height <= 6 have some) reads tamagawa_pattern "fail", and
    every other field of its record stays."""
    before = [r.to_json() for r in run_scan("rank0", 6)]
    real = FamilyRecord.pattern_primes

    def doubled(self, m, n):
        return [(p, 2 * order) for p, order in real(self, m, n)]

    monkeypatch.setattr(FamilyRecord, "pattern_primes", doubled)
    after = [r.to_json() for r in run_scan("rank0", 6)]
    rec = family_by_name("rank0")
    failed = 0
    for old, new in zip(before, after, strict=True):
        t = Fraction(old["t"])
        patterned = bool(real(rec, t.numerator, t.denominator))
        assert old["checks"]["tamagawa_pattern"] == "pass"
        assert new["checks"]["tamagawa_pattern"] == ("fail" if patterned else "pass")
        new["checks"]["tamagawa_pattern"] = "pass"
        assert new == old
        failed += patterned
    assert failed == 30, failed
