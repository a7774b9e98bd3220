import json
from fractions import Fraction
from pathlib import Path

import pytest

from twodescent.arith import FT_INFINITY, valuation
from twodescent.family import excluded_primes, family_by_name
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


def test_parallel_matches_serial(tmp_path):
    serial = run_scan("rank0", 4, jobs=1)
    parallel = run_scan("rank0", 4, jobs=2)
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
    from oracles import oracle_selmer
    from twodescent.curve import dual_model, integral_model, specialize
    from twodescent.descent import point_search

    results = [
        r
        for r in run_scan("rank0", 8)
        if not r.skipped and r.rank.kind == "determined" and r.rank.value == 0
    ]
    assert results
    r = results[0]
    Et = specialize(family_by_name("rank0").E, r.t)
    A, B, _ = integral_model(Et)
    sel_phi = oracle_selmer(A, B)
    sel_hat = oracle_selmer(-2 * A, A * A - 4 * B)
    import math

    dims = (int(math.log2(len(sel_hat))), int(math.log2(len(sel_phi))))
    assert dims == r.selmer_dims
    assert sum(dims) - 2 == 0
    # and no point of infinite order below an exhaustive small bound
    for P in point_search(Et, 120) + point_search(dual_model(Et), 120):
        assert P.y == 0 or P.x == 0
