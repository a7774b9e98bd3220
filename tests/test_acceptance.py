"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy specialization scans run once per session at the full height and
are shared by criteria 5, 7 and 8.  Height and worker count can be lowered
for development via TWODESCENT_ACCEPT_HEIGHT / TWODESCENT_ACCEPT_JOBS.
"""

import math
import os
import time
from fractions import Fraction

import pytest

from oracles import oracle_selmer
from twodescent.arith import Place, factor
from twodescent.curve import (
    AffinePoint,
    delta_class,
    delta_span_dim,
    dual_model,
    integral_model,
    specialize,
)
from twodescent.descent import descend, point_search
from twodescent.family import (
    admissible_divisor_sets,
    builtin_families,
    excluded_primes,
    family_by_name,
    verify_conditions,
)
from twodescent.localdata import tate_local
from twodescent.polyq import Poly, dual_discriminant, eval_at, model_discriminant
from twodescent.scan import DEFAULT_SEARCH_BOUND, run_scan

ACCEPT_HEIGHT = int(os.environ.get("TWODESCENT_ACCEPT_HEIGHT", "50"))
ACCEPT_JOBS = int(os.environ.get("TWODESCENT_ACCEPT_JOBS", str(min(8, os.cpu_count() or 1))))

FAMILIES = ["rank0", "rank1", "rank2", "rank3", "rank4"]


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="session")
def full_scans():
    out = {}
    for name in FAMILIES:
        t0 = time.time()
        out[name] = run_scan(name, ACCEPT_HEIGHT, jobs=ACCEPT_JOBS)
        print(
            f"\n[scan] {name}: {len(out[name])} fibers at height {ACCEPT_HEIGHT} "
            f"in {time.time() - t0:.1f}s on {ACCEPT_JOBS} worker(s)"
        )
    return out


def test_criterion_1_family_verification():
    """All five families pass conditions (a)-(g) with r = 0..4 in under 10 s."""
    t0 = time.time()
    rs = []
    for rec in builtin_families():
        report = verify_conditions(rec)
        rs.append(report.r)
        assert report.all_pass, (rec.name, report.to_json())
    elapsed = time.time() - t0
    ok = rs == [0, 1, 2, 3, 4] and elapsed < 10.0
    _report("criterion-1 family-verification", ok, f"r={rs} elapsed={elapsed:.2f}s")
    assert rs == [0, 1, 2, 3, 4]
    assert elapsed < 10.0


def test_criterion_2_discriminant_identities():
    """Computed Delta and Delta' equal the printed polynomials exactly."""
    for rec in builtin_families():
        assert model_discriminant(rec.E.a, rec.E.b) == rec.disc_expected, rec.name
        assert dual_discriminant(rec.E.a, rec.E.b) == rec.disc_dual_expected, rec.name
    _report("criterion-2 discriminant-identities", True, "5 families, exact equality")


def test_criterion_3_kodaira_tamagawa_fixtures():
    """tate_local reproduces every stated symbol, Tamagawa number and split type."""
    checked = 0
    for rec in builtin_families():
        for fx in rec.local_fixtures:
            curve = rec.E if fx.curve == "E" else rec.dual
            r = tate_local(curve, fx.place)
            if fx.kodaira is not None:
                assert str(r.kodaira) == fx.kodaira, (rec.name, str(fx.place), r)
            if fx.tamagawa is not None:
                assert r.tamagawa == fx.tamagawa, (rec.name, str(fx.place), r)
            if fx.reduction is not None:
                assert r.reduction == fx.reduction, (rec.name, str(fx.place), r)
            checked += 1
    _report("criterion-3 kodaira-tamagawa-fixtures", True, f"{checked} fixtures exact")


def test_criterion_4_geometric_image_dimensions():
    """Delta-class spans have the exact claimed dimensions = log2 |F|, |F'|."""
    want = {"rank0": (1, 1), "rank1": (1, 2), "rank2": (2, 2), "rank3": (3, 2), "rank4": (3, 3)}
    for rec in builtin_families():
        zero = AffinePoint.of(Poly(), Poly())
        dim_e = delta_span_dim(
            [delta_class(rec.E, zero)] + [delta_class(rec.E, P) for P in rec.points_e]
        )
        dim_ep = delta_span_dim(
            [delta_class(rec.dual, zero)] + [delta_class(rec.dual, Q) for Q in rec.points_eprime]
        )
        assert (dim_e, dim_ep) == want[rec.name], rec.name
        F, Fp = admissible_divisor_sets(rec)
        assert (dim_e, dim_ep) == (int(math.log2(len(F))), int(math.log2(len(Fp)))), rec.name
    _report("criterion-4 geometric-image-dimensions", True, str(want))


def test_criterion_5_desk_scale_rank_production(full_scans):
    """Each family yields at least 10 fibers of determined target rank with
    pairwise distinct j-invariants at the scan height."""
    detail = []
    ok = True
    for name in FAMILIES:
        target = family_by_name(name).target_rank
        js = {
            r.j
            for r in full_scans[name]
            if not r.skipped and r.rank.kind == "determined" and r.rank.value == target
        }
        detail.append(f"{name}:{len(js)}")
        if len(js) < 10:
            ok = False
    _report("criterion-5a desk-scale-rank-production", ok, "distinct j at target " + " ".join(detail))
    for name in FAMILIES:
        target = family_by_name(name).target_rank
        js = {
            r.j
            for r in full_scans[name]
            if not r.skipped and r.rank.kind == "determined" and r.rank.value == target
        }
        assert len(js) >= 10, (name, len(js))


def _satisfies_local_pattern(name: str, t: Fraction) -> bool:
    """v_p(t - e) = 1 for exactly one non-excluded odd prime per e in B, at
    pairwise distinct primes; the place at infinity (a member of B for four
    of the families) is read through its uniformizer 1/T."""
    rec = family_by_name(name)
    excl = excluded_primes(name)
    seen = []
    for pl in sorted(rec.expected.all_places, key=str):
        if pl.kind == "ft":
            diff = t - pl.e
        else:
            if t == 0:
                return False
            diff = 1 / t
        hits = [
            p
            for p, e in factor(diff.numerator).factors
            if p != 2 and p not in excl and e == 1
        ]
        if len(hits) != 1:
            return False
        seen.append(hits[0])
    return len(set(seen)) == len(seen)


def _generic_points(rec, t: Fraction):
    """E_t, E'_t and, on each, (0,0) followed by the family's generic points
    specialized at T = t."""
    Et = specialize(rec.E, t)
    zero = AffinePoint.of(Fraction(0), Fraction(0))
    pts_e = [zero] + [AffinePoint.of(eval_at(P.x, t), eval_at(P.y, t)) for P in rec.points_e]
    pts_ep = [zero] + [
        AffinePoint.of(eval_at(Q.x, t), eval_at(Q.y, t)) for Q in rec.points_eprime
    ]
    return Et, dual_model(Et), pts_e, pts_ep


def _span(E, points) -> int:
    return delta_span_dim([delta_class(E, P) for P in points])


def test_criterion_5_no_misdetermined_patterned_fibers(full_scans):
    """Fibers with the prescribed local pattern and passing checks carry what
    the pattern guarantees, bounded fibers included:

    1. the delta-spans of (0,0) and the specialized generic points equal the
       generic dimensions, on E_t and on E'_t (the distinct exponent-1
       pattern primes keep the generic classes independent);
    2. each Selmer group contains those classes: dim Sel_phi-hat and
       dim Sel_phi are at least the generic dimensions;
    3. the rank is not below the family target.

    The pattern is local, so it bounds the rank only from below.  The paper
    gets rank exactly r by choosing t so that every bad prime is controlled
    globally; the scan enumerates t instead.  A determined rank above the
    target is a certified rank jump: it is counted and reported, not failed.
    """
    examined = 0
    violations = []
    detail = []
    for name in FAMILIES:
        rec = family_by_name(name)
        target = rec.target_rank
        patterned = jumps = 0
        for r in full_scans[name]:
            if r.skipped:
                continue
            if r.checks["cassels_ratio"] != "pass" or r.checks["tamagawa_pattern"] != "pass":
                continue
            if not _satisfies_local_pattern(name, r.t):
                continue
            patterned += 1
            Et, Dt, pts_e, pts_ep = _generic_points(rec, r.t)
            spans = (_span(Et, pts_e), _span(Dt, pts_ep))
            if spans != rec.expected_dims:
                violations.append((name, str(r.t), f"generic spans {spans} != {rec.expected_dims}"))
            if any(s < e for s, e in zip(r.selmer_dims, rec.expected_dims)):
                violations.append(
                    (name, str(r.t), f"selmer dims {r.selmer_dims} below {rec.expected_dims}")
                )
            if r.rank.lo < target:
                violations.append((name, str(r.t), f"rank lower bound {r.rank.lo} < {target}"))
            if r.rank.kind == "determined" and r.rank.value > target:
                jumps += 1
        examined += patterned
        detail.append(f"{name}:{patterned}/{jumps}")
    ok = not violations and examined >= 50
    _report(
        "criterion-5b no-misdetermined-patterned-fibers",
        ok,
        "patterned/rank-jumps " + " ".join(detail) + f", {len(violations)} violations",
    )
    assert not violations, (
        "patterned fibers missing what the local pattern guarantees "
        f"(see README, 'Criterion 5b and rank jumps'): {violations}"
    )
    assert examined >= 50, examined


def test_criterion_6_oracle_equivalence(small_curve_corpus):
    """Both Selmer groups of descend equal the exhaustive brute-force oracle
    on 30 random small curves; the Cassels ratio check passes on all of them."""
    for E in small_curve_corpus:
        A, B, _ = integral_model(E)
        D = descend(E)
        fast_phi = sorted((c.value() for c in D.phi.elements()), key=lambda x: (abs(x), x))
        assert fast_phi == oracle_selmer(A, B), (A, B)
        fast_hat = sorted((c.value() for c in D.phi_hat.elements()), key=lambda x: (abs(x), x))
        assert fast_hat == oracle_selmer(-2 * A, A * A - 4 * B), (A, B)
        assert D.cassels_ok, (A, B)
    _report("criterion-6 oracle-equivalence", True, "30 curves, both contexts + Cassels")


def test_criterion_7_local_image_laws(full_scans):
    """Trivial image at split/odd-n (I(2n), I(n)) places and unit-class images
    at good odd places, across at least 200 scan specializations."""
    examined = 0
    trivial_checks = 0
    unit_checks = 0
    for name in FAMILIES:
        for r in full_scans[name]:
            if r.skipped or examined >= 200:
                continue
            examined += 1
            D = descend(specialize(family_by_name(name).E, r.t))
            E_int = D.integral
            D_int = dual_model(E_int)
            odd_bad = [p for p in r.bad_primes if p != 2]
            for p in odd_bad[:3]:
                rE = tate_local(E_int, Place.prime(p))
                rD = tate_local(D_int, Place.prime(p))
                if not (rE.is_multiplicative and rD.is_multiplicative):
                    continue
                n = rD.kodaira.n
                if rE.kodaira.n != 2 * n or n < 1:
                    continue
                if rE.reduction == "split-multiplicative" or n % 2 == 1:
                    img = D.local_image(Place.prime(p))
                    assert len(img) == 1 and img[0].is_identity, (name, str(r.t), p)
                    trivial_checks += 1
            for p in (3, 5, 7):
                if p in r.bad_primes:
                    continue
                img = D.local_image(Place.prime(p))
                assert all(p not in cls.support for cls in img), (name, str(r.t), p)
                unit_checks += 1
                break
    ok = examined >= 200 and trivial_checks >= 40 and unit_checks >= 100
    _report(
        "criterion-7 local-image-laws",
        ok,
        f"specializations={examined} trivial-image-checks={trivial_checks} unit-checks={unit_checks}, zero violations",
    )
    assert ok


def test_criterion_8_rank_formula_witnesses(full_scans):
    """Every determined record satisfies r = dim(delta_E span) + dim(delta_E'
    span) - 2 with the spans realized by explicit points."""
    checked = 0
    for name in FAMILIES:
        rec = family_by_name(name)
        for r in full_scans[name]:
            if r.skipped or r.rank.kind != "determined":
                continue
            Et, Dt, pts_e, pts_ep = _generic_points(rec, r.t)
            d1 = _span(Et, pts_e + point_search(Et, DEFAULT_SEARCH_BOUND))
            d2 = _span(Dt, pts_ep + point_search(Dt, DEFAULT_SEARCH_BOUND))
            assert max(d1 + d2 - 2, 0) == r.rank.value, (name, str(r.t))
            assert sum(r.selmer_dims) - 2 == r.rank.value, (name, str(r.t))
            checked += 1
    _report("criterion-8 rank-formula-witnesses", True, f"{checked} determined records, zero violations")
    assert checked >= 50
