import math
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import admissible_divisor_sets, conductor_degree, ft_class_product, valuation
from test_scan import _count_calls
from twodescent import family, localdata, polyq
from twodescent.arith import FT_INFINITY, Place, factor
from twodescent.curve import AffinePoint, TwoTorsionModel, delta_class, delta_span_dim
from twodescent.family import (
    FamilyValidationError,
    PlaceClassification,
    _validate,
    builtin_families,
    classify_places,
    excluded_primes,
    family_by_name,
    geometric_rank,
    verify_conditions,
)
from twodescent.polyq import Poly, model_discriminant
from twodescent.scan import enumerate_heights

T = Poly.x()


def places(*entries):
    out = set()
    for e in entries:
        out.add(FT_INFINITY if e == "inf" else Place.ft(Fraction(e)))
    return frozenset(out)


def test_builtin_families_load_and_count():
    fams = builtin_families()
    assert [f.name for f in fams] == ["rank0", "rank1", "rank2", "rank3", "rank4"]
    assert [f.target_rank for f in fams] == [0, 1, 2, 3, 4]


def test_classifications_match_fixture_data():
    expected = {
        "rank0": (places("inf"), places(0), places(1)),
        "rank1": (places(0), places("inf"), places(1, 4)),
        "rank2": (places(-16, "inf"), places(0), places(-25)),
        "rank3": (
            places(),
            places(2, -2, 11, -11),
            places(Fraction(3161, 280), Fraction(-3161, 280), "inf"),
        ),
        "rank4": (places(25, -25), places(11, -11), places(39, -39)),
    }
    for rec in builtin_families():
        cls = classify_places(rec.E)
        A, M, Mp = expected[rec.name]
        assert cls.A == A and cls.M == M and cls.M_prime == Mp
        assert cls == rec.expected


def test_all_conditions_pass_with_correct_rank():
    for rec in builtin_families():
        report = verify_conditions(rec)
        assert report.all_pass, (rec.name, report.to_json())
        assert report.r == rec.target_rank
        assert report.r == conductor_degree(rec.E) - 4


def test_condition_f_span_rank3():
    rec = family_by_name("rank3")
    zero = type(rec.points_e[0]).of(Poly(), Poly())
    classes = [delta_class(rec.E, zero)] + [delta_class(rec.E, P) for P in rec.points_e]
    assert delta_span_dim(classes) == 3


def test_mutated_fixture_fails_condition_f():
    rec = family_by_name("rank4")
    broken = replace(rec, points_e=rec.points_e[:1])
    report = verify_conditions(broken)
    ok, witness = report.statuses["f"]
    assert not ok and "2 < 3" in witness


def _report(r: int, **fails) -> dict:
    """ConditionReport.to_json() with the given witnesses failing and the rest passing."""
    conditions = {
        key: {"status": "fail", "witness": fails[key]} if key in fails else {"status": "pass", "witness": None}
        for key in "abcdefg"
    }
    return {"conditions": conditions, "r": r}


@pytest.mark.parametrize(
    "b, expected",
    [
        (
            -(T + 3) * (T + 3),
            _report(
                0,
                a="discriminant has a nonlinear irreducible factor",
                **dict.fromkeys("bcdefg", "skipped: condition (a) failed"),
            ),
        ),
        ((T + 1) * (T + 1), _report(0, b="M=[] M'=[]", e="at T+1: c(E)=2, c(E')=4", f="dim 0 < 1")),
        (
            (T + 3) * (T + 3),
            _report(
                1,
                c="at T+3: partner has I2 nonsplit-multiplicative",
                e="at inf: c(E)=2, c(E')=4",
                f="dim 0 < 1",
                g="dim 1 < 2",
            ),
        ),
        (
            2 * T * (T + 3),
            _report(
                1,
                d="at T-3: partner has I2 nonsplit-multiplicative",
                e="at inf: c(E)=4, c(E')=2",
                f="dim 1 < 2",
                g="dim 0 < 1",
            ),
        ),
    ],
    ids=["a-fails", "b-and-e-fail", "c-fails", "d-fails"],
)
def test_failure_witnesses(b, expected):
    """Each failing condition names its witness: a = -3 - 3T with four b,
    no generic points, pinned to the reports of the parent layout."""
    E = TwoTorsionModel(Poly([-3, -3]), b)
    rec = replace(family_by_name("rank0"), E=E, points_e=(), points_eprime=())
    assert verify_conditions(rec).to_json() == expected


def test_verify_runs_tate_once_per_model_and_place(monkeypatch):
    """verify_conditions reads (a)-(e) off one table of local data: over the
    five families, one Tate run per distinct (model, place), 49 in all, and
    one search for the rational roots of each discriminant."""
    tates = _count_calls(monkeypatch, "tate_local", localdata)
    roots = _count_calls(monkeypatch, "rational_roots", polyq)
    # every binding of the two counted names goes through the counters
    monkeypatch.setattr(localdata, "rational_roots", polyq.rational_roots)
    monkeypatch.setattr(family, "tate_local", localdata.tate_local, raising=False)
    for rec in builtin_families():
        assert verify_conditions(rec).all_pass
    assert len(tates) == len(set(tates)) == 49
    discs = {model_discriminant(rec.E.a, rec.E.b) for rec in builtin_families()}
    assert len([f for (f,) in roots if f in discs]) == len(discs) == 5


@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda rec: {"points_e": rec.points_e + (AffinePoint.of(Poly.const(1), Poly.const(1)),)}, "not on E"),
        (lambda rec: {"disc_expected": rec.disc_expected * Poly.const(2)}, "discriminant mismatch"),
        (lambda rec: {"target_rank": rec.target_rank + 1}, "target rank inconsistent"),
        (lambda rec: {"expected": PlaceClassification(places(1), frozenset(), frozenset())}, "negative rank"),
    ],
    ids=["point-off-E", "wrong-discriminant", "target-rank", "negative-rank"],
)
def test_validate_rejects_malformed_fixtures(defect, message):
    """Each fixture defect that the load-time check exists for raises
    FamilyValidationError, a rank read off a malformed classification too."""
    rec = family_by_name("rank2")
    _validate(rec)
    with pytest.raises(FamilyValidationError, match=message):
        _validate(replace(rec, **defect(rec)))


def test_geometric_rank():
    for rec in builtin_families():
        assert geometric_rank(rec.expected) == rec.target_rank
    assert geometric_rank(PlaceClassification(places(1, 2), frozenset(), frozenset())) == 0
    with pytest.raises(ValueError):
        geometric_rank(PlaceClassification(places(1), frozenset(), frozenset()))


def test_admissible_divisor_sets_sizes_and_normalization():
    for rec in builtin_families():
        F, Fp = admissible_divisor_sets(rec)
        cls = rec.expected
        assert len(F) == 1 << (len(cls.A) + len(cls.M) - 1)
        assert len(Fp) == 1 << (len(cls.A) + len(cls.M_prime) - 1)
        assert len({str(c) for c in F}) == len(F)  # distinct classes
        assert len({str(c) for c in Fp}) == len(Fp)
        dims = (int(math.log2(len(F))), int(math.log2(len(Fp))))
        assert dims == rec.expected_dims


def test_admissible_divisors_rank0():
    F, Fp = admissible_divisor_sets(family_by_name("rank0"))
    assert {str(c) for c in F} == {"1", "(T - 0)"}
    assert {str(c) for c in Fp} == {"1", "-1*(T - 1)"}


def test_delta_images_lie_in_divisor_classes():
    """The span of the generic points' classes is contained in (and by
    dimension equals) the admissible divisor class set."""
    from twodescent.curve import AffinePoint

    for rec in builtin_families():
        F, Fp = admissible_divisor_sets(rec)
        zero_pt = AffinePoint.of(Poly(), Poly())
        classes = [delta_class(rec.E, zero_pt)] + [delta_class(rec.E, P) for P in rec.points_e]
        # close the span under products
        group = [ft_class_product(classes[0], classes[0])]  # identity
        for c in classes:
            group += [ft_class_product(g, c) for g in group]
        f_strs = {str(c) for c in F}
        assert {str(g) for g in group} <= f_strs, rec.name
        assert len(set(map(str, group))) == len(F)


def test_classification_translation_stability():
    # substituting T -> T + 1 translates every finite place by -1
    for name in ("rank0", "rank2"):
        rec = family_by_name(name)
        shifted = TwoTorsionModel(rec.E.a.shift(1), rec.E.b.shift(1))
        cls = classify_places(shifted)
        want = classify_places(rec.E)

        def translate(pls):
            return frozenset(
                pl if pl.kind != "ft" else Place.ft(pl.e - 1) for pl in pls
            )

        assert cls.A == translate(want.A)
        assert cls.M == translate(want.M)
        assert cls.M_prime == translate(want.M_prime)


def test_excluded_primes_contents():
    assert {2, 3} <= set(excluded_primes("rank0"))
    assert {2, 3, 5, 7, 11, 13} == set(excluded_primes("rank4"))


def _reference_pattern_primes(rec, t):
    """(p, c_p(E')/c_p(E)) from v_p(t - e) = 1 at odd non-excluded p for each
    bad place e, read through 1/t at infinity; the order follows the class of
    e: 1/2 on M, 2 on M', 1 on A."""
    order = {"M": Fraction(1, 2), "M'": Fraction(2), "A": Fraction(1)}
    excl = excluded_primes(rec.name)
    out = []
    for pl in rec.expected.all_places:
        diff = t - pl.e if pl.kind == "ft" else (1 / t if t else 0)
        if diff == 0:
            continue
        for p in factor(diff.numerator).primes:
            if p != 2 and p not in excl and valuation(diff, p) == 1:
                out.append((p, order[rec.expected.class_of(pl)]))
    return sorted(out)


def test_pattern_primes_match_fraction_reference():
    """The integer forms give the primes and orders of v_p(t - e) = 1 on
    every t of height <= 50, bad points included, in all five families."""
    pairs = enumerate_heights(50)
    hits = 0
    for rec in builtin_families():
        for m, n in pairs:
            got = rec.pattern_primes(m, n)
            assert sorted(got) == _reference_pattern_primes(rec, Fraction(m, n)), (rec.name, m, n)
            hits += len(got)
    assert hits > 10_000, hits


def test_classify_rejects_isotrivial():
    with pytest.raises(Exception):
        classify_places(TwoTorsionModel(Poly.const(0), T * T + 1))
