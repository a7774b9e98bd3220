import math
from dataclasses import replace
from fractions import Fraction

import pytest

from twodescent.arith import FT_INFINITY, Place
from twodescent.curve import AffinePoint, TwoTorsionModel, delta_class, delta_span_dim
from twodescent.family import (
    FamilyValidationError,
    PlaceClassification,
    _validate,
    admissible_divisor_sets,
    builtin_families,
    classify_places,
    excluded_primes,
    family_by_name,
    geometric_rank,
    verify_conditions,
)
from twodescent.localdata import conductor_degree
from twodescent.polyq import Poly

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
        group = [classes[0] * classes[0]]  # identity
        for c in classes:
            group += [g * c for g in group]
        f_strs = {str(c) for c in F}
        assert {str(g) for g in group} <= f_strs, rec.name
        assert len(set(map(str, group))) == len(F)


def test_classification_translation_stability():
    # substituting T -> T + 1 translates every finite place by -1
    for name in ("rank0", "rank2"):
        rec = family_by_name(name)
        shifted = TwoTorsionModel.over_qt(rec.E.a.shift(1), rec.E.b.shift(1))
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


def test_classify_rejects_isotrivial():
    with pytest.raises(Exception):
        classify_places(TwoTorsionModel.over_qt(Poly.const(0), T * T + 1))
