"""The five built-in Q(T) families, their place data, and conditions (a)-(g).

Fixture data (coefficients, generic points, expected classifications,
printed discriminants, local reduction facts) ships as a JSON resource and
is revalidated at load: every point must pass the exact on-curve check and
the discriminant identities must hold, so transcription errors fail fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .arith import FT_INFINITY, Place, factor, parse_place
from .curve import (
    AffinePoint,
    TwoTorsionModel,
    delta_class,
    delta_span_dim,
    dual_model,
    on_curve,
)
from .localdata import bad_places_qt, tate_local
from .polyq import (
    Poly,
    dual_discriminant,
    eval_at,
    ft_square_class,
    model_discriminant,
    poly_from_json,
    rational_roots,
    splits_linearly,
)


class ClassificationError(Exception):
    """A bad place did not fit the additive/I(2n)-I(n)/I(n)-I(2n) trichotomy."""


class FamilyValidationError(Exception):
    """Fixture data failed its load-time validation."""


@dataclass(frozen=True)
class PlaceClassification:
    A: frozenset[Place]
    M: frozenset[Place]
    M_prime: frozenset[Place]

    @property
    def all_places(self) -> frozenset[Place]:
        return self.A | self.M | self.M_prime

    def class_of(self, place: Place) -> str:
        if place in self.A:
            return "A"
        if place in self.M:
            return "M"
        if place in self.M_prime:
            return "M'"
        raise KeyError(f"{place} is not a bad place")


@dataclass(frozen=True)
class LocalFixture:
    curve: str  # "E" | "E'"
    place: Place
    kodaira: str | None = None
    tamagawa: int | None = None
    reduction: str | None = None


@dataclass(frozen=True)
class FamilyRecord:
    name: str
    E: TwoTorsionModel
    points_e: tuple[AffinePoint, ...]
    points_eprime: tuple[AffinePoint, ...]
    expected: PlaceClassification
    target_rank: int
    expected_dims: tuple[int, int]
    disc_expected: Poly
    disc_dual_expected: Poly
    local_fixtures: tuple[LocalFixture, ...]

    @property
    def dual(self) -> TwoTorsionModel:
        return dual_model(self.E)


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail per condition (a)-(g), with a witness string on failure."""

    statuses: dict
    r: int

    @property
    def all_pass(self) -> bool:
        return all(ok for ok, _ in self.statuses.values())

    def to_json(self) -> dict:
        return {
            "conditions": {
                key: {"status": "pass" if ok else "fail", "witness": witness}
                for key, (ok, witness) in sorted(self.statuses.items())
            },
            "r": self.r,
        }


def _poly_from_factored(data: dict) -> Poly:
    unit = Fraction(1)
    for p, e in data["unit"]:
        unit *= Fraction(p) ** e
    out = Poly.const(unit)
    for root, mult in data["roots"]:
        out = out * Poly.monic_linear(Fraction(root)) ** int(mult)
    return out


def _point_from_json(data: dict) -> AffinePoint:
    return AffinePoint.of(poly_from_json(data["x"]), poly_from_json(data["y"]))


def _classification_from_json(data: dict) -> PlaceClassification:
    def places(names):
        return frozenset(FT_INFINITY if s == "inf" else Place.ft(Fraction(s)) for s in names)

    return PlaceClassification(places(data["A"]), places(data["M"]), places(data["M_prime"]))


def _validate(rec: FamilyRecord):
    E, Edual = rec.E, rec.dual
    for P in rec.points_e:
        if not on_curve(E, P):
            raise FamilyValidationError(f"{rec.name}: point {P} not on E")
    for Q in rec.points_eprime:
        if not on_curve(Edual, Q):
            raise FamilyValidationError(f"{rec.name}: point {Q} not on E'")
    if model_discriminant(E.a, E.b) != rec.disc_expected:
        raise FamilyValidationError(f"{rec.name}: discriminant mismatch")
    if dual_discriminant(E.a, E.b) != rec.disc_dual_expected:
        raise FamilyValidationError(f"{rec.name}: dual discriminant mismatch")
    try:
        r = geometric_rank(rec.expected)
    except ValueError as exc:
        raise FamilyValidationError(f"{rec.name}: {exc}") from None
    if r != rec.target_rank:
        raise FamilyValidationError(f"{rec.name}: target rank inconsistent with classification")


@lru_cache(maxsize=1)
def builtin_families() -> tuple[FamilyRecord, ...]:
    """The five shipped families, validated on load."""
    raw = json.loads(resources.files("twodescent.data").joinpath("families.json").read_text())
    records = []
    for f in raw["families"]:
        rec = FamilyRecord(
            name=f["name"],
            E=TwoTorsionModel.over_qt(poly_from_json(f["a"]), poly_from_json(f["b"])),
            points_e=tuple(_point_from_json(p) for p in f["points_e"]),
            points_eprime=tuple(_point_from_json(p) for p in f["points_eprime"]),
            expected=_classification_from_json(f["classification"]),
            target_rank=f["target_rank"],
            expected_dims=tuple(f["expected_dims"]),
            disc_expected=_poly_from_factored(f["disc"]),
            disc_dual_expected=_poly_from_factored(f["disc_dual"]),
            local_fixtures=tuple(
                LocalFixture(
                    curve=x["curve"],
                    place=parse_place(x["place"]),
                    kodaira=x.get("kodaira"),
                    tamagawa=x.get("tamagawa"),
                    reduction=x.get("reduction"),
                )
                for x in f["local_fixtures"]
            ),
        )
        _validate(rec)
        records.append(rec)
    return tuple(records)


def family_by_name(name: str) -> FamilyRecord:
    for rec in builtin_families():
        if rec.name == name:
            return rec
    raise KeyError(f"unknown family {name!r}: have {[r.name for r in builtin_families()]}")


def classify_places(E: TwoTorsionModel) -> PlaceClassification:
    """Partition the bad places into A (additive), M (I(2n), I(n)), M' (I(n), I(2n))."""
    Edual = dual_model(E)
    A, M, Mp = set(), set(), set()
    for pl in bad_places_qt(E):
        rE = tate_local(E, pl)
        rEd = tate_local(Edual, pl)
        if rE.reduction == "additive" or rEd.reduction == "additive":
            if rE.is_multiplicative or rEd.is_multiplicative:
                raise ClassificationError(f"mixed reduction types at {pl}")
            A.add(pl)
            continue
        if not (rE.is_multiplicative and rEd.is_multiplicative):
            raise ClassificationError(f"bad place {pl} with a good curve in the pair")
        m, md = rE.kodaira.n, rEd.kodaira.n
        if m == 2 * md and md >= 1:
            M.add(pl)
        elif md == 2 * m and m >= 1:
            Mp.add(pl)
        else:
            raise ClassificationError(f"multiplicative pair (I{m}, I{md}) at {pl} fits no pattern")
    return PlaceClassification(frozenset(A), frozenset(M), frozenset(Mp))


def geometric_rank(cls: PlaceClassification) -> int:
    """r = 2|A| + |M| + |M'| - 4."""
    r = 2 * len(cls.A) + len(cls.M) + len(cls.M_prime) - 4
    if r < 0:
        raise ValueError("classification yields negative rank: not a valid family")
    return r


def _zero_point(E: TwoTorsionModel) -> AffinePoint:
    return AffinePoint.of(Poly(), Poly())


def verify_conditions(rec: FamilyRecord) -> ConditionReport:
    """Machine check of conditions (a)-(g) against the live curve data."""
    E, Edual = rec.E, rec.dual
    statuses: dict = {}

    disc = model_discriminant(E.a, E.b)
    ok_a = splits_linearly(disc)
    statuses["a"] = (ok_a, None if ok_a else "discriminant has a nonlinear irreducible factor")
    if not ok_a:
        # nothing below is well-defined without (a)
        for key in "bcdefg":
            statuses[key] = (False, "skipped: condition (a) failed")
        return ConditionReport(statuses, 0)

    cls = classify_places(E)
    ok_b = bool(cls.M) and bool(cls.M_prime)
    statuses["b"] = (ok_b, None if ok_b else f"M={sorted(map(str, cls.M))} M'={sorted(map(str, cls.M_prime))}")

    def _cd(places, partner):
        for pl in sorted(places, key=str):
            red = tate_local(partner, pl)
            if red.reduction == "split-multiplicative":
                continue
            if red.kodaira.letter == "I" and red.kodaira.n % 2 == 1:
                continue
            return False, f"at {pl}: partner has {red.kodaira} {red.reduction}"
        return True, None

    statuses["c"] = _cd(cls.M, Edual)
    statuses["d"] = _cd(cls.M_prime, E)

    ok_e, wit_e = True, None
    for pl in sorted(cls.A, key=str):
        rE = tate_local(E, pl)
        if rE.kodaira.letter == "I*":
            rEd = tate_local(Edual, pl)
            if rE.tamagawa != 4 or rEd.tamagawa != 4:
                ok_e, wit_e = False, f"at {pl}: c(E)={rE.tamagawa}, c(E')={rEd.tamagawa}"
                break
    statuses["e"] = (ok_e, wit_e)

    need_f = len(cls.A) + len(cls.M) - 1
    span_f = delta_span_dim(
        [delta_class(E, _zero_point(E))] + [delta_class(E, P) for P in rec.points_e]
    )
    statuses["f"] = (span_f >= need_f, None if span_f >= need_f else f"dim {span_f} < {need_f}")

    need_g = len(cls.A) + len(cls.M_prime) - 1
    span_g = delta_span_dim(
        [delta_class(Edual, _zero_point(Edual))] + [delta_class(Edual, Q) for Q in rec.points_eprime]
    )
    statuses["g"] = (span_g >= need_g, None if span_g >= need_g else f"dim {span_g} < {need_g}")

    return ConditionReport(statuses, geometric_rank(cls))


def _normalization_point(places: frozenset[Place]) -> Place:
    """Deterministic choice: finite places first, by (numerator height, value)."""
    finite = [pl for pl in places if pl.kind == "ft"]
    if finite:
        return min(finite, key=lambda pl: (abs(pl.e.numerator), pl.e))
    return FT_INFINITY


def _divisor_classes(roots: list[Fraction], has_inf: bool, norm: Place):
    """Squarefree monomial divisors, normalized to be 1 at the chosen place.

    With the place at infinity inside the support, odd degrees are allowed
    (infinity absorbs the parity); otherwise only even-degree divisors are
    unramified at infinity.
    """
    out = []
    n = len(roots)
    for mask in range(1 << n):
        B = [roots[i] for i in range(n) if mask >> i & 1]
        if not has_inf and len(B) % 2 != 0:
            continue
        f = Poly.const(1)
        for e in B:
            f = f * Poly.monic_linear(e)
        if norm.kind == "ft":
            value = eval_at(f, norm.e)
            if value == 0:
                raise FamilyValidationError("normalization point is a root of a divisor")
            f = f * Poly.const(1 / value)
            assert eval_at(f, norm.e) == 1
        else:
            assert f.leading == 1  # monic: trivial square class at infinity
        out.append((tuple(sorted(B)), f))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def admissible_divisor_sets(rec: FamilyRecord):
    """(F, F'): square classes of the admissible divisors of b and a^2-4b."""
    E = rec.E
    cls = classify_places(E)
    if not (cls.M and cls.M_prime):
        raise ValueError("conditions (a)/(b) must hold before computing divisor sets")
    e0 = _normalization_point(cls.M)
    e0p = _normalization_point(cls.M_prime)

    def finite_roots(pls) -> list[Fraction]:
        return sorted(pl.e for pl in pls if pl.kind == "ft")

    roots_b = finite_roots(cls.A | cls.M)
    roots_bp = finite_roots(cls.A | cls.M_prime)
    # sanity: those are exactly the roots of b and of a^2 - 4b
    if set(roots_b) != {r for r, _ in rational_roots(E.b)}:
        raise FamilyValidationError("roots of b do not match A union M")
    if set(roots_bp) != {r for r, _ in rational_roots(E.b_dual)}:
        raise FamilyValidationError("roots of a^2-4b do not match A union M'")

    F = _divisor_classes(roots_b, FT_INFINITY in (cls.A | cls.M), e0p)
    Fp = _divisor_classes(roots_bp, FT_INFINITY in (cls.A | cls.M_prime), e0)
    assert len(F) == 1 << (len(cls.A) + len(cls.M) - 1)
    assert len(Fp) == 1 << (len(cls.A) + len(cls.M_prime) - 1)
    return [ft_square_class(f) for _, f in F], [ft_square_class(f) for _, f in Fp]


@lru_cache(maxsize=None)
def excluded_primes(name: str) -> frozenset[int]:
    """Primes a specialization scan must treat as family-owned noise.

    Contains 2, 3 and every prime dividing the discriminant lead, a
    difference of bad points, a denominator in B, or a nonzero value of a,
    b, a^2-4b at a bad point; the local patterns of the scan are only
    asserted away from these.
    """
    rec = family_by_name(name)
    E = rec.E
    nums = {6}
    disc = model_discriminant(E.a, E.b)
    nums.add(disc.leading.numerator * disc.leading.denominator)
    roots = [pl.e for pl in rec.expected.all_places if pl.kind == "ft"]
    for e in roots:
        nums.add(e.denominator)
        for ep in roots:
            if e != ep:
                nums.add((e - ep).numerator * (e - ep).denominator)
        for val in (eval_at(E.a, e), eval_at(E.b, e), eval_at(E.b_dual, e)):
            if val != 0:
                nums.add(val.numerator * val.denominator)
    primes: set[int] = set()
    for n in nums:
        if n not in (0, 1, -1):
            primes.update(factor(n).primes)
    return frozenset(primes)
