"""The five built-in Q(T) families, their place data, and conditions (a)-(g).

Fixture data (coefficients, generic points, expected classifications,
printed discriminants, local reduction facts) ships as a JSON resource and
is revalidated at load: every point must pass the exact on-curve check and
the discriminant identities must hold, so transcription errors fail fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources

from .arith import FT_INFINITY, Place, factor, parse_place
from .curve import (
    AffinePoint,
    IntegerFibers,
    TwoTorsionModel,
    delta_class,
    delta_span_dim,
    dual_model,
    on_curve,
)
from .localdata import LocalReduction, bad_places_qt
from .polyq import Poly, UnsupportedClassError, eval_at, model_discriminant, poly_from_json


class ClassificationError(Exception):
    """A bad place did not fit the additive/I(2n)-I(n)/I(n)-I(2n) trichotomy."""


class FamilyValidationError(Exception):
    """Fixture data failed its load-time validation."""


@dataclass(frozen=True)
class PlaceClassification:
    A: frozenset[Place]
    M: frozenset[Place]
    M_prime: frozenset[Place]
    # classify_places keeps bad_places_qt(E) here, empty on fixture data; == and hash skip it
    local: dict[Place, tuple[LocalReduction, LocalReduction]] = field(default_factory=dict, compare=False, repr=False)

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

    @cached_property
    def fibers(self) -> IntegerFibers:
        """E and the generic points on E and E' as integer binary forms,
        cleared on first use: the scan builds each fiber from these."""
        return IntegerFibers(self.E, self.points_e, self.points_eprime)

    @cached_property
    def pattern_forms(self) -> tuple[tuple[int, int, Fraction], ...]:
        """(alpha, beta, order) per bad place: at t = m/n its form alpha*m + beta*n
        is s*m - r*n for e = r/s (s > 0) and n at infinity, and order is
        c_p(E')/c_p(E) at a prime p that divides it once, which the scan
        reads off the descent's local image (scan.tamagawa_ratio)."""
        order = {"M": Fraction(1, 2), "M'": Fraction(2), "A": Fraction(1)}
        forms = []
        for pl in sorted(self.expected.all_places, key=str):
            alpha, beta = (pl.e.denominator, -pl.e.numerator) if pl.kind == "ft" else (0, 1)
            forms.append((alpha, beta, order[self.expected.class_of(pl)]))
        return tuple(forms)

    def pattern_primes(self, m: int, n: int) -> list[tuple[int, Fraction]]:
        """(p, order) at t = m/n in lowest terms for the odd non-excluded primes
        p dividing a nonzero form once; p does not divide s, so v_p(form) = v_p(t - e)."""
        excl = excluded_primes(self.name)
        out = []
        for alpha, beta, order in self.pattern_forms:
            if value := alpha * m + beta * n:
                out += [(p, order) for p, e in factor(value).factors if e == 1 and p != 2 and p not in excl]
        return out


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
    if model_discriminant(Edual.a, Edual.b) != rec.disc_dual_expected:
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
            E=TwoTorsionModel(poly_from_json(f["a"]), poly_from_json(f["b"])),
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
    local = bad_places_qt(E)
    A, M, Mp = set(), set(), set()
    for pl, (rE, rEd) in local.items():
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
    return PlaceClassification(frozenset(A), frozenset(M), frozenset(Mp), local)


def geometric_rank(cls: PlaceClassification) -> int:
    """r = 2|A| + |M| + |M'| - 4."""
    r = 2 * len(cls.A) + len(cls.M) + len(cls.M_prime) - 4
    if r < 0:
        raise ValueError("classification yields negative rank: not a valid family")
    return r


def verify_conditions(rec: FamilyRecord) -> ConditionReport:
    """Machine check of conditions (a)-(g) against the live curve data."""
    E, Edual = rec.E, rec.dual
    try:
        cls = classify_places(E)
    except UnsupportedClassError:
        # nothing below is well-defined without (a)
        skipped = dict.fromkeys("bcdefg", (False, "skipped: condition (a) failed"))
        return ConditionReport({"a": (False, "discriminant has a nonlinear irreducible factor"), **skipped}, 0)

    statuses: dict = {"a": (True, None)}
    ok_b = bool(cls.M) and bool(cls.M_prime)
    statuses["b"] = (ok_b, None if ok_b else f"M={sorted(map(str, cls.M))} M'={sorted(map(str, cls.M_prime))}")

    def _cd(places, partner: int):
        for pl in sorted(places, key=str):
            red = cls.local[pl][partner]
            if red.reduction == "split-multiplicative":
                continue
            if red.kodaira.letter == "I" and red.kodaira.n % 2 == 1:
                continue
            return False, f"at {pl}: partner has {red.kodaira} {red.reduction}"
        return True, None

    statuses["c"] = _cd(cls.M, 1)  # E' at the M places
    statuses["d"] = _cd(cls.M_prime, 0)  # E at the M' places

    ok_e, wit_e = True, None
    for pl in sorted(cls.A, key=str):
        rE, rEd = cls.local[pl]
        if rE.kodaira.letter == "I*" and (rE.tamagawa != 4 or rEd.tamagawa != 4):
            ok_e, wit_e = False, f"at {pl}: c(E)={rE.tamagawa}, c(E')={rEd.tamagawa}"
            break
    statuses["e"] = (ok_e, wit_e)

    origin = AffinePoint.of(Poly(), Poly())
    need_f = len(cls.A) + len(cls.M) - 1
    span_f = delta_span_dim([delta_class(E, origin)] + [delta_class(E, P) for P in rec.points_e])
    statuses["f"] = (span_f >= need_f, None if span_f >= need_f else f"dim {span_f} < {need_f}")

    need_g = len(cls.A) + len(cls.M_prime) - 1
    span_g = delta_span_dim([delta_class(Edual, origin)] + [delta_class(Edual, Q) for Q in rec.points_eprime])
    statuses["g"] = (span_g >= need_g, None if span_g >= need_g else f"dim {span_g} < {need_g}")

    return ConditionReport(statuses, geometric_rank(cls))


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
