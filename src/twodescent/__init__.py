"""Descent by 2-isogeny for elliptic curves y^2 = x^3 + a x^2 + b x.

Exact arithmetic throughout: curves over Q and Q(T), Tate's algorithm at
p-adic and function-field places, Selmer groups by local solvability of
quartic torsors, rank certification, and a specialization scanner that
produces curves of each rank 0..4 from the built-in families.
"""

from .arith import FT_INFINITY, REAL, Place, PrimeFactorization, SquareClassQ, factor, square_class
from .curve import (
    AffinePoint,
    TwoTorsionModel,
    delta_class,
    dual_model,
    j_invariant,
)
from .descent import (
    Descent,
    RankStatus,
    descend,
    rank_bounds,
    torsor_solvable_at,
)
from .family import (
    ConditionReport,
    FamilyRecord,
    PlaceClassification,
    builtin_families,
    classify_places,
    geometric_rank,
    verify_conditions,
)
from .localdata import KodairaSymbol, LocalReduction, tate_local
from .polyq import Poly, SquareClassFT, eval_at, ft_square_class, model_discriminant, rational_roots, splits_linearly
from .scan import ScanResult, emit_report, run_scan

__version__ = "0.1.0"
