"""Span tracer that wraps the program's public functions from outside.

Each wrapped function is patched where it is defined and under every
name that imports it: ``twodescent.scan.tate_local`` and
``twodescent.localdata.tate_local`` are separate bindings, and keeping
the binding on each span is what tells the bad-prime list apart from the
Tate runs inside ``local_image_order``.  Spans are kept in memory and
written once, by ``Tracer.write``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

PACKAGE = "twodescent"

# module -> public functions wrapped in it; a name missing from the
# program is reported as an absent layer instead of failing the run
LAYERS = {
    "cli": ("main",),
    "scan": ("run_scan", "scan_one", "emit_report"),
    "family": ("builtin_families",),
    "curve": ("specialize", "integral_model"),
    "arith": ("factor",),
    "descent": (
        "selmer_pair",
        "selmer_group",
        "torsor_solvable_at",
        "quartic_solvable_qp",
        "quartic_solvable_real",
        "point_search",
        "rank_bounds",
    ),
    "localdata": ("tate_local", "local_image_order"),
}

# spans that start a new item: each CLI call, and inside a scan each fiber
ITEM_SPANS = {"cli.main", "scan.scan_one"}


def _p_class(p: int) -> str:
    return "p2" if p == 2 else "small_p" if p < 23 else "large_p"


def _tag(name: str, args, kwargs, out):
    """Per-span detail that the layer metrics split or count by."""
    if name == "descent.quartic_solvable_qp":
        return _p_class(args[3] if len(args) > 3 else kwargs["p"]), bool(out)
    if name in ("descent.torsor_solvable_at", "descent.quartic_solvable_real"):
        return bool(out)
    if name == "descent.point_search":
        return len(out)
    return None


class Tracer:
    """Spans as [name, start, end, parent index, item id, binding, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._item = -1
        self._undo: list[tuple] = []

    def install(self) -> None:
        pkg = PACKAGE
        mods = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{pkg}.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            binding = mod.__name__.rpartition(".")[2]
                            setattr(mod, attr, self._wrap(f"{layer}.{fname}", binding, orig))
                            self._undo.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, binding: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_item = name in ITEM_SPANS

        def traced(*args, **kwargs):
            idx = len(spans)
            outer_item = self._item
            if starts_item:
                self._item = idx
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self._item, binding, None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                self._item = outer_item
            rec[6] = _tag(name, args, kwargs, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\titem\tbinding\ttag\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def layer_metrics(spans: list[list], items: int) -> dict[str, float]:
    """Per-layer counts and self times (span minus the time its children cover)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls: dict[str, int] = {}
    solved: dict[str, int] = {}  # calls whose test answered True
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        keys, outcome = [s[0]], s[6]
        if s[0] == "descent.quartic_solvable_qp":
            keys.append(f"{s[0]}.{outcome[0]}")
            outcome = outcome[1]
        for k in keys:
            calls[k] = calls.get(k, 0) + 1
            solved[k] = solved.get(k, 0) + (outcome is True)
            self_s[k] = self_s.get(k, 0.0) + (s[2] - s[1] - child[i])

    def n(key):
        return calls.get(key, 0)

    def sec(*keys):
        return sum(self_s.get(k, 0.0) for k in keys)

    def per_item(key):
        return n(key) / items if items else 0.0

    def solvable_share(key):
        return solved.get(key, 0) / n(key) if n(key) else 0.0

    tate = "localdata.tate_local"
    searches = [s for s in spans if s[0] == "descent.point_search"]
    fiber_ms = [1000 * (s[2] - s[1]) for s in spans if s[0] == "scan.scan_one"]
    out = {
        "localdata.tate_local.calls_per_item": per_item(tate),
        "localdata.tate_local.bad_primes.calls": sum(
            1 for s in spans if s[0] == tate and s[5] == "scan"
        ),
        "localdata.tate_local.s": sec(tate),
        "localdata.local_image_order.s": sec("localdata.local_image_order"),
        "localdata.local_image_order.tate_calls": sum(
            1 for s in spans if s[0] == tate and s[3] >= 0 and spans[s[3]][0] == "localdata.local_image_order"
        ),
        "descent.selmer.s": sec("descent.selmer_pair", "descent.selmer_group"),
        "descent.torsor_solvable_at.calls_per_item": per_item("descent.torsor_solvable_at"),
        "descent.torsor_solvable_at.s": sec("descent.torsor_solvable_at"),
        "descent.torsor_solvable_at.solvable_share": solvable_share("descent.torsor_solvable_at"),
    }
    for cls in ("p2", "small_p", "large_p"):
        key = f"descent.quartic_solvable_qp.{cls}"
        out[f"{key}.calls"] = n(key)
        out[f"{key}.s"] = sec(key)
        out[f"{key}.solvable_share"] = solvable_share(key)
    out.update(
        {
            "descent.quartic_solvable_real.calls": n("descent.quartic_solvable_real"),
            "descent.quartic_solvable_real.solvable_share": solvable_share("descent.quartic_solvable_real"),
            "arith.factor.calls_per_item": per_item("arith.factor"),
            "arith.factor.s": sec("arith.factor"),
            "descent.point_search.s": sec("descent.point_search"),
            "descent.point_search.points_per_call": (
                sum(s[6] for s in searches) / len(searches) if searches else 0.0
            ),
            "descent.rank_bounds.s": sec("descent.rank_bounds"),
            "curve.integral_model.calls_per_item": per_item("curve.integral_model"),
            "curve.integral_model.s": sec("curve.integral_model"),
            "curve.specialize.s": sec("curve.specialize"),
            "scan.scan_one.s": sec("scan.scan_one"),
            "scan.emit_report.s": sec("scan.emit_report"),
            "scan.fiber_ms_p50": statistics.median(fiber_ms) if fiber_ms else 0.0,
            "scan.fiber_ms_p95": (
                statistics.quantiles(fiber_ms, n=20)[18] if len(fiber_ms) >= 20 else 0.0
            ),
            "family.builtin_families.s": sec("family.builtin_families"),
            "cli.main.s": sec("cli.main"),
        }
    )
    return out
