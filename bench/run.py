#!/usr/bin/env python3
"""Benchmark of twodescent: three workloads driven through ``cli.main``.

    python3 bench/run.py --workload scan|selmer_q|rank_search|all \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-manifest    # regenerate BENCHMARK.json
    python3 bench/run.py --write-reference   # store this commit's outputs

Run from the repository root.  The program is imported from ``src/``
of the checkout the script sits in.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed part of the workload
untraced and then traced and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # keep bench/ free of __pycache__
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    FAMILIES,
    RANK_SEARCH_BOUND,
    REFERENCE,
    ROOT,
    SCAN_HEIGHT,
    call_cli,
    curve_json,
    family_fibers,
    load_reference,
    overlaps,
    parse_selmer,
    rank_inputs,
    rank_interval,
    rank_key,
    same_record,
    selmer_inputs,
    span,
)

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_SECONDS = 25
SETUP_REPEATS = 5
SELMER_INPUTS = 8000  # more curves than a run gets through
SELMER_REFERENCE_ITEMS = 4000
SCAN_REFERENCE = f"scan-h{SCAN_HEIGHT}.records"

WORKLOADS = {
    "scan": "twodescent scan of rank0..rank4 at height 12, search bound 32: the unit of work, and the only "
    "workload that runs Tate (bad primes, Tamagawa check); ignores the seed",
    "selmer_q": "twodescent selmer on seeded curves with |a|,|b| <= 10^6: local solvability and factoring "
    "do the work, p >= 23 torsor tests weigh most; no Tate, no point search",
    "rank_search": "twodescent rank --search-bound 128 on seeded height <= 20 fibers of all five families "
    "as Q-curves: point search dominates; no Tate",
}
# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]
PER_LAYER = [
    ("localdata.tate_local.calls_per_item", "count", "lower"),
    ("localdata.tate_local.bad_primes.calls", "count", "lower"),
    ("localdata.tate_local.s", "s", "lower"),
    ("localdata.local_image_order.s", "s", "lower"),
    ("localdata.local_image_order.tate_calls", "count", "lower"),
    ("descent.selmer.s", "s", "lower"),
    ("descent.torsor_solvable_at.calls_per_item", "count", "lower"),
    ("descent.torsor_solvable_at.s", "s", "lower"),
    ("descent.torsor_solvable_at.solvable_share", "share", "higher"),
    ("descent.quartic_solvable_qp.p2.calls", "count", "lower"),
    ("descent.quartic_solvable_qp.p2.s", "s", "lower"),
    ("descent.quartic_solvable_qp.p2.solvable_share", "share", "higher"),
    ("descent.quartic_solvable_qp.small_p.calls", "count", "lower"),
    ("descent.quartic_solvable_qp.small_p.s", "s", "lower"),
    ("descent.quartic_solvable_qp.small_p.solvable_share", "share", "higher"),
    ("descent.quartic_solvable_qp.large_p.calls", "count", "lower"),
    ("descent.quartic_solvable_qp.large_p.s", "s", "lower"),
    ("descent.quartic_solvable_qp.large_p.solvable_share", "share", "higher"),
    ("descent.quartic_solvable_real.calls", "count", "lower"),
    ("descent.quartic_solvable_real.solvable_share", "share", "higher"),
    ("arith.factor.calls_per_item", "count", "lower"),
    ("arith.factor.s", "s", "lower"),
    ("descent.point_search.s", "s", "lower"),
    ("descent.point_search.points_per_call", "count", "higher"),
    ("descent.rank_bounds.s", "s", "lower"),
    ("curve.integral_model.calls_per_item", "count", "lower"),
    ("curve.integral_model.s", "s", "lower"),
    ("curve.specialize.s", "s", "lower"),
    ("scan.scan_one.s", "s", "lower"),
    ("scan.emit_report.s", "s", "lower"),
    ("scan.fiber_ms_p50", "ms", "lower"),
    ("scan.fiber_ms_p95", "ms", "lower"),
    *[(f"scan.{f}.fibers_per_s", "1/s", "higher") for f in FAMILIES],
    ("scan.records_changed", "count", "lower"),
    ("family.builtin_families.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("determined_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

# what a user's first command pays for: import, family load and
# validation, and the point-search sieve mask built on first use
SETUP_CALLS = [
    ["family", "list"],
    ["rank", "--curve", '{"domain":"Q","a":"0/1","b":"-1/1"}', "--search-bound", "1"],
]
_SETUP_PROBE = f"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from twodescent.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {SETUP_CALLS!r}:
        if main(argv) != 0:
            sys.exit(f"setup call {{argv}} failed")
"""


def import_program():
    """Import twodescent from this checkout's src/, or stop without a result."""
    if not (SRC / "twodescent" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'twodescent'}")
    sys.path.insert(0, str(SRC))
    import twodescent.cli

    if Path(twodescent.cli.__file__).resolve().parent != (SRC / "twodescent").resolve():
        sys.exit(f"bench: imported twodescent from {twodescent.cli.__file__}, not {SRC}")
    return twodescent.cli


# the same kind of work without the program: a fresh interpreter that
# imports a fixed set of standard-library modules
_NULL_PROBE = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, fractions, http.client, json, unittest, "
    "xml.dom.minidom"
)
# the null probe's fastest time on the 2-core 2.0 GHz x86-64 VM the
# benchmark was written on; it only sets the scale of setup_s
NULL_PROBE_REF_S = 0.136


def _spawn(*args: str) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_once() -> tuple[float, float]:
    """Wall time for a fresh interpreter to run SETUP_CALLS, and the mean
    time of the null probe run just before and just after it."""
    before = _spawn(_NULL_PROBE)
    setup = _spawn(_SETUP_PROBE, str(SRC))
    return setup, (before + _spawn(_NULL_PROBE)) / 2


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

CALIBRATION_EVERY_S = 0.25  # wall time between calibration samples
# the calibration loop's fastest time on the 2-core 2.0 GHz x86-64 VM the
# benchmark was written on; it only sets the scale of the reported numbers
CALIBRATION_REF_S = 0.0105


def calibration_loop() -> int:
    """Fixed interpreter work, independent of the program: big integers,
    Fractions, dicts and sorting, as in the program's hot paths."""
    acc = Fraction(0)
    d: dict[int, int] = {}
    for i in range(1, 1500):
        acc += Fraction(i * i + 1, 2 * i + 3)
        d[i % 97] = d.get(i % 97, 0) + pow(i, 65537, 1000003)
    xs = sorted((i * 7919) % 10007 for i in range(8000))
    return acc.numerator % 7 + len(d) + xs[0]


class HostSpeed:
    """Times of the calibration loop, sampled through a run by a timer.

    The shared host's speed drifts: one batch of curves took 1.0x to 1.9x
    its fastest time, in phases that last seconds to minutes.  The
    calibration loop slows with it, so dividing a run's times by
    `slowdown()` (the mean calibration time over its reference time)
    reports them at one host speed.  The samples run from SIGALRM in the
    main thread, so they also land inside a long CLI call, and `clock()`
    leaves out the time they take.
    """

    def __init__(self):
        calibration_loop()  # warm up
        self.samples: list[float] = []
        self._spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self._spent += dt

    def clock(self) -> float:
        """perf_counter without the time spent in calibration samples."""
        return time.perf_counter() - self._spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        if not self.samples:  # a run too short for the timer to fire
            self._sample(None, None)
        return statistics.fmean(self.samples) / CALIBRATION_REF_S


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    determined: int = 0  # items whose rank is certified exactly
    compared: int = 0  # items checked against a stored reference
    records_changed: int = 0  # scan records not byte-identical to the reference
    busy: float = 0.0  # seconds spent inside cli.main

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"bench: FAILED {what}", file=sys.stderr)


class Workload:
    """Units of work, one CLI call each, numbered k = 0, 1, 2, ..."""

    min_units = 1  # a timed run never stops before this many units
    trace_units: int  # the fixed part a traced run covers, so its counts repeat

    def run(self, cli, k: int, tally: Tally, clock=time.perf_counter) -> None:
        argv = self.argv(k)
        t0 = clock()
        try:
            text = call_cli(cli.main, argv)
        except Exception:
            tally.busy += clock() - t0
            tally.attempted += self.items(k)
            tally.fail(f"{argv}: {traceback.format_exc()}", self.items(k))
            return
        dt = clock() - t0
        tally.busy += dt
        self.timed(k, dt)
        self.check(k, text, tally)

    def items(self, k: int) -> int:
        return 1

    def timed(self, k: int, dt: float) -> None:
        pass

    def items_per_s(self, tally: Tally) -> float:
        return tally.attempted / tally.busy


class ScanWorkload(Workload):
    """Unit k scans family k mod 5.  The height fixes the input, so the
    seed is not used."""

    min_units = trace_units = len(FAMILIES)

    def __init__(self, seed: int):
        self.ref: dict[str, dict[str, str]] = {f: {} for f in FAMILIES}
        for line in (REFERENCE / SCAN_REFERENCE).read_text().splitlines():
            rec = json.loads(line)
            self.ref[rec["family"]][rec["t"]] = line
        self.times: dict[str, list[float]] = {f: [] for f in FAMILIES}
        self.comparison = f"compared with {SCAN_REFERENCE}"

    @staticmethod
    def _family(k: int) -> str:
        return FAMILIES[k % len(FAMILIES)]

    def _out(self, k: int) -> Path:
        return WORK / f"scan-{self._family(k)}.jsonl"

    def argv(self, k):
        self._out(k).unlink(missing_ok=True)  # a fresh output file per scan
        fam, out = self._family(k), str(self._out(k))
        return ["scan", "--family", fam, "--height", str(SCAN_HEIGHT), "--jobs", "1", "--out", out]

    def items(self, k):
        return len(self.ref[self._family(k)])

    def timed(self, k, dt):
        self.times[self._family(k)].append(dt)

    def check(self, k, text, tally):
        ref = self.ref[self._family(k)]
        seen = set()
        for line in self._out(k).read_text().splitlines():
            tally.attempted += 1
            tally.compared += 1
            rec = json.loads(line)
            t = rec.get("t")
            want = ref.get(t)
            if line != want:
                tally.records_changed += 1
            try:
                ok = t not in seen and "skipped" not in rec and want is not None and same_record(rec, json.loads(want))
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                tally.fail(f"scan record {line}")
            elif rec["rank"]["kind"] == "determined":
                tally.determined += 1
            seen.add(t)
        missing = len(ref.keys() - seen)
        if missing:
            tally.attempted += missing
            tally.compared += missing
            tally.fail(f"scan {self._family(k)}: {missing} fibers missing", missing)

    def items_per_s(self, tally):
        """Fibers of all five families over the sum of each family's mean
        scan time, so that a partly finished round does not tilt the mix."""
        timed = [f for f in FAMILIES if self.times[f]]
        return sum(len(self.ref[f]) for f in timed) / sum(statistics.fmean(self.times[f]) for f in timed)

    def fibers_per_s(self) -> dict[str, float]:
        return {
            f"scan.{f}.fibers_per_s": len(self.ref[f]) / statistics.fmean(ts) for f, ts in self.times.items() if ts
        }


class _CurveWorkload(Workload):
    """Unit k is input curve k; the inputs repeat if a run outlasts them."""

    def check(self, k, text, tally):
        tally.attempted += 1
        try:
            determined, compared = self.verify(k % len(self.inputs), text)
        except (ValueError, KeyError, TypeError) as exc:
            tally.fail(f"{self.argv(k)} -> {text.strip()}: {exc}")
            return
        tally.determined += determined
        tally.compared += compared


class SelmerWorkload(_CurveWorkload):
    trace_units = 400

    def __init__(self, seed: int):
        self.inputs = selmer_inputs(seed, SELMER_INPUTS)
        ref = load_reference("selmer_q.json")
        self.ref = ref["items"] if ref and ref["seed"] == seed else []
        self.comparison = (
            f"compared with selmer_q.json for its first {len(self.ref)} curves"
            if self.ref
            else f"no reference stored for seed {seed}: comparison not made"
        )

    def argv(self, k):
        return ["selmer", "--curve", curve_json(*self.inputs[k % len(self.inputs)])]

    def verify(self, i, text):
        a, b = self.inputs[i]
        got = parse_selmer(text, a, b)
        if i >= len(self.ref):
            return False, False
        ra, rb, phi, phi_hat = self.ref[i]
        if (ra, rb) != (a, b) or span(phi) != got["phi"] or span(phi_hat) != got["phi_hat"]:
            raise ValueError(f"differs from reference {self.ref[i]}")
        return False, True


class RankWorkload(_CurveWorkload):
    trace_units = 200

    def __init__(self, seed: int):
        self.inputs = rank_inputs(seed)
        self.ref = load_reference("rank_search.json")  # every fiber, so every seed
        self.comparison = "compared with rank_search.json"

    def argv(self, k):
        _, _, a, b = self.inputs[k % len(self.inputs)]
        return ["rank", "--curve", curve_json(a, b), "--search-bound", str(RANK_SEARCH_BOUND)]

    def verify(self, i, text):
        got = rank_interval(json.loads(text))
        want = self.ref[rank_key(self.inputs[i])]
        if not overlaps(got, tuple(want)):
            raise ValueError(f"rank {got} disjoint from reference {want}")
        return got[0] == got[1], True


WORKLOAD_TYPES = {"scan": ScanWorkload, "selmer_q": SelmerWorkload, "rank_search": RankWorkload}


def drive(wl: Workload, cli, tally: Tally, *, units: int, seconds: float = 0.0, between=None, clock=time.perf_counter):
    """Run `units` units, then more until `seconds` of CLI time pass.

    `between(busy)` is called after each unit, outside the timed calls.
    """
    k = 0
    while k < units or tally.busy < seconds:
        wl.run(cli, k, tally, clock)
        k += 1
        if between:
            between(tally.busy)


def timed_run(wl: Workload, cli, seconds: int) -> tuple[Tally, dict[str, float]]:
    """End-to-end metrics, with times scaled to one host speed."""
    host = HostSpeed()
    setups: list[tuple[float, float]] = []

    def between(busy: float) -> None:
        # setup is measured at even steps of the run too, with the
        # calibration timer off so that it does not land in a probe
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            host.stop()
            setups.append(setup_once())
            host.start()

    tally = Tally()
    between(0.0)
    host.start()
    try:
        drive(wl, cli, tally, units=wl.min_units, seconds=seconds, between=between, clock=host.clock)
    finally:
        host.stop()
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once())
    slowdown = host.slowdown()
    rate = wl.items_per_s(tally)
    print(f"  host slowdown = {slowdown:.4g} ({len(host.samples)} calibration samples)")
    print(f"  wall clock: {rate:.6g} items/s, setup {statistics.median(s for s, _ in setups):.6g} s")
    return tally, {
        "items_per_s": rate * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # process start-up does not follow the calibration loop, so setup is
        # scaled by the null probe timed next to it instead
        "setup_s": statistics.median(s / null for s, null in setups) * NULL_PROBE_REF_S,
    }


def traced_run(name: str, wl: Workload, cli, seed: int) -> tuple[Tally, dict[str, float]]:
    """Per-layer metrics: a fixed part of the workload untraced, then traced."""
    from tracer import Tracer, layer_metrics

    plain = Tally()
    drive(wl, cli, plain, units=wl.trace_units)
    per_family = wl.fibers_per_s() if isinstance(wl, ScanWorkload) else {}
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        drive(wl, cli, tally, units=wl.trace_units)
    finally:
        tracer.remove()
    tracer.write(WORK / f"spans-{name}-seed{seed}.tsv")
    if tracer.absent:
        print(f"bench: layers absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    metrics = layer_metrics(tracer.spans, tally.attempted)
    metrics.update(per_family)
    metrics["scan.records_changed"] = tally.records_changed
    metrics["determined_share"] = tally.determined / tally.attempted
    metrics["trace.overhead_share"] = 1 - plain.busy / tally.busy
    for key in ("attempted", "failed", "compared"):
        setattr(tally, key, getattr(tally, key) + getattr(plain, key))
    return tally, metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = import_program()
    WORK.mkdir(exist_ok=True)
    setup_once()  # unmeasured: compiles bytecode and fills the file cache
    for argv in SETUP_CALLS:
        call_cli(cli.main, argv)
    wl = WORKLOAD_TYPES[name](seed)
    print(f"workload {name}, seed {seed}")
    if trace:
        tally, metrics = traced_run(name, wl, cli, seed)
        defs = PER_LAYER
    else:
        tally, metrics = timed_run(wl, cli, seconds)
        defs = END_TO_END
    print(f"  {tally.attempted} items, {tally.failed} failed")
    print(f"  failed_share = {tally.failed / tally.attempted:.6g} share")
    if name != "selmer_q":
        print(f"  determined_share = {tally.determined / tally.attempted:.6g} share")
    print(f"  reference: {wl.comparison}; {tally.compared} of {tally.attempted} items compared")
    out = {}
    for metric, unit, *_ in defs:
        value = float(metrics.get(metric, 0.0))
        out[metric] = {"value": value, "unit": unit}
        print(f"  {metric} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": out}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, so that peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(cmd + ["--trace", str(trace)], stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_reference() -> None:
    """Store the current program's outputs as the references to compare with."""
    cli = import_program()
    WORK.mkdir(exist_ok=True)
    scan = ScanWorkload(DEFAULT_SEED)
    lines = []
    for k in range(len(FAMILIES)):
        call_cli(cli.main, scan.argv(k))
        lines += scan._out(k).read_text().splitlines()
    (REFERENCE / SCAN_REFERENCE).write_text("\n".join(lines) + "\n")

    items = []
    for a, b in selmer_inputs(DEFAULT_SEED, SELMER_REFERENCE_ITEMS):
        got = json.loads(call_cli(cli.main, ["selmer", "--curve", curve_json(a, b)]))
        bases = [[c["sign"] * math.prod(c["support"]) for c in got[key]["basis"]] for key in ("phi", "phi_hat")]
        items.append(json.dumps([a, b, *bases]))
    _write_lines("selmer_q.json", f'{{"seed":{DEFAULT_SEED},"items":[', items, "]}")

    ranks = {}
    for fiber in (f for fibers in family_fibers().values() for f in fibers):
        _, _, a, b = fiber
        argv = ["rank", "--curve", curve_json(a, b), "--search-bound", str(RANK_SEARCH_BOUND)]
        ranks[rank_key(fiber)] = list(rank_interval(json.loads(call_cli(cli.main, argv))))
    _write_lines("rank_search.json", "{", [f"{json.dumps(k)}:{json.dumps(v)}" for k, v in sorted(ranks.items())], "}")


def _write_lines(name: str, head: str, entries: list[str], tail: str) -> None:
    # one entry per line keeps diffs of the reference readable
    (REFERENCE / name).write_text(head + "\n" + ",\n".join(entries) + "\n" + tail + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-manifest", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
