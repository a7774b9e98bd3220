"""Command-line interface: tate, selmer, rank, family, scan subcommands."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .arith import Place, parse_place
from .curve import AffinePoint, TwoTorsionModel, check_nonsingular, clear_denominators, integral_model, on_model
from .descent import Descent, descend, rank_bounds, run_or_reason
from .family import builtin_families, family_by_name, verify_conditions
from .localdata import tate_local
from .polyq import SingularModelError, poly_from_json, rational_from_str
from .scan import DEFAULT_SEARCH_BOUND, emit_report, run_scan


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _is_coefficient(c, domain) -> bool:
    """Whether c is a rational string, or over Q(T) a list of them."""
    if domain == "QT":
        return isinstance(c, list) and all(isinstance(x, str) for x in c)
    return isinstance(c, str)


def _curve_arg(s: str):
    """A curve over Q as its pair (a, b) of Fractions, or one over Q(T) as a TwoTorsionModel."""
    try:
        data = json.loads(s)
        if not all(_is_coefficient(data[key], data["domain"]) for key in "ab"):
            raise ValueError('coefficients must be "num/den" strings over Q, and lists of them over Q(T)')
        if data["domain"] == "Q":
            a, b = rational_from_str(data["a"]), rational_from_str(data["b"])
            check_nonsingular(a, b)
            return a, b
        if data["domain"] == "QT":
            return TwoTorsionModel(poly_from_json(data["a"]), poly_from_json(data["b"]))
        raise ValueError(f"unknown domain {data['domain']}")
    except (ValueError, LookupError, TypeError, ZeroDivisionError, SingularModelError) as exc:
        raise argparse.ArgumentTypeError(f"bad curve {s!r}: {type(exc).__name__} {exc}") from None


def _place_arg(s: str) -> Place | int:
    """A place of Q(T), or a prime of Q as an int."""
    try:
        return parse_place(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad place {s!r}: {type(exc).__name__} {exc}") from None


def _is_point_list(items) -> bool:
    """Whether items is a list of [x, y] pairs of strings."""
    return isinstance(items, list) and all(
        isinstance(item, list) and len(item) == 2 and all(isinstance(c, str) for c in item) for item in items
    )


def _points_arg(s: str) -> tuple[list[AffinePoint], list[AffinePoint]]:
    try:
        data = json.loads(s)
        if not isinstance(data, dict) or not data.keys() <= {"E", "E'"}:
            raise ValueError("expected an object whose keys are among \"E\" and \"E'\"")
        sides = [data.get(side, []) for side in ("E", "E'")]
        if not all(map(_is_point_list, sides)):
            raise ValueError("expected lists of [x, y] pairs of rational strings")
        return tuple([AffinePoint.of(rational_from_str(x), rational_from_str(y)) for x, y in items] for items in sides)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad points {s!r}: {type(exc).__name__} {exc}") from None


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{s!r} is not a positive integer")
    return n


def _nonnegative_int(s: str) -> int:
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{s!r} is not a non-negative integer")
    return n


def _usage_error(args) -> str | None:
    """What the parsed arguments contradict, where two arguments, the
    family registry or the file system decide; None for consistent
    arguments."""
    cmd = args.command
    if cmd == "family" and args.action == "verify" and not args.name:
        return "family verify requires a name"
    if cmd == "family" and args.action == "list" and args.name:
        return f"family list takes no name, got {args.name!r}"
    if cmd == "scan" and Path(args.out).is_dir():
        return f"--out {args.out!r} is a directory, not a file"
    if cmd == "scan" and not (out_dir := Path(args.out).parent).is_dir():
        return f"--out {args.out!r}: {str(out_dir)!r} is not a directory"
    if cmd == "scan" or cmd == "family" and args.action == "verify":
        try:
            family_by_name(args.family if cmd == "scan" else args.name)
        except KeyError as exc:
            return exc.args[0]
        return None
    if cmd == "family":
        return None
    E = args.curve
    domain = "QT" if isinstance(E, TwoTorsionModel) else "Q"
    if cmd == "tate":
        on_q = isinstance(args.place, int)
        return None if on_q == (domain == "Q") else f"place {args.place} is incompatible with a {domain}-curve"
    if domain != "Q":
        return f"{cmd} takes a curve over Q"
    # rank_bounds checks the moved points again, for its library callers
    if points := getattr(args, "points", None):
        a, b = E
        for name, side, pts in zip(("E", "E'"), ((a, b), (-2 * a, a * a - 4 * b)), points):
            for P in pts:
                if not on_model(*side, P.x, P.y):
                    return f"point {P} is not on {name}"
    return None


def _cmd_tate(args) -> int:
    E = args.curve
    # at a prime Tate takes ints: an integral model has the local data of (a, b)
    a, b = (E.a, E.b) if isinstance(E, TwoTorsionModel) else clear_denominators(*E)[:2]
    red = tate_local(a, b, args.place)
    print(json.dumps(red.to_json(), sort_keys=True))
    return 0


def _descend(curve) -> tuple[Descent, Fraction] | None:
    """(descend(A, B), u) on the integral model (A, B, u) of the pair curve,
    or None after one stderr line saying why it failed, with the reason the
    scan writes into skipped records."""

    def run():
        A, B, u = integral_model(*curve)  # factors the denominators, so it can give up too
        return descend(A, B), u

    out = run_or_reason(run)
    if isinstance(out, str):
        print(f"twodescent: error: {out}", file=sys.stderr)
        return None
    return out


def _cmd_selmer(args) -> int:
    if (descended := _descend(args.curve)) is None:
        return 1
    D = descended[0]
    out = {}
    for key, S in (("phi", D.phi), ("phi_hat", D.phi_hat)):
        classes = [{"sign": c.sign, "support": list(c.support)} for c in D.classes(S)]
        out[key] = {"dim": len(S), "basis": classes}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_rank(args) -> int:
    if (descended := _descend(args.curve)) is None:
        return 1
    D, u = descended
    # x -> u^2 x, y -> u^3 y moves E and E' onto the integral sides (A, B) and (-2A, A^2-4B)
    pts_e, pts_ep = ([AffinePoint.of(P.x * u * u, P.y * u**3) for P in pts] for pts in args.points or ([], []))
    status = rank_bounds(D, pts_e, pts_ep, args.search_bound)
    print(json.dumps(status.to_json(), sort_keys=True))
    return 0


def _cmd_family(args) -> int:
    if args.action == "list":
        out = [
            {"name": rec.name, "target_rank": rec.target_rank}
            for rec in builtin_families()
        ]
        print(json.dumps(out, sort_keys=True))
        return 0
    rec = family_by_name(args.name)
    report = verify_conditions(rec)
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.all_pass else 1


def _cmd_scan(args) -> int:
    results = run_scan(args.family, args.height, jobs=args.jobs)
    summary = emit_report(results, args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on first use.

    Reusable: ``parse_args`` returns a fresh namespace on every call, and
    the ``type=`` converters keep no state."""
    parser = _Parser(prog="twodescent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tate", help="local reduction data at one place")
    p.add_argument(
        "--curve", required=True, type=_curve_arg, help='curve JSON, e.g. {"domain":"Q","a":"0/1","b":"-1/1"}'
    )
    p.add_argument("--place", required=True, type=_place_arg, help='a prime, "T-e", or "inf"')
    p.set_defaults(func=_cmd_tate)

    p = sub.add_parser("selmer", help="phi- and phi-hat-Selmer groups")
    p.add_argument("--curve", required=True, type=_curve_arg)
    p.set_defaults(func=_cmd_selmer)

    p = sub.add_parser("rank", help="rank bounds by 2-isogeny descent")
    p.add_argument("--curve", required=True, type=_curve_arg)
    p.add_argument("--points", type=_points_arg, help='{"E": [["x","y"],...], "E\'": [...]}')
    p.add_argument("--search-bound", type=_nonnegative_int, default=DEFAULT_SEARCH_BOUND)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("family", help="built-in family registry")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("scan", help="specialization scan")
    p.add_argument("--family", required=True)
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    error = _usage_error(args)
    if error:
        parser.error(error)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
