"""Command-line interface: tate, selmer, rank, family, scan subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .curve import AffinePoint, TwoTorsionModel, dual_model
from .descent import descend, point_search, rank_bounds
from .family import builtin_families, family_by_name, verify_conditions
from .localdata import parse_place, tate_local
from .polyq import rational_from_str
from .scan import DEFAULT_SEARCH_BOUND, emit_report, run_scan


def _load_curve(arg: str) -> TwoTorsionModel:
    return TwoTorsionModel.from_json(json.loads(arg))


def _cmd_tate(args) -> int:
    E = _load_curve(args.curve)
    red = tate_local(E, parse_place(args.place))
    print(json.dumps(red.to_json(), sort_keys=True))
    return 0


def _basis_json(group) -> list[dict]:
    return [{"sign": c.sign, "support": list(c.support)} for c in group.basis]


def _cmd_selmer(args) -> int:
    D = descend(_load_curve(args.curve))
    out = {}
    for key, S in (("phi", D.phi), ("phi_hat", D.phi_hat)):
        out[key] = {"dim": S.dim, "basis": _basis_json(S)}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_rank(args) -> int:
    E = _load_curve(args.curve)
    pts_e, pts_ep = [], []
    if args.points:
        data = json.loads(args.points)
        for item in data.get("E", []):
            pts_e.append(AffinePoint.of(rational_from_str(item[0]), rational_from_str(item[1])))
        for item in data.get("E'", []):
            pts_ep.append(AffinePoint.of(rational_from_str(item[0]), rational_from_str(item[1])))
    if args.search_bound:
        pts_e += point_search(E, args.search_bound)
        pts_ep += point_search(dual_model(E), args.search_bound)
    status = rank_bounds(descend(E), pts_e, pts_ep)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="twodescent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tate", help="local reduction data at one place")
    p.add_argument("--curve", required=True, help='curve JSON, e.g. {"domain":"Q","a":"0/1","b":"-1/1"}')
    p.add_argument("--place", required=True, help='a prime, "T-e", or "inf"')
    p.set_defaults(func=_cmd_tate)

    p = sub.add_parser("selmer", help="phi- and phi-hat-Selmer groups")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=_cmd_selmer)

    p = sub.add_parser("rank", help="rank bounds by 2-isogeny descent")
    p.add_argument("--curve", required=True)
    p.add_argument("--points", help='{"E": [["x","y"],...], "E\'": [...]}')
    p.add_argument("--search-bound", type=int, default=DEFAULT_SEARCH_BOUND)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("family", help="built-in family registry")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("scan", help="specialization scan")
    p.add_argument("--family", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    args = parser.parse_args(argv)
    if args.command == "family" and args.action == "verify" and not args.name:
        parser.error("family verify requires a name")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
