import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import twodescent
from oracles import poly_to_json
from twodescent import cli, descent, scan
from twodescent.arith import FactorizationEffortError
from twodescent.cli import main
from twodescent.descent import SolvabilityPrecisionError, run_or_reason
from twodescent.family import family_by_name
from twodescent.polyq import rational_to_str


def test_family_list(capsys):
    assert main(["family", "list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [f["name"] for f in out] == ["rank0", "rank1", "rank2", "rank3", "rank4"]


def test_family_verify(capsys):
    assert main(["family", "verify", "rank1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 1
    assert all(v["status"] == "pass" for v in out["conditions"].values())


def test_tate_subcommand(capsys):
    rc = main(["tate", "--curve", '{"domain":"Q","a":"0/1","b":"-1/1"}', "--place", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kodaira"] == "III" and out["tamagawa"] == 2

    # function-field place on the rank-0 model
    rc = main(["tate", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}', "--place", "T-0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kodaira"] == "I2" and out["reduction"] == "nonsplit-multiplicative"


def test_selmer_and_rank_subcommands(capsys):
    curve = '{"domain":"Q","a":"0/1","b":"-25/1"}'
    assert main(["selmer", "--curve", curve]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["phi"]["dim"] == 1 and out["phi_hat"]["dim"] == 2

    assert main(["rank", "--curve", curve, "--search-bound", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"kind": "determined", "value": 1}

    # the default search bound is the scan's, 32
    assert main(["rank", "--curve", curve]) == 0
    default = capsys.readouterr().out
    assert main(["rank", "--curve", curve, "--search-bound", "32"]) == 0
    assert default == capsys.readouterr().out

    # explicit points instead of search
    pts = json.dumps({"E": [["-4/1", "6/1"], ["45/1", "300/1"]], "E'": [["5/1", "25/1"]]})
    assert main(["rank", "--curve", curve, "--points", pts, "--search-bound", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "determined" and out["value"] == 1


def test_rank_moves_points_onto_the_integral_sides(capsys):
    """--points lie on E and E' as given, and rank moves them by x -> u^2 x,
    y -> u^3 y onto the integral sides it runs on.  y^2 = x^3 - 25/16 x has
    u = 2: its points (45/4, 75/2) and (5/4, 25/8) certify rank 1 with no
    search, as the moved points (45, 300) and (5, 25) do on y^2 = x^3 - 25x."""
    runs = [
        ("-25/16", '{"E": [["45/4","75/2"]], "E\'": [["5/4","25/8"]]}'),
        ("-25/1", '{"E": [["45/1","300/1"]], "E\'": [["5/1","25/1"]]}'),
    ]
    for b, pts in runs:
        assert main(["rank", "--curve", _q_curve("0/1", b), "--search-bound", "0", "--points", pts]) == 0
        assert capsys.readouterr().out == '{"kind": "determined", "value": 1}\n', b


def test_scan_subcommand(tmp_path, capsys):
    out_path = tmp_path / "r0.jsonl"
    rc = main(["scan", "--family", "rank0", "--height", "3", "--jobs", "1", "--out", str(out_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == len(out_path.read_text().splitlines())
    for line in out_path.read_text().splitlines():
        rec = json.loads(line)
        assert rec["family"] == "rank0"


CURVE = '{"domain":"Q","a":"0/1","b":"-25/1"}'


@pytest.mark.parametrize(
    "argv",
    [
        ["tate", "--curve", CURVE, "--place", "15"],
        ["tate", "--curve", CURVE, "--place", "real"],
        ["tate", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}', "--place", "T-1/0"],
        ["tate", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}', "--place", "T+1/0"],
        ["tate", "--curve", CURVE, "--place", "inf"],
        ["tate", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}', "--place", "3"],
        ["selmer", "--curve", "{not json"],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1"}'],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1","b":"0/1"}'],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1","b":"0/0"}'],
        ["selmer", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/0"]}'],
        ["selmer", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}'],
        ["tate", "--curve", '{"domain":"QT","a":"21","b":["0/1","1/1"]}', "--place", "T-1"],
        ["tate", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1",1]}', "--place", "T-1"],
        ["selmer", "--curve", '{"domain":"Q","a":true,"b":"-25/1"}'],
        ["selmer", "--curve", '{"domain":"Q","a":0,"b":"-25/1"}'],
        ["rank", "--curve", CURVE, "--points", '{"E": [["1/1","1/1"]]}'],
        ["rank", "--curve", CURVE, "--points", '{"E\'": [["5/1","-24/1"]]}'],
        ["rank", "--curve", CURVE, "--points", '{"E": [["1/0","2"]]}'],
        ["rank", "--curve", CURVE, "--search-bound", "-1"],
        ["scan", "--family", "rank0", "--height", "0", "--out", os.devnull],
        ["scan", "--family", "rank0", "--height", "3", "--jobs", "0", "--out", os.devnull],
        ["scan", "--family", "nosuch", "--height", "3", "--out", os.devnull],
        ["scan", "--family", "rank0", "--height", "2", "--out", os.path.join(os.devnull, "x.jsonl")],
        ["scan", "--family", "rank0", "--height", "2", "--out", os.curdir],
        ["family", "verify", "nosuch"],
        ["family", "verify"],
        ["family", "list", "rank0"],
    ],
    ids=[
        "tate-place-not-prime",
        "tate-place-not-on-Q",
        "tate-place-zero-denominator",
        "tate-place-plus-zero-denominator",
        "tate-place-of-QT-on-Q",
        "tate-prime-on-QT",
        "curve-malformed",
        "curve-missing-key",
        "curve-singular",
        "curve-zero-denominator",
        "curve-qt-zero-denominator",
        "selmer-curve-over-QT",
        "curve-qt-coefficient-a-string",
        "curve-qt-coefficient-not-a-string",
        "curve-coefficient-a-bool",
        "curve-coefficient-an-int",
        "rank-point-off-E",
        "rank-point-off-E-dual",
        "rank-points-zero-denominator",
        "rank-search-bound-negative",
        "scan-height-0",
        "scan-jobs-0",
        "scan-unknown-family",
        "scan-out-dir-missing",
        "scan-out-is-a-directory",
        "family-verify-unknown",
        "family-verify-no-name",
        "family-list-with-name",
    ],
)
def test_input_errors_exit_with_status_2(argv, capsys):
    """Bad input is a usage error: exit status 2 and one line on stderr,
    not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error: " in captured.err, captured.err


@pytest.mark.parametrize(
    "points",
    [
        '{"Ep": [["-4/1","6/1"]]}',
        '{"E": [["-4/1","6/1"]], "E\'\'": []}',
        '{"E": [["-4/1","6/1","1/1"]]}',
        '{"E": [["-4/1"]]}',
        '{"E": ["-4/1"]}',
        '{"E": [[-4, 6]]}',
        '{"E": "-4/1,6/1"}',
        '[["-4/1","6/1"]]',
    ],
    ids=[
        "unknown-key",
        "unknown-key-beside-E",
        "three-coordinates",
        "one-coordinate",
        "item-not-a-list",
        "coordinates-not-strings",
        "side-not-a-list",
        "not-an-object",
    ],
)
def test_malformed_points_exit_with_status_2(points, capsys):
    """--points takes the keys "E" and "E'" only, each a list of [x, y]
    pairs of rational strings; anything else is a usage error, not a point
    dropped or cut short.  (-4, 6) is on E, so no input here fails later."""
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--curve", CURVE, "--points", points, "--search-bound", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "bad points" in captured.err, captured.err


@pytest.mark.parametrize(
    "error, prefix",
    [
        (FactorizationEffortError("rho effort cap hit on 91"), "factorization"),
        (SolvabilityPrecisionError("refinement too deep"), "local solvability"),
    ],
    ids=["factorization", "local-solvability"],
)
@pytest.mark.parametrize("command", [["selmer"], ["rank", "--search-bound", "32"]], ids=["selmer", "rank"])
def test_descent_failure_exits_with_status_1(error, prefix, command, monkeypatch, capsys):
    """A valid curve whose descent cannot finish prints nothing on stdout
    and one stderr line holding the reason the scan writes into a skipped
    record, and exits with status 1: the input is not at fault."""

    def failing(A, B):
        raise error

    monkeypatch.setattr(cli, "descend", failing)
    monkeypatch.setattr(scan, "descend", failing)
    reason = run_or_reason(scan._CurveRuns, 0, -25)
    assert reason == f"{prefix}: {error}"
    assert main([command[0], "--curve", CURVE, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"twodescent: error: {reason}\n"


@pytest.mark.parametrize("command", [["selmer"], ["rank", "--search-bound", "0"]], ids=["selmer", "rank"])
def test_integral_model_failure_exits_with_status_1(command, monkeypatch, capsys):
    """Factoring the denominators for the integral model can give up as
    well, before any descent: the same status 1 and one stderr line."""

    def failing(a, b):
        raise FactorizationEffortError("rho effort cap hit on 91")

    monkeypatch.setattr(cli, "integral_model", failing)
    assert main([command[0], "--curve", CURVE, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "twodescent: error: factorization: rho effort cap hit on 91\n"


def _q_curve(a: str, b: str) -> str:
    return f'{{"domain":"Q","a":"{a}","b":"{b}"}}'


# (a, b, place) of the lines of tests/data/tate-cli.jsonl
TATE_CASES = [(-10, -39, "2"), (-12, -60, "2"), (289, 167042, "17"), (411, 7830, "3"), (294, -627669, "3")]


# (a, b, points) of the last lines of tests/data/rank-cli.jsonl: rank2 at
# t = -5/6 and rank3 at t = -2/3 with their generic points, whose classes
# put coverings in the span, so that the search at 128 skips them
RANK_POINT_CASES = [
    ("455/3", "-455/4", {"E": [["5/6", "-10/3"]], "E'": [["182/3", "728/1"]]}),
    (
        "87133/9",
        "83362720/81",
        {"E": [["-76832/9", "2458624/9"], ["-12152/9", "-352408/3"]], "E'": [["26769/4", "-1436603/8"]]},
    ),
]


# the argument lists with which the bare-install step of
# .github/workflows/tests.yml writes each golden file of tests/data
GOLDEN_CLI = {
    "selmer-cli.jsonl": [
        ["selmer", "--curve", _q_curve(f"{a}/1", f"{b}/1")]
        for a, b in [(452799, -76686), (-986562, 731629), (-593705, -937932), (0, -318665857834031151167461)]
    ],
    "selmer-mult-cli.jsonl": [
        ["selmer", "--curve", _q_curve(f"{a}/1", f"{b}/1")]
        for a, b in [(1, 7569), (1, 87), (2, 7569), (2, 87), (-2, -7568), (-2, -86), (-4, -7565), (-4, -83)]
    ],
    "selmer-walk-cli.jsonl": [
        ["selmer", "--curve", _q_curve(f"{a}/1", f"{b}/1")]
        for a, b in [(-1, 3584), (2, 1024), (3, -5120), (23, 1058), (46, -1587), (29, 1682), (62, -2883), (124, 6727)]
    ],
    "rank-cli.jsonl": [
        ["rank", "--curve", _q_curve(a, b), "--search-bound", "128"]
        for a, b in [("2/1", "-2/13"), ("1100/7", "-1980/49"), ("285/2", "-3591/16"), ("0/1", "-25/1")]
    ]
    + [
        ["rank", "--curve", _q_curve(a, b), "--points", json.dumps(points, separators=(",", ":")), "--search-bound", "128"]
        for a, b, points in RANK_POINT_CASES
    ],
    "tate-cli.jsonl": [
        ["tate", "--curve", _q_curve(f"{a}/1", f"{b}/1"), "--place", p] for a, b, p in TATE_CASES
    ],
    "family-cli.jsonl": [["family", "list"]] + [["family", "verify", f"rank{r}"] for r in range(5)],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden_file(name, capsys):
    """The CI's golden CLI cases, run in-process: stdout equals the stored
    file byte for byte, so the JSON key and basis order is pinned here too."""
    for argv in GOLDEN_CLI[name]:
        assert main(argv) == 0, argv
    golden = Path(__file__).parent / "data" / name
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("u", [2, 3])
def test_tate_on_rational_models_matches_golden_file(u, capsys):
    """(a/u^2, b/u^4) is (a, b) scaled by x -> x/u^2, y -> y/u^3, so it has
    the same local data: tate, which moves a rational pair to an integral
    model before Tate's algorithm, prints the golden line of each case."""
    golden = (Path(__file__).parent / "data" / "tate-cli.jsonl").read_text().splitlines(keepends=True)
    assert len(golden) == len(TATE_CASES)
    for (a, b, p), line in zip(TATE_CASES, golden):
        a, b = rational_to_str(Fraction(a, u * u)), rational_to_str(Fraction(b, u**4))
        assert main(["tate", "--curve", _q_curve(a, b), "--place", p]) == 0
        assert capsys.readouterr().out == line, (a, b, p)


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's twodescent."""
    src = str(Path(twodescent.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_reused_parser_keeps_no_state_between_calls(capsys):
    """main reuses one parser; each call in one process prints what the
    same argv prints in a fresh interpreter, whatever ran before it."""
    assert cli._parser() is cli._parser()
    pts = json.dumps({"E": [["-4/1", "6/1"], ["45/1", "300/1"]], "E'": [["5/1", "25/1"]]})
    sequence = [
        ["rank", "--curve", CURVE, "--points", pts, "--search-bound", "0"],
        ["rank", "--curve", CURVE, "--search-bound", "0"],
        ["rank", "--curve", CURVE, "--search-bound", "-1"],
        ["selmer", "--curve", CURVE],
        ["family", "list"],
        ["rank", "--curve", CURVE],
    ]
    outs = []
    for argv in sequence:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "twodescent.cli", *argv], env=_src_env(), capture_output=True, text=True
        )
        assert (status, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        outs.append(got.out)
    # the points of the first call do not reach the second
    assert json.loads(outs[0])["kind"] == "determined"
    assert json.loads(outs[1])["kind"] == "bounded"


def test_cli_loads_only_the_standard_library():
    """family verify on every family, and tate at a place T - e and at
    infinity, import nothing outside the standard library and twodescent
    (in a fresh interpreter, so that the test suite's own imports do not
    count)."""
    E = family_by_name("rank4").E
    curve = json.dumps({"domain": "QT", "a": poly_to_json(E.a), "b": poly_to_json(E.b)})
    script = textwrap.dedent(
        """
        import sys
        before = set(sys.modules)
        import contextlib, io
        from twodescent.cli import main
        curve = sys.argv[1]
        with contextlib.redirect_stdout(io.StringIO()):
            for name in ["rank0", "rank1", "rank2", "rank3", "rank4"]:
                assert main(["family", "verify", name]) == 0
            assert main(["tate", "--curve", curve, "--place", "T-11"]) == 0
            assert main(["tate", "--curve", curve, "--place", "inf"]) == 0
        print(" ".join(sorted(set(sys.modules) - before)))
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script, curve], env=_src_env(), capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "twodescent.polyq" in loaded
    allowed = sys.stdlib_module_names | {"twodescent"}
    foreign = [m for m in loaded if m.partition(".")[0] not in allowed]
    assert foreign == [], foreign


def test_importing_the_cli_loads_no_process_pool():
    """Only a scan with jobs > 1 uses a process pool, so importing
    twodescent.cli, and with it every command, loads neither
    concurrent.futures nor multiprocessing (in a fresh interpreter; CI's
    bare-install step runs the same check on the installed package)."""
    script = (
        "import sys, twodescent.cli; "
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    run = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_sieve_tables_fill_on_demand():
    """Importing twodescent fills no entry of the point-search residue
    tables, and a rank call at search bound 1 fills at most q entries per
    modulus q (in a fresh interpreter, so that earlier tests do not count).
    On y^2 = x^3 - 2x the walk of rank_bounds sieves the covering of d = -1
    on E, where (-1, 1) lies."""
    script = textwrap.dedent(
        """
        import contextlib, io, json
        import twodescent
        from twodescent import descent
        from twodescent.cli import main
        def filled():
            return [sum(x >= 0 for x in table) for table in descent._PATTERNS.values()]
        at_import = filled()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["rank", "--curve", '{"domain":"Q","a":"0/1","b":"-2/1"}', "--search-bound", "1"]) == 0
        print(json.dumps([list(descent._PATTERNS), at_import, filled()]))
        """
    )
    run = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, check=True)
    moduli, at_import, after_rank = json.loads(run.stdout)
    assert moduli == list(descent._SIEVE_MODULI)
    assert at_import == [0] * len(moduli)
    assert all(n <= q for q, n in zip(moduli, after_rank)), after_rank
    assert sum(after_rank) > 0
