import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import twodescent
from twodescent import cli
from twodescent.cli import main


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
        ["selmer", "--curve", "{not json"],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1"}'],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1","b":"0/1"}'],
        ["selmer", "--curve", '{"domain":"Q","a":"0/1","b":"0/0"}'],
        ["selmer", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/0"]}'],
        ["selmer", "--curve", '{"domain":"QT","a":["2/1"],"b":["0/1","1/1"]}'],
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
    ],
    ids=[
        "tate-place-not-prime",
        "tate-place-not-on-Q",
        "curve-malformed",
        "curve-missing-key",
        "curve-singular",
        "curve-zero-denominator",
        "curve-qt-zero-denominator",
        "selmer-curve-over-QT",
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
    script = textwrap.dedent(
        """
        import sys
        before = set(sys.modules)
        import contextlib, io, json
        from twodescent.cli import main
        from twodescent.family import family_by_name
        with contextlib.redirect_stdout(io.StringIO()):
            for name in ["rank0", "rank1", "rank2", "rank3", "rank4"]:
                assert main(["family", "verify", name]) == 0
            curve = json.dumps(family_by_name("rank4").E.to_json())
            assert main(["tate", "--curve", curve, "--place", "T-11"]) == 0
            assert main(["tate", "--curve", curve, "--place", "inf"]) == 0
        print(" ".join(sorted(set(sys.modules) - before)))
        """
    )
    run = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "twodescent.polyq" in loaded
    # multiprocessing registers __main__ again as __mp_main__
    allowed = sys.stdlib_module_names | {"twodescent", "__mp_main__"}
    foreign = [m for m in loaded if m.partition(".")[0] not in allowed]
    assert foreign == [], foreign
