import json

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
