import csv
import io
import json
from pathlib import Path

import pytest

from sievekit import cli
from sievekit.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sift_csv(capsys):
    code, out = run(["sift", "--problem", "interval", "--x", "30", "--y", "30", "--z", "6"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "problem,z,survivors"
    assert lines[1].endswith(",6,8")


def test_bound_selberg_twin(capsys):
    code, out = run(
        ["bound", "--method", "selberg", "--problem", "twin", "--x", "1e4", "--z", "20"],
        capsys,
    )
    assert code == 0
    [cols] = csv_rows(out)
    assert cols["verdict"] == "valid"
    assert float(cols["bound"]) >= float(cols["exact"])


def test_bound_sweep_rows(capsys):
    code, out = run(
        ["bound", "--method", "linnik", "--problem", "interval", "--x", "1000", "--y", "1000",
         "--z", "5,10,20"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_json_and_csv_numeric_content_match(capsys, tmp_path):
    argv = ["bound", "--method", "legendre", "--problem", "twin", "--x", "500", "--z", "10"]
    code, csv_out = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out = run(argv + ["--format", "json"], capsys)
    assert code == 0
    [csv_cols] = csv_rows(csv_out)
    json_cols = json.loads(json_out)[0]
    for key, val in json_cols.items():
        assert str(val) == csv_cols[key]


@pytest.mark.parametrize("problem", [
    ["--problem", "interval", "--x", "1000", "--y", "500"],
    ["--problem", "twin", "--x", "1000"],
    ["--problem", "goldbach", "--N", "1000"],
    ["--problem", "shifted_prime", "--x", "1000"],
    ["--problem", "progression", "--x", "1000", "--k", "7", "--l", "3"],
    ["--problem", "parity", "--x", "1000", "--r", "1"],
], ids=lambda argv: argv[1])
def test_csv_round_trips_every_kind(problem, capsys):
    argv = ["bound", "--method", "legendre", *problem, "--z", "10,20"]
    code, csv_out = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out = run(argv + ["--format", "json"], capsys)
    assert code == 0
    rows = csv_rows(csv_out)
    json_rows = json.loads(json_out)
    assert len(rows) == len(json_rows) == 2
    for csv_cols, json_cols in zip(rows, json_rows):
        assert csv_cols == {key: str(val) for key, val in json_cols.items()}
        assert csv_cols["problem"].startswith(problem[1] + "(")


def test_integer_flags_parse_exactly(capsys):
    big = 2**53 + 1  # float() would round it to 2^53
    code, out = run(["sift", "--problem", "interval", "--x", str(big), "--y", "100", "--z", "2",
                     "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [{"problem": f"interval(x={big},y=100)", "z": 2, "survivors": 100}]
    code, out = run(["sift", "--problem", "twin", "--x", "1e4", "--z", "1e1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)[0]["problem"] == "twin(x=10000)"
    assert json.loads(out)[0]["z"] == 10
    assert main(["sift", "--problem", "interval", "--x", "10.7", "--y", "5", "--z", "2"]) == 2
    assert main(["sift", "--problem", "interval", "--x", "100", "--y", "5", "--z", "2.5"]) == 2
    assert main(["chen", "--N-range", "10000:10010.5:2"]) == 2


def test_deterministic_lsieve(capsys):
    argv = ["lsieve", "--suite", "additive", "--trials", "20", "--seed", "7"]
    code1, out1 = run(argv, capsys)
    code2, out2 = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run(argv[:-1] + ["8"], capsys)
    assert out3 != out1


def test_lsieve_hilbert_judged_with_slack(capsys, monkeypatch):
    # dim-1 families meet the bound exactly; their float ratios land within INEQ_SLACK of 1
    code, out = run(["lsieve", "--suite", "hilbert"], capsys)
    assert code == 0
    [row] = csv_rows(out)
    assert row["violations"] == "0" and float(row["worst_ratio"]) == pytest.approx(1.0)
    monkeypatch.setattr(cli, "hilbert_ls_check", lambda fam, psi: (2.0, 1.0))
    code, out = run(["lsieve", "--suite", "hilbert", "--trials", "3"], capsys)
    assert code == 1
    [row] = csv_rows(out)
    assert row["violations"] == "3" and float(row["worst_ratio"]) == 2.0


def test_sievefun_csv(capsys):
    code, out = run(["sievefun", "--tau-max", "4", "--step", "1e-3"], capsys)
    assert code == 0
    assert out.startswith("tau,phi0,phi1\n")
    # the tau = 2 row carries phi1(2) = e^gamma
    row2 = next(r for r in csv_rows(out) if r["tau"] == "2")
    assert row2["phi1"].startswith("1.78107241799")


def test_sievefun_tau_max_2_is_a_config_error(capsys):
    code = main(["sievefun", "--tau-max", "2"])
    assert code == 2
    assert "tau_max must exceed 2" in capsys.readouterr().err


def test_chen_command(capsys):
    code, out = run(["chen", "--N", "10000", "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["inequality_holds"] is True


def test_verify_small(capsys):
    code, out = run(["verify", "--suite", "all", "--budget", "small"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "interval", "x": "30", "y": "30", "z": [6]}))
    code, out = run(["--config", str(cfg), "sift"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",6,8")


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["--config", str(cfg), "sift"])
    assert code == 2


def test_bad_arguments_exit_2(capsys):
    code = main(["sift", "--problem", "progression", "--x", "100", "--k", "4", "--l", "2", "--z", "5"])
    assert code == 2


def test_budget_exit_3(capsys):
    code = main(["chen", "--N", "20000000"])
    assert code == 3
    assert main(["sift", "--problem", "twin", "--x", "1e30", "--z", "2"]) == 3


def test_integers_beyond_int64(capsys):
    code, out = run(["sift", "--problem", "interval", "--x", "1e30", "--y", "5", "--z", "2,3",
                     "--format", "json"], capsys)
    assert code == 0
    assert [row["survivors"] for row in json.loads(out)] == [5, 2]
    # the dual route folds the indices mod each Farey denominator in Python ints
    code, out = run(["bound", "--method", "linnik", "--problem", "interval", "--x", "1e30", "--y", "1000",
                     "--z", "10", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    code, out = run(["sift", "--problem", "interval", "--x", "1e30", "--y", "1000", "--z", "10",
                     "--format", "json"], capsys)
    assert code == 0
    assert row["verdict"] == "valid" and row["exact"] == json.loads(out)[0]["survivors"]


def test_pure_bound_with_divisors_beyond_int64(capsys):
    # ell = 7 keeps products of up to 14 odd primes below 60, some of them above 2^63
    code, out = run(["bound", "--method", "brun-pure", "--problem", "shifted_prime", "--x", "10000",
                     "--z", "60", "--ell", "7", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row["direction"] == "upper" and row["verdict"] == "valid"
    assert float(row["bound"]) >= int(row["exact"]) > 0


def test_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code = main(["sift", "--problem", "twin", "--x", "100", "--z", "2,4", "--out", str(path)])
    assert code == 0
    assert path.read_text().startswith("problem,z,survivors")


DATA = Path(__file__).parent / "data"
# (argv, golden stdout, exit code); the goldens were written by the CLI
# before the Chen cofactor count and the grouped profile kernel
GOLDENS = [
    (["chen", "--N-range", "10000:10200:2", "--format", "csv"], "chen_range_10000_10200_2.csv", 0),
    (["chen", "--N", "30030", "--format", "json"], "chen_30030.json", 0),
    (["verify", "--budget", "small"], "verify_small.txt", 0),
    (["verify", "--budget", "full"], "verify_full.txt", 0),
]
# every bound method on every affine kind, on both sides of the profile window
# (z = 53); these goldens were written by the CLI before the affine kinds shared
# one residue-class description and selberg shared the arith factorizer
AFFINE_ARGS = {
    "interval": ["--problem", "interval", "--x", "10000", "--y", "9999"],
    "twin": ["--problem", "twin", "--x", "10000"],
    "goldbach": ["--problem", "goldbach", "--N", "10030"],  # 10030 = 2 * 5 * 17 * 59
    "progression": ["--problem", "progression", "--x", "10000", "--k", "6", "--l", "5"],
}
GOLDENS += [
    (["bound", "--method", method, *args, "--z", "15,53,54,60"], f"bound_{method}_{kind}.csv", 0)
    for method in ("legendre", "brun-pure", "selberg", "linnik", "rosser")
    for kind, args in AFFINE_ARGS.items()
]
GOLDENS += [
    (["bound", "--method", "brun-pure", "--problem", "shifted_prime", "--x", "10000", "--z", "15,53,54,60"],
     "bound_brun-pure_shifted_prime.csv", 0),
    ("sift --problem progression --x 10000 --k 6 --l 5 --z 2,15,53,54,60".split(), "sift_progression.csv", 0),
    ("sift --problem progression --x 10000 --k 1 --l 0 --z 2,15,53,54,60".split(), "sift_progression_k1.csv", 0),
]
# Legendre and Rosser on the explicit kinds, written by the CLI before Legendre's
# total became one fold of the profile and parity's sigma terms read the profile
EXPLICIT_ARGS = {
    "parity": ["--problem", "parity", "--x", "10000", "--r", "1"],
    "shifted_prime": ["--problem", "shifted_prime", "--x", "10000"],
}
GOLDENS += [
    (["bound", "--method", method, *args, "--z", "15,53,54,60"], f"bound_{method}_{kind}.csv", 0)
    for method in ("legendre", "rosser")
    for kind, args in EXPLICIT_ARGS.items()
]


@pytest.mark.parametrize("argv,golden,code", GOLDENS, ids=[g for _, g, _ in GOLDENS])
def test_cli_output_matches_golden(capsys, argv, golden, code):
    got_code, out = run(argv, capsys)
    assert got_code == code
    assert out.encode() == (DATA / golden).read_bytes()
