import csv
import io
import json
import math
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from sievekit import cli
from sievekit.arith import BudgetError
from sievekit.cli import main
from sievekit.problem import _Profile
from sievekit.rosser import solve_sieve_functions


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


PURE_TWIN = ["bound", "--method", "brun-pure", "--problem", "twin", "--x", "1e4", "--z", "10"]


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
    assert main(PURE_TWIN + ["--ell", "10.7"]) == 2
    assert main(["lsieve", "--trials", "1e-2"]) == 2


@pytest.mark.parametrize("argv, exact, spelled", [
    (PURE_TWIN, ["--ell", "1"], ["--ell", "1e0"]),
    (PURE_TWIN, ["--parity", "0"], ["--parity", "0e0"]),
    (["lsieve", "--suite", "additive", "--trials", "10"], ["--Q", "10", "--N", "120", "--seed", "7"],
     ["--Q", "1e1", "--N", "1.2e2", "--seed", "7e0"]),
    (["lsieve", "--suite", "additive"], ["--trials", "10"], ["--trials", "1e1"]),
])
def test_count_and_choice_flags_parse_exactly(argv, exact, spelled, capsys):
    want = run(argv + exact, capsys)
    assert want[0] == 0 and want[1]
    assert run(argv + spelled, capsys) == want


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


def test_verify_exact_identity_catches_a_wrong_fold(monkeypatch):
    # the Legendre total comes off the profile's fold; verify compares it with the block sift, so one
    # survivor too many in every folded count fails each exact-identity line
    sift_count = _Profile.sift_count
    monkeypatch.setattr(_Profile, "sift_count", lambda self, *args: sift_count(self, *args) + 1)
    checks = list(islice(cli._verify_checks("small"), 4))
    assert checks == [(f"exact-identity {kind}", False) for kind in ("interval", "twin", "goldbach", "progression")]


@pytest.mark.parametrize("option", [["--out", "v.json"], ["--format", "json"], ["--seed", "3"]])
def test_verify_refuses_output_and_seed_options(option, tmp_path, monkeypatch, capsys):
    # verify prints text to stdout from a fixed seed; these options would be ignored, so they exit 2
    monkeypatch.chdir(tmp_path)
    code, out = run(["verify", "--budget", "small", *option], capsys)
    assert code == 2 and out == ""
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("argv", [
    ["sift", "--problem", "twin", "--x", "1e4", "--z", "10"],
    ["bound", "--method", "legendre", "--problem", "twin", "--x", "1e4", "--z", "10"],
    ["sievefun", "--tau-max", "4"],
    ["chen", "--N", "10000"],
])
def test_seed_only_where_it_is_read(argv, capsys):
    # only lsieve draws random inputs; elsewhere --seed would be silently ignored
    assert main(argv + ["--seed", "3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    ("--problem interval --x 100", "interval needs --y"),
    ("--problem twin", "twin needs --x"),
    ("--problem goldbach --x 100", "goldbach needs --N"),
    ("--problem shifted_prime --N 100", "shifted_prime needs --x"),
    ("--problem progression --x 100 --k 3", "progression needs --l"),
    ("--problem parity --x 100", "parity needs --r"),
], ids=lambda v: v.split()[1] if v.startswith("--") else None)
def test_missing_problem_flag_is_named(argv, message, capsys):
    assert main(["sift", *argv.split(), "--z", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "interval", "x": "30", "y": "30", "z": [6]}))
    code, out = run(["--config", str(cfg), "sift"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",6,8")


def test_config_unknown_key_exit_2(tmp_path, capsys):
    # a key no flag of the subcommand takes, a typo or a flag of another command, is refused by name
    cfg = tmp_path / "cfg.json"
    for key in ("zz", "seed"):
        cfg.write_text(json.dumps({"problem": "twin", "x": 10000, "z": [10], key: 5}))
        assert main(["--config", str(cfg), "sift"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key) in captured.err


def test_config_values_parsed_by_their_flags(tmp_path, capsys):
    # each value goes through its flag's own type and choices, as on the command line
    cfg = tmp_path / "cfg.json"
    base = {"method": "brun-pure", "problem": "twin", "x": 10000, "z": [10]}
    for key, value in (("ell", 1.5), ("ell", True), ("parity", 2), ("method", "brun"), ("z", [10.5]), ("D", [1])):
        cfg.write_text(json.dumps({**base, key: value}))
        assert main(["--config", str(cfg), "bound"]) == 2, (key, value)
        captured = capsys.readouterr()
        assert captured.out == "" and repr(key) in captured.err, (key, value)
    cfg.write_text(json.dumps({**base, "ell": "1e0", "parity": 0, "z": "10,20"}))
    code, out = run(["--config", str(cfg), "bound"], capsys)
    flags = ["bound", "--method", "brun-pure", "--problem", "twin", "--x", "10000", "--ell", "1", "--parity", "0"]
    assert code == 0 and out == run(flags + ["--z", "10,20"], capsys)[1]
    # a flag on the command line wins over the config
    assert run(["--config", str(cfg), "bound", "--z", "10"], capsys)[1] == run(flags + ["--z", "10"], capsys)[1]
    cfg.write_text(json.dumps([base]))
    assert main(["--config", str(cfg), "bound"]) == 2


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


def test_sift_past_the_small_primes_cap_exit_3(capsys):
    # small_primes(10^9) would hold 50.8M Python ints; it is refused before sieving
    assert main(["sift", "--problem", "interval", "--x", "5", "--y", "5", "--z", "1e9"]) == 3
    assert "small_primes" in capsys.readouterr().err


def test_sievefun_step_0_exit_2(capsys):
    assert main(["sievefun", "--step", "0"]) == 2
    assert "--step" in capsys.readouterr().err
    assert main(["sievefun", "--tau-max", "nan"]) == 2
    assert "--tau-max" in capsys.readouterr().err


def test_sievefun_grid_refused_before_allocating(capsys):
    # 2e8 rows at step 1e-7 would take several GB; 1e-300 and 5e-324 would overflow the row count
    for step in ("1e-7", "1e-300", "5e-324"):
        assert main(["sievefun", "--tau-max", "20", "--step", step]) == 3
        assert "grid rows" in capsys.readouterr().err
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            solve_sieve_functions(tau_max=20, step=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("D", ["nan", "0"])
def test_rosser_D_not_positive_exit_2(D, capsys):
    assert main(["bound", "--method", "rosser", "--problem", "twin", "--x", "1e4", "--z", "10", "--D", D]) == 2
    captured = capsys.readouterr()
    assert "--D" in captured.err and captured.out == ""


@pytest.mark.parametrize("z", ["0", "1"])
def test_rosser_z_below_2_exit_2(z, capsys):
    assert main(["bound", "--method", "rosser", "--problem", "twin", "--x", "1000", "--z", z]) == 2
    captured = capsys.readouterr()
    assert "z must be >= 2" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag, value", [("--Q", 10**6), ("--N", 10**12)])
def test_lsieve_refused_past_its_budget_before_allocating(flag, value, capsys):
    # --Q 10^6 would draw about 3e11 Farey points, --N 10^12 vectors of 10^12 entries
    tracemalloc.start()
    try:
        code = main(["lsieve", "--trials", "1", flag, str(value)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 1 << 20
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    # the budget's edge: Q^2 and N up to LSIEVE_CAP pass, one more is refused
    edge = {"--Q": math.isqrt(cli.LSIEVE_CAP), "--N": cli.LSIEVE_CAP}[flag]
    assert main(["lsieve", "--trials", "0", flag, str(edge)]) == 0
    assert main(["lsieve", "--trials", "0", flag, str(edge + 1)]) == 3


def test_lsieve_negative_trials_exit_2(capsys):
    assert main(["lsieve", "--trials", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err and captured.out == ""


def test_lsieve_Q_below_2_exit_2(capsys):
    assert main(["lsieve", "--Q", "1"]) == 2
    assert "--Q" in capsys.readouterr().err


@pytest.mark.parametrize("suite, N", [("all", 9), ("additive", 3), ("dual", 3), ("multiplicative", 3),
                                      ("linnik", 9), ("duality", 9)])
def test_lsieve_N_below_the_shortest_vector_exit_2(suite, N, capsys):
    assert main(["lsieve", "--suite", suite, "--N", str(N)]) == 2
    captured = capsys.readouterr()
    assert "--N" in captured.err and captured.out == ""
    assert main(["lsieve", "--suite", suite, "--N", str(N + 1), "--trials", "2"]) == 0


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
# Linnik at a large support (122 weights, 8532 Farey points), written by the CLI before the
# dual route factored each coefficient through one exact rational per modulus
GOLDENS += [
    ("bound --method linnik --problem twin --x 1e6 --z 200".split(), "bound_linnik_twin_x1e6_z200.csv", 0),
]
# the explicit kinds' sifted counts on both sides of the window, past the lookup-table
# runs and at lone primes above 512; written by the CLI before those kinds shared the block kernel
GOLDENS += [
    ("sift --problem parity --x 10000 --r 1 --z 2,15,53,54,60,100,1000".split(), "sift_parity.csv", 0),
    ("sift --problem shifted_prime --x 10000 --z 2,15,53,54,60,100,1000".split(), "sift_shifted_prime.csv", 0),
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


def test_readme_library_quick_start_runs(capsys):
    # the README's Python block runs as written, so it keeps in step with the API
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[1] == "390"
    assert "linnik" in lines[2]
