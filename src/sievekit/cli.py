"""Command-line front end: oracle runs, bound sweeps, verification suites.

Exit codes: 0 success, 1 verification failure, 2 bad config/arguments,
3 budget exceeded.  ``lsieve`` draws its random checks from --seed (default
0), ``verify`` from a fixed seed, and all emitted numbers carry 15
significant digits, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .arith import BudgetError, primes_up_to
from .brun import PureSieveConfig, pure_sieve_bound
from .largesieve import (
    INEQ_SLACK,
    SeparatedPoints,
    additive_ls_check,
    dual_ls_check,
    duality_rayleigh,
    farey_points,
    hilbert_ls_check,
    linnik_identity_check,
    multiplicative_ls_check,
)
from .legendre import legendre_decompose
from .problem import build_problem, exact_sift
from .reports import BoundReport, write_rows
from .rosser import (
    RosserWeightTable,
    buchstab_check,
    chen_decomposition,
    linear_sieve_bound,
    parity_extremal,
    rosser_identity,
    solve_sieve_functions,
)
from .selberg import linnik_bound, selberg_upper_bound

PROBLEM_KEYS = ("x", "y", "N", "k", "l", "r")
# the flags each kind's builder reads
PROBLEM_FLAGS = {"interval": ("x", "y"), "twin": ("x",), "goldbach": ("N",), "shifted_prime": ("x",),
                 "progression": ("x", "k", "l"), "parity": ("x", "r")}

# Most entries one lsieve trial may hold in an array.  --Q draws about 0.3 Q^2 Farey points and
# phase tables of under Q^2; --N draws vectors of N.
LSIEVE_CAP = 1 << 20

# The exponent stays under five digits, so a flag cannot ask for an integer
# with billions of digits.
_INT_TEXT = re.compile(r"[+-]?\d+(\.\d*)?([eE][+-]?\d{1,4})?")


def _int(s) -> int:
    """An integer flag, parsed exactly: 12, 1e4 and 1.5e3 pass; 10.7 and 1e-2 raise ValueError."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    text = str(s).strip()
    value = Fraction(text) if _INT_TEXT.fullmatch(text) else None
    if value is None or value.denominator != 1:
        raise ValueError(f"expected an integer, got {s!r}")
    return value.numerator


def _problem_from_args(args):
    if not getattr(args, "problem", None):
        raise ValueError("--problem is required (flag or config)")
    params = {}
    for key in PROBLEM_KEYS:
        val = getattr(args, key if key != "N" else "bigN", None)
        if val is not None:
            params[key] = _int(val)
    missing = [f"--{key}" for key in PROBLEM_FLAGS[args.problem] if key not in params]
    if missing:
        raise ValueError(f"{args.problem} needs {' and '.join(missing)}")
    return build_problem(args.problem, params)


def _emit(rows, args) -> None:
    text = write_rows(rows, args.out, args.format)
    if not args.out:
        sys.stdout.write(text)


def cmd_sift(args) -> int:
    problem = _problem_from_args(args)
    if not args.z:
        raise ValueError("--z is required (flag or config)")
    rows = []
    for z in args.z:
        rows.append({"problem": problem.describe(), "z": z, "survivors": exact_sift(problem, z)})
    _emit(rows, args)
    return 0


def cmd_bound(args) -> int:
    problem = _problem_from_args(args)
    if not args.z or not args.method:
        raise ValueError("--z and --method are required (flag or config)")
    if args.D is not None and not 0 < args.D < float("inf"):
        raise ValueError(f"--D must be a finite number > 0, got {args.D}")
    rows = []
    for z in args.z:
        if args.method == "legendre":
            dec = legendre_decompose(problem, z)
            rep = BoundReport(
                method="legendre", problem=problem.describe(), params={"z": z},
                direction="upper", main=float(dec.main), remainder_bound=float(dec.remainder),
                bound=float(dec.total), exact=dec.total,
            )
        elif args.method == "brun-pure":
            parity = "lower" if args.parity == 0 else "upper"
            config = PureSieveConfig(z=z, ell=args.ell, parity=parity)
            rep = pure_sieve_bound(problem, config)
        elif args.method == "selberg":
            rep = selberg_upper_bound(problem, z)
        elif args.method == "linnik":
            rep = linnik_bound(problem, z)
        elif args.method == "rosser":
            D = args.D if args.D is not None else float(z) ** 3
            rep = linear_sieve_bound(problem, z, D, args.parity)
        else:
            raise ValueError(f"unknown method {args.method!r}")
        rows.append(rep.row())
    _emit(rows, args)
    return 0


def cmd_lsieve(args) -> int:
    if args.trials < 0 or args.Q < 2:
        raise ValueError(f"lsieve needs --trials >= 0 and --Q >= 2, got {args.trials} and {args.Q}")
    least_N = {"hilbert": 0, "linnik": 10, "duality": 10, "all": 10}.get(args.suite, 4)  # the shortest vector drawn
    if args.N < least_N:
        raise ValueError(f"lsieve --suite {args.suite} needs --N >= {least_N}, got {args.N}")
    for flag, value, entries in (("--Q", args.Q, args.Q**2), ("--N", args.N, args.N)):
        if entries > LSIEVE_CAP:
            raise BudgetError(f"lsieve {flag} {value} asks for arrays of up to {entries} entries, past {LSIEVE_CAP}")
    rng = np.random.default_rng(args.seed)
    rows = []
    suites = ("additive", "dual", "hilbert", "multiplicative", "linnik", "duality")
    chosen = suites if args.suite == "all" else (args.suite,)
    for suite in chosen:
        violations = 0
        worst = 0.0
        # a dim-1 hilbert family meets its bound exactly, so its float ratio may round past 1
        allowed = 1 + INEQ_SLACK if suite == "hilbert" else 1
        for _ in range(args.trials):
            if suite == "additive":
                pts = farey_points(int(rng.integers(2, args.Q + 1)))
                n = int(rng.integers(4, args.N + 1))
                a = rng.normal(size=n) + 1j * rng.normal(size=n)
                _, _, ratio = additive_ls_check(pts, a, int(rng.integers(-50, 50)))
            elif suite == "dual":
                pts = farey_points(int(rng.integers(2, args.Q + 1)))
                b = rng.normal(size=len(pts.points)) + 1j * rng.normal(size=len(pts.points))
                _, _, ratio = dual_ls_check(pts, b, int(rng.integers(-50, 50)), int(rng.integers(4, args.N + 1)))
            elif suite == "hilbert":
                dim = int(rng.integers(1, 21))
                fam = rng.normal(size=(int(rng.integers(1, 12)), dim)) + 1j * rng.normal(size=(1, dim))
                psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                lhs, rhs = hilbert_ls_check(fam, psi)
                ratio = lhs / rhs if rhs else 0.0
            elif suite == "multiplicative":
                n = int(rng.integers(4, args.N + 1))
                a = rng.normal(size=n) + 1j * rng.normal(size=n)
                lhs, rhs = multiplicative_ls_check(int(rng.integers(2, min(args.Q, 30) + 1)), a)
                ratio = lhs / rhs if rhs else 0.0
            elif suite == "linnik":
                n = int(rng.integers(10, args.N + 1))
                w = rng.integers(0, 2, size=n).astype(float)
                p = int(rng.choice([2, 3, 5, 7, 11, 13]))
                rep = linnik_identity_check(w, p, float(rng.uniform()))
                ratio = 0.0 if rep["identity_holds"] else 2.0
            else:  # duality
                pts = farey_points(int(rng.integers(2, min(args.Q, 12) + 1)))
                n = int(rng.integers(10, min(args.N, 120) + 1))
                r1, r2 = duality_rayleigh(pts, 0, n)
                ratio = abs(r1 - r2) / max(r1, r2) + (1.0 if abs(r1 - r2) > 1e-6 * max(r1, r2) else 0.0)
            worst = max(worst, ratio)
            if ratio > allowed:
                violations += 1
        rows.append({"suite": suite, "trials": args.trials, "violations": violations, "worst_ratio": worst})
    _emit(rows, args)
    return 1 if any(row["violations"] for row in rows) else 0


def cmd_sievefun(args) -> int:
    for flag, value in (("--step", args.step), ("--tau-max", args.tau_max)):
        if not 0 < value < float("inf"):
            raise ValueError(f"{flag} must be a finite number > 0, got {value}")
    table = solve_sieve_functions(tau_max=args.tau_max, step=args.step)
    _emit(table.rows(), args)
    return 0


def cmd_chen(args) -> int:
    ns = []
    if args.bigN is not None:
        ns.append(_int(args.bigN))
    if args.N_range:
        start, stop, step = (_int(v) for v in args.N_range.split(":"))
        ns.extend(range(start, stop, step))
    if not ns:
        raise ValueError("chen needs --N or --N-range")
    table = primes_up_to(max(ns) + 1)
    rows = [chen_decomposition(N, table).row() for N in ns]
    _emit(rows, args)
    return 1 if any(not r["inequality_holds"] for r in rows) else 0


def _verify_checks(budget: str):
    """Curated invariant sweep; yields (name, passed) pairs."""
    small = budget == "small"
    x_int = 10**4 if small else 10**5
    table = primes_up_to(10**5 + 2)

    problems = [
        build_problem("interval", {"x": x_int, "y": x_int - 1}),
        build_problem("twin", {"x": 2000 if small else 10**4}),
        build_problem("goldbach", {"N": 2000 if small else 10**4}),
        build_problem("progression", {"x": 2000 if small else 10**4, "k": 5, "l": 2}),
    ]
    for prob in problems:
        # the profile's fold against the form's block sift: a second algorithm, not the same table read twice
        ok = all(
            legendre_decompose(prob, z).total == prob.omega_form().sift_count(z)
            for z in (2, 6, 13, 30)
        )
        yield f"exact-identity {prob.kind}", ok
    for prob in problems[:2]:
        ok = all(buchstab_check(prob, z0, z).holds for z0, z in ((2, 10), (3, 20)))
        yield f"buchstab {prob.kind}", ok
        for r in (0, 1):
            rep = rosser_identity(prob, 2, 15, RosserWeightTable(D=1000.0, beta=2.0, r=r))
            yield f"weight-identity {prob.kind} r={r}", rep.holds and rep.detail["bound_holds"]
    twin = problems[1]
    up = pure_sieve_bound(twin, PureSieveConfig(15, 2, "upper"))
    lo = pure_sieve_bound(twin, PureSieveConfig(15, 1, "lower"))
    yield "pure-sieve sandwich", up.verdict == "valid" and lo.verdict == "valid"
    sel = selberg_upper_bound(twin, 15)
    lin = linnik_bound(twin, 15)
    yield "selberg bound", sel.verdict == "valid"
    yield "linnik bound", lin.verdict == "valid"
    # each vector's real and imaginary parts are two consecutive normal(40) draws, as when drawn one at a time
    z = np.random.default_rng(0).normal(size=(50 if small else 400, 2, 40))
    _, _, ratio = additive_ls_check(farey_points(10), z[:, 0] + 1j * z[:, 1])
    yield "additive large sieve", bool(np.all(ratio <= 1))
    rep = parity_extremal(10**4, 8, 0)
    yield "parity extremal identity", rep.identity_exact
    rep = chen_decomposition(10**4, table)
    yield "almost-prime decomposition", rep.inequality_holds


def cmd_verify(args) -> int:
    failures = []
    for name, ok in _verify_checks(args.budget):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"{len(failures)} failed: {failures}")
        return 1
    print("all checks passed")
    return 0


def _int_list(text: str) -> list[int]:
    return [_int(tok) for tok in text.split(",") if tok]


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The sievekit parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="sievekit", description=__doc__)
    parser.add_argument("--config", help="JSON file holding the same keys as the flags")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def sub_parser(name, **kw):
        p = commands[name] = sub.add_parser(name, **kw)
        return p

    def add_common(p):
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_problem(p):
        p.add_argument("--problem", choices=tuple(PROBLEM_FLAGS))
        p.add_argument("--x")
        p.add_argument("--y")
        p.add_argument("--N", dest="bigN")
        p.add_argument("--k")
        p.add_argument("--l")
        p.add_argument("--r")

    p = sub_parser("sift", help="exact survivor counts")
    add_problem(p)
    p.add_argument("--z", type=_int_list, help="comma-separated z values")
    add_common(p)
    p.set_defaults(func=cmd_sift)

    p = sub_parser("bound", help="bound reports against the oracle")
    add_problem(p)
    p.add_argument("--method",
                   choices=("legendre", "brun-pure", "selberg", "linnik", "rosser"))
    p.add_argument("--z", type=_int_list)
    p.add_argument("--D", type=float)
    p.add_argument("--ell", type=_int, default=2)
    p.add_argument("--parity", type=_int, default=1, choices=(0, 1))
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub_parser("lsieve", help="inequality-check summaries")
    p.add_argument("--suite", default="all",
                   choices=("all", "additive", "dual", "hilbert", "multiplicative", "linnik", "duality"))
    p.add_argument("--trials", type=_int, default=100)
    p.add_argument("--Q", type=_int, default=10)
    p.add_argument("--N", type=_int, default=100)
    p.add_argument("--seed", type=_int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_lsieve)

    p = sub_parser("sievefun", help="tabulate the linear main-term factors")
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    add_common(p)
    p.set_defaults(func=cmd_sievefun)

    p = sub_parser("chen", help="almost-prime decomposition reports")
    p.add_argument("--N", dest="bigN")
    p.add_argument("--N-range", help="start:stop:step")
    add_common(p)
    p.set_defaults(func=cmd_chen)

    p = sub_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="all", choices=("all",))
    p.add_argument("--budget", default="small", choices=("small", "full"))
    p.set_defaults(func=cmd_verify)
    return parser, commands


def _config_defaults(command: argparse.ArgumentParser, config: dict) -> dict:
    """A --config object as defaults of one subcommand, each value parsed by its flag's type and choices.

    A key that names none of the subcommand's flags, or a value its flag
    would refuse on the command line, raises ValueError naming the key.  A
    flag without a type takes the value's text, as argparse would; a list
    is accepted where the flag takes a comma-separated list (--z).
    """
    flags = {act.dest: act for act in command._actions if act.option_strings and act.dest != "help"}
    out = {}
    for key, value in config.items():
        act = flags.get(key)
        if act is None:
            raise ValueError(f"unknown config key {key!r} for {command.prog!r}")
        if act.type is _int_list and isinstance(value, list):
            value = ",".join(map(str, value))
        try:
            value = str(value) if act.type is None else act.type(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        if act.choices is not None and value not in act.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {list(act.choices)}")
        out[key] = value
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    config = None
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            with open(argv[idx + 1]) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError, IndexError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if config is not None:
            if not isinstance(config, dict):
                raise ValueError("the config file must hold one JSON object")
            # the config sets defaults, so flags given on the command line win
            commands[args.command].set_defaults(**_config_defaults(commands[args.command], config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
