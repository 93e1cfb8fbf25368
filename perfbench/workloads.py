"""The three closed-loop workloads: fixed, seeded call sequences into sievekit.

A workload draws its inputs from ``--seed`` in ``__init__``, builds what
every round shares in ``setup`` and hands out one round's operations in
``operations``.  Each operation waits for the one before it.  An operation
returns the program's output; its ``check`` runs after the round, outside
the timed region, against counts from :mod:`reference` or a property the
method must have.

The seed moves inputs only where the work does not depend on them: x and N
by at most 0.1%, z inside a gap between consecutive primes, coefficient
vectors, the Dirichlet class of a progression.  So two seeds cost the same
and run-to-run spread measures the machine, not the inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from sievekit import arith, brun, cli, largesieve, legendre, problem, rosser, selberg


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # Fails on every run through a fault in the program that a later change fixes.
    known_fault: bool = False


class Workload:
    """One round's operations share ``self.ctx``, emptied after the round.

    Expected values from :mod:`reference` are computed once per run.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.ctx: dict = {}
        self._expected: dict = {}

    def expected(self, key, fn):
        if key not in self._expected:
            self._expected[key] = fn()
        return self._expected[key]

    def sift_ref(self, kind: str, params: dict, z: int) -> int:
        return self.expected(("sift", kind, tuple(params.items()), z), lambda: ref.residue_sift(kind, params, z))

    def exact_sift(self, tr, prob, kind: str, params: dict, z: int) -> int:
        return tr.call(problem.exact_sift, prob, z,
                       counts=lambda _: {"problem.elements": ref.element_count(kind, params)})


def _table_bytes(table) -> dict:
    return {"arith.table_bytes": table.primes.nbytes + table.membership.nbytes}


def _sifting_count(kind, params, z) -> int:
    return len(ref.sifting_primes(kind, params, z))


# ---------------------------------------------------------------------------


class Oracle(Workload):
    """Large exact counts: the prime table, the enumeration oracle, identities."""

    TABLE_LIMIT = 10**8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.big = {
            "twin": {"x": 2 * 10**7 - int(rng.integers(0, 1000))},
            "goldbach": {"N": 10**7 - 2 * int(rng.integers(0, 500))},
        }
        self.z_low = 30
        self.z_high = int(rng.integers(54, 60))  # above _PROFILE_Z = 53; primes below are 2..53 for all
        self.z_identity = int(rng.integers(48, 54))  # primes below are 2..47 for all
        self.z0 = int(rng.integers(2, 6))
        x = 10**6 + int(rng.integers(0, 1000))
        self.small = {
            "interval": {"x": x, "y": x},
            "twin": {"x": x},
            "goldbach": {"N": 10**6 + 2 * int(rng.integers(0, 500))},
        }

    def setup(self, tr) -> None:
        self.table = tr.call(arith.primes_up_to, self.TABLE_LIMIT, counts=_table_bytes)

    def operations(self, tr) -> list[Op]:
        ops = [Op("twin_pairs_1e8", lambda: (
            tr.call(arith.pi_count, self.table, self.TABLE_LIMIT),
            tr.call(arith.pi_count, self.table, self.TABLE_LIMIT - 2, "twin"),
        ), lambda out: out == (ref.PI_1E8, ref.TWIN_PAIRS_1E8))]
        for kind, params in self.big.items():
            ops += self._big_ops(tr, kind, params)
        for kind, params in self.small.items():
            ops.append(self._small_op(tr, kind, params))
        return ops

    def _big_ops(self, tr, kind, params) -> list[Op]:
        ctx = self.ctx
        z_id = self.z_identity

        def build():
            ctx[kind] = tr.call(problem.build_problem, kind, params)
            return ctx[kind].describe()

        def sift(z):
            return Op(f"{kind}.exact_sift.z{z}", lambda: self.exact_sift(tr, ctx[kind], kind, params, z),
                      lambda n: n == self.sift_ref(kind, params, z))

        def legendre_ok(dec):
            return dec.main + dec.remainder == dec.total == self.sift_ref(kind, params, z_id)

        def rosser_ok(rep):
            d = rep.detail
            return rep.holds and d["bound_holds"] and d["v_identity_holds"] and rep.lhs == self.sift_ref(kind, params, z_id)

        def rosser_op(r):
            weights = rosser.RosserWeightTable(D=10**6, beta=2.0, r=r)
            return Op(f"{kind}.rosser_identity.r{r}",
                      lambda: tr.call(rosser.rosser_identity, ctx[kind], 2, z_id, weights), rosser_ok)

        return [
            Op(f"{kind}.build", build, lambda desc: desc.startswith(kind)),
            sift(self.z_low),
            sift(self.z_high),
            Op(f"{kind}.legendre_decompose", lambda: tr.call(
                legendre.legendre_decompose, ctx[kind], z_id,
                counts=lambda _: {"legendre.divisors": 2 ** _sifting_count(kind, params, z_id)}), legendre_ok),
            Op(f"{kind}.buchstab_check", lambda: tr.call(rosser.buchstab_check, ctx[kind], self.z0, z_id),
               lambda rep: rep.holds and rep.lhs == self.sift_ref(kind, params, z_id)),
            rosser_op(0),
            rosser_op(1),
        ]

    def _small_op(self, tr, kind, params) -> Op:
        x = params.get("x", params.get("N"))
        z = math.isqrt(x) + 1

        def run():
            return self.exact_sift(tr, tr.call(problem.build_problem, kind, params), kind, params, z)

        return Op(f"{kind}.exact_sift.sqrt", run, lambda n: n == self._from_table(kind, x, z))

    def _from_table(self, kind: str, x: int, z: int) -> int:
        """S(A, sqrt x) read off the prime table: survivors are 1 or primes >= z."""
        table = self.table
        if kind == "interval":
            return 1 + table.count_below(x + 1) - table.count_below(z)
        ps = table.primes[(table.primes >= z) & (table.primes < x)]
        if kind == "twin":
            ps = ps[ps < x - 2]
            return int(np.count_nonzero(table.membership[ps + 2]))
        ps = ps[ps <= x - z]
        return int(np.count_nonzero(table.membership[x - ps]))


# ---------------------------------------------------------------------------


def _cell_equal(cli_value, lib_value) -> bool:
    """A CLI cell (JSON value or CSV string) against the library's row value."""
    if isinstance(lib_value, bool):
        return str(cli_value) == str(lib_value)
    if isinstance(lib_value, int):
        return int(cli_value) == lib_value
    if isinstance(lib_value, float):
        return math.isclose(float(cli_value), lib_value, rel_tol=1e-13, abs_tol=1e-300)
    return cli_value == lib_value


def _rows_equal(cli_rows: list[dict], lib_rows: list[dict]) -> bool:
    return len(cli_rows) == len(lib_rows) and all(
        set(c) == set(l) and all(_cell_equal(c[k], l[k]) for k in l)
        for c, l in zip(cli_rows, lib_rows)
    )


ODD_PRIMORIAL_60 = math.prod(p for p in range(3, 60, 2) if all(p % d for d in range(3, p, 2)))


def _on_claimed_side(rep, exact: int) -> bool:
    """The report's bound against an exact count made apart from the program."""
    if rep.exact != exact:
        return False
    if rep.direction == "upper":
        return rep.bound * (1 + rep.slack) >= exact
    return exact * (1 + rep.slack) >= rep.bound


class Bounds(Workload):
    """Every bound engine on the four affine kinds at x near 10^5, plus the CLI."""

    ZS = (15, 30, 45, 60)
    # selberg_upper_bound reports S(A, 53) as the exact count for z > 53.
    SELBERG_ZS = (15, 30, 45)
    LEGENDRE_ZS = (15, 30, 45)
    LINNIK = {"interval": (15,), "twin": (15, 45), "goldbach": (15,), "progression": (15,)}
    CLI_KINDS = {  # fixed: the two known CLI faults must fail on every seed
        "interval": {"x": 10**4, "y": 10**4},
        "twin": {"x": 10**4},
        "goldbach": {"N": 10**4},
        "progression": {"x": 10**4, "k": 7, "l": 3},
    }
    CLI_ZS = (15, 30)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        x = 10**5 + int(rng.integers(0, 1000))
        N = 10**5 + 2 * int(rng.integers(0, 500))
        while math.gcd(N, ODD_PRIMORIAL_60) > 1:  # omega(p) = 2 for every odd p < 60, as on every seed
            N += 2
        self.kinds = {
            "interval": {"x": x, "y": x},
            "twin": {"x": x},
            "goldbach": {"N": N},
            "progression": {"x": x, "k": 7, "l": int(rng.integers(1, 7))},
        }

    def setup(self, tr) -> None:
        # Nothing is shared across rounds: each round builds its problems afresh.
        pass

    def operations(self, tr) -> list[Op]:
        ops = []
        for kind, params in self.kinds.items():
            ops += self._engine_ops(tr, kind, params)
        for kind, params in self.CLI_KINDS.items():
            ops += self._cli_bound_ops(kind, params, tr)
        ops += self._cli_misc_ops(tr)
        return ops

    def _engine_ops(self, tr, kind, params) -> list[Op]:
        ctx = self.ctx

        def build():
            ctx[kind] = tr.call(problem.build_problem, kind, params)
            return ctx[kind].describe()

        def side(z):
            return lambda rep: _on_claimed_side(rep, self.sift_ref(kind, params, z))

        def brun_counts(z, config):
            k = _sifting_count(kind, params, z)
            return lambda _: {"brun.divisors": sum(math.comb(k, j) for j in range(min(config.cutoff, k) + 1))}

        def support(z):
            return ref.squarefree_support(ref.sifting_primes(kind, params, z), z)

        def selberg_counts(z, linnik=False):
            def counts(_):
                sup = support(z)
                out = {"selberg.support": len(sup)}
                if linnik:
                    out["selberg.phase_entries"] = sum(f for _, f in sup) * ref.element_count(kind, params)
                return out
            return counts

        ops = [Op(f"{kind}.build", build, lambda desc: desc.startswith(kind))]
        for z in self.ZS:
            for config in (brun.PureSieveConfig(z, 2, "upper"), brun.PureSieveConfig(z, 1, "lower")):
                ops.append(Op(f"{kind}.pure_sieve_bound.{config.parity}.z{z}", lambda z=z, config=config: tr.call(
                    brun.pure_sieve_bound, ctx[kind], config, counts=brun_counts(z, config)), side(z)))
            for r in (0, 1):
                ops.append(Op(f"{kind}.linear_sieve_bound.r{r}.z{z}", lambda z=z, r=r: tr.call(
                    rosser.linear_sieve_bound, ctx[kind], z, float(z) ** 3, r), side(z)))
        for z in self.SELBERG_ZS:
            ops.append(Op(f"{kind}.selberg_upper_bound.z{z}", lambda z=z: tr.call(
                selberg.selberg_upper_bound, ctx[kind], z, counts=selberg_counts(z)), side(z)))
        for z in self.LEGENDRE_ZS:
            ops.append(Op(f"{kind}.legendre_decompose.z{z}", lambda z=z: tr.call(
                legendre.legendre_decompose, ctx[kind], z,
                counts=lambda _, z=z: {"legendre.divisors": 2 ** _sifting_count(kind, params, z)}),
                lambda dec, z=z: dec.main + dec.remainder == dec.total == self.sift_ref(kind, params, z)))
        for z in self.LINNIK[kind]:
            ops.append(Op(f"{kind}.linnik_bound.z{z}", lambda z=z: tr.call(
                selberg.linnik_bound, ctx[kind], z, counts=selberg_counts(z, linnik=True)), side(z)))
        return ops

    @staticmethod
    def _problem_argv(kind: str, params: dict) -> list[str]:
        argv = ["--problem", kind]
        for key, val in params.items():
            argv += [f"--{key}", str(val)]
        return argv

    def _cli_bound_ops(self, kind, params, tr) -> list[Op]:
        argv = ["bound", "--method", "selberg", *self._problem_argv(kind, params),
                "--z", ",".join(map(str, self.CLI_ZS))]

        def lib_rows():
            return self.expected(("cli-rows", kind), lambda: [
                selberg.selberg_upper_bound(problem.build_problem(kind, params), z).row() for z in self.CLI_ZS])

        def sides_hold(rows):
            return all(row["bound"] >= self.sift_ref(kind, params, z) == row["exact"]
                       for row, z in zip(lib_rows(), self.CLI_ZS))

        def check_json(out):
            code, text = out
            return code == 0 and _rows_equal(json.loads(text), lib_rows()) and sides_hold(lib_rows())

        def check_csv(out):
            code, text = out
            return code == 0 and _rows_equal(list(csv.DictReader(io.StringIO(text))), lib_rows())

        return [
            Op(f"cli.bound.json.{kind}", lambda: cli_call(tr, argv + ["--format", "json"]), check_json),
            # Rows are written unquoted, so "interval(x=..,y=..)" splits into two fields.
            Op(f"cli.bound.csv.{kind}", lambda: cli_call(tr, argv + ["--format", "csv"]), check_csv,
               known_fault=len(params) > 1),
        ]

    def _cli_misc_ops(self, tr) -> list[Op]:
        twin = {"x": 20000}
        zs = (10, 30, 60)
        big = 2**53 + 1  # not representable as a float

        def check_sift(out):
            code, text = out
            rows = list(csv.DictReader(io.StringIO(text)))
            return code == 0 and [int(r["survivors"]) for r in rows] == [self.sift_ref("twin", twin, z) for z in zs]

        def check_big(out):
            code, text = out
            rows = list(csv.DictReader(io.StringIO(text)))
            return code == 0 and rows[0]["problem"] == f"interval(x={big},y=100)" and rows[0]["survivors"] == "100"

        return [
            Op("cli.sift.twin", lambda: cli_call(tr, ["sift", *self._problem_argv("twin", twin),
                                                      "--z", ",".join(map(str, zs))]), check_sift),
            # Integer flags go through float(): 2^53 + 1 becomes 2^53 and 10.7 becomes 10.
            Op("cli.sift.exact_integer", lambda: cli_call(tr, ["sift", "--problem", "interval", "--x", str(big),
                                                               "--y", "100", "--z", "2"]),
               check_big, known_fault=True),
            Op("cli.sift.reject_fraction", lambda: cli_call(tr, ["sift", "--problem", "interval", "--x", "10.7",
                                                                 "--y", "5", "--z", "2"]),
               lambda out: out[0] == 2, known_fault=True),
            Op("cli.verify.full", lambda: cli_call(tr, ["verify", "--budget", "full"]),
               lambda out: out[0] == 0 and out[1].endswith("all checks passed\n")),
        ]


def cli_call(tr, argv: list[str]) -> tuple[int, str]:
    """``sievekit.cli.main`` in-process, output captured; the span is charged to cli."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tr.call(cli.main, argv, counts=lambda _: {"cli.bytes_out": len(out.getvalue().encode())})
    return code, out.getvalue()


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Many small independent requests, each paying its own set-up."""

    CHEN_COUNT = 20
    CHEN_TABLE = 10**6
    PARITY_GRID = [(z, r) for z in (8, 12, 16, 20, 24) for r in (0, 1)]
    CHAR_MODULI = range(1, 150)
    LS_VECTORS = 4
    LS_LENGTH = 256
    MULT_Q = 150
    FAREY_Q = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.chen_ns = sorted(int(10**5 + 2 * k) for k in rng.choice(5000, self.CHEN_COUNT, replace=False))
        self.parity_x = 10**6 - int(rng.integers(0, 1000))
        self.vectors = [
            (rng.normal(size=self.LS_LENGTH) + 1j * rng.normal(size=self.LS_LENGTH), int(rng.integers(-500, 500)))
            for _ in range(self.LS_VECTORS)
        ]

    def setup(self, tr) -> None:
        self.table = tr.call(arith.primes_up_to, self.CHEN_TABLE, counts=_table_bytes)

    def _omega(self) -> np.ndarray:
        return self.expected("omega", lambda: ref.big_omega(max(self.CHEN_TABLE, self.parity_x)))

    def _chen_left(self, N: int) -> int:
        ps = self.expected("primes", lambda: ref.prime_list(self.CHEN_TABLE))
        ps = ps[ps < N]
        return int(np.count_nonzero(self._omega()[N - ps] <= 2))

    def _parity_count(self, z: int, r: int) -> int:
        omega = self._omega()[1 : self.parity_x]
        spf = self.expected("spf", lambda: ref.smallest_factor(self.parity_x))[1:]
        rough = (spf >= z) | (np.arange(1, self.parity_x) == 1)
        return int(np.count_nonzero(rough & (omega % 2 == r)))

    def operations(self, tr) -> list[Op]:
        ops = []
        for N in self.chen_ns:
            ops.append(Op(f"chen_decomposition.N{N}", lambda N=N: tr.call(rosser.chen_decomposition, N, self.table),
                          lambda rep, N=N: rep.left == self._chen_left(N) >= rep.rhs and rep.inequality_holds))
        for z, r in self.PARITY_GRID:
            ops.append(Op(f"parity_extremal.z{z}.r{r}", lambda z=z, r=r: tr.call(
                rosser.parity_extremal, self.parity_x, z, r),
                lambda rep, z=z, r=r: rep.full_identity_exact and rep.exact == self._parity_count(z, r)))
        for q in self.CHAR_MODULI:
            ops.append(Op(f"character_table.q{q}", lambda q=q: tr.call(
                largesieve.character_table, q, counts=_character_counts), _characters_ok))
        for i, (a, M) in enumerate(self.vectors):
            ops.append(Op(f"multiplicative_ls_check.{i}", lambda a=a, M=M: tr.call(
                largesieve.multiplicative_ls_check, self.MULT_Q, a, M), _ls_holds))
            ops.append(Op(f"additive_ls_check.{i}", lambda a=a, M=M: tr.call(
                largesieve.additive_ls_check, tr.call(largesieve.farey_points, self.FAREY_Q), a, M),
                lambda out: _ls_holds(out[:2])))
        return ops


def _character_counts(table) -> dict:
    nbytes = sum(a.nbytes for a in (table.exponents, table.values, table.conductors, table.gauss_sums))
    return {"largesieve.characters": table.n_characters, "largesieve.table_bytes": nbytes}


def _characters_ok(table) -> bool:
    """phi(q) characters, orthogonal, primitive count by formula, |tau|^2 = q."""
    q = table.q
    phi = ref.totient(q)
    if table.n_characters != phi:
        return False
    gram = table.values @ table.values.conj().T
    if np.max(np.abs(gram - phi * np.eye(phi))) > 1e-9 * q:
        return False
    prim = table.primitive
    if int(np.count_nonzero(prim)) != ref.primitive_character_count(q):
        return False
    return bool(np.all(np.abs(np.abs(table.gauss_sums[prim]) ** 2 - q) <= 1e-9 * q))


def _ls_holds(out) -> bool:
    lhs, rhs = out
    return lhs <= rhs * (1 + 1e-12)


WORKLOADS = {"oracle": Oracle, "bounds": Bounds, "sweep": Sweep}
