"""Run one sievekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle|bounds|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sievekit is imported from ``src/``
without being installed.  The workload's call sequence (a round) repeats,
whole, while another round fits in ``--seconds``.  Each round's outputs are
checked after the round, outside the timed region.

``--trace 0`` reports the end-to-end metrics ``setup_s`` (interpreter start
and import, plus building what the rounds share; medians of three),
``run_s`` (each operation's median over rounds, summed) and ``peak_rss_mb``.  ``--trace 1`` alternates traced and untraced
rounds, reports the per-layer metrics from the traced ones and writes the
spans to ``.perfbench/trace-<workload>-seed<N>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import os

# One BLAS thread: the workloads' matrix products are small, and an idle BLAS
# thread spinning on the second core made round times swing by +-30% on a
# shared 2-core machine.  Set before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import sievekit.cli"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "bounds", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import sievekit.

    One import runs first, untimed, so that every timed one reads the
    package from the page cache as a user's repeated runs would.
    """
    times = []
    for _ in range(SETUP_REPS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def clear_caches() -> None:
    """Empty every functools cache in sievekit, so each round starts cold."""
    for mod in [m for name, m in sys.modules.items() if name.startswith("sievekit.")]:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_round(workload, tracer, rnd: int) -> tuple[list[float], list]:
    """Run one round; return (seconds per operation, [(op, output, error)])."""
    tracer.round = rnd
    ops = workload.operations(tracer)
    times, results = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            results.append((op, tracer.op(op.name, op.run), None))
        except Exception:  # an operation that raises counts as failed; the run goes on
            results.append((op, None, traceback.format_exc()))
        times.append(time.perf_counter() - start)
    workload.ctx.clear()
    return times, results


def check_round(results) -> tuple[int, int, bool]:
    """(attempted, failed, correct): a failure outside the known faults makes the run incorrect."""
    failed = 0
    correct = True
    for op, output, error in results:
        if error is None:
            try:
                ok = bool(op.check(output))
            except Exception:
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            failed += 1
            if not op.known_fault:
                correct = False
                print(f"FAILED {op.name}: {error or 'wrong output'}", file=sys.stderr)
    return len(results), failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sievekit").is_dir():
        print(f"no sievekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else import_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    import spans as tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer(False)
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for rep in range(SETUP_REPS):
        tracer.enabled = bool(args.trace) and rep == 0
        start = time.perf_counter()
        workload.setup(tracer)
        setup_times.append(time.perf_counter() - start)

    rounds: list[tuple[bool, list[float]]] = []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        tracer.enabled = traced
        clear_caches()
        times, results = run_round(workload, tracer, len(rounds))
        rounds.append((traced, times))
        n, f, ok = check_round(results)
        del results
        attempted, failed, correct = attempted + n, failed + f, correct and ok
        # Start another round only if one more of the same length ends by the deadline.
        if time.perf_counter() + sum(times) > deadline and (not args.trace or len(rounds) >= 2):
            break

    if args.trace:
        traced_rounds = [i for i, (t, _) in enumerate(rounds) if t]
        overhead = (statistics.median(sum(e) for t, e in rounds if t)
                    - statistics.median(sum(e) for t, e in rounds if not t))
        values = tracing.per_layer_metrics(tracer.spans, traced_rounds, overhead)
        units = tracing.per_layer_names()
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            # Each operation's median over rounds, summed: with three or more
            # rounds, a slow spell that hits one operation in one round is left out.
            "run_s": sum(statistics.median(op) for op in zip(*(e for _, e in rounds))),
            "peak_rss_mb": tracing.maxrss_mb(),
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)} attempted {attempted} failed {failed} correct {correct}")
    print("round_s " + " ".join(f"{sum(e):.3f}{'*' if t else ''}" for t, e in rounds), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
