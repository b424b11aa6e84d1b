"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-fit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (the metric names and units are those of
``BENCHMARK.json``).  Every run also checks the program's outputs; a
failed check counts as a failed operation.  The line before the result
holds the machine context (versions, core count, revision, a
calibration timing) and run details, for information only.

The program is imported from ``src/`` of the same checkout, never from an
installed copy.  The run, and every process it starts, is pinned to one
CPU with single-threaded BLAS: on a small virtual machine, wake-ups across
CPUs wait on the host scheduler, and unpinned, serve-mixed frames/s varied
by a factor of two between runs and paper-fit's by a quarter.  Scenario
caches and results stores point into a temporary directory inside the
checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-fit", "what-if-sweep", "serve-mixed")
#: Problems printed to stderr when checks fail (all are counted).
SHOWN_PROBLEMS = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, BLAS on one thread."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    declared = declared_metrics(bool(args.trace))
    pin_to_one_cpu()
    import_program()
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, paper_fit, serve_mixed, what_if_sweep

    # The revision lookup must not search directories above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    context = harness.machine_context()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workdir = Path(scratch)
        # Never touch the user's ~/.cache/repro: caches and stores live here.
        os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
        os.environ["REPRO_RESULTS_DB"] = str(workdir / "results.sqlite")
        trace = bool(args.trace)
        if args.workload == "paper-fit":
            outcome = paper_fit.run(args.seed, args.seconds, trace)
        elif args.workload == "what-if-sweep":
            outcome = what_if_sweep.run(args.seed, args.seconds, trace)
        else:
            outcome = serve_mixed.run(args.seed, args.seconds, trace, ROOT, workdir)

    metrics = dict(outcome.metrics)
    if not trace:
        metrics["success_rate"] = 1.0 - outcome.failed / max(outcome.attempted, 1)
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not trace and set(metrics) != set(declared):
        raise RuntimeError(f"end-to-end metrics missing: {sorted(set(declared) - set(metrics))}")
    # A layer the workload does not exercise did no work: it reads zero.
    values = {name: float(metrics.get(name, 0.0)) for name in declared}
    bad = sorted(name for name, value in values.items() if not math.isfinite(value))
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    for problem in outcome.problems[:SHOWN_PROBLEMS]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    context.update(outcome.context)
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": outcome.attempted > 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
