"""Helpers shared by the workloads: timed passes, percentiles, context."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

#: Set-up is repeated this many times per run (unless a workload asks for
#: more) and its median reported.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: One message per failed check (the run is then not correct).
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    context: dict[str, object] = field(default_factory=dict)

    def fail(self, operations: int, message: str) -> None:
        """Count ``operations`` as failed and record why."""
        self.failed += operations
        self.problems.append(message)


def close(a: float, b: float, tolerance: float) -> bool:
    """``a`` equals ``b`` to ``tolerance``, relative above magnitude 1 (infinities exact)."""
    return a == b or abs(a - b) <= tolerance * max(1.0, abs(b))


def repeat_setup(
    build: Callable[[int], object], repeats: int = SETUP_REPEATS
) -> tuple[object, list[float]]:
    """Call ``build(rep)`` for ``rep`` in ``range(repeats)``; the first result and every wall."""
    walls = []
    results = []
    for rep in range(repeats):
        start = time.perf_counter()
        results.append(build(rep))
        walls.append(time.perf_counter() - start)
    return results[0], walls


def measure(
    seconds: float,
    run_pass: Callable[[bool], float],
    traced: bool,
    min_passes: int = 1,
) -> tuple[list[float], list[float]]:
    """Repeat passes until ``seconds`` of wall time have gone by.

    ``run_pass(traced)`` runs one pass of the workload's fixed work and
    returns the wall time it measured.  Untraced, every pass is untraced;
    traced, untraced and traced passes alternate, so both see the same
    machine conditions and their ratio is the tracing overhead.  At least
    ``min_passes`` untraced passes (and one traced pass) run.  Returns
    (untraced walls, traced walls).
    """
    plain: list[float] = []
    instrumented: list[float] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(False))
        if traced:
            instrumented.append(run_pass(True))
        if time.perf_counter() - start >= seconds and len(plain) >= min_passes:
            return plain, instrumented


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median_of(per_pass: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the traced passes' per-layer values."""
    keys = dict.fromkeys(key for values in per_pass for key in values)
    return {
        key: float(statistics.median(values.get(key, 0.0) for values in per_pass))
        for key in keys
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size so far, in MiB (``who`` as for ``getrusage``)."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def calibration_ms() -> float:
    """Median wall time of a fixed pure-Python loop (machine speed, informational)."""
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        walls.append(time.perf_counter() - start)
    return round(statistics.median(walls) * 1e3, 3)


def machine_context() -> dict[str, object]:
    """Versions, core count, code revision and calibration timing of this run."""
    import networkx
    import numpy
    import scipy

    from repro.results.manifest import git_revision

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
            f"{highs.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "highs": highs_version,
        "git": git_revision(),
        "calibration_ms": calibration_ms(),
    }
