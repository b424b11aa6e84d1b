"""``what-if-sweep``: a serial 30-cell OSPF scenario sweep on ``rand500``.

Demands are the CLI's gravity matrix at 0.1 of total capacity
(:func:`repro.cli.build_workload`).  The cells take every path of the
batch runner at Rocketfuel scale: 24 single-link failures ride the
incremental controller sweep, the baseline plus 2 gravity-noise and 2
hotspot-surge cells are demand-batched, and 1 capacity degradation is
evaluated cold (OSPF's InvCap weights depend on capacity).  The seed
drives the capacity, noise and hotspot generators.  A cell is one
operation.

The expected path counts are part of the checks: the runner falls back
to cold evaluation silently on any exception, so a broken incremental
path would otherwise only show as a slower sweep.
"""

from __future__ import annotations

import random
import statistics
import time

from .harness import Outcome, close, measure, median_of, repeat_setup, peak_rss_mb
from .layers import Tracer, install_program_layers

TOPOLOGY = "rand500"
UTILIZATION = 0.1
FAILURES = 24
EXPECTED_PATHS = {"incremental": 24, "batched": 5, "cold": 1}
#: Incremental cells re-evaluated cold after the timed passes.
COLD_SAMPLE = 1
TOLERANCE = 1e-12


def build_inputs(seed: int):
    """The network, its demands and the 30 scenarios of one seed."""
    from repro.cli import build_workload
    from repro.scenarios.generators import (
        baseline_scenario,
        capacity_degradations,
        gravity_noise_ensemble,
        hotspot_surge_ensemble,
        single_link_failures,
    )

    network, demands = build_workload(TOPOLOGY, UTILIZATION, seed)
    scenarios = (
        [baseline_scenario()]
        + single_link_failures(network)[:FAILURES]
        + capacity_degradations(network, count=1, seed=seed)
        + gravity_noise_ensemble(demands, size=2, seed=seed + 1)
        + hotspot_surge_ensemble(demands, size=2, seed=seed + 2)
    )
    return network, demands, scenarios


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.scenarios.runner import BatchRunner, ProtocolSpec, evaluate_scenario

    outcome = Outcome()
    (network, demands, scenarios), setup_walls = repeat_setup(lambda rep: build_inputs(seed))
    failure_ids = {s.scenario_id for s in scenarios if s.kind == "link-failure"}
    if len(failure_ids) != FAILURES:
        raise RuntimeError(f"{TOPOLOGY} yields {len(failure_ids)} failure scenarios")
    layers: list[dict[str, float]] = []
    last_results = []

    def sweep() -> float:
        runner = BatchRunner(cache_dir=False, max_workers=0)
        start = time.perf_counter()
        results = runner.run(network, demands, scenarios, ["OSPF"])
        wall = time.perf_counter() - start
        outcome.attempted += len(scenarios)
        for result in results:
            if result.error is not None:
                outcome.fail(1, f"{result.scenario_id}: {result.error}")
        # Only the incremental sweep charges controller set-up to its cells.
        incremental = {r.scenario_id for r in results if r.setup_runtime > 0}
        if incremental != failure_ids:
            went_cold = len(failure_ids - incremental) + len(incremental - failure_ids)
            outcome.fail(went_cold, f"incremental cells {len(incremental)}, expected {FAILURES}")
        last_results[:] = results
        return wall

    def run_pass(traced: bool) -> float:
        if not traced:
            return sweep()
        with Tracer() as tracer:
            dspt = install_program_layers(tracer)
            wall = sweep()
        paths = {
            "incremental": tracer.counts["scenarios.cells_incremental"],
            "batched": tracer.counts["scenarios.cells_batched"],
            "cold": tracer.calls["scenarios.cold"],
        }
        if paths != EXPECTED_PATHS:
            outcome.fail(0, f"traced path counts {paths}, expected {EXPECTED_PATHS}")
        if tracer.hook_errors:
            outcome.fail(0, "; ".join(tracer.hook_errors))
        layers.append(sweep_layers(tracer, dspt.values()))
        return wall

    plain, instrumented = measure(seconds, run_pass, trace)
    pass_s = statistics.median(plain)
    peak = peak_rss_mb()

    # Outside the timed region: incremental cells must match a cold evaluation.
    spec = ProtocolSpec.of("OSPF")
    by_id = {s.scenario_id: s for s in scenarios}
    sample = random.Random(seed).sample(sorted(failure_ids), COLD_SAMPLE)
    for result in last_results:
        if result.scenario_id not in sample:
            continue
        cold = evaluate_scenario(network, demands, by_id[result.scenario_id], spec)
        problem = compare_cells(result, cold)
        if problem is not None:
            outcome.fail(1, f"{result.scenario_id}: {problem}")

    outcome.context.update(
        setup_s=[round(w, 4) for w in setup_walls],
        passes=len(plain),
        sweep_s=[round(w, 4) for w in plain],
    )
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": peak,
            "ops_per_s": len(scenarios) / pass_s,
        }
        return outcome
    outcome.metrics = median_of(layers)
    outcome.metrics["trace.overhead_frac"] = statistics.median(instrumented) / pass_s - 1
    return outcome


def compare_cells(incremental, cold) -> str | None:
    """How an incremental cell differs from its cold evaluation, if it does."""
    if cold.error is not None:
        return f"cold evaluation failed: {cold.error}"
    for name in ("mlu", "routed_volume", "dropped_volume"):
        a, b = getattr(incremental, name), getattr(cold, name)
        if not close(a, b, TOLERANCE):
            return f"{name} {a!r} (incremental) != {b!r} (cold)"
    if (incremental.feasible, incremental.connected) != (cold.feasible, cold.connected):
        return "feasibility or connectivity differs from the cold evaluation"
    return None


def sweep_layers(tracer: Tracer, dspt_stats) -> dict[str, float]:
    """The per-layer metrics of one traced sweep."""
    return {
        "scenarios.run_s": tracer.seconds["scenarios.run"],
        "scenarios.runner_unattributed_s": tracer.self_seconds["scenarios.run"],
        "scenarios.cells_incremental": tracer.counts["scenarios.cells_incremental"],
        "scenarios.cells_batched": tracer.counts["scenarios.cells_batched"],
        "scenarios.cells_cold": tracer.calls["scenarios.cold"],
        "scenarios.apply_s": tracer.seconds["scenarios.apply"],
        "scenarios.fingerprint_s": tracer.seconds["scenarios.fingerprint"],
        "scenarios.cold_s": tracer.seconds["scenarios.cold"],
        "routing.batch_s": tracer.seconds["routing.batch"],
        "online.controller_setup_s": tracer.seconds["online.controller_setup"],
        "online.sweep_s": tracer.seconds["online.sweep"],
        "network.spt_calls": tracer.calls["network.spt"],
        "network.spt_s": tracer.seconds["network.spt"],
        "online.dspt_incremental_updates": sum(s.incremental_updates for s in dspt_stats),
        "online.dspt_full_rebuilds": sum(s.full_rebuilds for s in dspt_stats),
        "online.dspt_event_fallbacks": sum(s.event_fallbacks for s in dspt_stats),
    }
