"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of ``repro`` for the
duration of a ``with`` block and records, per layer, the number of calls
and the wall time spent inside.  Nothing in ``src/`` is modified: module
functions are replaced in every ``repro`` module that bound them by name,
methods on their class, and everything is restored on exit.

Accounting rules:

* A layer's time is inclusive and counted at its outermost call only, so
  a layer that re-enters itself (``all_shortest_path_dags`` calling
  ``shortest_path_dag``) is not counted twice.
* Every span charges its wall time to the enclosing span, which makes a
  root's *self* time (its wall time minus its direct named children) the
  unattributed share of that root.
* A wrapper never raises anything the wrapped call did not raise.  A hook
  that fails is recorded in :attr:`Tracer.hook_errors` instead, because an
  exception inside the program's ``except Exception`` fallbacks would
  silently change its path (and the harness treats a hook error as a
  failed check).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any

#: ``observe(args, kwargs, result) -> None``: read state after a call.
ObserveHook = Callable[[tuple, dict, Any], None]


class Tracer:
    """Calls, inclusive seconds and self seconds per layer, for one block."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        #: Work counts read from results by hooks (iterations, cells, ...).
        self.counts: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.hook_errors: list[str] = []
        self._open: Counter[str] = Counter()
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        observe: ObserveHook | None = None,
        count_calls: bool = True,
    ) -> Callable[..., Any]:
        """``fn`` instrumented as one span of ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._open[layer]:
                result = fn(*args, **kwargs)
                tracer._after(layer, observe, count_calls, args, kwargs, result)
                return result
            tracer._open[layer] += 1
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                children = tracer._children.pop()
                tracer._open[layer] -= 1
                tracer.seconds[layer] += wall
                tracer.self_seconds[layer] += wall - children
                if tracer._children:
                    tracer._children[-1] += wall
            tracer._after(layer, observe, count_calls, args, kwargs, result)
            return result

        return traced

    def _after(
        self,
        layer: str,
        observe: ObserveHook | None,
        count_calls: bool,
        args: tuple,
        kwargs: dict,
        result: Any,
    ) -> None:
        try:
            self.calls[layer] += count_calls
            if observe is not None:
                observe(args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - never leak into the program
            self.hook_errors.append(f"{layer}: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def function(
        self,
        module: str,
        name: str,
        layer: str,
        observe: ObserveHook | None = None,
        count_calls: bool = True,
    ) -> None:
        """Wrap ``module.name`` everywhere a ``repro`` module bound it."""
        original = getattr(importlib.import_module(module), name)
        traced = self.wrap(layer, original, observe, count_calls)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def method(
        self,
        cls: type,
        name: str,
        layer: str,
        observe: ObserveHook | None = None,
    ) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self.wrap(layer, original, observe))

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install_program_layers(tracer: Tracer) -> dict[int, Any]:
    """Wrap every layer the per-layer metrics name; returns the DSPT stats seen.

    The returned dict is filled while the tracer is active with the
    ``spt.stats`` object of each :class:`TEController` that ran a scenario
    sweep (keyed by the id of the stats object it holds).
    """
    from repro.online.controller import TEController
    from repro.protocols.base import RoutingProtocol
    from repro.routing.sparse import CompiledDagSet
    from repro.scenarios.runner import BatchRunner
    from repro.scenarios.scenario import Scenario
    from repro.core.spef import SPEF

    def fw_iterations(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts["solvers.fw_iterations"] += int(result.iterations)

    def nem_iterations(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts["core.nem_iterations"] += int(result.iterations)

    dspt_stats: dict[int, Any] = {}

    def swept(args: tuple, kwargs: dict, result: Any) -> None:
        scenarios = args[1] if len(args) > 1 else kwargs["scenarios"]
        tracer.counts["scenarios.cells_incremental"] += len(scenarios)
        stats = args[0].spt.stats
        dspt_stats[id(stats)] = stats

    def batched(args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            tracer.counts["scenarios.cells_batched"] += len(result)

    # Roots: their self time is the unattributed share.
    tracer.method(SPEF, "fit", "core.fit")
    tracer.method(BatchRunner, "run", "scenarios.run")

    # Calls count Dijkstra runs: one per shortest_path_dag call.
    tracer.function("repro.network.spt", "shortest_path_dag", "network.spt")
    tracer.function(
        "repro.network.spt", "all_shortest_path_dags", "network.spt", count_calls=False
    )
    tracer.function(
        "repro.core.te_problem", "solve_optimal_te", "core.te", observe=fw_iterations
    )
    tracer.function("repro.solvers.assignment", "all_or_nothing_assignment", "solvers.aon")
    tracer.function("repro.solvers.mcf", "solve_min_mlu", "solvers.lp")
    tracer.function("repro.solvers.mcf", "solve_min_cost_mcf", "solvers.lp")
    tracer.function(
        "repro.core.nem", "compute_second_weights", "core.nem", observe=nem_iterations
    )
    # Algorithm 3 runs in the reference function or, on the default sparse
    # backend, in the compiled DAG set NEM builds once per fit.
    tracer.function(
        "repro.core.traffic_distribution", "traffic_distribution", "core.td"
    )
    tracer.method(CompiledDagSet, "traffic_distribution", "core.td")

    tracer.function("repro.scenarios.runner", "evaluate_scenario", "scenarios.cold")
    tracer.method(Scenario, "apply", "scenarios.apply")
    tracer.method(Scenario, "fingerprint", "scenarios.fingerprint")
    tracer.method(TEController, "__init__", "online.controller_setup")
    tracer.method(TEController, "sweep_scenarios", "online.sweep", observe=swept)
    for cls in _subclasses(RoutingProtocol):
        if "batch_link_loads" in cls.__dict__:
            tracer.method(cls, "batch_link_loads", "routing.batch", observe=batched)
    return dspt_stats


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))
