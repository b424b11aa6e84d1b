"""The batched routing path, built on :class:`CompiledDag`.

* :class:`CompiledDagSet` -- compile a ``{destination: dag}`` mapping once,
  lazily and with caching, and keep it current after network events.  Its
  :meth:`~CompiledDagSet.traffic_distribution` (Algorithm 3) is not
  amortised: it builds a new :class:`~repro.routing.kernel.RoutingKernel`
  per call and ignores the compiled cache (hold one kernel instead).
* :class:`SparseRouter` -- owns the whole pipeline for one weight setting
  (Dijkstra, compilation, ratio binding) and exposes the batched entry point
  :meth:`SparseRouter.link_loads_many` that evaluates a whole demand ensemble
  in one stacked propagation per destination.  OSPF's batched evaluation,
  the scenario engine's failure sweeps and the online controller's
  ensembles amortise their DAG compilation through it.

Its link loads equal the pure-Python oracles' (to float round-off, well
below the equivalence suite's 1e-9); the golden-equivalence tests in
``tests/test_routing_equivalence.py`` pin that property.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    UnreachableError,
    WeightsLike,
    as_weight_vector,
    shortest_path_dag,
)
from .compiled import CompiledDag
from .kernel import RoutingKernel

#: Ratio modes understood by :class:`SparseRouter`.
_MODES = ("ecmp", "split")


# ----------------------------------------------------------------------
# compiled DAG sets (compile once, route many)
# ----------------------------------------------------------------------
class CompiledDagSet:
    """Per-destination compiled DAGs over one network.

    Compilation is lazy with caching: a DAG handed in (or added later) is
    compiled on first use through :meth:`compiled`, so routing a traffic
    matrix only pays compilation for the destinations it actually touches.
    """

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, ShortestPathDag] | None = None,
    ) -> None:
        self.network = network
        self._dags: dict[Node, ShortestPathDag] = dict(dags or {})
        self._compiled: dict[Node, CompiledDag] = {}

    def __contains__(self, destination: Node) -> bool:
        return destination in self._dags

    @property
    def destinations(self) -> list[Node]:
        return list(self._dags)

    def add(self, destination: Node, dag: ShortestPathDag) -> CompiledDag:
        """Compile (and cache) one more destination DAG."""
        compiled = CompiledDag.from_dag(self.network, dag)
        self._dags[destination] = dag
        self._compiled[destination] = compiled
        return compiled

    def update(self, destination: Node, dag: ShortestPathDag) -> None:
        """Replace one destination's DAG after a network event.

        The delta-compilation entry point: only the touched destination's
        compilation is dropped (and lazily rebuilt on next use) — every
        other destination keeps its compiled CSR arrays, which is what makes
        per-event work proportional to the event's footprint rather than to
        the destination count.
        """
        self._dags[destination] = dag
        self._compiled.pop(destination, None)

    def discard(self, destination: Node) -> None:
        """Forget one destination entirely (DAG and compilation)."""
        self._dags.pop(destination, None)
        self._compiled.pop(destination, None)

    def dag(self, destination: Node) -> ShortestPathDag:
        return self._dags[destination]

    def compiled(self, destination: Node) -> CompiledDag:
        cached = self._compiled.get(destination)
        if cached is not None:
            return cached
        dag = self._dags.get(destination)
        if dag is None:
            raise UnreachableError(
                f"no shortest-path DAG for destination {destination!r}"
            )
        return self.add(destination, dag)

    # ------------------------------------------------------------------
    def traffic_distribution(
        self, demands: TrafficMatrix, second_weights: np.ndarray
    ) -> FlowAssignment:
        """Algorithm 3 (exponential splitting) over the set's DAGs.

        Equivalent to :func:`repro.core.traffic_distribution.traffic_distribution`;
        not amortised: each call builds a new :class:`~repro.routing.kernel.RoutingKernel`
        and ignores the compiled cache (Algorithm 2 holds one kernel for its loop).
        """
        return RoutingKernel(self.network, demands, dags=self._dags).exponential(second_weights)


class SparseRouter:
    """Compile one weight setting, route many demand matrices.

    Parameters
    ----------
    network, weights:
        The topology and the link weights defining the shortest-path DAGs.
        Precomputed ``dags`` may be passed instead of (or alongside) weights;
        missing destinations are then built from ``weights`` on demand.
    mode:
        ``"ecmp"`` (even split, the OSPF behaviour) or ``"split"`` (explicit
        per-destination ratios handed to the routing calls).
    tolerance:
        ECMP cost tolerance for DAG construction.

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.gravity import gravity_traffic_matrix
    >>> net = abilene_network()
    >>> router = SparseRouter(net, weights=[1.0] * net.num_links)
    >>> tms = [gravity_traffic_matrix(net, total_volume=v) for v in (10.0, 20.0)]
    >>> loads = router.link_loads_many(tms)
    >>> loads.shape == (2, net.num_links)
    True
    """

    def __init__(
        self,
        network: Network,
        weights: WeightsLike | None = None,
        *,
        dags: Mapping[Node, ShortestPathDag] | None = None,
        mode: str = "ecmp",
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if weights is None and dags is None:
            raise ValueError("SparseRouter needs link weights or precomputed DAGs")
        self.network = network
        self.mode = mode
        self.tolerance = tolerance
        self._weights = as_weight_vector(network, weights) if weights is not None else None
        self._set = CompiledDagSet(network, dags)
        self._ratios: dict[Node, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _compiled(self, destination: Node) -> CompiledDag:
        if destination not in self._set:
            if self._weights is None:
                raise UnreachableError(
                    f"no shortest-path DAG for destination {destination!r}"
                )
            self._set.add(
                destination,
                shortest_path_dag(self.network, destination, self._weights, self.tolerance),
            )
        return self._set.compiled(destination)

    def refresh_destination(
        self, destination: Node, dag: ShortestPathDag | None = None
    ) -> None:
        """Install a new DAG for (or invalidate) one destination.

        After a network event touched ``destination``, pass the updated DAG
        (e.g. from :class:`repro.online.DynamicSPT`) to have just that
        destination recompiled lazily; pass ``None`` to forget it (it is
        rebuilt from ``weights`` on next use, when available).  Cached mode
        ratios for the destination are dropped either way; all other
        destinations keep their compiled state.
        """
        if dag is None:
            self._set.discard(destination)
        else:
            self._set.update(destination, dag)
        self._ratios.pop(destination, None)

    def _mode_ratios(self, destination: Node, compiled: CompiledDag) -> np.ndarray:
        ratios = self._ratios.get(destination)
        if ratios is None:
            ratios = compiled.uniform_ratios()
            self._ratios[destination] = ratios
        return ratios

    # ------------------------------------------------------------------
    def link_loads_many(
        self,
        matrices: Sequence[TrafficMatrix],
        split_ratios: Mapping[Node, Mapping[Node, Mapping[Node, float]]] | None = None,
    ) -> np.ndarray:
        """Aggregate link loads of a whole demand ensemble, batched.

        The stacked entry point: for each destination appearing anywhere in
        the ensemble the entering volumes of *all* matrices form one
        ``(num_dag_nodes, m)`` right-hand side, propagated in a single
        forward-substitution sweep.  Returns an ``(m, num_links)`` array whose
        row ``i`` equals the aggregate loads of the oracle
        (:func:`~repro.solvers.assignment.ecmp_assignment` or
        :func:`~repro.solvers.assignment.split_ratio_assignment`) on
        ``matrices[i]`` to float round-off.
        """
        matrices = list(matrices)
        m = len(matrices)
        loads = np.zeros((self.network.num_links, m))
        if m == 0:
            return loads.T
        by_destination = []
        destinations: dict[Node, None] = {}
        for tm in matrices:
            tm.validate(self.network)
            per = tm.by_destination()
            by_destination.append(per)
            for destination in per:
                destinations.setdefault(destination, None)
        for destination in destinations:
            compiled = self._compiled(destination)
            degenerate: list[tuple[int, float]] = []
            if self.mode == "split":
                ratios = compiled.bind_ratios(
                    split_ratios.get(destination) if split_ratios else None, degenerate
                )
                missing = "drop"
            else:
                ratios = self._mode_ratios(destination, compiled)
                missing = "raise"
            entering = np.zeros((compiled.num_nodes, m))
            for column, per in enumerate(by_destination):
                volumes = per.get(destination)
                if not volumes:
                    continue
                compiled.entering_vector(volumes, column=column, out=entering, missing=missing)
            throughflow = compiled.propagate(entering, ratios)
            compiled.warn_loaded_degenerates(degenerate, throughflow)
            compiled.scatter_link_loads(throughflow, ratios, out=loads)
        return loads.T
