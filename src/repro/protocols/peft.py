"""PEFT baseline (Xu, Chiang, Rexford, INFOCOM 2008).

PEFT ("Penalizing Exponential Flow-splitTing") is the closest prior work to
SPEF: a link-state protocol where every router splits traffic over *all*
downward paths towards the destination, with an exponential penalty on the
extra length of a path beyond the shortest one.  The key difference to SPEF is
that PEFT does not restrict forwarding to shortest paths, which is exactly the
property the paper criticises (and the reason SPEF exists).

We implement *Downward PEFT*, the loop-free variant the PEFT paper actually
deploys: for destination ``t`` a node ``u`` may forward to any neighbour ``v``
that is strictly closer to ``t`` (``d_v < d_u``).  The traffic share of the
link ``(u, v)`` is proportional to

    exp(-(w_uv + d_v - d_u)) * Z_t(v)

where ``Z_t`` ("effective number of downward paths") satisfies the recursion
``Z_t(t) = 1``, ``Z_t(u) = sum_v exp(-(w_uv + d_v - d_u)) * Z_t(v)``.

PEFT's own theory sets the link weights to the Lagrange multipliers of the TE
problem -- the same quantities SPEF uses as first weights -- so by default the
protocol derives its weights from the optimal TE solution for the configured
objective.  Explicit weights can be supplied for ablations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.objectives import LoadBalanceObjective
from ..core.te_problem import TEProblem, solve_optimal_te
from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import WeightsLike, as_weight_vector, distances_to
from ..routing.compiled import CompiledDag
from .base import RoutingProtocol


class PEFT(RoutingProtocol):
    """Downward PEFT with exponential penalty on longer paths.

    Parameters
    ----------
    weights:
        Explicit link weights.  When omitted, the weights are derived from the
        optimal TE solution for ``objective`` (the PEFT paper's prescription).
    objective:
        Objective used to derive weights when none are given.
    temperature:
        Scales the exponential penalty: the share of a path decays as
        ``exp(-extra_length / temperature)``.  1.0 reproduces the original
        protocol; larger values spread traffic more aggressively.

    :meth:`route` runs the per-destination dict loops (also the reference
    oracle); :meth:`batch_link_loads` routes a demand ensemble over the
    compiled downward DAGs (the ``Z`` recursion and the propagation become
    vectorised sweeps) and declines degenerate corners -- zero-weight
    plateaus where a node has no strictly-downward next hop -- so their
    fallback semantics stay those of :meth:`route`.
    """

    name = "PEFT"

    def __init__(
        self,
        weights: WeightsLike | None = None,
        objective: LoadBalanceObjective | None = None,
        temperature: float = 1.0,
    ) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self._weights = weights
        self.objective = objective or LoadBalanceObjective.proportional()
        self.temperature = temperature

    # ------------------------------------------------------------------
    def link_weights(self, network: Network, demands: TrafficMatrix) -> np.ndarray:
        """The PEFT link weights for this instance."""
        if self._weights is not None:
            return as_weight_vector(network, self._weights)
        problem = TEProblem(network=network, demands=demands, objective=self.objective)
        return solve_optimal_te(problem).link_weights

    def _downward_split(
        self,
        network: Network,
        destination: Node,
        weights: np.ndarray,
    ) -> dict[Node, dict[Node, float]]:
        """Per-node split ratios over downward neighbours for one destination."""
        distances = distances_to(network, destination, weights)
        # Effective number of downward paths, computed in increasing-distance
        # order so every downstream Z value is available.
        z_values: dict[Node, float] = {destination: 1.0}
        order = sorted(distances, key=lambda n: distances[n])
        for node in order:
            if node == destination:
                continue
            total = 0.0
            for link in network.out_links(node):
                neighbour = link.target
                if neighbour not in distances or distances[neighbour] >= distances[node]:
                    continue
                extra = weights[link.index] + distances[neighbour] - distances[node]
                total += float(np.exp(-extra / self.temperature)) * z_values.get(neighbour, 0.0)
            z_values[node] = total
        ratios: dict[Node, dict[Node, float]] = {}
        for node in order:
            if node == destination:
                continue
            shares: dict[Node, float] = {}
            for link in network.out_links(node):
                neighbour = link.target
                if neighbour not in distances or distances[neighbour] >= distances[node]:
                    continue
                extra = weights[link.index] + distances[neighbour] - distances[node]
                share = float(np.exp(-extra / self.temperature)) * z_values.get(neighbour, 0.0)
                if share > 0:
                    shares[neighbour] = share
            total = sum(shares.values())
            if total > 0:
                ratios[node] = {hop: share / total for hop, share in shares.items()}
            else:
                # Disconnected downward set (only possible with zero weights
                # everywhere); fall back to any neighbour not farther away.
                fallback = [
                    link.target
                    for link in network.out_links(node)
                    if link.target in distances and distances[link.target] <= distances[node]
                ]
                if fallback:
                    ratios[node] = {hop: 1.0 / len(fallback) for hop in fallback}
        return ratios

    # ------------------------------------------------------------------
    def split_ratios(
        self, network: Network, demands: TrafficMatrix
    ) -> dict[Node, dict[Node, dict[Node, float]]]:
        weights = self.link_weights(network, demands)
        return {
            destination: self._downward_split(network, destination, weights)
            for destination in demands.destinations()
        }

    def _compile_downward(
        self, network: Network, destination: Node, weights: np.ndarray
    ) -> tuple[CompiledDag, np.ndarray] | None:
        """Compile the downward DAG and its exponential ratios for one destination.

        Returns ``None`` when the downward structure is degenerate (some
        reachable node has no strictly-downward next hop, or the exponential
        weights underflow to a zero split) -- those corners keep
        :meth:`route`'s fallback semantics.
        """
        distances = distances_to(network, destination, weights)
        order = sorted(distances, key=lambda n: distances[n], reverse=True)
        next_hops: dict[Node, list[Node]] = {}
        for node in order:
            if node == destination:
                continue
            downward = [
                link.target
                for link in network.out_links(node)
                if link.target in distances and distances[link.target] < distances[node]
            ]
            if not downward:
                return None
            next_hops[node] = downward
        compiled = CompiledDag.from_next_hops(network, destination, order, next_hops)
        if compiled.num_edges == 0:
            return compiled, np.empty(0)
        # Per-link extra length beyond the shortest path; only the compiled
        # (strictly downward) edges are gathered, so restrict the computation
        # to them instead of building a full link-indexed vector.
        extra = np.fromiter(
            (
                weights[index]
                + distances[network.link_by_index(index).target]
                - distances[network.link_by_index(index).source]
                for index in compiled.links
            ),
            dtype=float,
            count=compiled.num_edges,
        )
        boltzmann = np.exp(-extra / self.temperature)
        z_values = compiled.path_weight_sums(boltzmann)
        shares = boltzmann * z_values[compiled.targets]
        totals = np.zeros(compiled.num_nodes)
        np.add.at(totals, compiled.rows, shares)
        if np.any(totals[compiled.out_degree() > 0] <= 0):
            return None
        ratios = shares / totals[compiled.rows]
        return compiled, ratios

    def _propagate(
        self,
        network: Network,
        destination: Node,
        entering: dict[Node, float],
        weights: np.ndarray,
        flows: FlowAssignment,
    ) -> None:
        """Dict-loop propagation of one destination's demand (the reference oracle)."""
        ratios = self._downward_split(network, destination, weights)
        distances = distances_to(network, destination, weights)
        vector = flows.ensure_destination(destination)
        transit: dict[Node, float] = {}
        for node in sorted(distances, key=lambda n: distances[n], reverse=True):
            if node == destination:
                continue
            load = entering.get(node, 0.0) + transit.get(node, 0.0)
            if load <= 0:
                continue
            node_ratios = ratios.get(node)
            if not node_ratios:
                raise RuntimeError(
                    f"PEFT has no downward next hop at {node!r} for {destination!r}"
                )
            for hop, ratio in node_ratios.items():
                share = load * ratio
                if share <= 0:
                    continue
                vector[network.link_index(node, hop)] += share
                transit[hop] = transit.get(hop, 0.0) + share

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        demands.validate(network)
        weights = self.link_weights(network, demands)
        flows = FlowAssignment(network=network)
        for destination, entering in demands.by_destination().items():
            self._propagate(network, destination, entering, weights, flows)
        return flows

    def batch_link_loads(
        self, network: Network, matrices: Sequence[TrafficMatrix]
    ) -> np.ndarray | None:
        """Batched ensemble evaluation, only when the weights are explicit.

        With derived weights the forwarding state depends on the demands (the
        PEFT prescription solves the TE problem per matrix), so batching
        would change semantics and ``None`` is returned.
        """
        if self._weights is None:
            return None
        weights = as_weight_vector(network, self._weights)
        matrices = list(matrices)
        for tm in matrices:
            tm.validate(network)
        m = len(matrices)
        loads = np.zeros((network.num_links, m))
        by_destination = [tm.by_destination() for tm in matrices]
        destinations: dict[Node, None] = {}
        for per in by_destination:
            for destination in per:
                destinations.setdefault(destination, None)
        for destination in destinations:
            compiled_ratios = self._compile_downward(network, destination, weights)
            if compiled_ratios is None:
                # Degenerate corner somewhere in the ensemble: let the runner
                # fall back to per-matrix routing for exact semantics.
                return None
            compiled, ratios = compiled_ratios
            entering = np.zeros((compiled.num_nodes, m))
            for column, per in enumerate(by_destination):
                volumes = per.get(destination)
                if volumes:
                    compiled.entering_vector(
                        volumes, column=column, out=entering, missing="drop"
                    )
            compiled.scatter_link_loads(
                compiled.propagate(entering, ratios), ratios, out=loads
            )
        return loads.T
