"""Shortest-path traffic assignment (all-or-nothing and even ECMP splitting).

Two routines that every protocol and solver in the library builds on:

* :func:`all_or_nothing_assignment` sends every demand along one shortest
  path.  This is the ``Route_t(w; d^t)`` subproblem of Algorithm 1 (an
  uncapacitated min-cost flow is just shortest-path routing) and the
  linearised subproblem of the Frank-Wolfe solver.

* :func:`ecmp_assignment` splits traffic evenly across all equal-cost next
  hops at every router, which is exactly how OSPF's ECMP behaves and how the
  Fortz-Thorup evaluation routes traffic for a given weight setting.

Both propagate flow per destination over the shortest-path DAG in decreasing
distance order, so a node's whole incoming flow (local demand plus transit) is
known before it is split -- the same bookkeeping Algorithm 3 of the paper uses.

These dict-loop routines are the only implementation of one-shot routing and
the reference oracle of ``tests/test_routing_equivalence.py``.  The solver
loops route through the all-destination
:class:`~repro.routing.kernel.RoutingKernel`, and many matrices against one
weight setting go through the batched
:meth:`~repro.routing.sparse.SparseRouter.link_loads_many` (see
:mod:`repro.routing`).
"""

from __future__ import annotations

from collections.abc import Mapping

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    UnreachableError,
    WeightsLike,
    shortest_path_dag,
)
from ..routing.compiled import warn_degenerate_split


def _propagate_over_dag(
    network: Network,
    dag: ShortestPathDag,
    entering: Mapping[Node, float],
    split_ratios: Mapping[Node, Mapping[Node, float]] | None,
    flows: FlowAssignment,
) -> None:
    """Push per-destination demand over ``dag`` using ``split_ratios``.

    ``entering[s]`` is the demand entering at node ``s`` destined to the DAG's
    destination.  ``split_ratios[s][v]`` is the fraction of that node's total
    traffic forwarded to next hop ``v``; when ``split_ratios`` is ``None``
    the traffic is split evenly across all next hops.
    """
    destination = dag.destination
    vector = flows.ensure_destination(destination)
    transit: dict[Node, float] = {}
    # A topological order guarantees a node's whole incoming flow (local
    # demand plus transit) is known before the node splits it, even on
    # zero-weight plateaus where distances tie.
    for node in dag.topological_order():
        if node == destination:
            continue
        load = entering.get(node, 0.0) + transit.get(node, 0.0)
        if load <= 0:
            continue
        hops = dag.next_hops_of(node)
        if not hops:
            raise UnreachableError(
                f"node {node!r} has traffic for {destination!r} but no next hop"
            )
        if split_ratios is None:
            ratios = {hop: 1.0 / len(hops) for hop in hops}
        else:
            ratios = dict(split_ratios.get(node, {}))
            total = sum(ratios.get(hop, 0.0) for hop in hops)
            if total <= 0:
                if ratios:
                    # Stored ratios exist but are degenerate over the actual
                    # next hops -- deliver the traffic anyway (even split) but
                    # say so instead of silently ignoring the configuration.
                    warn_degenerate_split(node, destination, total, len(hops))
                ratios = {hop: 1.0 / len(hops) for hop in hops}
            else:
                ratios = {hop: ratios.get(hop, 0.0) / total for hop in hops}
        for hop in hops:
            share = load * ratios.get(hop, 0.0)
            if share <= 0:
                continue
            vector[network.link_index(node, hop)] += share
            transit[hop] = transit.get(hop, 0.0) + share


def ecmp_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
    dags: dict[Node, ShortestPathDag] | None = None,
) -> FlowAssignment:
    """Route ``demands`` with even splitting over equal-cost shortest paths.

    This reproduces OSPF's ECMP behaviour for a given weight setting.  The
    precomputed ``dags`` argument lets callers reuse shortest-path DAGs across
    repeated evaluations (the Fortz-Thorup local search does this heavily).
    """
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        dag = (
            dags[destination]
            if dags is not None and destination in dags
            else shortest_path_dag(network, destination, weights, tolerance)
        )
        for source in entering:
            if not dag.reachable(source):
                raise UnreachableError(
                    f"demand source {source!r} cannot reach {destination!r}"
                )
        _propagate_over_dag(network, dag, entering, None, flows)
    return flows


def all_or_nothing_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FlowAssignment:
    """Route every demand along a single shortest path (no splitting).

    Ties are broken deterministically by picking the first next hop of the
    DAG, so repeated calls with the same inputs give the same flows -- a
    property the sub-gradient iterations of Algorithm 1 rely on for
    reproducibility.  This is the reference oracle: the solver loops route
    through :meth:`repro.routing.kernel.RoutingKernel.first_hop`, which
    falls back to this function on zero-weight plateaus.
    """
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        dag = shortest_path_dag(network, destination, weights, tolerance)
        single_hop: dict[Node, dict[Node, float]] = {}
        for node in dag.next_hops:
            hops = dag.next_hops_of(node)
            if hops:
                single_hop[node] = {hops[0]: 1.0}
        for source in entering:
            if not dag.reachable(source):
                raise UnreachableError(
                    f"demand source {source!r} cannot reach {destination!r}"
                )
        _propagate_over_dag(network, dag, entering, single_hop, flows)
    return flows


def split_ratio_assignment(
    network: Network,
    demands: TrafficMatrix,
    dags: dict[Node, ShortestPathDag],
    split_ratios: dict[Node, dict[Node, dict[Node, float]]],
) -> FlowAssignment:
    """Route demands over precomputed DAGs with explicit split ratios.

    ``split_ratios[destination][node][hop]`` gives the fraction of the
    traffic for ``destination`` that ``node`` forwards to ``hop``.  This is the
    building block SPEF uses once the second link weights have produced the
    exponential split ratios of Eq. (22).
    """
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        if destination not in dags:
            raise UnreachableError(f"no shortest-path DAG for destination {destination!r}")
        dag = dags[destination]
        ratios = split_ratios.get(destination)
        _propagate_over_dag(network, dag, entering, ratios, flows)
    return flows
