"""Frank-Wolfe (flow deviation) solver for concave-utility multi-commodity flow.

This is the centralized reference solver for the paper's TE problem (5):

    maximize   sum_ij V_ij(c_ij - f_ij)
    subject to multi-commodity flow constraints.

Maximising a concave utility of spare capacity is equivalent to minimising the
convex congestion cost ``Phi(f) = -sum_ij V_ij(c_ij - f_ij)``.  The classic
flow-deviation method applies directly:

1. linearise the cost at the current aggregate flow, which yields link costs
   ``w_ij = V'_ij(c_ij - f_ij)`` -- exactly the paper's first link weights;
2. solve the linearised subproblem, i.e. route all demands on shortest paths
   under ``w`` (all-or-nothing assignment, by the all-destination
   :class:`~repro.routing.kernel.RoutingKernel` built once per solve);
3. move towards that extreme point with an exact line search.

For strictly concave barrier-like utilities (``beta >= 1``) the cost diverges
as any link saturates, so iterates stay strictly feasible as long as the
starting point is.  For ``beta < 1`` the optimum may saturate links, so the
linearised subproblem is solved as a *capacitated* min-cost MCF LP instead.

The solver is deliberately independent from Algorithm 1 (the distributed dual
decomposition); the test-suite cross-checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..routing.kernel import RoutingKernel
from .mcf import SolverError, solve_min_cost_mcf, solve_min_mlu

#: Signature of a link congestion-cost oracle: given the aggregate flow vector
#: it returns (total cost, per-link marginal cost).
CostOracle = Callable[[np.ndarray], float]
GradientOracle = Callable[[np.ndarray], np.ndarray]


@dataclass
class FrankWolfeResult:
    """Outcome of the flow-deviation solver."""

    flows: FlowAssignment
    objective: float
    #: Marginal link costs at the optimum, i.e. V'(s*): the first link weights.
    link_weights: np.ndarray
    iterations: int
    relative_gap: float
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def _golden_section(fun: Callable[[float], float], tol: float = 1e-10) -> float:
    """Minimise a 1-D convex function over [0, 1] by golden-section search."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fun(x2)
    return (lo + hi) / 2.0


def solve_frank_wolfe(
    network: Network,
    demands: TrafficMatrix,
    cost: CostOracle,
    gradient: GradientOracle,
    barrier: bool = True,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    initial_flows: FlowAssignment | None = None,
) -> FrankWolfeResult:
    """Minimise a convex separable link cost over the MCF polytope.

    Parameters
    ----------
    cost, gradient:
        Oracles mapping the aggregate flow vector to the total cost and the
        vector of marginal link costs.  For the TE problem these are
        ``-sum V(c - f)`` and ``V'(c - f)``.
    barrier:
        ``True`` when the cost diverges at saturation (``beta >= 1``): the
        linearised subproblem is then an *uncapacitated* shortest-path
        assignment and the line search keeps iterates interior.  ``False``
        solves a capacitated min-cost MCF LP per iteration instead.
    initial_flows:
        A feasible starting assignment; by default the min-MLU LP solution
        (scaled slightly towards the interior when ``barrier`` is set).

    Raises
    ------
    SolverError
        If no feasible starting point exists (demands exceed capacity when a
        barrier cost is used).
    """
    demands.validate(network)
    if not len(demands):
        empty = FlowAssignment(network=network)
        return FrankWolfeResult(
            flows=empty,
            objective=float(cost(empty.aggregate())),
            link_weights=gradient(empty.aggregate()),
            iterations=0,
            relative_gap=0.0,
            converged=True,
        )

    if initial_flows is None:
        start = solve_min_mlu(network, demands, allow_overload=not barrier)
        if barrier and start.objective >= 1.0 - 1e-9:
            raise SolverError(
                "demands cannot be routed with every link strictly below "
                f"capacity (best MLU = {start.objective:.4f}); a barrier "
                "objective has no feasible point"
            )
        current = start.flows
    else:
        current = initial_flows.copy()

    kernel = RoutingKernel(network, demands) if barrier else None
    history: list[float] = []
    relative_gap = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):  # noqa: B007
        aggregate = current.aggregate()
        weights = np.maximum(gradient(aggregate), 0.0)
        if kernel is not None:
            target = kernel.first_hop(weights)
        else:
            target = solve_min_cost_mcf(network, demands, weights, capacitated=True).flows

        current_cost = float(cost(aggregate))
        history.append(current_cost)
        direction = target.aggregate() - aggregate
        gap = float(-np.dot(weights, direction))
        denom = max(abs(current_cost), 1.0)
        relative_gap = gap / denom
        if relative_gap <= tolerance:
            converged = True
            break

        def line_cost(alpha: float) -> float:
            return float(cost(aggregate + alpha * direction))

        alpha = _golden_section(line_cost)
        if alpha <= 0:
            converged = True
            break
        blended = FlowAssignment(network=network)
        for destination in set(current.destinations) | set(target.destinations):
            a = current.per_destination.get(destination)
            b = target.per_destination.get(destination)
            if a is None:
                a = np.zeros(network.num_links)
            if b is None:
                b = np.zeros(network.num_links)
            blended.per_destination[destination] = (1 - alpha) * a + alpha * b
        current = blended

    aggregate = current.aggregate()
    final_cost = float(cost(aggregate))
    history.append(final_cost)
    return FrankWolfeResult(
        flows=current,
        objective=final_cost,
        link_weights=np.maximum(gradient(aggregate), 0.0),
        iterations=iteration,
        relative_gap=float(relative_gap),
        converged=converged,
        objective_history=history,
    )
