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
3. move towards that extreme point with an exact line search: a safeguarded
   Newton iteration on the closed-form first and second derivatives of the
   cost along the segment (:func:`_line_search`).

For strictly concave barrier-like utilities (``beta >= 1``) the cost diverges
as any link saturates, so iterates stay strictly feasible as long as the
starting point is.  For ``beta < 1`` the optimum may saturate links, so the
linearised subproblem is solved as a *capacitated* min-cost MCF LP instead.

The solver is deliberately independent from Algorithm 1 (the distributed dual
decomposition); the test-suite cross-checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..obs import telemetry
from ..routing.kernel import RoutingKernel
from .mcf import SolverError, solve_min_cost_mcf, solve_min_mlu

if TYPE_CHECKING:
    from ..core.objectives import LoadBalanceObjective

#: The line search stops once a step moves ``alpha`` by at most this much.
LINE_SEARCH_TOLERANCE = 1e-12


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
    #: Derivative evaluations spent by the line searches (a work count).
    line_search_evaluations: int = 0
    objective_history: list[float] = field(default_factory=list)


def _line_search(
    spare: np.ndarray, direction: np.ndarray, q: np.ndarray, beta: float
) -> tuple[float, int]:
    """Minimise ``Phi(alpha) = -sum V(spare - alpha * direction)`` over [0, 1].

    ``V`` is the ``(q, beta)`` utility, so along the segment

        Phi'(alpha)  = sum q d / (s - alpha d)^beta
        Phi''(alpha) = beta * sum q d^2 / (s - alpha d)^(beta + 1)

    with ``s = spare`` and ``d = direction``.  A point with ``s - alpha d <= 0``
    on some link counts as ``Phi' = +inf`` (the barrier, or the capacity the
    step may not cross).  Returns 1 when ``Phi'(1) <= 0``; otherwise a Newton
    iteration from 0 keeps a bracket ``[lo, hi]`` around the root of ``Phi'``
    and bisects whenever a Newton step would leave it.  Returns the step and
    the number of derivative evaluations.
    """
    support = direction != 0
    s, d, q = spare[support], direction[support], q[support]
    if beta == 0.0:
        # Linear utility: Phi' is constant and Phi'' = 0, so an endpoint wins.
        return (1.0 if float(np.dot(q, d)) <= 0 else 0.0), 1

    def derivatives(alpha: float) -> tuple[float, float]:
        remaining = s - alpha * d
        if np.any(remaining <= 0):
            return np.inf, np.inf
        terms = q * d / remaining**beta
        return float(terms.sum()), beta * float(np.dot(terms, d / remaining))

    slope, _ = derivatives(1.0)
    if slope <= 0:
        return 1.0, 1
    lo, hi, alpha = 0.0, 1.0, 0.0
    slope, curvature = derivatives(alpha)
    evaluations = 2
    while slope != 0:
        if slope > 0:
            hi = alpha
        else:
            lo = alpha
        newton = alpha - slope / curvature if 0 < curvature < np.inf else np.nan
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(step - alpha) <= LINE_SEARCH_TOLERANCE:
            return step, evaluations
        alpha = step
        slope, curvature = derivatives(alpha)
        evaluations += 1
    return alpha, evaluations


def solve_frank_wolfe(
    network: Network,
    demands: TrafficMatrix,
    objective: LoadBalanceObjective,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    initial_flows: FlowAssignment | None = None,
) -> FrankWolfeResult:
    """Maximise ``objective``'s utility of spare capacity over the MCF polytope.

    Equivalently, minimise the convex congestion cost ``-sum V(c - f)``.

    Parameters
    ----------
    objective:
        The ``(q, beta)`` utility.  A barrier objective (``beta >= 1``, the
        cost diverges at saturation) makes the linearised subproblem an
        *uncapacitated* shortest-path assignment, and the line search keeps
        iterates interior; otherwise each iteration solves a capacitated
        min-cost MCF LP.
    initial_flows:
        A feasible starting assignment; by default the min-MLU LP solution.

    Raises
    ------
    SolverError
        If no feasible starting point exists (demands exceed capacity when a
        barrier objective is used).
    """
    demands.validate(network)
    barrier = objective.is_barrier()
    if not len(demands):
        empty = FlowAssignment(network=network)
        return FrankWolfeResult(
            flows=empty,
            objective=objective.congestion_cost(network, empty.aggregate()),
            link_weights=objective.congestion_gradient(network, empty.aggregate()),
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
    capacities = network.capacities
    q = objective._coefficients(capacities)
    history: list[float] = []
    relative_gap = np.inf
    converged = False
    evaluations = 0
    iteration = 0
    for iteration in range(1, max_iterations + 1):  # noqa: B007
        aggregate = current.aggregate()
        weights = np.maximum(objective.congestion_gradient(network, aggregate), 0.0)
        if kernel is not None:
            target = kernel.first_hop(weights)
        else:
            target = solve_min_cost_mcf(network, demands, weights, capacitated=True).flows

        current_cost = objective.congestion_cost(network, aggregate)
        history.append(current_cost)
        direction = target.aggregate() - aggregate
        gap = float(-np.dot(weights, direction))
        denom = max(abs(current_cost), 1.0)
        relative_gap = gap / denom
        if relative_gap <= tolerance:
            converged = True
            break

        alpha, spent = _line_search(capacities - aggregate, direction, q, objective.beta)
        evaluations += spent
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

    telemetry.count("solvers.fw_line_search_evals", evaluations)
    aggregate = current.aggregate()
    final_cost = objective.congestion_cost(network, aggregate)
    history.append(final_cost)
    return FrankWolfeResult(
        flows=current,
        objective=final_cost,
        link_weights=np.maximum(objective.congestion_gradient(network, aggregate), 0.0),
        iterations=iteration,
        relative_gap=float(relative_gap),
        converged=converged,
        line_search_evaluations=evaluations,
        objective_history=history,
    )
