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

The iterate is one ``(destinations, links)`` array, blended in place.  One
linearisation past the last step certifies the returned iterate: its duality
gap (:attr:`FrankWolfeResult.duality_gap`) bounds the distance to the optimum.

For strictly concave barrier-like utilities (``beta >= 1``) the cost diverges
as any link saturates, so iterates stay strictly feasible as long as the
starting point is.  A capacity homotopy on the same kernel supplies that
start (:func:`_homotopy_start`); the min-MLU LP does only when the homotopy
falls short, and then also decides infeasibility.  For ``beta < 1`` the
optimum may saturate links, so the linearised subproblem is solved as a
*capacitated* min-cost MCF LP instead, from the min-MLU LP start.

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
from ..network.spt import UnreachableError
from ..obs import telemetry
from ..routing.kernel import RoutingKernel
from .mcf import SolverError, solve_min_cost_mcf, solve_min_mlu

if TYPE_CHECKING:
    from ..core.objectives import LoadBalanceObjective

#: The line search stops once a step moves ``alpha`` by at most this much.
LINE_SEARCH_TOLERANCE = 1e-12
#: The capacity homotopy hands over its start once every link is below this
#: utilisation.
START_MARGIN = 0.99
#: Homotopy steps before the start falls back to the min-MLU LP.
START_STEPS = 50


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
    #: The Frank-Wolfe duality gap ``-grad Phi(x) . (y - x)`` at the returned
    #: iterate ``x`` (``y`` its linearised optimum): an upper bound on
    #: ``Phi(x) - Phi*``, i.e. on how far ``objective`` is from the optimum.
    duality_gap: float
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


def _homotopy_start(
    kernel: RoutingKernel, objective: LoadBalanceObjective, capacities: np.ndarray
) -> np.ndarray | None:
    """A start with every link below :data:`START_MARGIN`, by capacity homotopy.

    The flow-deviation method's own answer to a barrier cost's feasibility
    problem (Fratta, Gerla & Kleinrock, *Networks* 1973; Bertsekas &
    Gallager, *Data Networks* 5.7): route all-or-nothing at the zero-load
    marginal costs ``V'(c)``, then take Frank-Wolfe steps on the capacities
    ``kappa * c``.  With ``kappa = MLU / START_MARGIN`` the iterate is
    strictly feasible for the scaled capacities, and ``kappa`` shrinks toward
    1 as the MLU falls.  Returns ``None`` when :data:`START_STEPS` steps do
    not bring the MLU below the margin, or a step stalls.  The steps taken
    are counted as ``solvers.te_start_steps``.

    Raises :class:`SolverError` when a demand source cannot reach its
    destination.
    """
    try:
        loads = kernel.first_hop(objective.derivative(capacities))
    except UnreachableError as exc:
        raise SolverError(f"demands cannot be routed: {exc}") from exc
    q = objective._coefficients(capacities)
    for step in range(START_STEPS + 1):
        aggregate = loads.sum(axis=0)
        mlu = float(np.max(aggregate / capacities))
        if mlu < START_MARGIN or step == START_STEPS:
            break
        spare = capacities * (mlu / START_MARGIN) - aggregate
        target = kernel.first_hop(objective.derivative(spare))
        alpha, _ = _line_search(spare, target.sum(axis=0) - aggregate, q, objective.beta)
        if alpha <= 0:
            break
        loads += alpha * (target - loads)
    telemetry.count("solvers.te_start_steps", step)
    return loads if mlu < START_MARGIN else None


def _start(
    network: Network,
    demands: TrafficMatrix,
    objective: LoadBalanceObjective,
    kernel: RoutingKernel | None,
) -> np.ndarray:
    """The ``(destinations, links)`` starting loads when none are given.

    Counted as ``solvers.te_start[path=...]``: ``homotopy`` for a barrier
    objective, ``lp`` with ``reason=budget`` when the homotopy does not get
    below the margin and ``reason=capacitated`` for a non-barrier objective.
    """
    destinations = demands.destinations()
    if kernel is None:
        telemetry.count("solvers.te_start", 1, path="lp", reason="capacitated")
        return solve_min_mlu(network, demands, allow_overload=True).flows.rows(destinations)
    loads = _homotopy_start(kernel, objective, network.capacities)
    if loads is not None:
        telemetry.count("solvers.te_start", 1, path="homotopy")
        return loads
    telemetry.count("solvers.te_start", 1, path="lp", reason="budget")
    start = solve_min_mlu(network, demands)
    if start.objective >= 1.0 - 1e-9:
        raise SolverError(
            "demands cannot be routed with every link strictly below "
            f"capacity (best MLU = {start.objective:.4f}); a barrier "
            "objective has no feasible point"
        )
    return start.flows.rows(destinations)


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
        A feasible starting assignment (strictly feasible for a barrier
        objective).  By default a barrier objective starts from the capacity
        homotopy (:func:`_homotopy_start`), with the min-MLU LP as its counted
        fallback; any other objective starts from the min-MLU LP.

    Raises
    ------
    SolverError
        If no feasible starting point exists: a demand source cannot reach
        its destination, or (for a barrier objective) the demands do not fit
        strictly below capacity.
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
            duality_gap=0.0,
        )

    destinations = demands.destinations()
    kernel = RoutingKernel(network, demands) if barrier else None
    if initial_flows is not None:
        loads = initial_flows.rows(destinations)
    else:
        loads = _start(network, demands, objective, kernel)

    def route(weights: np.ndarray) -> np.ndarray:
        if kernel is not None:
            return kernel.first_hop(weights)
        lp = solve_min_cost_mcf(network, demands, weights, capacitated=True)
        return lp.flows.rows(destinations)

    capacities = network.capacities
    q = objective._coefficients(capacities)
    history: list[float] = []
    converged = False
    evaluations = 0
    max_iterations = max(max_iterations, 0)
    # One linearisation per step, plus one more that certifies the iterate
    # the last step returns.
    for iteration in range(1, max_iterations + 2):
        aggregate = loads.sum(axis=0)
        weights = np.maximum(objective.congestion_gradient(network, aggregate), 0.0)
        target = route(weights)
        cost = objective.congestion_cost(network, aggregate)
        history.append(cost)
        direction = target.sum(axis=0) - aggregate
        gap = float(-np.dot(weights, direction))
        relative_gap = gap / max(abs(cost), 1.0)
        if relative_gap <= tolerance:
            converged = True
            break
        if iteration > max_iterations:
            break
        alpha, spent = _line_search(capacities - aggregate, direction, q, objective.beta)
        evaluations += spent
        if alpha <= 0:
            converged = True
            break
        # In place: loads <- (1 - alpha) loads + alpha target.
        loads *= 1.0 - alpha
        target *= alpha
        loads += target

    telemetry.count("solvers.fw_line_search_evals", evaluations)
    return FrankWolfeResult(
        flows=FlowAssignment.from_rows(network, destinations, loads),
        objective=cost,
        link_weights=weights,
        iterations=min(iteration, max_iterations),
        relative_gap=relative_gap,
        converged=converged,
        duality_gap=gap,
        line_search_evaluations=evaluations,
        objective_history=history,
    )
