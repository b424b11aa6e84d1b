"""Unit tests for the Frank-Wolfe (flow deviation) convex MCF solver."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.objectives import LoadBalanceObjective
from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.graph import Network
from repro.obs import telemetry
from repro.routing.kernel import RoutingKernel
from repro.solvers.assignment import all_or_nothing_assignment
from repro.solvers.frank_wolfe import START_STEPS, _line_search, _start, solve_frank_wolfe
from repro.solvers.mcf import SolverError, solve_min_mlu

#: ``solve_optimal_te``'s utility on Abilene at 0.85 of saturation, started
#: from the min-MLU LP and capped at 400 iterations, as computed by the
#: per-destination dict loop the array iterate replaced.
ABILENE_LP_START_UTILITY = 46.24304823732368


class TestFrankWolfe:
    def test_diamond_splits_evenly_under_proportional_objective(
        self, diamond_network, diamond_demands
    ):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(diamond_network, diamond_demands, objective)
        assert result.converged
        # Symmetric paths: the optimum splits 8 units into 4 + 4.
        assert result.flows.flow_on(1, 2) == pytest.approx(4.0, abs=1e-3)
        assert result.flows.flow_on(1, 3) == pytest.approx(4.0, abs=1e-3)

    def test_weights_match_derivative_of_spare(self, diamond_network, diamond_demands):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(diamond_network, diamond_demands, objective)
        spare = result.flows.spare_capacity()
        assert np.allclose(result.link_weights, objective.derivative(spare))

    def test_fig1_matches_paper_table1(self, fig1, fig1_tm):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(fig1, fig1_tm, objective)
        utilization = fig1.weight_dict(result.flows.utilization())
        assert utilization[(1, 3)] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert utilization[(3, 4)] == pytest.approx(0.9, abs=1e-6)
        assert utilization[(1, 2)] == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_infeasible_barrier_instance_raises(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 25.0})  # exceeds the 20-unit cut
        objective = LoadBalanceObjective.proportional()
        with pytest.raises(SolverError):
            solve_frank_wolfe(diamond_network, demands, objective)

    def test_empty_demands(self, diamond_network):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(diamond_network, TrafficMatrix(), objective)
        assert result.converged
        assert np.allclose(result.flows.aggregate(), 0.0)

    def test_objective_history_is_monotone_nonincreasing(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(fig4, fig4_tm, objective, max_iterations=60)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 1e-8)

    def test_custom_initial_flows_accepted(self, diamond_network, diamond_demands):
        objective = LoadBalanceObjective.proportional()
        start = solve_min_mlu(diamond_network, diamond_demands).flows
        result = solve_frank_wolfe(
            diamond_network, diamond_demands, objective, initial_flows=start
        )
        assert result.converged

    def test_non_barrier_mode_handles_saturation(self, diamond_network):
        # Linear-ish objective (beta=0.5 is finite at zero spare capacity):
        # demands that saturate the cheap path should still solve.
        demands = TrafficMatrix({(1, 4): 18.0})
        objective = LoadBalanceObjective(beta=0.5)
        result = solve_frank_wolfe(diamond_network, demands, objective, max_iterations=80)
        result.flows.validate(demands, tolerance=1e-4)
        assert result.flows.max_link_utilization() <= 1.0 + 1e-6

    def test_result_flows_respect_capacity(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(fig4, fig4_tm, objective)
        assert result.flows.max_link_utilization() < 1.0
        result.flows.validate(fig4_tm, tolerance=1e-6)

    def test_lp_path_line_search_stops_short_of_capacity(self, diamond_network):
        """``beta < 1``: capacitated LP targets saturate a path, yet the optimum splits."""
        demands = TrafficMatrix({(1, 4): 18.0})
        start = FlowAssignment(network=diamond_network)
        start.add_path_flow(4, [1, 2, 4], 9.5)
        start.add_path_flow(4, [1, 3, 4], 8.5)
        result = solve_frank_wolfe(
            diamond_network,
            demands,
            LoadBalanceObjective(beta=0.5),
            max_iterations=200,
            initial_flows=start,
        )
        assert result.line_search_evaluations > 0
        assert result.flows.flow_on(1, 2) == pytest.approx(9.0, abs=1e-2)
        assert result.flows.flow_on(1, 3) == pytest.approx(9.0, abs=1e-2)


@st.composite
def loaded_instances(draw):
    """A small strongly connected network whose min MLU is 0.5-0.98."""
    n = draw(st.integers(min_value=3, max_value=7))
    capacity = st.floats(min_value=1.0, max_value=20.0)
    net = Network(name="hypothesis")
    for i in range(n):
        net.add_link(i, (i + 1) % n, draw(capacity))
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(chords.filter(lambda e: e[0] != e[1]), max_size=2 * n)):
        if not net.has_link(u, v):
            net.add_link(u, v, draw(capacity))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    volume = st.floats(min_value=0.1, max_value=5.0)
    demands = TrafficMatrix({pair: draw(volume) for pair in chosen})
    fraction = draw(st.floats(min_value=0.5, max_value=0.98))
    mlu = solve_min_mlu(net, demands, allow_overload=True).objective
    return net, demands.scaled(fraction / mlu)


class TestStart:
    @given(instance=loaded_instances())
    def test_start_is_strictly_feasible_and_conserves_flow(self, instance):
        network, demands = instance
        objective = LoadBalanceObjective.proportional()
        loads = _start(network, demands, objective, RoutingKernel(network, demands))
        flows = FlowAssignment.from_rows(network, demands.destinations(), loads)
        assert flows.max_link_utilization() < 1.0
        assert flows.conservation_violation(demands) <= 1e-9 * demands.total_volume()

    def test_near_saturation_takes_the_counted_lp_fallback(self, diamond_network):
        # Min MLU 0.995: the homotopy cannot get below its 0.99 margin.
        demands = TrafficMatrix({(1, 4): 19.9})
        with telemetry.session() as registry:
            result = solve_frank_wolfe(
                diamond_network, demands, LoadBalanceObjective.proportional()
            )
        assert registry.counter_value("solvers.te_start", path="lp", reason="budget") == 1
        assert registry.counter_value("solvers.te_start") == 1
        assert 0 < registry.counter_value("solvers.te_start_steps") <= START_STEPS
        assert result.flows.max_link_utilization() == pytest.approx(0.995, abs=1e-6)

    def test_lp_start_reproduces_the_dict_loop(self):
        """With the LP start given, the array iterate follows the old trajectory."""
        from repro.analysis.experiments import standard_instances
        from repro.core.te_problem import TEProblem, solve_optimal_te

        instance = standard_instances()["Abilene"]
        demands = instance.at_fraction(0.85)
        start = solve_min_mlu(instance.network, demands).flows
        solution = solve_optimal_te(
            TEProblem(instance.network, demands), initial_flows=start
        )
        assert solution.iterations == 400
        assert solution.utility == pytest.approx(ABILENE_LP_START_UTILITY, rel=1e-9)


class TestDualityGap:
    @pytest.mark.parametrize("max_iterations", [0, 5, 300])
    def test_gap_is_taken_at_the_returned_iterate(self, fig4, fig4_tm, max_iterations):
        objective = LoadBalanceObjective.proportional()
        result = solve_frank_wolfe(fig4, fig4_tm, objective, max_iterations=max_iterations)
        aggregate = result.flows.aggregate()
        weights = objective.congestion_gradient(fig4, aggregate)
        np.testing.assert_array_equal(result.link_weights, weights)
        target = all_or_nothing_assignment(fig4, fig4_tm, weights).aggregate()
        gap = -np.dot(weights, target - aggregate)
        assert result.duality_gap == pytest.approx(gap, rel=1e-9, abs=1e-12)
        assert result.duality_gap >= 0
        assert result.objective == objective.congestion_cost(fig4, aggregate)
        assert result.iterations <= max_iterations

    def test_gap_bounds_the_distance_to_a_longer_solve(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        short = solve_frank_wolfe(fig4, fig4_tm, objective, max_iterations=5, tolerance=0.0)
        long = solve_frank_wolfe(fig4, fig4_tm, objective, max_iterations=2000)
        assert 0 <= short.objective - long.objective <= short.duality_gap


class TestLineSearchWork:
    @pytest.mark.parametrize("name", ["Abilene", "Rand50a"])
    def test_evaluations_per_iteration(self, name):
        """A deterministic work count: at most 8 derivative evaluations per step."""
        from repro.analysis.experiments import standard_instances

        instance = standard_instances()[name]
        demands = instance.at_fraction(0.85)
        with telemetry.session() as registry:
            result = solve_frank_wolfe(
                instance.network,
                demands,
                LoadBalanceObjective.proportional(),
                max_iterations=400,
                tolerance=1e-7,
            )
        assert result.line_search_evaluations <= 8 * result.iterations
        assert registry.counter_value("solvers.fw_line_search_evals") == (
            result.line_search_evaluations
        )


# ----------------------------------------------------------------------
# The exact line search on Phi(alpha) = -sum V(s - alpha d)
# ----------------------------------------------------------------------
def _phi(spare, direction, q, beta, alpha):
    """``-sum V(s - alpha d)``; +inf past the barrier or the capacity."""
    utility = LoadBalanceObjective(beta=beta, q=q).total_utility(spare - alpha * direction)
    return -utility if np.isfinite(utility) else np.inf


def _slope_and_scale(spare, direction, q, beta, alpha):
    """``Phi'(alpha)``, ``Phi''(alpha)`` and the magnitude of the summed terms."""
    remaining = spare - alpha * direction
    terms = q * direction / remaining**beta
    return terms.sum(), beta * np.sum(terms * direction / remaining), np.abs(terms).sum()


def _coordinates(draw, count, elements):
    return np.array(draw(st.lists(elements, min_size=count, max_size=count)))


@st.composite
def segments(draw):
    """A spare vector ``s > 0``, coefficients ``q`` and a descent direction."""
    count = draw(st.integers(min_value=1, max_value=12))
    spare = _coordinates(draw, count, st.floats(min_value=0.05, max_value=20.0))
    q = _coordinates(draw, count, st.floats(min_value=0.1, max_value=10.0))
    direction = _coordinates(
        draw,
        count,
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=-10.0, max_value=-0.01),
        ),
    )
    beta = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    slope, _, _ = _slope_and_scale(spare, direction, q, beta, 0.0)
    assume(slope < 0)
    return spare, direction, q, beta


class TestLineSearch:
    @given(segment=segments())
    def test_step_minimises_phi_on_the_segment(self, segment):
        spare, direction, q, beta = segment
        alpha, evaluations = _line_search(spare, direction, q, beta)
        assert 0.0 <= alpha <= 1.0
        assert evaluations >= 1
        grid = min(_phi(spare, direction, q, beta, a) for a in np.linspace(0.0, 1.0, 1001))
        assert _phi(spare, direction, q, beta, alpha) <= grid + 1e-12
        slope, curvature, scale = _slope_and_scale(spare, direction, q, beta, alpha)
        if alpha == 1.0 and slope <= 0:
            return
        # Stationary: alpha lies within 1e-10 of the root of Phi', up to rounding.
        assert abs(slope) <= 1e-10 * curvature + 1e-12 * scale

    def test_saturating_target_stops_at_the_interior_root(self):
        # Phi'(alpha) = 1/(1 - alpha) - 2/(1 + 2 alpha): root 1/4, and the
        # first link saturates at alpha = 1 (Phi'(1) = +inf).
        spare, direction, q = np.array([1.0, 1.0]), np.array([1.0, -2.0]), np.ones(2)
        alpha, _ = _line_search(spare, direction, q, 1.0)
        assert alpha == pytest.approx(0.25, abs=1e-12)

    def test_finite_utility_below_one_also_stops_before_capacity(self):
        # beta = 0.5: V(0) is finite, but Phi' still diverges at saturation.
        spare, direction, q = np.array([1.0, 1.0]), np.array([1.0, -2.0]), np.ones(2)
        alpha, _ = _line_search(spare, direction, q, 0.5)
        assert 0.0 < alpha < 1.0
        slope, curvature, _ = _slope_and_scale(spare, direction, q, 0.5, alpha)
        assert abs(slope) <= 1e-10 * curvature

    def test_descent_to_the_far_endpoint_takes_one_evaluation(self):
        spare, direction, q = np.array([5.0, 5.0]), np.array([1.0, -2.0]), np.ones(2)
        assert _line_search(spare, direction, q, 1.0) == (1.0, 1)

    @pytest.mark.parametrize(
        ("direction", "expected"), [([1.0, -2.0], 1.0), ([2.0, -1.0], 0.0)]
    )
    def test_linear_utility_is_an_endpoint_test(self, direction, expected):
        spare, q = np.array([1.0, 1.0]), np.ones(2)
        assert _line_search(spare, np.array(direction), q, 0.0) == (expected, 1)
