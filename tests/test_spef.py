"""Unit and integration tests for the SPEF protocol (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.forwarding import verify_split_consistency
from repro.core.objectives import LoadBalanceObjective
from repro.core.spef import SPEF, SPEFConfig
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.network.demands import TrafficMatrix
from repro.protocols.ospf import OSPF
from repro.protocols.spef_protocol import SPEFProtocol


class TestConfig:
    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            SPEFConfig(te_solver="magic")

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SPEF(config=SPEFConfig(), integer_weights=True)

    def test_overrides_build_config(self):
        spef = SPEF(integer_weights=True)
        assert spef.config.integer_weights is True


class TestPipeline:
    def test_fig4_achieves_optimal_te(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert solution.optimality_gap() == pytest.approx(0.0, abs=1e-3)
        assert solution.max_link_utilization() < 1.0
        solution.flows.validate(fig4_tm, tolerance=1e-4)

    def test_realised_flows_close_to_target(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        realised = solution.flows.aggregate()
        target = solution.target_flows
        assert np.max(np.abs(realised - target)) < 0.05 * np.max(target) + 1e-9

    def test_first_weights_positive_on_used_links(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        used = solution.flows.aggregate() > 1e-6
        assert np.all(solution.first_weights[used] > 0)

    def test_second_weights_nonnegative(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert np.all(solution.second_weights >= 0)

    def test_forwarding_tables_consistent_with_second_weights(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert verify_split_consistency(
            fig4, solution.dags, solution.second_weights, solution.forwarding_tables
        )

    def test_route_wrapper(self, diamond_network, diamond_demands):
        flows = SPEF().route(diamond_network, diamond_demands)
        assert flows.flow_on(1, 2) == pytest.approx(4.0, abs=0.2)

    def test_diamond_even_split_is_optimal(self, diamond_network, diamond_demands):
        solution = SPEF().fit(diamond_network, diamond_demands)
        assert solution.flows.flow_on(1, 2) == pytest.approx(4.0, abs=0.2)
        assert solution.flows.flow_on(1, 3) == pytest.approx(4.0, abs=0.2)

    def test_dual_solver_variant(self, fig1, fig1_tm):
        config = SPEFConfig(te_solver="dual", alg1_max_iterations=2000)
        solution = SPEF(config=config).fit(fig1, fig1_tm)
        assert solution.first_result is not None
        assert solution.te_solution is None
        assert solution.max_link_utilization() <= 1.0 + 1e-6

    def test_frank_wolfe_solver_records_te_solution(self, fig1, fig1_tm):
        solution = SPEF().fit(fig1, fig1_tm)
        assert solution.te_solution is not None
        assert solution.first_result is None

    def test_utility_never_worse_than_ospf(self, fig4, fig4_tm):
        spef_solution = SPEF().fit(fig4, fig4_tm)
        ospf_flows = OSPF().route(fig4, fig4_tm)
        ospf_utility = LoadBalanceObjective.proportional().total_utility(
            ospf_flows.spare_capacity()
        )
        assert spef_solution.utility() >= ospf_utility - 1e-6

    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
    def test_all_paper_betas_run(self, fig4, fig4_tm, beta):
        solution = SPEF(objective=LoadBalanceObjective(beta=beta)).fit(fig4, fig4_tm)
        # beta = 0 legitimately saturates the bottleneck (Fig. 6 shows link 1
        # at 100% for SPEF0); allow the NEM tolerance on top of that.
        assert solution.max_link_utilization() <= 1.0 + 5e-3
        assert solution.flows.conservation_violation(fig4_tm) < 1e-6


class TestIntegerWeights:
    def test_integer_weights_are_integers(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert np.allclose(solution.first_weights, np.rint(solution.first_weights))
        assert np.all(solution.first_weights >= 1.0)

    def test_integer_weights_keep_feasibility(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert solution.flows.conservation_violation(fig4_tm) < 1e-6

    def test_raw_weights_preserved(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert not np.allclose(solution.first_weights, solution.raw_first_weights)


class TestPathDiversity:
    def test_equal_cost_paths_per_pair(self, diamond_network, diamond_demands):
        solution = SPEF().fit(diamond_network, diamond_demands)
        assert solution.equal_cost_paths(1, 4) >= 2
        assert solution.equal_cost_paths(4, 1) == 0  # unreachable direction

    def test_histogram_counts_all_pairs(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        histogram = solution.equal_cost_path_histogram()
        total_pairs = sum(histogram.values())
        n = fig4.num_nodes
        # Only destinations with demand have DAGs; pairs counted are
        # (n - 1) per destination DAG.
        assert total_pairs == len(solution.dags) * (n - 1)


class TestSPEFProtocolAdapter:
    def test_with_beta_names(self):
        assert SPEFProtocol.with_beta(5).name == "SPEF5"
        assert SPEFProtocol().name == "SPEF(beta=1)"

    def test_route_and_last_solution(self, fig4, fig4_tm):
        protocol = SPEFProtocol()
        flows = protocol.route(fig4, fig4_tm)
        assert protocol.last_solution is not None
        assert np.allclose(flows.aggregate(), protocol.last_solution.flows.aggregate())

    def test_split_ratios_reuse_last_solution(self, fig4, fig4_tm):
        protocol = SPEFProtocol()
        protocol.route(fig4, fig4_tm)
        first_solution = protocol.last_solution
        ratios = protocol.split_ratios(fig4, fig4_tm)
        assert protocol.last_solution is first_solution
        assert set(ratios) == set(fig4_tm.destinations())

    def test_evaluate_returns_metrics(self, fig4, fig4_tm):
        evaluation = SPEFProtocol().evaluate(fig4, fig4_tm)
        assert evaluation.max_link_utilization < 1.0
        assert np.isfinite(evaluation.normalized_utility)
        row = evaluation.as_row()
        assert row["protocol"].startswith("SPEF")


class TestOptimalityAcrossObjectives:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_spef_matches_centralized_optimum(self, fig4, fig4_tm, beta):
        objective = LoadBalanceObjective(beta=beta)
        central = solve_optimal_te(TEProblem(fig4, fig4_tm, objective))
        solution = SPEF(objective=objective).fit(fig4, fig4_tm)
        assert solution.utility() == pytest.approx(central.utility, rel=1e-2)

    def test_degenerate_single_demand(self, line_network):
        demands = TrafficMatrix({(1, 4): 2.0})
        solution = SPEF().fit(line_network, demands)
        assert solution.flows.flow_on(1, 2) == pytest.approx(2.0)
        assert solution.flows.flow_on(3, 4) == pytest.approx(2.0)


class OracleRouting:
    """The reference routines behind :class:`RoutingKernel`'s interface."""

    def __init__(self, network, demands, dags=None):
        self.network, self.demands, self.dags = network, demands, dags

    def first_hop(self, weights):
        """The oracle's loads as the kernel's ``(destinations, links)`` array."""
        from repro.solvers.assignment import all_or_nothing_assignment

        flows = all_or_nothing_assignment(self.network, self.demands, weights)
        return flows.rows(self.demands.destinations())

    def exponential(self, second_weights):
        from repro.core.traffic_distribution import traffic_distribution

        return traffic_distribution(self.network, self.demands, self.dags, second_weights)


class TestKernelFitContract:
    @pytest.mark.parametrize("name", ["Abilene", "Rand50a"])
    def test_kernel_fit_matches_oracle_fit(self, name, monkeypatch):
        """A kernel fit agrees with an oracle-routed fit in utility, not weights.

        The contract is target utility within 1e-5 relative, plus each fit's
        own accuracy (|gap| <= 1e-3, conservation <= 1e-6 of the volume) --
        not weights within 1e-9.  Frank-Wolfe stops at its 400-iteration cap
        before reaching its tolerance.  On this Rand50a instance, following
        the oracle's trajectory, the kernel chose identical paths in all 400
        calls and differed only by summation-order ulps (in 2,232
        per-destination vectors); FW amplified those ulps into a 3.8e-3
        relative drift of the first weights while the target utility agreed
        to 1e-6 (-110.22252 vs -110.22245).
        """
        import repro.core.nem as nem
        import repro.solvers.frank_wolfe as frank_wolfe
        from repro.analysis.experiments import standard_instances

        instance = standard_instances()[name]
        demands = instance.at_fraction(0.85)
        kernel_fit = SPEF().fit(instance.network, demands)
        monkeypatch.setattr(frank_wolfe, "RoutingKernel", OracleRouting)
        monkeypatch.setattr(nem, "RoutingKernel", OracleRouting)
        oracle_fit = SPEF().fit(instance.network, demands)

        assert kernel_fit.target_utility() == pytest.approx(
            oracle_fit.target_utility(), rel=1e-5
        )
        volume = demands.total_volume()
        for fit in (kernel_fit, oracle_fit):
            assert abs(fit.optimality_gap()) <= 1e-3
            assert fit.flows.conservation_violation(demands) <= 1e-6 * volume


def golden_section_line_search(spare, direction, q, beta):
    """Reference step: golden-section search on ``Phi(alpha)`` to 1e-10."""
    objective = LoadBalanceObjective(beta=beta, q=q)

    def phi(alpha):
        utility = objective.total_utility(spare - alpha * direction)
        return -utility if np.isfinite(utility) else np.inf

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    evaluations = 2
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = phi(x2)
        evaluations += 1
    return (lo + hi) / 2.0, evaluations


class TestLineSearchFitContract:
    @pytest.mark.parametrize("name", ["Abilene", "Rand50a"])
    def test_newton_fit_matches_golden_section_fit(self, name, monkeypatch):
        """The exact Newton step agrees with a golden-section fit in utility.

        Not bit-identical: the reference's 1e-10 step error compounds over
        Frank-Wolfe's 400 capped iterations.
        """
        import repro.solvers.frank_wolfe as frank_wolfe
        from repro.analysis.experiments import standard_instances

        instance = standard_instances()[name]
        demands = instance.at_fraction(0.85)
        newton_fit = SPEF().fit(instance.network, demands)
        monkeypatch.setattr(frank_wolfe, "_line_search", golden_section_line_search)
        reference_fit = SPEF().fit(instance.network, demands)

        assert newton_fit.target_utility() == pytest.approx(
            reference_fit.target_utility(), rel=1e-5
        )
        volume = demands.total_volume()
        for fit in (newton_fit, reference_fit):
            assert abs(fit.optimality_gap()) <= 1e-3
            assert fit.flows.conservation_violation(demands) <= 1e-6 * volume


def _fit_instances():
    """``(name, network, demands)``: Abilene and Rand50a at 0.85 of saturation,
    and rand100 under the CLI's gravity workload at 0.03 of capacity."""
    from repro.analysis.experiments import standard_instances
    from repro.cli import build_workload

    standard = standard_instances()
    for name in ("Abilene", "Rand50a"):
        yield name, standard[name].network, standard[name].at_fraction(0.85)
    yield ("rand100", *build_workload("rand100", 0.03, 0))


class TestLpFreeStart:
    def test_fits_never_call_the_min_mlu_lp(self, monkeypatch):
        """A deterministic work count: zero LPs, one homotopy start per fit."""
        import repro.solvers.frank_wolfe as frank_wolfe
        import repro.solvers.mcf as mcf
        from repro.obs import telemetry

        instances = list(_fit_instances())  # the saturation LPs run here
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mcf.solve_min_mlu(*args, **kwargs)

        monkeypatch.setattr(frank_wolfe, "solve_min_mlu", counted)
        for name, network, demands in instances:
            with telemetry.session() as registry:
                fit = SPEF().fit(network, demands)
            assert calls == [], name
            assert registry.counter_value("solvers.te_start", path="homotopy") == 1, name
            assert fit.max_link_utilization() < 1.0


class TestOptimumCertificate:
    @pytest.mark.parametrize("name", ["Abilene", "Rand50a"])
    def test_realised_utility_exceeds_target_by_at_most_the_certificate(self, name):
        """Any feasible flow's utility is at most the optimum, which is at most
        the target's utility plus the Frank-Wolfe duality gap."""
        from repro.analysis.experiments import standard_instances

        instance = standard_instances()[name]
        demands = instance.at_fraction(0.85)
        fit = SPEF().fit(instance.network, demands)
        certificate = fit.te_solution.duality_gap
        assert 0 < certificate < 1e-3 * abs(fit.target_utility())
        assert fit.utility() - fit.target_utility() <= certificate
