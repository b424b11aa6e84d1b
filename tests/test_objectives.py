"""Unit tests for the (q, beta) load-balance objective family."""

import numpy as np
import pytest

from repro.core.objectives import LoadBalanceObjective, ObjectiveError, normalized_utility


class TestConstruction:
    def test_negative_beta_rejected(self):
        with pytest.raises(ObjectiveError):
            LoadBalanceObjective(beta=-1.0)

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ObjectiveError):
            LoadBalanceObjective(beta=1.0, q=0.0)
        with pytest.raises(ObjectiveError):
            LoadBalanceObjective(beta=1.0, q=np.array([1.0, -2.0]))

    def test_named_constructors(self, fig1):
        assert LoadBalanceObjective.proportional().beta == 1.0
        assert LoadBalanceObjective.minimum_hop().beta == 0.0
        delay = LoadBalanceObjective.delay_weighted(fig1)
        assert delay.beta == 0.0
        assert np.allclose(np.asarray(delay.q), fig1.delays)
        mm1 = LoadBalanceObjective.mm1_delay(fig1)
        assert mm1.beta == 2.0
        assert np.allclose(np.asarray(mm1.q), fig1.capacities)

    def test_describe(self):
        label = LoadBalanceObjective(beta=2.0, q=3.0).describe()
        assert "beta=2" in label and "q=3" in label
        per_link = LoadBalanceObjective(beta=1.0, q=np.array([1.0, 2.0])).describe()
        assert "per-link" in per_link


class TestUtility:
    def test_beta1_is_log(self):
        objective = LoadBalanceObjective(beta=1.0)
        spare = np.array([1.0, np.e])
        assert np.allclose(objective.utility(spare), [0.0, 1.0])

    def test_beta0_is_linear(self):
        objective = LoadBalanceObjective(beta=0.0, q=2.0)
        spare = np.array([0.0, 3.0])
        assert np.allclose(objective.utility(spare), [0.0, 6.0])

    def test_beta2_matches_formula(self):
        objective = LoadBalanceObjective(beta=2.0)
        spare = np.array([2.0])
        # q * s^(1-2) / (1-2) = -1/s
        assert objective.utility(spare)[0] == pytest.approx(-0.5)

    def test_barrier_diverges_at_zero_spare(self):
        for beta in (1.0, 2.0, 5.0):
            objective = LoadBalanceObjective(beta=beta)
            assert objective.utility(np.array([0.0]))[0] == -np.inf
            assert objective.is_barrier()

    def test_non_barrier_finite_at_zero(self):
        objective = LoadBalanceObjective(beta=0.5)
        assert np.isfinite(objective.utility(np.array([0.0]))[0])
        assert not objective.is_barrier()

    def test_total_utility(self):
        objective = LoadBalanceObjective(beta=0.0)
        assert objective.total_utility(np.array([1.0, 2.0])) == pytest.approx(3.0)

    def test_q_shape_mismatch_rejected(self):
        objective = LoadBalanceObjective(beta=1.0, q=np.array([1.0, 2.0]))
        with pytest.raises(ObjectiveError):
            objective.utility(np.array([1.0, 2.0, 3.0]))

    def test_concavity_in_spare(self):
        # Utility must be concave: midpoint value >= mean of endpoint values.
        for beta in (0.0, 0.5, 1.0, 2.0, 4.0):
            objective = LoadBalanceObjective(beta=beta)
            lo, hi = 1.0, 9.0
            mid = objective.utility(np.array([(lo + hi) / 2]))[0]
            ends = objective.utility(np.array([lo, hi]))
            assert mid >= (ends[0] + ends[1]) / 2 - 1e-12


class TestDerivatives:
    def test_derivative_formula(self):
        objective = LoadBalanceObjective(beta=2.0, q=3.0)
        spare = np.array([2.0])
        assert objective.derivative(spare)[0] == pytest.approx(3.0 / 4.0)

    def test_derivative_is_decreasing_in_spare(self):
        objective = LoadBalanceObjective(beta=1.5)
        values = objective.derivative(np.array([1.0, 2.0, 4.0]))
        assert values[0] > values[1] > values[2]

    def test_derivative_at_zero_is_infinite_for_positive_beta(self):
        objective = LoadBalanceObjective(beta=1.0)
        assert objective.derivative(np.array([0.0]))[0] == np.inf

    def test_beta0_derivative_is_q(self):
        objective = LoadBalanceObjective(beta=0.0, q=7.0)
        assert np.allclose(objective.derivative(np.array([5.0, 0.0])), 7.0)

    def test_derivative_inverse_roundtrip(self):
        for beta in (0.5, 1.0, 2.0, 3.0):
            objective = LoadBalanceObjective(beta=beta, q=2.0)
            spare = np.array([0.5, 1.0, 4.0])
            weights = objective.derivative(spare)
            recovered = objective.derivative_inverse(weights)
            assert np.allclose(recovered, spare)

    def test_derivative_inverse_beta0_threshold(self):
        objective = LoadBalanceObjective(beta=0.0, q=2.0)
        inverse = objective.derivative_inverse(np.array([3.0, 1.0]))
        assert inverse[0] == 0.0
        assert inverse[1] == np.inf

    def test_derivative_inverse_rejects_mismatched_q(self):
        objective = LoadBalanceObjective(beta=1.0, q=np.array([1.0, 2.0]))
        with pytest.raises(ObjectiveError, match="shape"):
            objective.derivative_inverse(np.array([1.0, 2.0, 3.0]))

    def test_mm1_example1_weights(self, fig1):
        # Example 1: with beta=1 the optimal weight is 1 / (c - f).
        objective = LoadBalanceObjective.proportional()
        spare = np.array([0.5])
        assert objective.derivative(spare)[0] == pytest.approx(2.0)


class TestCongestionView:
    def test_cost_is_negative_utility(self, fig1):
        objective = LoadBalanceObjective.proportional()
        flow = np.array([0.5, 0.5, 0.2, 0.2])
        cost = objective.congestion_cost(fig1, flow)
        utility = objective.total_utility(fig1.capacities - flow)
        assert cost == pytest.approx(-utility)

    def test_cost_infinite_when_saturated(self, fig1):
        objective = LoadBalanceObjective.proportional()
        flow = fig1.capacities.copy()
        assert objective.congestion_cost(fig1, flow) == np.inf

    def test_gradient_matches_derivative(self, fig1):
        objective = LoadBalanceObjective(beta=2.0)
        flow = np.array([0.3, 0.1, 0.0, 0.0])
        gradient = objective.congestion_gradient(fig1, flow)
        assert np.allclose(gradient, objective.derivative(fig1.capacities - flow))

    def test_optimal_weights_alias(self, fig1):
        objective = LoadBalanceObjective.proportional()
        flow = np.zeros(4)
        assert np.allclose(
            objective.optimal_weights(fig1, flow), objective.congestion_gradient(fig1, flow)
        )

    def test_verify_load_balance_sign(self, fig1):
        objective = LoadBalanceObjective.proportional()
        candidate = np.array([1.0, 1.0, 1.0, 1.0])
        worse = np.array([0.5, 0.5, 0.5, 0.5])
        better = np.array([2.0, 2.0, 2.0, 2.0])
        assert objective.verify_load_balance(fig1, candidate, worse) < 0
        assert objective.verify_load_balance(fig1, candidate, better) > 0


class TestNormalizedUtility:
    def test_matches_formula(self):
        u = np.array([0.5, 0.25])
        assert normalized_utility(u) == pytest.approx(np.log(0.5) + np.log(0.75))

    def test_infinite_when_overloaded(self):
        assert normalized_utility(np.array([0.5, 1.0])) == float("-inf")
        assert normalized_utility(np.array([1.2])) == float("-inf")

    def test_zero_when_idle(self):
        assert normalized_utility(np.zeros(5)) == pytest.approx(0.0)
