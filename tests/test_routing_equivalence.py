"""Golden equivalence of the vectorized routing paths against the Python oracle.

The batched compiled router (:meth:`~repro.routing.SparseRouter.link_loads_many`)
and the solver-loop :class:`~repro.routing.kernel.RoutingKernel` in
:mod:`repro.routing` must be *drop-ins* for the dict-loop reference
implementations: identical link loads (within 1e-9 for the router, 1e-12
relative for the kernel; in practice float round-off), identical error
behaviour on unroutable demands, identical fallbacks on degenerate split
ratios.  These properties
are checked on random topologies and demand patterns generated by Hypothesis
-- including ECMP ties (duplicate and zero weights), zero-demand nodes and
disconnected graphs -- plus a few hand-built worst cases.

Run under the ``ci`` Hypothesis profile (``HYPOTHESIS_PROFILE=ci``) the
examples are derandomised so any failure reproduces exactly.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic_distribution import traffic_distribution
from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.graph import Network
from repro.network.spt import UnreachableError, _dijkstra_to, all_shortest_path_dags
from repro.obs import telemetry
from repro.routing import CompiledDagSet, RoutingKernel, SparseRouter
from repro.solvers.assignment import (
    all_or_nothing_assignment,
    ecmp_assignment,
    split_ratio_assignment,
)

TOLERANCE = 1e-9
#: Relative load agreement of the kernel with the oracle.
KERNEL_RTOL = 1e-12

#: Weight pool: zeros create zero-cost plateaus, duplicates create ECMP ties.
WEIGHT_POOL = (0.0, 1.0, 1.0, 2.0, 3.0, 5.0)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def topology(draw, connected: bool = True) -> tuple[Network, np.ndarray]:
    """A small random directed network with weights drawn from WEIGHT_POOL.

    ``connected=True`` seeds a directed ring so every node reaches every
    other; ``connected=False`` omits the ring, producing graphs where some
    demands are unroutable.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    edges: dict[tuple[int, int], None] = {}
    if connected:
        for i in range(n):
            edges[(i, (i + 1) % n)] = None
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for edge in extra:
        edges[edge] = None
    net = Network(name="hypothesis")
    for node in range(n):
        net.add_node(node)
    for u, v in edges:
        net.add_link(u, v, capacity=10.0)
    weights = np.array(
        draw(
            st.lists(
                st.sampled_from(WEIGHT_POOL),
                min_size=net.num_links,
                max_size=net.num_links,
            )
        )
    )
    return net, weights


@st.composite
def demands_for(draw, net: Network) -> TrafficMatrix:
    """Random demands over a network; zero volumes leave zero-demand nodes."""
    nodes = net.nodes
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=0, max_size=len(pairs)))
    tm = TrafficMatrix()
    for pair in chosen:
        volume = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        tm.add(pair[0], pair[1], volume)
    return tm


@st.composite
def routing_instance(draw, connected: bool = True):
    net, weights = draw(topology(connected=connected))
    tm = draw(demands_for(net))
    return net, weights, tm


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_flows_equal(python: FlowAssignment, sparse: FlowAssignment) -> None:
    """Aggregate and per-destination loads agree to TOLERANCE."""
    assert set(python.per_destination) == set(sparse.per_destination)
    np.testing.assert_allclose(
        python.aggregate(), sparse.aggregate(), atol=TOLERANCE, rtol=0
    )
    for destination, vector in python.per_destination.items():
        np.testing.assert_allclose(
            vector, sparse.per_destination[destination], atol=TOLERANCE, rtol=0
        )


def assert_loads_equal(python: FlowAssignment, loads: np.ndarray) -> None:
    """The compiled router's aggregate loads agree with the oracle to TOLERANCE."""
    np.testing.assert_allclose(loads, python.aggregate(), atol=TOLERANCE, rtol=0)


def assert_kernel_matches(oracle: FlowAssignment, kernel: FlowAssignment) -> None:
    """Same destinations, same used links, loads within KERNEL_RTOL."""
    assert list(oracle.per_destination) == list(kernel.per_destination)
    for destination, vector in oracle.per_destination.items():
        other = kernel.per_destination[destination]
        np.testing.assert_array_equal(vector > 0, other > 0)
        np.testing.assert_allclose(other, vector, rtol=KERNEL_RTOL, atol=0)


def first_hop_both(net: Network, tm: TrafficMatrix, weights: np.ndarray):
    """``(oracle, kernel)`` all-or-nothing flows, or ``(exc, exc)`` when both raise."""
    try:
        oracle = all_or_nothing_assignment(net, tm, weights)
    except UnreachableError as exc:
        with pytest.raises(UnreachableError):
            RoutingKernel(net, tm).first_hop(weights)
        return exc, exc
    kernel = RoutingKernel(net, tm)
    return oracle, kernel.flows(kernel.first_hop(weights))


def _both(oracle, compiled):
    """Run the oracle and the compiled path it is checked against.

    Returns ``(oracle(), compiled())``; when the oracle raises, the compiled
    path must raise the same exception type and ``(exc, exc)`` is returned
    instead.
    """
    try:
        python = oracle()
    except UnreachableError as exc:
        with pytest.raises(type(exc)):
            compiled()
        return exc, exc
    return python, compiled()


def ecmp_both(net: Network, tm: TrafficMatrix, weights: np.ndarray):
    """Oracle ECMP flows and the batched ECMP router's loads for ``tm``."""
    return _both(
        lambda: ecmp_assignment(net, tm, weights),
        lambda: SparseRouter(net, weights=weights, mode="ecmp").link_loads_many([tm])[0],
    )


def split_both(net: Network, tm: TrafficMatrix, dags: dict, split: dict):
    """Oracle split-ratio flows and the batched split router's loads for ``tm``."""
    return _both(
        lambda: split_ratio_assignment(net, tm, dags, split),
        lambda: SparseRouter(net, dags=dags, mode="split").link_loads_many(
            [tm], split_ratios=split
        )[0],
    )


# ----------------------------------------------------------------------
# property-based equivalence
# ----------------------------------------------------------------------
class TestEquivalenceOnRandomInstances:
    @given(instance=routing_instance())
    def test_ecmp(self, instance):
        net, weights, tm = instance
        python, loads = ecmp_both(net, tm, weights)
        if isinstance(python, FlowAssignment):
            assert_loads_equal(python, loads)

    @given(instance=routing_instance())
    def test_all_or_nothing(self, instance):
        """The kernel picks the oracle's hops, also where zeros force the fallback."""
        net, weights, tm = instance
        oracle, kernel = first_hop_both(net, tm, weights)
        if isinstance(oracle, FlowAssignment):
            assert_kernel_matches(oracle, kernel)

    @given(instance=routing_instance(), data=st.data())
    def test_split_ratios(self, instance, data):
        """Random, degenerate (all-zero) and missing per-node ratios agree."""
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        split: dict = {}
        for destination, dag in dags.items():
            per_node: dict = {}
            for node, hops in dag.next_hops.items():
                if not hops:
                    continue
                style = data.draw(
                    st.sampled_from(["random", "zero", "missing"]), label=f"style-{node}"
                )
                if style == "missing":
                    continue
                if style == "zero":
                    per_node[node] = {hop: 0.0 for hop in hops}
                else:
                    # Negative values included: the oracle normalises by the
                    # signed total but never pushes a non-positive share.
                    values = data.draw(
                        st.lists(
                            st.floats(min_value=-0.5, max_value=1.0, allow_nan=False),
                            min_size=len(hops),
                            max_size=len(hops),
                        ),
                        label=f"ratios-{node}",
                    )
                    per_node[node] = dict(zip(hops, values, strict=True))
            split[destination] = per_node
        python, loads = split_both(net, tm, dags, split)
        if isinstance(python, FlowAssignment):
            assert_loads_equal(python, loads)

    @given(instance=routing_instance(), data=st.data())
    def test_traffic_distribution(self, instance, data):
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        second = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                    min_size=net.num_links,
                    max_size=net.num_links,
                )
            )
        )
        python, sparse = _both(
            lambda: traffic_distribution(net, tm, dags, second),
            lambda: CompiledDagSet(net, dags).traffic_distribution(tm, second),
        )
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(connected=False))
    def test_unroutable_demands_raise_on_both_backends(self, instance):
        """On (possibly) disconnected graphs oracle and router fail identically."""
        net, weights, tm = instance
        python, loads = ecmp_both(net, tm, weights)
        if isinstance(python, FlowAssignment):
            assert_loads_equal(python, loads)

    @given(instance=routing_instance(connected=False))
    def test_split_ratio_drops_unroutable_demands_on_both_backends(self, instance):
        """The split-ratio path silently drops unreachable sources -- identically."""
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        python, loads = split_both(net, tm, dags, {})
        if isinstance(python, FlowAssignment):
            assert_loads_equal(python, loads)

    @given(instance=routing_instance(), count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25)
    def test_batched_matches_per_matrix_oracle(self, instance, count):
        """link_loads_many rows equal the oracle's aggregate, matrix by matrix."""
        net, weights, tm = instance
        matrices = [tm.scaled(0.5 * (i + 1)) for i in range(count)]
        loads = SparseRouter(net, weights=weights).link_loads_many(matrices)
        assert loads.shape == (count, net.num_links)
        for row, matrix in zip(loads, matrices, strict=True):
            oracle = ecmp_assignment(net, matrix, weights)
            np.testing.assert_allclose(row, oracle.aggregate(), atol=TOLERANCE, rtol=0)


# ----------------------------------------------------------------------
# hand-built worst cases
# ----------------------------------------------------------------------
class TestEquivalenceCorners:
    def test_ecmp_tie_on_diamond(self, diamond_network, diamond_demands):
        """The classic two-equal-paths tie splits 50/50 on oracle and router."""
        weights = np.ones(diamond_network.num_links)
        python, loads = ecmp_both(diamond_network, diamond_demands, weights)
        assert_loads_equal(python, loads)
        assert loads[diamond_network.link_index(1, 2)] == pytest.approx(4.0)
        assert loads[diamond_network.link_index(1, 3)] == pytest.approx(4.0)

    def test_zero_weight_plateau(self):
        """All-zero weights tie every distance; the Dijkstra-tree DAG agrees."""
        net = Network(name="plateau")
        for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]:
            net.add_duplex_link(u, v, 10.0)
        tm = TrafficMatrix({(1, 4): 6.0, (2, 4): 3.0, (4, 1): 2.0})
        weights = np.zeros(net.num_links)
        python, loads = ecmp_both(net, tm, weights)
        assert_loads_equal(python, loads)

    def test_zero_demand_matrix(self, diamond_network):
        """An empty matrix yields zero loads (and no oracle destinations)."""
        tm = TrafficMatrix()
        python, loads = ecmp_both(diamond_network, tm, np.ones(diamond_network.num_links))
        assert python.per_destination == {}
        np.testing.assert_array_equal(loads, np.zeros(diamond_network.num_links))

    def test_negative_stored_ratios_match_oracle(self, diamond_network, diamond_demands):
        """Negative ratios: normalise by the signed total, emit no negative flow."""
        weights = np.ones(diamond_network.num_links)
        dags = all_shortest_path_dags(diamond_network, [4], weights)
        split = {4: {1: {2: 2.0, 3: -1.0}}}
        python, loads = split_both(diamond_network, diamond_demands, dags, split)
        assert_loads_equal(python, loads)
        assert np.all(loads >= 0.0)
        # total = 1.0, so hop 2 carries ratio 2.0 of the load; hop 3 nothing.
        assert loads[diamond_network.link_index(1, 2)] == pytest.approx(16.0)
        assert loads[diamond_network.link_index(1, 3)] == pytest.approx(0.0)

    def test_missing_dag_raises_on_both_backends(self, diamond_network, diamond_demands):
        python, _ = split_both(diamond_network, diamond_demands, {}, {})
        assert isinstance(python, UnreachableError)

    def test_augmented_dag_extra_hops_agree(self, fig4, fig4_tm):
        """DAGs with extra (augmented) downhill edges route identically."""
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        # Mimic SPEF's DAG augmentation: add every strictly-downhill link.
        for dag in dags.values():
            for link in fig4.links:
                du = dag.distances.get(link.source)
                dv = dag.distances.get(link.target)
                if du is None or dv is None or dv >= du:
                    continue
                hops = dag.next_hops.setdefault(link.source, [])
                if link.target not in hops:
                    hops.append(link.target)
        python, loads = split_both(fig4, fig4_tm, dags, {})
        assert_loads_equal(python, loads)

    def test_sparse_router_single_matches_batch(self, abilene, abilene_tm):
        """A one-matrix ensemble, a two-matrix ensemble and the oracle agree."""
        weights = np.ones(abilene.num_links)
        router = SparseRouter(abilene, weights=weights)
        single = router.link_loads_many([abilene_tm])[0]
        batch = router.link_loads_many([abilene_tm, abilene_tm.scaled(2.0)])
        assert_loads_equal(ecmp_assignment(abilene, abilene_tm, weights), single)
        np.testing.assert_allclose(batch[0], single, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(batch[1], 2.0 * single, atol=1e-8, rtol=0)

    def test_all_or_nothing_tie_break_matches_oracle(self, diamond_network, diamond_demands):
        """Deterministic first-hop tie break picks the same path in the kernel."""
        weights = np.ones(diamond_network.num_links)
        oracle, kernel = first_hop_both(diamond_network, diamond_demands, weights)
        assert_kernel_matches(oracle, kernel)
        used = [edge for edge, value in kernel.aggregate_dict().items() if value > 0]
        assert used == [(1, 2), (2, 4)]  # one path, the lowest out-link rank


# ----------------------------------------------------------------------
# the solver-loop kernel
# ----------------------------------------------------------------------
#: Strictly positive float weights: path sums round differently per path.
positive_weights = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


def augment_downhill(net: Network, dags: dict) -> None:
    """Add every strictly downhill link to the DAGs, as SPEF's augmentation may."""
    for dag in dags.values():
        for link in net.links:
            du = dag.distances.get(link.source)
            dv = dag.distances.get(link.target)
            if du is None or dv is None or dv >= du:
                continue
            hops = dag.next_hops.setdefault(link.source, [])
            if link.target not in hops:
                hops.append(link.target)


class TestRoutingKernel:
    @given(data=st.data())
    def test_first_hop_on_positive_weights(self, data):
        """Float weights: same chosen hops as the oracle, loads to 1e-12."""
        net, _ = data.draw(topology(connected=True))
        tm = data.draw(demands_for(net))
        weights = np.array(
            data.draw(st.lists(positive_weights, min_size=net.num_links, max_size=net.num_links))
        )
        oracle, kernel = first_hop_both(net, tm, weights)
        assert_kernel_matches(oracle, kernel)

    @given(data=st.data())
    def test_distances_bit_identical_to_oracle_dijkstra(self, data):
        """Measured, not guaranteed (the oracle relaxes with ``< d - 1e-15``)."""
        net, _ = data.draw(topology(connected=data.draw(st.booleans())))
        weights = np.array(
            data.draw(st.lists(positive_weights, min_size=net.num_links, max_size=net.num_links))
        )
        tm = TrafficMatrix({(net.nodes[1], t): 1.0 for t in net.nodes if t != net.nodes[1]})
        kernel = RoutingKernel(net, tm)
        distances = kernel.distances(weights)
        for row, destination in enumerate(kernel.destinations):
            oracle, _ = _dijkstra_to(net, destination, weights)
            expected = np.full(net.num_nodes, np.inf)
            for node, value in oracle.items():
                expected[net.node_index(node)] = value
            np.testing.assert_array_equal(distances[row], expected)

    @given(data=st.data())
    def test_reused_kernel_distances_match_a_fresh_kernel(self, data):
        """The CSR is built once and refreshed in place: no state carries over."""
        net, _ = data.draw(topology(connected=data.draw(st.booleans())))
        weight_vectors = st.lists(positive_weights, min_size=net.num_links, max_size=net.num_links)
        first, second = np.array(data.draw(weight_vectors)), np.array(data.draw(weight_vectors))
        tm = TrafficMatrix({(net.nodes[1], t): 1.0 for t in net.nodes if t != net.nodes[1]})
        reused = RoutingKernel(net, tm)
        for weights in (first, second, first, second):
            np.testing.assert_array_equal(
                reused.distances(weights), RoutingKernel(net, tm).distances(weights)
            )

    @given(instance=routing_instance(connected=False), data=st.data())
    def test_exponential_matches_traffic_distribution(self, instance, data):
        """Algorithm 3, dropping unreachable sources, as the oracle does."""
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        if data.draw(st.booleans(), label="augment"):
            augment_downhill(net, dags)
        second = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                    min_size=net.num_links,
                    max_size=net.num_links,
                )
            )
        )
        oracle = traffic_distribution(net, tm, dags, second)
        kernel = RoutingKernel(net, tm, dags=dags).exponential(second)
        assert_kernel_matches(oracle, kernel)

    def test_exponential_on_augmented_fig4(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        augment_downhill(fig4, dags)
        kernel = RoutingKernel(fig4, fig4_tm, dags=dags)
        rng = np.random.default_rng(5)
        for _ in range(3):
            second = rng.random(fig4.num_links)
            oracle = traffic_distribution(fig4, fig4_tm, dags, second)
            assert_kernel_matches(oracle, kernel.exponential(second))

    def test_exponential_requires_dags(self, diamond_network, diamond_demands):
        with pytest.raises(ValueError, match="DAGs"):
            RoutingKernel(diamond_network, diamond_demands).exponential(np.zeros(4))
        with pytest.raises(UnreachableError, match="no shortest-path DAG"):
            RoutingKernel(diamond_network, diamond_demands, dags={})

    def test_unreachable_first_hop_demand_raises(self):
        net = Network(name="oneway")
        net.add_link(1, 2, 10.0)
        net.add_link(2, 3, 10.0)
        tm = TrafficMatrix({(1, 3): 1.0, (3, 1): 2.0})
        with pytest.raises(UnreachableError, match="cannot reach"):
            RoutingKernel(net, tm).first_hop(np.ones(2))

    def test_zero_weight_plateau_takes_counted_oracle_fallback(self):
        net = Network(name="plateau")
        for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]:
            net.add_duplex_link(u, v, 10.0)
        tm = TrafficMatrix({(1, 4): 6.0, (2, 4): 3.0, (4, 1): 2.0})
        weights = np.ones(net.num_links)
        weights[[net.link_index(1, 2), net.link_index(2, 3)]] = 0.0
        kernel = RoutingKernel(net, tm)
        with telemetry.session() as registry:
            flows = kernel.flows(kernel.first_hop(weights))
            kernel.first_hop(np.ones(net.num_links))
        assert registry.counter_value("routing.kernel", mode="first_hop") == 2
        assert registry.counter_value("routing.kernel_fallback", reason="zero_weight") == 1
        assert_kernel_matches(all_or_nothing_assignment(net, tm, weights), flows)


# ----------------------------------------------------------------------
# protocol-level equivalence: one-shot route() versus batch_link_loads()
# ----------------------------------------------------------------------
def assert_route_matches_batch(protocol, net: Network, tm: TrafficMatrix) -> None:
    """``route`` (the dict loops) and ``batch_link_loads`` (compiled) agree."""
    loads = protocol.batch_link_loads(net, [tm])
    assert loads is not None
    assert_loads_equal(protocol.route(net, tm), loads[0])


class TestProtocolBackendEquivalence:
    def test_ospf_backends_agree_on_abilene(self, abilene, abilene_tm):
        from repro.protocols.ospf import OSPF

        assert_route_matches_batch(OSPF(), abilene, abilene_tm)

    def test_peft_backends_agree_on_abilene(self, abilene, abilene_tm):
        from repro.protocols.ospf import invcap_weights
        from repro.protocols.peft import PEFT

        protocol = PEFT(weights=invcap_weights(abilene), temperature=2.0)
        assert_route_matches_batch(protocol, abilene, abilene_tm)

    def test_peft_batch_matches_route(self, abilene, abilene_tm):
        from repro.protocols.peft import PEFT

        weights = np.ones(abilene.num_links)
        protocol = PEFT(weights=weights)
        matrices = [abilene_tm, abilene_tm.scaled(0.5)]
        loads = protocol.batch_link_loads(abilene, matrices)
        assert loads is not None
        for row, matrix in zip(loads, matrices, strict=True):
            np.testing.assert_allclose(
                row, protocol.route(abilene, matrix).aggregate(), atol=TOLERANCE, rtol=0
            )

    def test_peft_derived_weights_decline_batching(self, abilene, abilene_tm):
        from repro.protocols.peft import PEFT

        assert PEFT().batch_link_loads(abilene, [abilene_tm]) is None

    @given(data=st.data())
    @settings(max_examples=15)
    def test_peft_backends_agree_on_random_instances(self, data):
        """Batching matches route(), or declines only on a degenerate destination."""
        from repro.protocols.peft import PEFT

        net, weights = data.draw(topology(connected=True))
        tm = data.draw(demands_for(net))
        # PEFT needs strictly positive weights for a well-defined downward
        # graph; shift the pool so plateaus still occur through duplicates.
        weights = weights + 0.5
        protocol = PEFT(weights=weights)
        loads = protocol.batch_link_loads(net, [tm])
        if loads is None:
            assert any(
                protocol._compile_downward(net, destination, weights) is None
                for destination in tm.destinations()
            )
            return
        assert_loads_equal(protocol.route(net, tm), loads[0])
