"""Unit tests for the directed capacitated network model."""

import numpy as np
import pytest

from repro.network.graph import Link, Network, NetworkError, NetworkSummary


class TestConstruction:
    def test_add_link_registers_nodes(self):
        net = Network()
        net.add_link("a", "b", 5.0)
        assert net.has_node("a") and net.has_node("b")
        assert net.num_nodes == 2
        assert net.num_links == 1

    def test_add_node_is_idempotent(self):
        net = Network()
        net.add_node(1)
        net.add_node(1)
        assert net.num_nodes == 1

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_link(1, 2, 1.0)
        with pytest.raises(NetworkError):
            net.add_link(1, 2, 2.0)

    def test_self_loop_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link(1, 1, 1.0)

    def test_non_positive_capacity_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link(1, 2, 0.0)
        with pytest.raises(NetworkError):
            net.add_link(1, 2, -3.0)

    def test_duplex_link_adds_both_directions(self):
        net = Network()
        forward, backward = net.add_duplex_link(1, 2, 4.0)
        assert forward.endpoints == (1, 2)
        assert backward.endpoints == (2, 1)
        assert net.num_links == 2

    def test_from_link_list(self):
        net = Network.from_link_list([(1, 2, 3.0), (2, 3, 4.0)], name="x")
        assert net.name == "x"
        assert net.num_links == 2

    def test_from_link_list_duplex(self):
        net = Network.from_link_list([(1, 2, 3.0)], duplex=True)
        assert net.num_links == 2
        assert net.has_link(2, 1)

    def test_link_index_is_insertion_order(self):
        net = Network()
        first = net.add_link(1, 2, 1.0)
        second = net.add_link(2, 3, 1.0)
        assert first.index == 0
        assert second.index == 1
        assert net.link_by_index(1).endpoints == (2, 3)


class TestQueries:
    def test_out_and_in_links(self, triangle_network):
        out_targets = {link.target for link in triangle_network.out_links(1)}
        assert out_targets == {2, 3}
        in_sources = {link.source for link in triangle_network.in_links(1)}
        assert in_sources == {2, 3}

    def test_neighbors_and_predecessors(self, diamond_network):
        assert set(diamond_network.neighbors(1)) == {2, 3}
        assert set(diamond_network.predecessors(4)) == {2, 3}

    def test_unknown_node_raises(self):
        net = Network()
        net.add_link(1, 2, 1.0)
        with pytest.raises(NetworkError):
            net.node_index(99)

    def test_unknown_link_raises(self, triangle_network):
        with pytest.raises(NetworkError):
            triangle_network.link(1, 99)
        with pytest.raises(NetworkError):
            triangle_network.link_index(99, 1)

    def test_contains_and_len(self, diamond_network):
        assert (1, 2) in diamond_network
        assert (2, 1) not in diamond_network
        assert len(diamond_network) == 4

    def test_capacity_vectors(self, diamond_network):
        assert np.allclose(diamond_network.capacities, 10.0)
        assert diamond_network.total_capacity() == pytest.approx(40.0)

    def test_capacity_of(self, diamond_network):
        assert diamond_network.capacity_of(1, 2) == pytest.approx(10.0)

    def test_capacity_and_delay_vectors_are_shared_read_only(self, diamond_network):
        capacities, delays = diamond_network.capacities, diamond_network.delays
        assert diamond_network.capacities is capacities
        assert diamond_network.delays is delays
        with pytest.raises(ValueError, match="read-only"):
            capacities[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            delays += 1.0
        writable = capacities.copy()
        writable[0] = 1.0
        assert diamond_network.capacities[0] == pytest.approx(10.0)

    def test_add_link_refreshes_capacity_and_delay_vectors(self, diamond_network):
        before = diamond_network.capacities
        assert diamond_network.delays.shape == (4,)
        diamond_network.add_link(4, 1, 7.0, delay=3.0)
        assert before.shape == (4,)
        assert list(diamond_network.capacities) == [10.0, 10.0, 10.0, 10.0, 7.0]
        assert list(diamond_network.delays) == [1.0, 1.0, 1.0, 1.0, 3.0]

    def test_unpickled_network_rebuilds_read_only_vectors(self, diamond_network):
        import pickle

        clone = pickle.loads(pickle.dumps(diamond_network))
        assert not clone.capacities.flags.writeable
        np.testing.assert_array_equal(clone.capacities, diamond_network.capacities)


class TestWeightConversions:
    def test_weight_vector_roundtrip(self, diamond_network):
        mapping = {(1, 2): 1.0, (2, 4): 2.0, (1, 3): 3.0, (3, 4): 4.0}
        vector = diamond_network.weight_vector(mapping)
        assert diamond_network.weight_dict(vector) == mapping

    def test_weight_dict_rejects_bad_shape(self, diamond_network):
        with pytest.raises(NetworkError):
            diamond_network.weight_dict([1.0, 2.0])

    def test_weight_vector_missing_edges_default_zero(self, diamond_network):
        vector = diamond_network.weight_vector({(1, 2): 5.0})
        assert vector[diamond_network.link_index(1, 2)] == 5.0
        assert vector.sum() == 5.0


class TestStructure:
    def test_triangle_is_strongly_connected(self, triangle_network):
        assert triangle_network.is_connected()
        assert triangle_network.is_strongly_connected()
        assert triangle_network.is_symmetric()

    def test_diamond_not_strongly_connected(self, diamond_network):
        assert diamond_network.is_connected()
        assert not diamond_network.is_strongly_connected()
        assert not diamond_network.is_symmetric()

    def test_to_networkx_and_back(self, triangle_network):
        graph = triangle_network.to_networkx()
        rebuilt = Network.from_networkx(graph)
        assert rebuilt.num_nodes == triangle_network.num_nodes
        assert set(rebuilt.edges) == set(triangle_network.edges)

    def test_from_networkx_requires_capacity(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edge(1, 2)
        with pytest.raises(NetworkError):
            Network.from_networkx(graph)

    def test_copy_is_independent(self, triangle_network):
        clone = triangle_network.copy()
        clone.add_link(1, 99, 1.0)
        assert not triangle_network.has_node(99)
        assert clone.num_links == triangle_network.num_links + 1

    def test_scaled_capacities(self, triangle_network):
        scaled = triangle_network.scaled(2.0)
        assert np.allclose(scaled.capacities, 2 * triangle_network.capacities)
        with pytest.raises(NetworkError):
            triangle_network.scaled(0.0)


class TestSummary:
    def test_summary_of(self, triangle_network):
        summary = NetworkSummary.of(triangle_network, kind="test", extra_field=1)
        assert summary.num_nodes == 3
        assert summary.num_links == 6
        assert summary.total_capacity == pytest.approx(60.0)
        assert summary.extra["extra_field"] == 1

    def test_link_is_frozen(self):
        link = Link("a", "b", 1.0)
        with pytest.raises(AttributeError):
            link.capacity = 2.0
