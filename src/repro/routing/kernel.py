"""All-destination array routing kernel for the paper's solver loops.

:class:`RoutingKernel` is built once per solve for (network, demands) and
routes all destinations per call with whole-array operations; its only
Python loops are sweeps whose every step spans all destinations:

* :meth:`~RoutingKernel.first_hop` -- all-or-nothing routing (Frank-Wolfe,
  Algorithm 1) as a ``(destinations, links)`` load array, one row per
  destination in ``demands.destinations()`` order (:meth:`~RoutingKernel.flows`
  wraps it): one ``scipy.sparse.csgraph.dijkstra`` call on the reversed
  link CSR, the oracle's exact on-DAG comparisons, each node's on-DAG
  out-link of lowest ``out_links`` rank (the oracle's ``hops[0]``), then one
  sweep down the distance ranks (at paper scale, faster than a sparse
  triangular solve).
* :meth:`~RoutingKernel.exponential` -- Algorithm 3 (NEM) over fixed, possibly
  augmented DAGs as one block edge list: ``Z`` by a reverse sweep over DAG
  levels, the Eq. (22) ratios, then throughflows by the forward sweep.

The dict-loop routines in :mod:`repro.solvers.assignment` and
:mod:`repro.core.traffic_distribution` are the reference the tests compare
against.  Weights at or below :data:`ZERO_WEIGHT` make plateaus only the
oracle's Dijkstra-tree tie break orients: those calls go to the oracle,
counted as ``routing.kernel_fallback[reason=zero_weight]``.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import DEFAULT_TOLERANCE, ShortestPathDag, UnreachableError, WeightsLike
from ..network.spt import as_weight_vector, validate_weights
from ..obs import telemetry

#: Weights at or below this take the oracle (zero-weight plateaus).
ZERO_WEIGHT = 1e-15


class RoutingKernel:
    """Route one fixed demand matrix to all its destinations at once.

    ``dags`` (e.g. a SPEF fit's first-weight DAGs) is needed by
    :meth:`exponential` only.
    """

    def __init__(
        self,
        network: Network,
        demands: TrafficMatrix,
        dags: Mapping[Node, ShortestPathDag] | None = None,
    ) -> None:
        demands.validate(network)
        self.network, self.demands, self.dags = network, demands, dags
        #: The row order of every ``(destinations, ...)`` array: ``demands.destinations()``.
        self.destinations: list[Node] = demands.destinations()
        n, index = network.num_nodes, network.node_index
        self._targets = np.array([index(t) for t in self.destinations], dtype=np.intp)
        row_of = {t: row for row, t in enumerate(self.destinations)}
        pairs = demands.pairs()
        rows = np.array([row_of[t] for _, t in pairs], dtype=np.intp)
        sources = np.array([index(s) for s, _ in pairs], dtype=np.intp)
        self._entering = np.zeros((len(self.destinations), n))
        np.add.at(self._entering, (rows, sources), [demands[pair] for pair in pairs])
        tails = np.array([index(link.source) for link in network.links], dtype=np.intp)
        heads = np.array([index(link.target) for link in network.links], dtype=np.intp)
        self._tails, self._heads = tails, heads
        # Reversed link CSR (row = head): Dijkstra from t gives distances *to* t.
        self._csr_order = np.lexsort((tails, heads))
        self._csr_indptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n))))
        # Out-links grouped by tail in link-index order, the order of
        # ``network.out_links``: a group's first on-DAG link is ``hops[0]``.
        self._by_tail = np.argsort(tails, kind="stable")
        out_degree = np.bincount(tails, minlength=n)
        self._has_out = np.flatnonzero(out_degree)
        self._out_starts = np.concatenate(([0], np.cumsum(out_degree)))[self._has_out]
        if dags is not None:
            self._compile_dags(dags)

    def flows(self, loads: np.ndarray) -> FlowAssignment:
        """Wrap ``(destinations, links)`` loads as a :class:`FlowAssignment`."""
        return FlowAssignment.from_rows(self.network, self.destinations, loads)

    @cached_property
    def _reversed(self) -> sp.csr_matrix:
        """The reversed link CSR, built on first use; :meth:`distances`
        refreshes its data in place."""
        n = self.network.num_nodes
        csr = (np.zeros(self.network.num_links), self._tails[self._csr_order], self._csr_indptr)
        return sp.csr_matrix(csr, shape=(n, n))

    def distances(self, weights: np.ndarray) -> np.ndarray:
        """``(destinations, nodes)`` shortest distances to each destination."""
        from scipy.sparse.csgraph import dijkstra  # lazy: ~1 MB RSS the other paths skip

        graph = self._reversed
        graph.data[:] = weights[self._csr_order]
        return np.asarray(dijkstra(graph, directed=True, indices=self._targets))

    # ------------------------------------------------------------------
    def first_hop(self, weights: WeightsLike) -> np.ndarray:
        """``(destinations, links)`` all-or-nothing loads with the oracle's hops.

        Raises :class:`UnreachableError` if a demand source cannot reach its
        destination.
        """
        w = as_weight_vector(self.network, weights)
        validate_weights(w)
        telemetry.count("routing.kernel", 1, mode="first_hop")
        if w.size and float(w.min()) <= ZERO_WEIGHT:
            return self._fallback(w)
        n, m = self.network.num_nodes, self.network.num_links
        dist = self.distances(w)
        reachable = np.isfinite(dist)
        unreachable = np.argwhere((self._entering > 0) & ~reachable)
        if unreachable.size:
            row, node = unreachable[0]
            source, target = self.network.nodes[node], self.destinations[row]
            raise UnreachableError(f"demand source {source!r} cannot reach {target!r}")
        d_tail, d_head = dist[:, self._tails], dist[:, self._heads]
        on_dag = (w + d_head <= d_tail + DEFAULT_TOLERANCE) & (d_head < d_tail - 1e-15)
        score = np.where(on_dag, np.arange(m), m)[:, self._by_tail]
        hop = np.full(dist.shape, m)
        if self._has_out.size:
            hop[:, self._has_out] = np.minimum.reduceat(score, self._out_starts, axis=1)
        rows = np.arange(len(self.destinations))
        reachable[rows, self._targets] = False
        if np.any(reachable & (hop == m)):
            # A reachable node with no strictly downhill hop: a numerically
            # zero-length step only the oracle's tree tie break orients.
            return self._fallback(w)
        # Throughflows down the first-hop forests, farthest nodes first, on
        # flat (row, node) indices; column n sinks rows with no hop.
        base = (rows * (n + 1))[:, None]
        order = np.argsort(-dist, axis=1)
        nodes = (order + base).T.copy()
        hops = (np.take_along_axis(np.append(self._heads, n)[hop], order, axis=1) + base).T.copy()
        through = np.zeros((len(rows), n + 1))
        through[:, :n] = self._entering
        flat = through.reshape(-1)
        for tail, head in zip(nodes, hops, strict=True):
            flat[head] += flat[tail]
        loads = np.zeros((len(rows), m + 1))
        loads[rows[:, None], hop] = through[:, :n]
        return loads[:, :m]

    def _fallback(self, weights: np.ndarray) -> np.ndarray:
        from ..solvers.assignment import all_or_nothing_assignment

        telemetry.count("routing.kernel_fallback", 1, reason="zero_weight")
        return all_or_nothing_assignment(self.network, self.demands, weights).rows(
            self.destinations
        )

    # ------------------------------------------------------------------
    def _compile_dags(self, dags: Mapping[Node, ShortestPathDag]) -> None:
        """Lay the DAGs out as one block edge list sorted by DAG level.

        Block node ``row * n + node`` is ``node`` in the ``row``-th
        destination's DAG.  A node's level is its longest hop count to the
        destination (0 there and at dead ends), so every edge points to a
        lower level: levels upward are the reverse topological order, levels
        downward the forward substitution.
        """
        n, index = self.network.num_nodes, self.network.node_index
        edges: list[tuple[int, int, int, int, int]] = []
        in_dag = np.zeros(self._entering.shape, dtype=bool)
        dead: list[int] = []
        for row, destination in enumerate(self.destinations):
            dag = dags.get(destination)
            if dag is None:
                raise UnreachableError(f"no shortest-path DAG for destination {destination!r}")
            level: dict[Node, int] = {}
            for node in reversed(dag.topological_order()):
                in_dag[row, index(node)] = True
                hops = dag.next_hops.get(node, []) if node != destination else []
                if any(hop not in level for hop in hops):
                    raise UnreachableError(f"a next hop of {node!r} is outside the DAG")
                if not hops and node != destination:
                    dead.append(row * n + index(node))
                level[node] = 1 + max((level[hop] for hop in hops), default=-1)
                tail = row * n + index(node)
                for hop in hops:
                    link = self.network.link_index(node, hop)
                    edges.append((level[node], row, tail, row * n + index(hop), link))
        table = np.array(sorted(edges), dtype=np.intp).reshape(-1, 5)
        levels, self._dag_rows, self._dag_tails, self._dag_heads, self._dag_links = table.T
        bounds = np.searchsorted(levels, np.arange(1, int(levels.max(initial=0)) + 2))
        self._dag_levels = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)]
        degree = np.bincount(self._dag_tails, minlength=in_dag.size)
        self._dag_even = 1.0 / np.maximum(degree[self._dag_tails], 1)
        self._dag_entering = np.where(in_dag, self._entering, 0.0).reshape(-1)
        self._z_init = np.zeros(in_dag.size)
        self._z_init[np.arange(len(self.destinations)) * n + self._targets] = 1.0
        self._dead = np.array(dead, dtype=np.intp)

    def exponential(self, second_weights: np.ndarray) -> FlowAssignment:
        """Algorithm 3 under second weights ``v``; sources outside a DAG are dropped."""
        if self.dags is None:
            raise ValueError("RoutingKernel.exponential needs the DAGs at construction")
        second = np.asarray(second_weights, dtype=float)
        if second.shape != (self.network.num_links,):
            raise ValueError(
                f"second weights must have length {self.network.num_links}, got {second.shape}"
            )
        telemetry.count("routing.kernel", 1, mode="exponential")
        tails, heads = self._dag_tails, self._dag_heads
        factors = np.exp(-second[self._dag_links])
        z = self._z_init.copy()
        for edges in self._dag_levels:
            np.add.at(z, tails[edges], factors[edges] * z[heads[edges]])
        # Z(s) is the sum of its edges' exp(-v) * Z(hop): the Eq. (22) total.
        totals = z[tails]
        positive = totals > 0
        shares = factors * z[heads] / np.where(positive, totals, 1.0)
        ratios = np.where(positive, shares, self._dag_even)
        through = self._dag_entering.copy()
        for edges in reversed(self._dag_levels):
            np.add.at(through, heads[edges], ratios[edges] * through[tails[edges]])
        stuck = self._dead[through[self._dead] > 0]
        if stuck.size:
            row, node = divmod(int(stuck[0]), self.network.num_nodes)
            source, target = self.network.nodes[node], self.destinations[row]
            raise UnreachableError(f"node {source!r} has traffic for {target!r} but no next hop")
        loads = np.zeros((len(self.destinations), self.network.num_links))
        loads[self._dag_rows, self._dag_links] = ratios * through[tails]
        return self.flows(loads)
