"""Compiled destination DAGs: the data structure of the batched routing path.

The reference (oracle) routines in :mod:`repro.solvers.assignment` propagate
traffic per destination with nested Python dict loops.  This module compiles a
:class:`~repro.network.spt.ShortestPathDag` once into flat CSR-style arrays so
that the propagation becomes sparse linear algebra:

* nodes are renumbered into topological order ``0..k-1`` (every node precedes
  all of its next hops, the destination carries no out-edges);
* the DAG edges form a split-ratio matrix ``P`` where ``P[i, j]`` is the
  fraction of node ``i``'s throughflow forwarded to node ``j``.  Under the
  topological numbering ``P`` is strictly upper triangular, so the node
  throughflows ``x`` (local demand plus transit) solve the unit lower
  triangular system

      (I - P^T) x = e

  where ``e`` is the demand entering at each node.  :meth:`CompiledDag.propagate`
  performs that forward substitution directly on the CSR arrays, one sparse
  axpy per node row, and accepts a matrix right-hand side so a whole demand
  ensemble is routed in a single stacked sweep;
* link loads follow as the gather/scatter ``f[link(i, j)] = P[i, j] * x[i]``.

Compilation is pure-Python :math:`O(E)` and is meant to be *amortised*: build
a :class:`CompiledDag` once per (network, weight setting, destination) and
reuse it across demand matrices, gradient iterations and scenario sweeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ..network.graph import Network, Node
from ..network.spt import ShortestPathDag, UnreachableError

logger = logging.getLogger(__name__)


def warn_degenerate_split(node: Node, destination: Node, total: float, count: int) -> None:
    """Log the even-split fallback for degenerate stored split ratios.

    Called by the oracle and the compiled router when a node has *stored*
    split ratios towards a destination but they sum to (numerically) zero
    over its next hops.  The traffic is still delivered -- split evenly --
    but silently ignoring the configured ratios used to hide configuration
    bugs, so the fallback is now logged explicitly.
    """
    logger.warning(
        "stored split ratios at node %r towards %r sum to %g over %d next hop(s); "
        "falling back to an even split",
        node,
        destination,
        total,
        count,
    )


@dataclass
class CompiledDag:
    """One destination DAG compiled to CSR arrays in topological node order.

    Attributes
    ----------
    destination:
        The destination node the DAG routes towards.
    order:
        DAG nodes in topological order (position ``i`` holds the node whose
        row is ``i``; every node precedes all of its next hops).
    positions:
        Inverse of ``order``: ``positions[node] = i``.
    node_ids:
        Dense network node index of each position (``network.node_index``).
    indptr, targets, links:
        CSR layout of the DAG edges: the out-edges of position ``i`` are the
        slice ``indptr[i]:indptr[i + 1]``; ``targets`` holds the position of
        each edge's head and ``links`` its dense link index in the network.
    rows:
        Position of each edge's tail (the expanded CSR row index), kept for
        vectorised per-edge gathers.
    num_links:
        ``network.num_links`` of the owning network (the scatter width).
    """

    destination: Node
    order: list[Node]
    positions: dict[Node, int]
    node_ids: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    links: np.ndarray
    rows: np.ndarray
    num_links: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dag(cls, network: Network, dag: ShortestPathDag) -> CompiledDag:
        """Compile a shortest-path DAG (including augmented DAGs)."""
        return cls.from_next_hops(network, dag.destination, dag.topological_order(), dag.next_hops)

    @classmethod
    def from_next_hops(
        cls,
        network: Network,
        destination: Node,
        order: Sequence[Node],
        next_hops: Mapping[Node, Sequence[Node]],
    ) -> CompiledDag:
        """Compile an explicit (topological order, next-hop map) pair.

        ``order`` must list every node of the DAG with each node before all of
        its next hops; this is what lets non-shortest-path structures (e.g.
        PEFT's downward graph, ordered by decreasing distance) reuse the same
        kernels.
        """
        positions = {node: i for i, node in enumerate(order)}
        k = len(order)
        indptr = np.zeros(k + 1, dtype=np.int64)
        targets: list[int] = []
        links: list[int] = []
        for i, node in enumerate(order):
            if node != destination:
                for hop in next_hops.get(node, ()):
                    position = positions.get(hop)
                    if position is None:
                        raise UnreachableError(
                            f"next hop {hop!r} of {node!r} is not part of the DAG "
                            f"towards {destination!r}"
                        )
                    targets.append(position)
                    links.append(network.link_index(node, hop))
            indptr[i + 1] = len(targets)
        targets_arr = np.asarray(targets, dtype=np.int64)
        rows = np.repeat(np.arange(k, dtype=np.int64), np.diff(indptr))
        node_ids = np.fromiter(
            (network.node_index(node) for node in order), dtype=np.int64, count=k
        )
        return cls(
            destination=destination,
            order=list(order),
            positions=positions,
            node_ids=node_ids,
            indptr=indptr,
            targets=targets_arr,
            links=np.asarray(links, dtype=np.int64),
            rows=rows,
            num_links=network.num_links,
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.order)

    @property
    def num_edges(self) -> int:
        return int(self.links.size)

    def out_degree(self) -> np.ndarray:
        """Number of next hops per position."""
        return np.diff(self.indptr)

    def split_matrix(self, ratios: np.ndarray | None = None) -> sp.csr_matrix:
        """The split-ratio matrix ``P`` as a :class:`scipy.sparse.csr_matrix`.

        ``P[i, j]`` is the fraction of position ``i``'s throughflow forwarded
        to position ``j``; strictly upper triangular by construction.  With
        ``ratios=None`` the even ECMP split is used.  Mostly a debugging and
        interop view -- :meth:`propagate` works on the raw arrays directly.
        """
        data = self.uniform_ratios() if ratios is None else np.asarray(ratios, dtype=float)
        return sp.csr_matrix(
            (data, self.targets, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    # ------------------------------------------------------------------
    # ratio vectors (one value per compiled edge)
    # ------------------------------------------------------------------
    def uniform_ratios(self) -> np.ndarray:
        """Even ECMP split: ``1 / out_degree`` on every edge."""
        degrees = self.out_degree()
        with np.errstate(divide="ignore"):
            inverse = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
        return np.repeat(inverse, degrees)

    def bind_ratios(
        self,
        split_ratios: Mapping[Node, Mapping[Node, float]] | None,
        degenerate: list[tuple[int, float]] | None = None,
    ) -> np.ndarray:
        """Normalise per-node ``{hop: ratio}`` mappings into a per-edge vector.

        Mirrors the oracle's semantics exactly: nodes absent from
        ``split_ratios`` (or with an empty mapping) split evenly; nodes whose
        stored ratios sum to zero over their next hops also fall back to an
        even split.  The latter are logged via :func:`warn_degenerate_split`
        -- immediately when ``degenerate`` is ``None``, or collected into it
        as ``(position, total)`` pairs so the caller can warn only for nodes
        that actually carry traffic (:meth:`warn_loaded_degenerates`), which
        is when the oracle's warning fires.
        """
        if split_ratios is None:
            return self.uniform_ratios()
        ratios = np.empty(self.num_edges)
        indptr = self.indptr
        for i, node in enumerate(self.order):
            start, end = indptr[i], indptr[i + 1]
            if start == end:
                continue
            stored = split_ratios.get(node)
            if not stored:
                ratios[start:end] = 1.0 / (end - start)
                continue
            values = np.fromiter(
                (stored.get(self.order[t], 0.0) for t in self.targets[start:end]),
                dtype=float,
                count=end - start,
            )
            total = float(values.sum())
            if total <= 0:
                if degenerate is None:
                    warn_degenerate_split(node, self.destination, total, int(end - start))
                else:
                    degenerate.append((i, total))
                ratios[start:end] = 1.0 / (end - start)
            else:
                # Clamp negative stored ratios to zero *after* normalising,
                # mirroring the oracle, which normalises by the signed total
                # but never pushes a non-positive share onto a link.
                ratios[start:end] = np.maximum(values / total, 0.0)
        return ratios

    def warn_loaded_degenerates(
        self, degenerate: list[tuple[int, float]], throughflow: np.ndarray
    ) -> None:
        """Warn for degenerate-ratio nodes that actually carried traffic.

        ``degenerate`` is what :meth:`bind_ratios` collected; ``throughflow``
        the corresponding :meth:`propagate` result (single or batched).
        """
        for position, total in degenerate:
            if np.any(throughflow[position] > 0):
                count = int(self.indptr[position + 1] - self.indptr[position])
                warn_degenerate_split(self.order[position], self.destination, total, count)

    def path_weight_sums(self, edge_factors: np.ndarray) -> np.ndarray:
        """``Z(s) = sum over DAG paths p from s of prod of edge factors on p``.

        One reverse topological sweep; ``Z(destination) = 1``.  With
        ``edge_factors = exp(-v)`` this is the dynamic program of the paper's
        Eq. (22) (:func:`repro.core.traffic_distribution.path_weight_sums`);
        PEFT's exponential penalties reuse it.
        """
        z_values = np.zeros(self.num_nodes)
        destination_pos = self.positions[self.destination]
        z_values[destination_pos] = 1.0
        indptr, targets = self.indptr, self.targets
        for i in range(self.num_nodes - 1, -1, -1):
            start, end = indptr[i], indptr[i + 1]
            if start == end:
                continue
            z_values[i] = float(np.dot(edge_factors[start:end], z_values[targets[start:end]]))
        return z_values

    # ------------------------------------------------------------------
    # demand vectors
    # ------------------------------------------------------------------
    def entering_vector(
        self,
        entering: Mapping[Node, float],
        columns: int = 0,
        column: int = 0,
        out: np.ndarray | None = None,
        missing: str = "raise",
    ) -> np.ndarray:
        """Scatter ``{node: volume}`` into a (stacked) position-indexed vector.

        ``missing`` controls sources outside the DAG (unreachable nodes):
        ``"raise"`` matches the ECMP/all-or-nothing oracles, ``"drop"``
        matches the split-ratio oracle which silently ignores them.
        """
        if out is None:
            shape = (self.num_nodes, columns) if columns else (self.num_nodes,)
            out = np.zeros(shape)
        positions = self.positions
        target = out[:, column] if out.ndim == 2 else out
        for node, volume in entering.items():
            position = positions.get(node)
            if position is None:
                if missing == "raise":
                    raise UnreachableError(
                        f"demand source {node!r} cannot reach {self.destination!r}"
                    )
                continue
            target[position] += volume
        return out

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def propagate(self, entering: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        """Node throughflows ``x`` solving ``(I - P^T) x = entering``.

        Forward substitution in topological order: each row's (now final)
        throughflow is pushed to its next hops with one sparse axpy.  A 2-D
        ``entering`` of shape ``(num_nodes, m)`` routes ``m`` demand vectors
        at once -- the batched path the scenario engine uses.

        Raises
        ------
        UnreachableError
            If positive traffic reaches a node with no next hops (other than
            the destination), matching the oracle's behaviour.
        """
        x = np.array(entering, dtype=float, copy=True)
        indptr, targets = self.indptr, self.targets
        destination_pos = self.positions[self.destination]
        batched = x.ndim == 2
        for i in range(self.num_nodes):
            start, end = indptr[i], indptr[i + 1]
            if start == end:
                if i != destination_pos and np.any(x[i] > 0):
                    raise UnreachableError(
                        f"node {self.order[i]!r} has traffic for "
                        f"{self.destination!r} but no next hop"
                    )
                continue
            if batched:
                x[targets[start:end]] += ratios[start:end, None] * x[i]
            else:
                x[targets[start:end]] += ratios[start:end] * x[i]
        return x

    def scatter_link_loads(
        self,
        throughflow: np.ndarray,
        ratios: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-link loads ``f[link(i, j)] = ratio_ij * x_i`` (added into ``out``).

        ``throughflow`` is the result of :meth:`propagate`; a 2-D input yields
        ``(num_links, m)`` stacked loads.  Each link appears at most once in
        the DAG, so a vectorised fancy-index add is exact.
        """
        if out is None:
            if throughflow.ndim == 2:
                out = np.zeros((self.num_links, throughflow.shape[1]))
            else:
                out = np.zeros(self.num_links)
        if self.num_edges:
            if throughflow.ndim == 2:
                out[self.links] += ratios[:, None] * throughflow[self.rows]
            else:
                out[self.links] += ratios * throughflow[self.rows]
        return out

    def link_loads(
        self,
        entering: Mapping[Node, float],
        ratios: np.ndarray,
        missing: str = "raise",
    ) -> np.ndarray:
        """Convenience: entering mapping -> per-link load vector."""
        demand = self.entering_vector(entering, missing=missing)
        return self.scatter_link_loads(self.propagate(demand, ratios), ratios)
