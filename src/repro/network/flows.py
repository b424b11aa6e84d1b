"""Flow assignments (traffic distributions) over a network.

A *traffic distribution* in the paper is the aggregate flow vector
``f = (f_ij)`` together with its per-destination decomposition
``f^t = (f^t_ij)``.  :class:`FlowAssignment` stores both, checks the
multi-commodity flow constraints (1a)-(1c) and exposes the derived
quantities used throughout the evaluation (utilization, spare capacity,
maximum link utilization, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

import numpy as np

from .demands import TrafficMatrix
from .graph import Edge, Network, Node


class FlowError(ValueError):
    """Raised when a flow assignment violates the flow constraints."""


@dataclass
class FlowAssignment:
    """Aggregate and per-destination link flows for a network.

    Attributes
    ----------
    network:
        The network the flows live on.
    per_destination:
        Mapping ``destination -> link-index vector`` with the commodity flow
        ``f^t_ij`` destined to that node.
    """

    network: Network
    per_destination: dict[Node, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, network: Network, destinations: Iterable[Node] = ()) -> FlowAssignment:
        """An all-zero assignment with a vector for each destination."""
        flows = cls(network=network)
        for destination in destinations:
            flows.per_destination[destination] = np.zeros(network.num_links)
        return flows

    @classmethod
    def from_aggregate(cls, network: Network, aggregate: Mapping[Edge, float]) -> FlowAssignment:
        """Wrap an aggregate-only flow (no per-destination decomposition).

        The aggregate is stored under the pseudo destination ``None`` so that
        utilization-style metrics keep working; per-destination queries will
        fail, which is intended for flows produced by aggregate-level LPs.
        """
        vector = np.zeros(network.num_links)
        for edge, value in aggregate.items():
            vector[network.link_index(*edge)] = value
        return cls(network=network, per_destination={None: vector})

    @classmethod
    def from_rows(
        cls, network: Network, destinations: Iterable[Node], rows: np.ndarray
    ) -> FlowAssignment:
        """Wrap a ``(destinations, links)`` array, one row per destination."""
        return cls(network=network, per_destination=dict(zip(destinations, rows, strict=True)))

    def rows(self, destinations: Iterable[Node]) -> np.ndarray:
        """The ``(destinations, links)`` array of :meth:`from_rows`.

        A destination without a vector gets a zero row; vectors of other
        destinations are left out.
        """
        zeros = np.zeros(self.network.num_links)
        vectors = [self.per_destination.get(t, zeros) for t in destinations]
        return np.array(vectors).reshape(len(vectors), self.network.num_links)

    def copy(self) -> FlowAssignment:
        return FlowAssignment(
            network=self.network,
            per_destination={t: vec.copy() for t, vec in self.per_destination.items()},
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def ensure_destination(self, destination: Node) -> np.ndarray:
        """The flow vector for ``destination``, creating it if missing."""
        if destination not in self.per_destination:
            self.per_destination[destination] = np.zeros(self.network.num_links)
        return self.per_destination[destination]

    def add_flow(self, destination: Node, source: Node, target: Node, amount: float) -> None:
        """Add ``amount`` of commodity ``destination`` on link ``source -> target``."""
        if amount < 0:
            raise FlowError(f"flow amount must be non-negative, got {amount}")
        vector = self.ensure_destination(destination)
        vector[self.network.link_index(source, target)] += amount

    def add_path_flow(self, destination: Node, path: list[Node], amount: float) -> None:
        """Add ``amount`` of commodity ``destination`` along ``path`` (a node list)."""
        for u, v in zip(path[:-1], path[1:], strict=True):
            self.add_flow(destination, u, v, amount)

    def scale(self, factor: float) -> FlowAssignment:
        """A copy with every flow multiplied by ``factor``."""
        if factor < 0:
            raise FlowError("flow scale factor must be non-negative")
        return FlowAssignment(
            network=self.network,
            per_destination={t: vec * factor for t, vec in self.per_destination.items()},
        )

    def __add__(self, other: FlowAssignment) -> FlowAssignment:
        if other.network is not self.network and other.network.edges != self.network.edges:
            raise FlowError("cannot add flows defined on different networks")
        result = self.copy()
        for destination, vector in other.per_destination.items():
            target = result.ensure_destination(destination)
            target += vector
        return result

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def destinations(self) -> list[Node]:
        return list(self.per_destination)

    def aggregate(self) -> np.ndarray:
        """Total flow ``f_ij`` per link (sum over destinations)."""
        total = np.zeros(self.network.num_links)
        for vector in self.per_destination.values():
            total += vector
        return total

    def aggregate_dict(self) -> dict[Edge, float]:
        """Aggregate flow as an ``{(u, v): f}`` mapping."""
        return self.network.weight_dict(self.aggregate())

    def flow_on(self, source: Node, target: Node, destination: Node | None = None) -> float:
        """Flow on a link, total or restricted to one destination commodity."""
        index = self.network.link_index(source, target)
        if destination is None:
            return float(self.aggregate()[index])
        vector = self.per_destination.get(destination)
        if vector is None:
            return 0.0
        return float(vector[index])

    def spare_capacity(self) -> np.ndarray:
        """Spare capacity ``s_ij = c_ij - f_ij`` per link."""
        return self.network.capacities - self.aggregate()

    def utilization(self) -> np.ndarray:
        """Link utilization ``f_ij / c_ij`` per link."""
        return self.aggregate() / self.network.capacities

    def utilization_dict(self) -> dict[Edge, float]:
        return self.network.weight_dict(self.utilization())

    def max_link_utilization(self) -> float:
        """The maximum link utilization (MLU)."""
        if self.network.num_links == 0:
            return 0.0
        return float(np.max(self.utilization()))

    def sorted_utilizations(self, descending: bool = True) -> np.ndarray:
        """Link utilizations sorted for the Fig. 9 style plots."""
        values = np.sort(self.utilization())
        return values[::-1] if descending else values

    def used_links(self, threshold: float = 1e-9) -> list[Edge]:
        """Links carrying more than ``threshold`` units of traffic."""
        aggregate = self.aggregate()
        return [
            link.endpoints
            for link in self.network.links
            if aggregate[link.index] > threshold
        ]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_capacity_feasible(self, tolerance: float = 1e-6) -> bool:
        """True when no link carries more than its capacity (within tolerance)."""
        return bool(np.all(self.aggregate() <= self.network.capacities + tolerance))

    def conservation_violation(self, demands: TrafficMatrix) -> float:
        """Largest violation of the flow conservation constraints (1b).

        Returns the maximum absolute imbalance across every (node,
        destination) pair, so 0 means the decomposition exactly routes the
        demands.
        """
        worst = 0.0
        by_destination = demands.by_destination()
        for destination, vector in self.per_destination.items():
            if destination is None:
                continue
            wanted = by_destination.get(destination, {})
            for node in self.network.nodes:
                if node == destination:
                    continue
                outgoing = sum(
                    vector[link.index] for link in self.network.out_links(node)
                )
                incoming = sum(
                    vector[link.index] for link in self.network.in_links(node)
                )
                imbalance = abs(outgoing - incoming - wanted.get(node, 0.0))
                worst = max(worst, imbalance)
        return worst

    def validate(self, demands: TrafficMatrix, tolerance: float = 1e-6) -> None:
        """Raise :class:`FlowError` unless constraints (1a)-(1c) hold."""
        for destination, vector in self.per_destination.items():
            if np.any(vector < -tolerance):
                raise FlowError(f"negative flow for destination {destination!r}")
        if not self.is_capacity_feasible(tolerance):
            overload = self.aggregate() - self.network.capacities
            worst = int(np.argmax(overload))
            link = self.network.link_by_index(worst)
            raise FlowError(
                f"capacity violated on {link.source}->{link.target}: "
                f"flow {self.aggregate()[worst]:.4f} > capacity {link.capacity:.4f}"
            )
        violation = self.conservation_violation(demands)
        if violation > tolerance:
            raise FlowError(f"flow conservation violated by {violation:.6f}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlowAssignment(network={self.network.name!r}, "
            f"destinations={len(self.per_destination)}, "
            f"mlu={self.max_link_utilization():.3f})"
        )
