"""Vectorized routing: the solver-loop kernel and the compiled CSR router.

Each routing entry point has exactly one implementation:

* the solver loops (Frank-Wolfe, Algorithms 1 and 2) run on
  :class:`RoutingKernel` (:mod:`repro.routing.kernel`);
* one-shot single-matrix calls -- ECMP / split-ratio assignment, Algorithm 3,
  ``OSPF.route`` / ``PEFT.route`` -- run the per-destination dict loops in
  :mod:`repro.solvers.assignment` and :mod:`repro.core.traffic_distribution`,
  which are also the reference oracle of the equivalence test suite;
* batched calls -- :meth:`SparseRouter.link_loads_many`,
  ``RoutingProtocol.batch_link_loads`` and the scenario runner's grouped
  dispatch -- run on the compiled CSR router in this package: each
  destination DAG becomes a CSR split-ratio matrix and flow propagation is a
  topological-order forward substitution (``(I - P^T) x = demand``) over
  numpy arrays that routes a whole demand ensemble in one stacked sweep.

The compiled router's link loads equal the oracle's to well below 1e-9; see
the "Routing paths" section of the README.
"""

from __future__ import annotations

from .compiled import CompiledDag, warn_degenerate_split
from .kernel import RoutingKernel
from .sparse import CompiledDagSet, SparseRouter

__all__ = [
    "CompiledDag",
    "CompiledDagSet",
    "RoutingKernel",
    "SparseRouter",
    "warn_degenerate_split",
]
