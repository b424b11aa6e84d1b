"""Vectorized routing: the solver-loop kernel and the sparse backend.

The solver loops (Frank-Wolfe, Algorithms 1 and 2) always run on
:class:`RoutingKernel` (:mod:`repro.routing.kernel`).  The other routing
paths -- ECMP / split-ratio assignment, the protocol evaluations, the
scenario engine's sweeps -- run on one of two interchangeable backends:

* ``"python"`` -- the original per-destination dict-loop implementations in
  :mod:`repro.solvers.assignment` and :mod:`repro.core.traffic_distribution`,
  kept verbatim as the reference oracle that the golden-equivalence test
  suite checks the sparse backend against.
* ``"sparse"`` -- the compiled backend in this package: each destination DAG
  becomes a CSR split-ratio matrix and flow propagation is a
  topological-order forward substitution (``(I - P^T) x = demand``) over
  numpy arrays, with a batched entry point that routes whole demand
  ensembles in one stacked sweep.

The shipped default policy is ``"auto"``: sparse for the batched/amortised
entry points -- :class:`SparseRouter`, :class:`CompiledDagSet`,
:func:`batched_link_loads`, ``RoutingProtocol.batch_link_loads`` and the
scenario runner's grouped dispatch -- which is where compilation is
amortised and the measured 5-12x speedups live
(``benchmarks/test_routing_speed.py``); the oracle for one-shot
single-matrix calls, where the dict loops are actually faster than numpy's
per-row call overhead (the sparse win appears once several matrices share
one weight setting).  Forcing a concrete backend applies it everywhere:
``"python"`` also disables the protocols' batched sparse routing.  Select
per call (``ecmp_assignment(..., backend="sparse")``), per process
(:func:`set_default_backend`) or per environment
(``REPRO_ROUTING_BACKEND=sparse``).  Both backends produce link loads equal
to well below 1e-9; see the "Routing backends" section of the README.
"""

from __future__ import annotations

import os

from .compiled import CompiledDag, warn_degenerate_split
from .kernel import RoutingKernel
from .sparse import (
    CompiledDagSet,
    SparseRouter,
    batched_link_loads,
    sparse_ecmp_assignment,
    sparse_split_ratio_assignment,
    sparse_traffic_distribution,
)

#: The two concrete routing backends, plus the "auto" policy that picks the
#: oracle for one-shot single-matrix calls and sparse for the batched entry
#: points (where compilation is amortised and the speedups live).
BACKENDS = ("auto", "sparse", "python")

_default_backend = os.environ.get("REPRO_ROUTING_BACKEND", "auto")
if _default_backend not in BACKENDS:  # pragma: no cover - env misconfiguration
    raise ValueError(
        f"REPRO_ROUTING_BACKEND must be one of {BACKENDS}, got {_default_backend!r}"
    )


def get_default_backend() -> str:
    """The backend policy used when a routing call does not name one.

    ``"auto"`` (the shipped default) means: dict-loop oracle for one-shot
    single-matrix calls, sparse for batched/amortised entry points.  Forcing
    ``"python"`` or ``"sparse"`` applies that concrete backend everywhere --
    in particular ``"python"`` also disables the protocols' batched sparse
    routing, so an all-oracle comparison really is all-oracle.
    """
    return _default_backend


def set_default_backend(backend: str) -> str:
    """Set the process-wide default backend policy; returns the previous one."""
    global _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    previous = _default_backend
    _default_backend = backend
    return previous


def resolve_backend(backend: str | None) -> str:
    """Normalise an optional per-call backend argument to a policy value."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


__all__ = [
    "BACKENDS",
    "CompiledDag",
    "CompiledDagSet",
    "RoutingKernel",
    "SparseRouter",
    "batched_link_loads",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "sparse_ecmp_assignment",
    "sparse_split_ratio_assignment",
    "sparse_traffic_distribution",
    "warn_degenerate_split",
]
