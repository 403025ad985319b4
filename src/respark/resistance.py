"""Effective-resistance estimation.

Three producers behind one contract: an exact dense oracle, the
sparsifier-plus-block estimator used inside the streaming loop, and a
seeded noise injector that stress-tests downstream tolerance to
alpha-accurate (rather than exact) estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import cg as _scipy_cg

from .graph import (
    GraphConnectivityError,
    PseudoinverseFactors,
    WeightedGraph,
    build_laplacian,
    is_connected,
    pseudo_factorize,
)
from .tape import RandomTape

# Null-space leakage above this in an endpoint indicator means the endpoints
# sit in different components and the resistance is infinite.
_CROSS_COMPONENT_TOL = 1e-8


@dataclass(frozen=True)
class ResistanceEstimate:
    """An edge's estimated resistance plus the producing estimator's accuracy."""

    edge_id: int
    r_tilde: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.r_tilde > 0:
            raise ValueError(f"resistance estimate must be positive, got {self.r_tilde}")
        if self.alpha < 1.0:
            raise ValueError(f"accuracy parameter must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class AccuracyModel:
    """The accuracy band [1/alpha, alpha] and tape seed of injected noise."""

    alpha: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


def _check_same_component(factors: PseudoinverseFactors, pairs: Sequence[tuple[int, int]]) -> None:
    # endpoints share a component iff the indicator b is orthogonal to the
    # null space of the reference Laplacian
    null = factors.eigenvectors[:, factors.eigenvalues == 0]
    if null.shape[1] <= 1:
        return  # connected reference: b . 1 = 0 holds structurally
    for u, v in pairs:
        leak = null[u] - null[v]
        if float(np.abs(leak).max()) > _CROSS_COMPONENT_TOL:
            raise GraphConnectivityError(
                f"endpoints ({u}, {v}) lie in different components; resistance is infinite"
            )


def exact_resistance(
    factors: PseudoinverseFactors, edge: tuple[int, int], edge_id: int = 0
) -> ResistanceEstimate:
    """Exact effective resistance b^T L+ b from a pseudoinverse factorization.

    Parameters
    ----------
    factors : PseudoinverseFactors
        Factorization of the reference Laplacian.
    edge : (u, v)
        Endpoint pair; a weight in third position is ignored.
    edge_id : int
        Id recorded on the returned estimate.

    Raises
    ------
    GraphConnectivityError
        If the endpoints lie in different components (infinite resistance).
    """
    u, v = int(edge[0]), int(edge[1])
    _check_same_component(factors, [(u, v)])
    r = float(factors.resistances([(u, v)])[0])
    return ResistanceEstimate(edge_id, r, 1.0)


def exact_resistances(
    factors: PseudoinverseFactors,
    pairs: Sequence[tuple[int, int]],
    edge_ids: Sequence[int] | None = None,
) -> list[ResistanceEstimate]:
    """Vectorized exact oracle over many endpoint pairs."""
    ids = list(range(len(pairs))) if edge_ids is None else list(edge_ids)
    _check_same_component(factors, [(int(u), int(v)) for u, v in pairs])
    rs = factors.resistances([(int(u), int(v)) for u, v in pairs])
    return [ResistanceEstimate(i, float(r), 1.0) for i, r in zip(ids, rs)]


def resistances_from_sparsifier(
    h_plus_block: WeightedGraph,
    targets: Sequence[tuple[int, int]],
    eps: float,
    edge_ids: Sequence[int] | None = None,
) -> list[ResistanceEstimate]:
    """Resistance estimates computed on the combined sparsifier-plus-block graph.

    The estimates are exact resistances of the combined graph; as estimates
    of the underlying stream prefix they are alpha-accurate with
    alpha = 1/(1 - eps) whenever the sparsifier part is a valid
    (1 +- eps)-sparsifier, so they carry that tag.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    factors = pseudo_factorize(build_laplacian(h_plus_block))
    ids = list(range(len(targets))) if edge_ids is None else list(edge_ids)
    pairs = [(int(u), int(v)) for u, v in targets]
    _check_same_component(factors, pairs)
    rs = factors.resistances(pairs)
    alpha = 1.0 / (1.0 - eps)
    return [ResistanceEstimate(i, float(r), alpha) for i, r in zip(ids, rs)]


def inject_alpha_noise(
    estimates: Sequence[ResistanceEstimate], model: AccuracyModel
) -> list[ResistanceEstimate]:
    """Multiply each estimate by a seeded uniform factor in [1/alpha, alpha].

    Multipliers are drawn in input order from a labeled tape stream, so a
    fixed (seed, estimate order) pair reproduces the same noise exactly.
    """
    lo, hi = 1.0 / model.alpha, model.alpha
    u = RandomTape(model.seed).labeled("alpha-noise", len(estimates))
    factors = lo + u * (hi - lo)
    return [
        ResistanceEstimate(est.edge_id, est.r_tilde * float(f), model.alpha)
        for est, f in zip(estimates, factors)
    ]


def cg_resistances(
    g: WeightedGraph, pairs: Sequence[tuple[int, int]], rtol: float = 1e-10
) -> np.ndarray:
    """Iterative (conjugate-gradient) resistance backend.

    Same contract as the dense oracle on connected graphs; validated against
    it to 1e-6 relative. The Laplacian solve stays in range(L) because the
    right-hand side of every resistance query is orthogonal to the all-ones
    null vector.
    """
    if not is_connected(g):
        raise GraphConnectivityError("iterative backend requires a connected graph")
    L = csr_matrix(build_laplacian(g))
    out = np.zeros(len(pairs))
    for k, (u, v) in enumerate(pairs):
        b = np.zeros(g.n)
        b[int(u)], b[int(v)] = 1.0, -1.0
        x, info = _cg_compat(L, b, rtol)
        if info != 0:
            raise RuntimeError(f"conjugate gradient did not converge (info={info})")
        out[k] = float(b @ x)
    return out


def _cg_compat(L, b, rtol):
    # scipy renamed tol -> rtol in 1.12; support both
    try:
        return _scipy_cg(L, b, rtol=rtol, atol=0.0)
    except TypeError:  # pragma: no cover - depends on installed scipy
        return _scipy_cg(L, b, tol=rtol, atol=0.0)
