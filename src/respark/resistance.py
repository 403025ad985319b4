"""Effective-resistance estimation.

Three producers behind one contract: an exact dense oracle, the
sparsifier-plus-block estimator used inside the streaming loop, and a
seeded noise injector that stress-tests downstream tolerance to
alpha-accurate (rather than exact) estimates. The first two read every
resistance off one grounded Cholesky factor (see pseudo_factorize), and a
pair's endpoints share a component exactly when their labels agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import (
    GraphConnectivityError,
    PseudoinverseFactors,
    WeightedGraph,
    build_laplacian,
    is_connected,
    pseudo_factorize,
)
from .tape import RandomTape

__all__ = [
    "ResistanceEstimate",
    "cg_resistances",
    "exact_resistance",
    "exact_resistances",
    "inject_alpha_noise",
    "resistances_from_sparsifier",
]

_CG_RTOL = 1e-10  # relative residual at which each conjugate-gradient solve stops


@dataclass(frozen=True)
class ResistanceEstimate:
    """An edge's estimated resistance plus the producing estimator's accuracy."""

    edge_id: int
    r_tilde: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.r_tilde > 0:
            raise ValueError(f"resistance estimate must be positive, got {self.r_tilde}")
        if not self.alpha >= 1.0:  # NaN fails too
            raise ValueError(f"accuracy parameter must be >= 1, got {self.alpha}")


def _check_same_component(factors: PseudoinverseFactors, pairs: Sequence[tuple[int, int]]) -> None:
    ends = factors.labels[np.array(pairs, dtype=int).reshape(-1, 2)]
    bad = np.flatnonzero(ends[:, 0] != ends[:, 1])
    if len(bad):
        u, v = pairs[bad[0]]
        raise GraphConnectivityError(
            f"endpoints ({u}, {v}) lie in different components; resistance is infinite"
        )


def _estimates(
    factors: PseudoinverseFactors, pairs: Sequence, edge_ids: Sequence[int] | None, alpha: float
) -> list[ResistanceEstimate]:
    """Resistances b^T L+ b of endpoint pairs, tagged with accuracy alpha."""
    pairs = [(int(p[0]), int(p[1])) for p in pairs]
    ids = range(len(pairs)) if edge_ids is None else edge_ids
    _check_same_component(factors, pairs)
    rs = factors.resistances(pairs)
    return [ResistanceEstimate(i, float(r), alpha) for i, r in zip(ids, rs)]


def exact_resistance(
    factors: PseudoinverseFactors, edge: tuple[int, int], edge_id: int = 0
) -> ResistanceEstimate:
    """Exact effective resistance b^T L+ b from a grounded factorization.

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
    return _estimates(factors, [edge], [edge_id], 1.0)[0]


def exact_resistances(
    factors: PseudoinverseFactors,
    pairs: Sequence[tuple[int, int]],
    edge_ids: Sequence[int] | None = None,
) -> list[ResistanceEstimate]:
    """Vectorized exact oracle over many endpoint pairs."""
    return _estimates(factors, pairs, edge_ids, 1.0)


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
    return _estimates(factors, targets, edge_ids, 1.0 / (1.0 - eps))


def inject_alpha_noise(
    estimates: Sequence[ResistanceEstimate], alpha: float, seed: int
) -> list[ResistanceEstimate]:
    """Multiply each estimate by a seeded uniform factor in [1/alpha, alpha].

    Multipliers are drawn in input order from a labeled stream of
    RandomTape(seed), so a fixed (seed, estimate order) pair reproduces the
    same noise exactly.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    lo, hi = 1.0 / alpha, alpha
    u = RandomTape(seed).labeled("alpha-noise", len(estimates))
    factors = lo + u * (hi - lo)
    return [
        ResistanceEstimate(est.edge_id, est.r_tilde * float(f), alpha)
        for est, f in zip(estimates, factors)
    ]


def cg_resistances(g: WeightedGraph, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Iterative (conjugate-gradient) resistance backend.

    Same contract as the dense oracle on connected graphs; validated against
    it to 1e-6 relative. Each solve stops at relative residual _CG_RTOL. The
    Laplacian solve stays in range(L) because the right-hand side of every
    resistance query is orthogonal to the all-ones null vector.
    """
    # imported on first use, so that importing respark leaves scipy.sparse out
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import cg

    if not is_connected(g):
        raise GraphConnectivityError("iterative backend requires a connected graph")
    L = csr_matrix(build_laplacian(g))
    out = np.zeros(len(pairs))
    for k, (u, v) in enumerate(pairs):
        b = np.zeros(g.n)
        b[int(u)], b[int(v)] = 1.0, -1.0
        x, info = cg(L, b, rtol=_CG_RTOL, atol=0.0)
        if info != 0:
            raise RuntimeError(f"conjugate gradient did not converge (info={info})")
        out[k] = float(b @ x)
    return out

