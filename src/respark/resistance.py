"""Effective-resistance estimation.

Three producers: an exact dense oracle, whose ResistanceEstimates carry
edge ids, and two that return a float64 column in pair order, the
sparsifier-plus-block estimator of the streaming loop and a seeded noise
injector that stress-tests tolerance to alpha-accurate estimates. The
first two read every resistance off one grounded Cholesky factor (see
pseudo_factorize), and a pair's endpoints share a component exactly when
their labels agree.
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
    pseudo_factorize,
)
from .tape import RandomTape

__all__ = [
    "ResistanceEstimate",
    "exact_resistance",
    "exact_resistances",
    "inject_alpha_noise",
    "resistances_from_sparsifier",
]


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


def _check_same_component(factors: PseudoinverseFactors, ends: np.ndarray) -> None:
    labels = factors.labels[ends]
    bad = np.flatnonzero(labels[:, 0] != labels[:, 1])
    if len(bad):
        u, v = ends[bad[0]].tolist()
        raise GraphConnectivityError(
            f"endpoints ({u}, {v}) lie in different components; resistance is infinite"
        )


def _resistances(factors: PseudoinverseFactors, pairs: Sequence) -> np.ndarray:
    """Resistances b^T L+ b of endpoint pairs (a sequence of (u, v) or a
    (k, 2) array), in pair order."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    _check_same_component(factors, ends)
    return factors.resistances(ends)


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
    return exact_resistances(factors, [edge[:2]], [edge_id])[0]


def exact_resistances(
    factors: PseudoinverseFactors,
    pairs: Sequence[tuple[int, int]],
    edge_ids: Sequence[int] | None = None,
) -> list[ResistanceEstimate]:
    """Vectorized exact oracle over many endpoint pairs, tagged with
    edge_ids (0, 1, ... by default) and accuracy 1."""
    rs = _resistances(factors, pairs).tolist()
    ids = range(len(rs)) if edge_ids is None else edge_ids
    return [ResistanceEstimate(i, r, 1.0) for i, r in zip(ids, rs)]


def resistances_from_sparsifier(
    h_plus_block: WeightedGraph, pairs: Sequence[tuple[int, int]], eps: float
) -> np.ndarray:
    """Resistance estimates of endpoint pairs, in pair order, computed on the
    combined sparsifier-plus-block graph.

    The estimates are exact resistances of the combined graph; as estimates
    of the underlying stream prefix they are alpha-accurate with
    alpha = 1/(1 - eps) whenever the sparsifier part is a valid
    (1 +- eps)-sparsifier.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return _resistances(pseudo_factorize(build_laplacian(h_plus_block)), pairs)


def inject_alpha_noise(r_tilde, alpha: float, seed: int) -> np.ndarray:
    """Multiply each estimate of the column r_tilde by a seeded uniform
    factor in [1/alpha, alpha].

    Multipliers are drawn in column order from a labeled stream of
    RandomTape(seed), so a fixed (seed, column order) pair reproduces the
    same noise exactly.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    lo, hi = 1.0 / alpha, alpha
    return r_tilde * (lo + RandomTape(seed).labeled("alpha-noise", len(r_tilde)) * (hi - lo))
