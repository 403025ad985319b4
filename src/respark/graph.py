"""Weighted graphs, Laplacians, pseudoinverses, and projection contexts.

Everything downstream (resistance estimation, resparsification, the
verification instruments) consumes the objects defined here. All types are
immutable after construction and all operations are pure functions, so they
are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "DEFAULT_NULL_TOLERANCE",
    "Edge",
    "GraphConnectivityError",
    "ProjectionContext",
    "PseudoinverseFactors",
    "WeightedGraph",
    "build_laplacian",
    "component_count",
    "is_connected",
    "lambda_max_bound",
    "projection_context",
    "pseudo_factorize",
    "read_edge_list",
    "write_edge_list",
]

# Relative eigenvalue cutoff separating the structural null space from
# round-off. Well-conditioned desk-scale Laplacians have a spectral gap many
# orders of magnitude above this.
DEFAULT_NULL_TOLERANCE = 1e-10


class GraphConnectivityError(ValueError):
    """An operation that needs a connected reference graph got a disconnected one."""


class Edge(NamedTuple):
    u: int
    v: int
    weight: float


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with an ordered edge list.

    The edge list order is the stream order and is preserved exactly.
    Duplicate (u, v) pairs are permitted and remain distinct stream items;
    their weights add in the Laplacian.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for k, (u, v, a) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(
                    f"edge {k}: endpoints ({u}, {v}) out of range for n={self.n}"
                )
            if u == v:
                raise ValueError(f"edge {k}: self-loop at vertex {u}")
            if not 0 < a < math.inf:
                raise ValueError(f"edge {k}: weight must be positive and finite, got {a}")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]]
    ) -> "WeightedGraph":
        return cls(n, tuple(Edge(int(u), int(v), float(a)) for u, v, a in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def weights(self) -> np.ndarray:
        return np.array([e.weight for e in self.edges], dtype=float)

    def prefix(self, count: int) -> "WeightedGraph":
        """The partial graph formed by the first `count` stream items."""
        if not 0 <= count <= self.m:
            raise ValueError(f"prefix length {count} outside [0, {self.m}]")
        return WeightedGraph(self.n, self.edges[:count])

    def laplacian(self) -> np.ndarray:
        return build_laplacian(self)

    def kappa(self) -> float:
        """Weight-spread parameter sqrt(a_max / a_min)."""
        if not self.edges:
            return 1.0
        w = self.weights()
        return float(np.sqrt(w.max() / w.min()))


def build_laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted Laplacian L = D - A as a dense symmetric array.

    Parameters
    ----------
    g : WeightedGraph
        Must contain at least one edge. Multi-edges contribute additively.

    Returns
    -------
    ndarray of shape (n, n)
        Symmetric PSD matrix with zero row sums.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    us = np.array([e.u for e in g.edges])
    vs = np.array([e.v for e in g.edges])
    return laplacian_from_arrays(g.n, us, vs, g.weights())


def laplacian_from_arrays(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """Laplacian of an edge multiset given as parallel index/weight arrays.

    Off-diagonal mass is accumulated once per canonical (min, max) pair and
    mirrored, so the result is bitwise symmetric regardless of edge
    orientation or order.
    """
    L = np.zeros((n, n))
    if len(ws):
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        off = np.zeros((n, n))
        np.add.at(off, (lo, hi), ws)
        L -= off + off.T
        L[np.arange(n), np.arange(n)] = np.bincount(lo, ws, n) + np.bincount(hi, ws, n)
    return L


@dataclass(frozen=True)
class PseudoinverseFactors:
    """Eigendecomposition of a Laplacian with the null space zeroed exactly.

    Eigenvalues below null_tolerance * lambda_max are treated as exactly
    zero; for a connected graph exactly one eigenvalue is zeroed.
    """

    eigenvalues: np.ndarray  # ascending, near-zero entries replaced by 0.0
    eigenvectors: np.ndarray  # orthogonal, column i pairs with eigenvalues[i]
    null_tolerance: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def null_count(self) -> int:
        return int(np.count_nonzero(self.eigenvalues == 0.0))

    def _nonzero(self) -> np.ndarray:
        return self.eigenvalues > 0

    def pinv(self) -> np.ndarray:
        """Dense Moore-Penrose pseudoinverse."""
        inv = np.where(self._nonzero(), 1.0 / np.where(self._nonzero(), self.eigenvalues, 1.0), 0.0)
        Q = self.eigenvectors
        return (Q * inv) @ Q.T

    def inv_sqrt(self) -> np.ndarray:
        """Dense pseudoinverse square root, the congruence map for spectral checks."""
        nz = self._nonzero()
        s = np.where(nz, 1.0 / np.sqrt(np.where(nz, self.eigenvalues, 1.0)), 0.0)
        Q = self.eigenvectors
        return (Q * s) @ Q.T

    def resistances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Effective resistances b^T L+ b for many (u, v) pairs at once."""
        if not len(pairs):
            return np.zeros(0)
        us = np.array([p[0] for p in pairs])
        vs = np.array([p[1] for p in pairs])
        nz = self._nonzero()
        Q = self.eigenvectors[:, nz]
        D = Q[us] - Q[vs]  # one row per pair, coordinates in the nonzero eigenbasis
        return (D * D) @ (1.0 / self.eigenvalues[nz])


def pseudo_factorize(
    l: np.ndarray, null_tolerance: float = DEFAULT_NULL_TOLERANCE
) -> PseudoinverseFactors:
    """Eigendecompose a symmetric PSD matrix, zeroing the numerical null space.

    Parameters
    ----------
    l : ndarray
        Symmetric PSD matrix (a Laplacian).
    null_tolerance : float
        Relative cutoff: eigenvalues with magnitude at most
        null_tolerance * lambda_max are treated as exactly zero.

    Raises
    ------
    ValueError
        If the input is not symmetric, or has an eigenvalue below
        -null_tolerance * lambda_max (not PSD, an upstream bug).
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {l.shape}")
    scale = max(1.0, float(np.abs(l).max()) if l.size else 0.0)
    if float(np.abs(l - l.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, Q = np.linalg.eigh(l)
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        # all-zero (or negative-definite, caught below) input: all-zero factors
        if float(w[0]) < -null_tolerance * max(1.0, abs(lam_max)):
            raise ValueError("matrix is not PSD")
        return PseudoinverseFactors(np.zeros_like(w), Q, null_tolerance)
    cutoff = null_tolerance * lam_max
    if float(w[0]) < -cutoff:
        raise ValueError(
            f"matrix is not PSD: eigenvalue {w[0]:.3e} below -{cutoff:.3e}"
        )
    w = np.where(np.abs(w) <= cutoff, 0.0, w)
    return PseudoinverseFactors(w, Q, null_tolerance)


@dataclass(frozen=True)
class ProjectionContext:
    """Reference-graph factors plus the projection P onto range(L).

    P = sum_e v_e v_e^T over the reference edges; for a connected reference
    it equals I - 11^T/n, has rank n - 1, and is idempotent.
    """

    graph: WeightedGraph
    factors: PseudoinverseFactors
    projection: np.ndarray
    inv_sqrt: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    def edge_vectors(self, edge_ids: Sequence[int] | None = None) -> np.ndarray:
        """Columns v_e = sqrt(a_e) L^{-1/2} b_e for the given edge ids (all
        edges when omitted); ||v_e||^2 = a_e r_e is the edge's leverage."""
        ids = range(self.graph.m) if edge_ids is None else edge_ids
        es = [self.graph.edges[i] for i in ids]
        if not es:
            return np.zeros((self.n, 0))
        us = np.array([e.u for e in es])
        vs = np.array([e.v for e in es])
        ws = np.array([e.weight for e in es])
        return np.sqrt(ws) * (self.inv_sqrt[:, us] - self.inv_sqrt[:, vs])


def projection_context(
    g: WeightedGraph, null_tolerance: float = DEFAULT_NULL_TOLERANCE
) -> ProjectionContext:
    """Build the projection context for a connected reference graph.

    Raises
    ------
    GraphConnectivityError
        If g is disconnected (the projection would have multiple null
        vectors and the spectral instruments are not defined).
    """
    if not is_connected(g):
        raise GraphConnectivityError(
            "reference graph is disconnected; projection context undefined"
        )
    factors = pseudo_factorize(build_laplacian(g), null_tolerance)
    if factors.null_count != 1:
        raise GraphConnectivityError(
            f"expected exactly one null eigenvalue, found {factors.null_count}"
        )
    Qr = factors.eigenvectors[:, factors.eigenvalues > 0]
    return ProjectionContext(g, factors, Qr @ Qr.T, factors.inv_sqrt())


def lambda_max_bound(g: WeightedGraph) -> float:
    """Upper bound a_max * n on the largest Laplacian eigenvalue.

    a_max is the largest per-pair weight after merging duplicate stream
    items: the graph sits below a_max times the complete graph in the
    Loewner order, and the complete graph's largest eigenvalue is n.
    """
    if g.m == 0:
        return 0.0
    merged: dict[tuple[int, int], float] = {}
    for e in g.edges:
        key = (min(e.u, e.v), max(e.u, e.v))
        merged[key] = merged.get(key, 0.0) + e.weight
    return max(merged.values()) * g.n


def _component_labels(g: WeightedGraph) -> np.ndarray:
    if g.m == 0:
        return np.arange(g.n)
    us = np.array([e.u for e in g.edges])
    vs = np.array([e.v for e in g.edges])
    adj = coo_matrix((np.ones(g.m), (us, vs)), shape=(g.n, g.n))
    _, labels = connected_components(adj, directed=False)
    return labels


def component_count(g: WeightedGraph) -> int:
    return int(_component_labels(g).max()) + 1 if g.n else 0


def is_connected(g: WeightedGraph) -> bool:
    return component_count(g) == 1


def read_edge_list(path) -> WeightedGraph:
    """Parse the edge-list text format.

    One edge per line, "u v w" whitespace-separated; '#' starts a comment
    line and blank lines are ignored. The first non-comment line may be
    "n <count>" to declare a vertex count that includes isolated vertices;
    otherwise n = max id + 1.
    """
    declared_n = None
    triples: list[tuple[int, int, float]] = []
    first_data_line = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if first_data_line and tokens[0] == "n":
                if len(tokens) != 2:
                    raise ValueError(f"{path}:{lineno}: malformed size line {line!r}")
                declared_n = int(tokens[1])
                first_data_line = False
                continue
            first_data_line = False
            if len(tokens) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v w', got {line!r}"
                )
            try:
                u, v, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            triples.append((u, v, w))
    if declared_n is None:
        if not triples:
            raise ValueError(f"{path}: no edges and no declared vertex count")
        declared_n = max(max(u, v) for u, v, _ in triples) + 1
    return WeightedGraph.from_edges(declared_n, triples)


def write_edge_list(g: WeightedGraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"n {g.n}\n")
        for u, v, a in g.edges:
            fh.write(f"{u} {v} {a!r}\n")
