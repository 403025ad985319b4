"""Weighted graphs, Laplacians, pseudoinverses, and projection contexts.

Everything downstream (resistance estimation, resparsification, the
verification instruments) consumes the objects defined here. All types are
immutable after construction and all operations are pure functions, so they
are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer arrays (us, vs) of the edge endpoints, in edge order."""
        return (
            np.array([e.u for e in self.edges], dtype=int),
            np.array([e.v for e in self.edges], dtype=int),
        )

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
    return laplacian_from_arrays(g.n, *g.endpoints(), g.weights())


def laplacian_from_arrays(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """Laplacian of an edge multiset given as parallel index/weight arrays.

    Each canonical (min, max) pair's mass is summed in edge order into both
    of its off-diagonal cells, so the result is bitwise symmetric
    regardless of edge orientation.
    """
    if not len(ws):
        return np.zeros((n, n))
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    cells = np.concatenate((lo * n + hi, hi * n + lo))
    L = np.bincount(cells, np.concatenate((ws, ws)), n * n).reshape(n, n)
    # in place: a second n x n buffer costs more in page faults than the
    # arithmetic; 0.0 - mass keeps the empty cells +0.0
    np.subtract(0.0, L, out=L)
    L.flat[:: n + 1] = np.bincount(lo, ws, n) + np.bincount(hi, ws, n)
    return L


@dataclass(frozen=True)
class PseudoinverseFactors:
    """Eigendecomposition of a Laplacian with the null space zeroed exactly.

    Eigenvalues below DEFAULT_NULL_TOLERANCE * lambda_max are treated as
    exactly zero; for a connected graph exactly one eigenvalue is zeroed.
    """

    eigenvalues: np.ndarray  # ascending, near-zero entries replaced by 0.0
    eigenvectors: np.ndarray  # orthogonal, column i pairs with eigenvalues[i]

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


def pseudo_factorize(l: np.ndarray) -> PseudoinverseFactors:
    """Eigendecompose a symmetric PSD matrix, zeroing the numerical null space:
    eigenvalues at most DEFAULT_NULL_TOLERANCE * lambda_max in magnitude.

    Parameters
    ----------
    l : ndarray
        Symmetric PSD matrix (a Laplacian).

    Raises
    ------
    ValueError
        If the input is not symmetric, or has an eigenvalue below
        -DEFAULT_NULL_TOLERANCE * lambda_max (not PSD, an upstream bug).
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
        if float(w[0]) < -DEFAULT_NULL_TOLERANCE * max(1.0, abs(lam_max)):
            raise ValueError("matrix is not PSD")
        return PseudoinverseFactors(np.zeros_like(w), Q)
    cutoff = DEFAULT_NULL_TOLERANCE * lam_max
    if float(w[0]) < -cutoff:
        raise ValueError(
            f"matrix is not PSD: eigenvalue {w[0]:.3e} below -{cutoff:.3e}"
        )
    w = np.where(np.abs(w) <= cutoff, 0.0, w)
    return PseudoinverseFactors(w, Q)


@dataclass(frozen=True)
class ProjectionContext:
    """Reference-graph factors plus S = L^{-1/2}, the pseudoinverse square root.

    The edge vectors v_e = sqrt(a_e) S b_e give sum_e v_e v_e^T = I - 11^T/n,
    the projection onto range(L) of the connected reference.
    """

    graph: WeightedGraph
    factors: PseudoinverseFactors
    inv_sqrt: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def leverages(self) -> np.ndarray:
        """Read-only a_e r_e = ||v_e||^2 of every reference edge, in edge
        order; computed on first use and kept with the context."""
        g = self.graph
        lev = g.weights() * self.factors.resistances([(e.u, e.v) for e in g.edges])
        lev.flags.writeable = False
        return lev

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


def projection_context(g: WeightedGraph) -> ProjectionContext:
    """Build the projection context for a connected reference graph.

    Its factors zero the null space at DEFAULT_NULL_TOLERANCE (see pseudo_factorize).

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
    factors = pseudo_factorize(build_laplacian(g))
    if factors.null_count != 1:
        raise GraphConnectivityError(
            f"expected exactly one null eigenvalue, found {factors.null_count}"
        )
    return ProjectionContext(g, factors, factors.inv_sqrt())


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def component_count(g: WeightedGraph) -> int:
    """Connected components of g, isolated vertices included. Unions g's
    edges in stream order and stops once one component is left, so a graph
    whose spanning tree comes first is answered from its tree."""
    uf = _UnionFind(g.n)
    count = g.n
    for u, v, _ in g.edges:
        if uf.union(u, v):
            count -= 1
            if count == 1:
                break
    return count


def is_connected(g: WeightedGraph) -> bool:
    return component_count(g) == 1


def read_edge_list(path) -> WeightedGraph:
    """Parse the edge-list text format.

    One edge per line, "u v w" whitespace-separated; '#' starts a comment
    line and blank lines are ignored. The first non-comment line may be
    "n <count>" to declare a vertex count that includes isolated vertices;
    otherwise n = max id + 1. A bad line raises ValueError starting
    'path:lineno:'; text that is not UTF-8, or a graph that WeightedGraph
    rejects, one starting 'path:'.
    """
    declared_n = None
    triples: list[tuple[int, int, float]] = []
    first_data_line = True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raws = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(raws, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if first_data_line and tokens[0] == "n":
                if len(tokens) != 2:
                    raise ValueError(f"malformed size line {line!r}")
                declared_n = int(tokens[1])
                first_data_line = False
                continue
            first_data_line = False
            if len(tokens) != 3:
                raise ValueError(f"expected 'u v w', got {line!r}")
            triples.append((int(tokens[0]), int(tokens[1]), float(tokens[2])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if declared_n is None:
        if not triples:
            raise ValueError(f"{path}: no edges and no declared vertex count")
        declared_n = max(max(u, v) for u, v, _ in triples) + 1
    try:
        return WeightedGraph.from_edges(declared_n, triples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_edge_list(g: WeightedGraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"n {g.n}\n")
        for u, v, a in g.edges:
            fh.write(f"{u} {v} {a!r}\n")
