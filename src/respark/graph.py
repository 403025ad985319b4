"""Weighted graphs, Laplacians, pseudoinverses, and projection contexts.

A pseudoinverse is kept as the inverse Cholesky factor of the Laplacian
grounded at one vertex per component, off which every resistance is read; its
eigenbasis, for the verification congruences, only where one is read.

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

# Relative cutoff separating the structural null space from round-off, in
# eigenvalues and in a Laplacian's row sums. Well-conditioned desk-scale
# Laplacians have a spectral gap many orders of magnitude above this.
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


_LAPLACIAN_CHUNK = 2**15  # rows whose cells and masses are accumulated together


def laplacian_from_arrays(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """Laplacian of an edge multiset given as parallel index/weight arrays.

    Each canonical (min, max) pair's mass is summed in edge order into both
    of its off-diagonal cells, so the result is bitwise symmetric
    regardless of edge orientation. The rows are accumulated
    _LAPLACIAN_CHUNK at a time, so the temporaries stay a fixed size: the
    first chunk by bincount, each later one by np.add.at, which adds every
    cell's masses in the same order and so gives the same bits.
    """
    if not len(ws):
        return np.zeros((n, n))
    with np.errstate(over="ignore"):  # reported below, naming the vertex
        for start in range(0, len(ws), _LAPLACIAN_CHUNK):
            u, v, w = (a[start:start + _LAPLACIAN_CHUNK] for a in (us, vs, ws))
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            cells = np.concatenate((lo * n + hi, hi * n + lo))
            masses = np.concatenate((w, w))
            if start == 0:
                L = np.bincount(cells, masses, n * n)
                low, high = np.bincount(lo, w, n), np.bincount(hi, w, n)
            else:
                np.add.at(L, cells, masses)
                np.add.at(low, lo, w)
                np.add.at(high, hi, w)
        degree = low + high
    L = L.reshape(n, n)
    # in place: a second n x n buffer costs more in page faults than the
    # arithmetic; 0.0 - mass keeps the empty cells +0.0
    np.subtract(0.0, L, out=L)
    finite = np.isfinite(degree)  # weights are >= 0, so an overflowing cell overflows a degree
    if not finite.all():
        raise ValueError(
            f"weighted degree of vertex {int(finite.argmin())} is not finite: "
            "its edge weights sum past the largest float"
        )
    L.flat[:: n + 1] = degree
    return L


def _lower_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive 2 x 2 blocks:
    [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], two products a
    level. np.linalg.inv, which runs a general LU, takes the small blocks."""
    k = len(c)
    if k <= 48:
        return np.linalg.inv(c)
    h = k // 2
    a_inv = _lower_inverse(c[:h, :h])
    d_inv = _lower_inverse(c[h:, h:])
    out = np.zeros_like(c)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[h:, :h] = -(d_inv @ c[h:, :h]) @ a_inv
    return out


def _component_labels(l: np.ndarray) -> np.ndarray:
    """Each vertex's component, named by its smallest vertex, from l's
    off-diagonal nonzeros: a Laplacian cell is nonzero, and negative, exactly
    when an edge joins the pair. Each round hooks every root onto the least
    label across its nonzeros, then jumps pointers to the roots."""
    i, j = np.divmod(np.flatnonzero(l < 0.0), len(l))
    labels = np.arange(len(l))
    while True:
        a, b = labels[i], labels[j]
        if (a == b).all():
            return labels
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not (labels[labels] == labels).all():
            labels = labels[labels]


def _grounded_inverse(l: np.ndarray, free: np.ndarray) -> np.ndarray:
    """C^-1, C the Cholesky factor of l with the vertices outside the mask
    free, vertex 0 among them, grounded (their rows and columns removed)."""
    grounded = l[1:, 1:] if free[1:].all() else l[np.ix_(free, free)]  # a slice copies less
    return _lower_inverse(np.linalg.cholesky(grounded))


@dataclass(frozen=True)
class PseudoinverseFactors:
    """A Laplacian's pseudoinverse as a grounded Cholesky factor. Grounded at
    one vertex per component, L is positive definite, C C'; rows[v] is C^-1's
    column of vertex v (zero if grounded), so b'L+b for u, v in one component
    is ||rows[u] - rows[v]||^2. The eigendecomposition, eigenvalues ascending
    with those at most DEFAULT_NULL_TOLERANCE * lambda_max set to 0.0, is a
    view: eigh runs on its first read, on laplacian, which is not copied."""

    laplacian: np.ndarray
    labels: np.ndarray  # component of each vertex, named by its smallest vertex
    rows: np.ndarray  # (n, n - components)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        w, Q = np.linalg.eigh(self.laplacian)
        cutoff = DEFAULT_NULL_TOLERANCE * max(float(w[-1]), 0.0)
        return np.where(np.abs(w) <= cutoff, 0.0, w), Q

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigh[1]

    @property
    def null_count(self) -> int:
        return int(np.count_nonzero(self.eigenvalues == 0.0))

    def resistances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Effective resistances b^T L+ b for many (u, v) pairs at once; a
        pair across components reads a finite, meaningless number."""
        ends = np.array(pairs, dtype=int).reshape(-1, 2)
        d = self.rows[ends[:, 0]] - self.rows[ends[:, 1]]
        return np.square(d, out=d).sum(axis=1)


def pseudo_factorize(l: np.ndarray) -> PseudoinverseFactors:
    """Factor a Laplacian (see PseudoinverseFactors): a symmetric matrix with
    no positive off-diagonal cell whose rows sum to zero, so PSD. Anything
    else (non-square, asymmetric, possibly not PSD) raises ValueError."""
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {l.shape}")
    scale = max(1.0, float(np.abs(l).max()) if l.size else 0.0)
    # bitwise symmetry, which laplacian_from_arrays builds, is the cheap
    # test; only a matrix that fails it (a NaN cell does) takes the tolerance
    if not np.array_equal(l, l.T) and float(np.abs(l - l.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    if np.count_nonzero(l > 0.0) != np.count_nonzero(np.diagonal(l) > 0.0):
        raise ValueError("matrix is not a Laplacian: a positive off-diagonal cell")
    if not float(np.abs(l.sum(axis=1)).max()) <= DEFAULT_NULL_TOLERANCE * scale:
        raise ValueError("matrix is not a Laplacian: a row does not sum to zero")
    labels = _component_labels(l)
    free = labels != np.arange(len(l))  # ground each component's smallest vertex
    try:
        c_inv = _grounded_inverse(l, free)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"grounded matrix is not positive definite: {exc}") from exc
    rows = np.zeros((len(l), len(c_inv)))
    rows[free] = c_inv.T
    return PseudoinverseFactors(l, labels, rows)


@dataclass(frozen=True)
class ProjectionContext:
    """A connected reference graph and the factors of its Laplacian L. The
    instruments read congruences S A S by S = L^{-1/2} in L's eigenbasis, so
    S is never formed; ||v_e||^2 = a_e r_e, v_e = sqrt(a_e) S b_e, is leverages."""

    graph: WeightedGraph
    factors: PseudoinverseFactors

    @cached_property
    def leverages(self) -> np.ndarray:
        """Read-only a_e r_e = ||v_e||^2 of every reference edge, in edge
        order; computed on first use and kept with the context."""
        g = self.graph
        lev = g.weights() * self.factors.resistances([(e.u, e.v) for e in g.edges])
        lev.flags.writeable = False
        return lev

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Read-only B, the eigenvectors of L's nonzero eigenvalues over their
        square roots, so that S A S on range(L) is B' A B; computed on first
        use and kept with the context. As the eigen view's first read, it
        raises GraphConnectivityError unless exactly one eigenvalue is null."""
        if self.factors.null_count != 1:
            raise GraphConnectivityError(
                f"expected exactly one null eigenvalue, found {self.factors.null_count}"
            )
        lam = self.factors.eigenvalues
        nz = lam > 0.0
        b = self.factors.eigenvectors[:, nz] / np.sqrt(lam[nz])
        b.flags.writeable = False
        return b


def projection_context(g: WeightedGraph) -> ProjectionContext:
    """Build the projection context for a connected reference graph: its
    grounded factors, whose eigen view waits for its first read (see
    ProjectionContext.range_basis).

    Raises
    ------
    GraphConnectivityError
        If g is disconnected (the projection would have multiple null
        vectors and the spectral instruments are not defined).
    """
    if not is_connected(g):  # before the O(n^3) factor is paid
        raise GraphConnectivityError(
            "reference graph is disconnected; projection context undefined"
        )
    return ProjectionContext(g, pseudo_factorize(build_laplacian(g)))


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
            if tokens[0] == "n" and declared_n is None and not triples:  # the first data line
                if len(tokens) != 2:
                    raise ValueError(f"malformed size line {line!r}")
                declared_n = int(tokens[1])
                continue
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
