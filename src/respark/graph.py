"""Weighted graphs, Laplacians, pseudoinverses, and projection contexts.

A pseudoinverse is kept as the inverse Cholesky factor of the Laplacian
grounded at one vertex per component, off which every resistance, the
projection error and the variation are read; no Laplacian is kept past that
read. A Laplacian's eigenbasis is taken in one place, _spectrum, for the
range basis the spectral check reads.

Everything downstream (resistance estimation, resparsification, the
verification instruments) consumes the objects defined here. All types here
are immutable after construction and all operations are pure functions, so
they are safe to share across threads. That does not extend to the random
tape (respark.tape), which re-keys one generator on every call: each thread
draws from its own.
"""

from __future__ import annotations

import math
import operator
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
_ENDPOINT_ERROR = "edge {}: endpoints ({}, {}) out of range for n={}"
_NOT_INT64_ERROR = "edge {}: endpoints ({}, {}) are not 64-bit integers"


def _int64_column(values) -> tuple[np.ndarray, np.ndarray]:
    """(values as given, values cast to int64). Python numbers are kept
    exact (NumPy reads [1, 2**63] as floats); a value outside int64, NaN
    included, casts to one it is not equal to, so the caller names it."""
    given = np.asarray(values)
    if given.dtype == object or given.dtype.kind == "f" and not isinstance(values, np.ndarray):
        given = np.array(values, dtype=object)
        cast = [x if -2**63 <= x < 2**63 else -1 for x in given.flat]
        return given, np.array(cast, np.int64).reshape(given.shape)
    with np.errstate(invalid="ignore"):  # a NaN or inf endpoint is named by the caller
        return given, np.array(given, np.int64)


def _integer(name: str, value, error: type[ValueError] = ValueError) -> int:
    """value by operator.index: NumPy integers pass, a float (truncated) or string raises error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class GraphConnectivityError(ValueError):
    """An operation that needs a connected reference graph got a disconnected one."""


class Edge(NamedTuple):
    u: int
    v: int
    weight: float


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph as read-only per-edge columns: int64
    endpoints u, v in [0, n) and a finite float64 weight > 0, copied and
    checked on construction, which names the first bad edge (its endpoints
    checked first, then a self-loop, then its weight); an endpoint that is
    not a 64-bit integer is refused, not truncated. The edge order is the
    stream order; duplicate (u, v) pairs remain distinct stream items and
    add in the Laplacian. edges, the Edge triples for callers that iterate,
    is built on first read. Graphs are equal when n and every column are."""

    n: int
    u: np.ndarray
    v: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        n = _integer("vertex count", self.n)
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        given, (u, v) = zip(*map(_int64_column, (self.u, self.v)))
        w = np.array(self.weight, float)
        if not u.ndim == 1 or not u.shape == v.shape == w.shape:
            raise ValueError(f"need 3 columns of one length, got {u.shape} {v.shape} {w.shape}")
        object.__setattr__(self, "n", n)
        for name, column in (("u", u), ("v", v), ("weight", w)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        bad_end = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if not all(np.can_cast(c.dtype, np.int64) for c in given):  # else the cast is exact
            bad_end |= (u != given[0]) | (v != given[1])
        bad = bad_end | (u == v) | ~((0.0 < w) & (w < math.inf))
        if bad.any():
            k = int(bad.argmax())
            if (u[k], v[k]) != (given[0][k], given[1][k]):
                raise ValueError(_NOT_INT64_ERROR.format(k, given[0][k], given[1][k]))
            if bad_end[k]:
                raise ValueError(_ENDPOINT_ERROR.format(k, u[k], v[k], n))
            if u[k] == v[k]:
                raise ValueError(f"edge {k}: self-loop at vertex {int(u[k])}")
            raise ValueError(f"edge {k}: weight must be positive and finite, got {float(w[k])}")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]]
    ) -> "WeightedGraph":
        """A graph of (u, v, weight) triples, each converted by int() and float()."""
        triples = [(int(u), int(v), float(a)) for u, v, a in edges]
        u, v, a = zip(*triples) if triples else ((), (), ())
        return cls(n, u, v, a)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedGraph) and self.n == other.n and all(map(
            np.array_equal, (self.u, self.v, self.weight), (other.u, other.v, other.weight)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.u.tolist(), self.v.tolist(), self.weight.tolist()))

    @property
    def m(self) -> int:
        return len(self.u)

    def prefix(self, count: int) -> "WeightedGraph":
        """The partial graph formed by the first `count` stream items."""
        if not 0 <= count <= self.m:
            raise ValueError(f"prefix length {count} outside [0, {self.m}]")
        return WeightedGraph(self.n, self.u[:count], self.v[:count], self.weight[:count])

    def merged_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, weight): the columns the instruments read L_H from."""
        return self.u, self.v, self.weight

    def laplacian(self) -> np.ndarray:
        return build_laplacian(self)

    def kappa(self) -> float:
        """Weight-spread parameter sqrt(a_max / a_min)."""
        if not self.m:
            return 1.0
        return float(np.sqrt(self.weight.max() / self.weight.min()))


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
    return laplacian_from_arrays(g.n, g.u, g.v, g.weight)


def laplacian_from_arrays(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """Laplacian of an edge multiset given as parallel index/weight arrays.

    Each canonical (min, max) pair's mass is summed in edge order into both
    of its off-diagonal cells by one bincount, so the result is bitwise
    symmetric regardless of edge orientation. The temporaries are O(m)
    beside the n x n result.
    """
    if not len(ws):
        return np.zeros((n, n))
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    cells = np.concatenate((lo * n + hi, hi * n + lo))
    with np.errstate(over="ignore"):  # reported below, naming the vertex
        L = np.bincount(cells, np.concatenate((ws, ws)), n * n)
        degree = np.bincount(lo, ws, n) + np.bincount(hi, ws, n)
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
    off = d_inv @ c[h:, :h]
    off = np.negative(off, out=off) @ a_inv
    out = np.zeros_like(c)  # after the blocks, so no product is alive beside it
    out[:h, :h] = a_inv
    out[h:, :h] = off
    out[h:, h:] = d_inv
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
    # a slice copies less; either way nothing holds the grounded matrix
    # while its factor is inverted
    c = np.linalg.cholesky(l[1:, 1:] if free[1:].all() else l[np.ix_(free, free)])
    return _lower_inverse(c)


_RESISTANCE_BLOCK = 64  # pairs whose factor-row differences are held at once


def _spectrum(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Laplacian l, ascending, with those at most
    DEFAULT_NULL_TOLERANCE * lambda_max set to 0.0, and its eigenvectors."""
    w, q = np.linalg.eigh(l)
    cutoff = DEFAULT_NULL_TOLERANCE * max(float(w[-1]), 0.0)
    return np.where(np.abs(w) <= cutoff, 0.0, w), q


@dataclass(frozen=True)
class PseudoinverseFactors:
    """A Laplacian's pseudoinverse as a grounded Cholesky factor, and no more:
    the Laplacian it was read from is not kept. Grounded at one vertex per
    component, L is positive definite, C C'; rows[v] is C^-1's column of
    vertex v (zero if grounded), so b'L+b for u, v in one component is
    ||rows[u] - rows[v]||^2."""

    labels: np.ndarray  # component of each vertex, named by its smallest vertex
    rows: np.ndarray  # (n, n - components)

    def resistances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Effective resistances b^T L+ b for many (u, v) pairs at once; a
        pair across components reads a finite, meaningless number. The row
        differences are formed _RESISTANCE_BLOCK pairs at a time, so the
        temporaries stay O(block n); each pair's row is still one sum."""
        ends = np.array(pairs, dtype=int).reshape(-1, 2)
        out = np.empty(len(ends))
        for start in range(0, len(ends), _RESISTANCE_BLOCK):
            u, v = ends[start:start + _RESISTANCE_BLOCK].T
            d = self.rows[u] - self.rows[v]
            np.square(d, out=d).sum(axis=1, out=out[start:start + _RESISTANCE_BLOCK])
        return out


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
    return PseudoinverseFactors(labels, rows)


@dataclass(frozen=True)
class ProjectionContext:
    """A connected reference graph and what the instruments read of its
    Laplacian L, each piece built from the graph on its first read and kept:
    factors, L's grounded factors (projection_error and the variation read
    them); leverages, read off factors (the variation reads them);
    range_basis (spectral_check reads it). No piece keeps what it was built
    from, so a context keeps only what was read of it: one that has served
    the variation holds its factors and leverages and no eigenvector matrix.
    given holds grounded factors the caller has already made, read instead
    of a new factorisation: a stream's prefix reference makes the one
    factorisation that its exact estimates and projection_error share. The
    instruments read congruences S A S by S = L^{-1/2} in L's eigenbasis or
    through the grounded factor, so S is never formed; ||v_e||^2 = a_e r_e,
    v_e = sqrt(a_e) S b_e, is leverages."""

    graph: WeightedGraph
    given: PseudoinverseFactors | None = None

    @cached_property
    def factors(self) -> PseudoinverseFactors:
        """The factors given, else a new factorisation of the graph's Laplacian."""
        if self.given is not None:
            return self.given
        return pseudo_factorize(build_laplacian(self.graph))

    @cached_property
    def leverages(self) -> np.ndarray:
        """Read-only a_e r_e = ||v_e||^2 of every reference edge, in edge
        order, read off factors."""
        g = self.graph
        lev = g.weight * self.factors.resistances(np.column_stack((g.u, g.v)))
        lev.flags.writeable = False
        return lev

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Read-only B, the eigenvectors of L's nonzero eigenvalues over their
        square roots, so that S A S on range(L) is B' A B. Its eigh (see
        _spectrum) is not kept. Raises GraphConnectivityError unless exactly
        one eigenvalue is null."""
        lam, q = _spectrum(build_laplacian(self.graph))
        nulls = int(np.count_nonzero(lam == 0.0))
        if nulls != 1:
            raise GraphConnectivityError(f"expected exactly one null eigenvalue, found {nulls}")
        nz = lam > 0.0
        b = q[:, nz]
        b /= np.sqrt(lam[nz])  # in place: q and b are the only n x n arrays held
        b.flags.writeable = False
        return b


def projection_context(g: WeightedGraph) -> ProjectionContext:
    """The projection context of a connected reference graph; each piece
    waits for its first read (see ProjectionContext).

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
    return ProjectionContext(g)


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
    for u, v in zip(g.u.tolist(), g.v.tolist()):
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
    otherwise n = max id + 1. Numbers are ASCII without '_'. A bad line
    raises ValueError starting 'path:lineno:'; text that is not UTF-8, or a
    graph that WeightedGraph rejects, one starting 'path:'.
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
            if not all(tok.isascii() and "_" not in tok for tok in tokens):
                raise ValueError(f"need plain ASCII numbers, got {line!r}")
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
