"""Laplacian, pseudoinverse, and projection-context behavior against
closed-form oracles and Moore-Penrose identities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from respark import graph as graph_mod
from respark.harness import GeneratorSpec, generate
from respark.graph import (
    Edge,
    GraphConnectivityError,
    ProjectionContext,
    WeightedGraph,
    build_laplacian,
    component_count,
    is_connected,
    laplacian_from_arrays,
    projection_context,
    pseudo_factorize,
    read_edge_list,
    write_edge_list,
)

K3 = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
C4 = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
P2 = WeightedGraph.from_edges(2, [(0, 1, 1.0)])


def _pinv(l):
    """Dense Moore-Penrose pseudoinverse Q diag(1/lambda) Q' over the
    nonzero eigenvalues of the Laplacian l."""
    lam, q = graph_mod._spectrum(l)
    nz = lam > 0
    return (q[:, nz] / lam[nz]) @ q[:, nz].T


def _edge_vectors(ctx):
    """Columns v_e = sqrt(a_e) S b_e of every reference edge, S the dense
    pseudoinverse square root Q diag(lambda^-1/2) Q' of the reference
    Laplacian's spectrum."""
    lam, q = graph_mod._spectrum(build_laplacian(ctx.graph))
    nz = lam > 0
    s = (q[:, nz] / np.sqrt(lam[nz])) @ q[:, nz].T
    us, vs = ctx.graph.u, ctx.graph.v
    return np.sqrt(ctx.graph.weight) * (s[:, us] - s[:, vs])


@st.composite
def connected_graphs(draw):
    # spanning tree by random parent choice, then extra edges on top
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        w = draw(st.floats(min_value=0.25, max_value=4.0))
        edges.append((u, v, w))
    extras = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extras):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        w = draw(st.floats(min_value=0.25, max_value=4.0))
        edges.append((u, v, w))
    return WeightedGraph.from_edges(n, edges)


def test_edge_validation():
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(0, 1, -2.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(0, ())
    for weight in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="edge 1: weight must be positive and finite"):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, weight)])


def _reference_validation(n, triples):
    """The per-edge loop the column checks replaced: the message of the
    first edge that breaks a rule, its endpoints checked first, else None."""
    for k, (u, v, a) in enumerate(triples):
        if not (-2**63 <= u < 2**63 and -2**63 <= v < 2**63):
            return f"edge {k}: endpoints ({u}, {v}) are not 64-bit integers"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {k}: endpoints ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"edge {k}: self-loop at vertex {u}"
        if not 0 < a < math.inf:
            return f"edge {k}: weight must be positive and finite, got {a}"
    return None


_ENDPOINTS = st.one_of(
    st.integers(-2, 7), st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1])
)
_WEIGHTS = st.one_of(
    st.floats(1e-3, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310]),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), triples=st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS, _WEIGHTS),
                                             max_size=6))
@example(n=3, triples=[(0, 1, 0.0), (0, 2**63, 1.0)])
@example(n=3, triples=[(0, 1, 1.0), (0, 2**63, math.nan)])
def test_column_checks_word_errors_as_the_per_edge_loop(n, triples):
    want = _reference_validation(n, triples)
    try:
        g = WeightedGraph.from_edges(n, triples)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert want is None
    assert g.edges == tuple(Edge(*t) for t in triples)


def test_columns_are_read_only_copies():
    u, v, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 0.5])
    g = WeightedGraph(3, u, v, w)
    u[0], v[0], w[0] = 2, 0, 9.0
    assert g.edges == (Edge(0, 1, 1.0), Edge(1, 2, 0.5))
    for column, given in zip((g.u, g.v, g.weight), (u, v, w)):
        assert not np.shares_memory(column, given)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert (g.u.dtype, g.v.dtype, g.weight.dtype) == (np.int64, np.int64, np.float64)
    assert g == WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)])
    assert g != WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.25)])
    assert g != WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.5)])
    with pytest.raises(ValueError, match="3 columns of one length"):
        WeightedGraph(3, u, v[:1], w)


@pytest.mark.parametrize(
    "u, v, want",
    [
        (np.array([0.7]), [1], r"edge 0: endpoints \(0.7, 1\) are not 64-bit integers"),
        ([0, 1], [1.0, 2.5], r"edge 1: endpoints \(1, 2.5\) are not 64-bit integers"),
        ([math.nan], [1], r"edge 0: endpoints \(nan, 1\) are not 64-bit integers"),
        ([0], [-math.inf], r"edge 0: endpoints \(0, -inf\) are not 64-bit integers"),
        ([1e19], [1], r"edge 0: endpoints \(1e\+19, 1\) are not 64-bit integers"),
        (np.array([2**63], np.uint64), [1], r"endpoints \(9223372036854775808, 1\) are not"),
        ([5, 0.5], [1, 2], r"edge 0: endpoints \(5, 1\) out of range for n=3"),
        # Python ints past 64 bits; an earlier bad edge is named first
        ([2**70], [1], r"edge 0: endpoints \(1180591620717411303424, 1\) are not 64-bit"),
        ([-1, 2**64], [1, 2], r"edge 0: endpoints \(-1, 1\) out of range for n=3"),
        ([0], [2**70], r"edge 0: endpoints \(0, 1180591620717411303424\) are not 64-bit"),
    ],
)
def test_endpoints_that_are_not_64_bit_integers_are_refused(u, v, want):
    # a cast would truncate them (or name NaN as -2**63, with a warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=want):
            WeightedGraph(3, u, v, np.ones(len(u)))


def test_from_edges_names_an_endpoint_past_64_bits_as_the_constructor_does():
    for edges, want in (
        ([(0, 1, 1.0), (2**64, 1, 1.0)], r"edge 1: endpoints \(18446744073709551616, 1\) are not"),
        ([(0, 1, 1.0), (-1, 1, 1.0), (0, 2**70, 1.0)], r"edge 1: endpoints \(-1, 1\) out of range"),
    ):
        with pytest.raises(ValueError, match=want):
            WeightedGraph.from_edges(3, edges)


def test_integral_endpoints_and_vertex_counts_of_any_type_are_taken_exactly():
    g = WeightedGraph(np.int64(3), [0.0, 1.0], np.array([2, 2], np.uint8), [1.0, 1.0])
    assert type(g.n) is int and g.n == 3
    assert g.u.tolist() == [0, 1] and g.v.tolist() == [2, 2]
    assert WeightedGraph(True, [], [], []).n == 1
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"vertex count must be an integer, got {n!r}"):
            WeightedGraph(n, [0], [1], [1.0])


def test_graph_accessors():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)])
    assert g.m == 3
    assert g.edges[1] == Edge(1, 2, 0.5)
    assert np.array_equal(g.weight, [1.0, 0.5, 2.0])
    assert g.prefix(2).edges == g.edges[:2]
    assert g.prefix(0).m == 0
    for count in (-1, 4):
        with pytest.raises(ValueError, match=f"prefix length {count} outside \\[0, 3\\]"):
            g.prefix(count)
    # kappa = sqrt(a_max / a_min) = sqrt(2 / 0.5) = 2
    assert g.kappa() == pytest.approx(2.0)
    assert WeightedGraph.from_edges(3, ()).kappa() == 1.0


def test_single_edge_laplacian():
    assert np.array_equal(build_laplacian(P2), [[1.0, -1.0], [-1.0, 1.0]])


def test_k3_laplacian():
    l = build_laplacian(K3)
    assert np.array_equal(np.diag(l), [2.0, 2.0, 2.0])
    off = l[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, [-1.0] * 6)


def test_duplicate_edges_add():
    g = WeightedGraph.from_edges(2, [(0, 1, 0.5), (0, 1, 0.5)])
    assert np.array_equal(build_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_build_laplacian_rejects_empty():
    with pytest.raises(ValueError):
        build_laplacian(WeightedGraph.from_edges(3, ()))


def test_an_overflowing_degree_names_its_vertex():
    # each weight is finite but vertex 1's two sum past the largest float;
    # the error names it, and NumPy's overflow warning does not escape
    g = WeightedGraph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weighted degree of vertex 1 is not finite"):
            build_laplacian(g)


def _one_shot_laplacian(n, us, vs, ws):
    # every row in one bincount, negated into a new array
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    cells = np.concatenate((lo * n + hi, hi * n + lo))
    l = 0.0 - np.bincount(cells, np.concatenate((ws, ws)), n * n).reshape(n, n)
    l.flat[:: n + 1] = np.bincount(lo, ws, n) + np.bincount(hi, ws, n)
    return l


# the row block laplacian_from_arrays once accumulated in; the tests below
# keep building past such blocks so that a split of the rows shows
_CHUNK = 2**15


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [2, 400])
def test_laplacian_in_chunks_has_the_bits_of_one_pass(n, chunk):
    # at most 30 distinct pairs, each repeated in both orientations, with
    # weights over 24 decades so that the order of each cell's additions
    # shows in its bits; the rows run past three blocks of `chunk` rows
    # (None: of _CHUNK rows)
    rows = 3 * _CHUNK + 5 if chunk is None else 200
    rng = np.random.default_rng(n)
    a = rng.integers(0, n, 30)
    b = (a + rng.integers(1, n, 30)) % n
    pick, flip = rng.integers(0, 30, rows), rng.random(rows) < 0.5
    us = np.where(flip, b[pick], a[pick])
    vs = np.where(flip, a[pick], b[pick])
    ws = np.exp(rng.uniform(-28.0, 28.0, rows))
    assert (us < vs).any() and (us > vs).any()
    l = laplacian_from_arrays(n, us, vs, ws)
    assert l.tobytes() == _one_shot_laplacian(n, us, vs, ws).tobytes()


@pytest.mark.parametrize("chunk", [None, 4])
def test_an_overflow_in_a_later_chunk_names_its_vertex(chunk):
    # a block of finite rows, then vertex 3's degree overflows in either
    # orientation
    first = _CHUNK if chunk is None else chunk
    us = np.array([0] * first + [3, 1], dtype=np.int64)
    vs = np.array([1] * first + [0, 3], dtype=np.int64)
    ws = np.array([1.0] * first + [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weighted degree of vertex 3 is not finite"):
            laplacian_from_arrays(4, us, vs, ws)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_laplacian_row_sums_and_psd(g):
    l = build_laplacian(g)
    a_max = g.weight.max()
    assert np.abs(l.sum(axis=1)).max() <= 1e-12 * a_max * g.n
    assert np.abs(l - l.T).max() == 0.0
    w = np.linalg.eigvalsh(l)
    assert w.min() >= -1e-10 * max(w.max(), 1.0)


def test_single_edge_pinv():
    # [[1,-1],[-1,1]] has nonzero eigenvalue 2 and pseudoinverse L/4
    l = build_laplacian(P2)
    assert graph_mod._spectrum(l)[0][-1] == pytest.approx(2.0)
    assert np.allclose(_pinv(l), l / 4.0, atol=1e-14)
    # the factors read the same pseudoinverse: r = b'(L/4)b = 1
    assert pseudo_factorize(l).resistances([(0, 1)]) == pytest.approx([1.0], abs=1e-14)


def test_k3_spectrum():
    lam, _ = graph_mod._spectrum(build_laplacian(K3))
    assert np.allclose(lam, [0.0, 3.0, 3.0], atol=1e-12)
    assert np.count_nonzero(lam == 0.0) == 1


def test_zero_matrix_factorizes_to_zero():
    # every vertex is its own component, so every vertex is grounded
    factors = pseudo_factorize(np.zeros((3, 3)))
    assert np.array_equal(factors.labels, np.arange(3)) and factors.rows.shape == (3, 0)
    assert np.array_equal(graph_mod._spectrum(np.zeros((3, 3)))[0], np.zeros(3))
    assert np.array_equal(_pinv(np.zeros((3, 3))), np.zeros((3, 3)))


def test_factors_hold_labels_and_rows_only():
    # the Laplacian is not kept past its factorisation, nor any eigen view
    assert [f.name for f in dataclasses.fields(graph_mod.PseudoinverseFactors)] == [
        "labels", "rows"]
    factors = pseudo_factorize(build_laplacian(C4))
    assert set(vars(factors)) == {"labels", "rows"}


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError, match="expected a square matrix, got shape \\(2, 3\\)"):
        pseudo_factorize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pseudo_factorize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pseudo_factorize(np.array([[-1.0, 0.0], [0.0, 1.0]]))
    # symmetric with a positive diagonal but indefinite: its rows do not sum to 0
    with pytest.raises(ValueError, match="does not sum to zero"):
        pseudo_factorize(np.array([[1.0, -1.0], [-1.0, 0.5]]))
    # PSD but no Laplacian, whose null space the grounding would misread
    with pytest.raises(ValueError, match="positive off-diagonal"):
        pseudo_factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("weight", [0.5, 1e3])
def test_symmetry_tolerance_is_relative_to_the_largest_cell(weight):
    # a matrix that is not bitwise symmetric still passes within 1e-12 of
    # max(1, largest cell), and a NaN cell still fails on its row sum
    l = build_laplacian(WeightedGraph.from_edges(4, [(u, v, weight) for u, v, _ in C4.edges]))
    scale = max(1.0, float(np.abs(l).max()))
    near = l.copy()
    near[0, 1] += 1e-13 * scale
    assert pseudo_factorize(near).rows.shape == (4, 3)
    far = l.copy()
    far[0, 1] += 1e-11 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        pseudo_factorize(far)
    nan = l.copy()
    nan[0, 1] = np.nan
    with pytest.raises(ValueError, match="does not sum to zero"):
        pseudo_factorize(nan)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_moore_penrose_identities(g):
    l = build_laplacian(g)
    plus = _pinv(l)
    # the factors read the same pseudoinverse
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    want = [plus[u, u] + plus[v, v] - 2 * plus[u, v] for u, v in pairs]
    assert np.allclose(pseudo_factorize(l).resistances(pairs), want, rtol=1e-8, atol=0)
    scale = np.linalg.norm(l)
    assert np.linalg.norm(l @ plus @ l - l) <= 1e-8 * scale
    assert np.linalg.norm(plus @ l @ plus - plus) <= 1e-8 * np.linalg.norm(plus)


def test_null_count_matches_components():
    two_triangles = WeightedGraph.from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )
    lam, _ = graph_mod._spectrum(build_laplacian(two_triangles))
    assert np.count_nonzero(lam == 0.0) == component_count(two_triangles) == 2
    factors = pseudo_factorize(build_laplacian(two_triangles))
    assert len(set(factors.labels.tolist())) == 2 and factors.rows.shape == (6, 4)
    assert not is_connected(two_triangles)


def test_connectivity_basics():
    assert is_connected(P2)
    assert not is_connected(WeightedGraph.from_edges(2, ()))
    assert component_count(WeightedGraph.from_edges(3, ())) == 3


@st.composite
def forests_with_extras(draw):
    """(n, forest, extras) on n vertices: a random spanning forest, where a
    vertex without a parent starts a new tree, and extra edges with repeated
    and reversed pairs. No extra edge touches the leaf that the forest's
    last edge attaches, so with the forest last no count is final before
    the last edge, and with it first a spanning tree ends the scan early."""
    n = draw(st.integers(1, 10))
    parents = [draw(st.none() | st.integers(0, v - 1)) for v in range(1, n)]
    forest = [(p, v, 1.0) for v, p in enumerate(parents, start=1) if p is not None]
    leaf = forest[-1][1] if forest else None
    extras = [(v, u, 1.0) for u, v, _ in forest[:-1] if draw(st.booleans())]
    others = [v for v in range(n) if v != leaf]
    if len(others) >= 2:
        pair = st.tuples(st.sampled_from(others), st.sampled_from(others))
        extras += [(u, v, 1.0) for u, v in draw(st.lists(pair, max_size=2 * n)) if u != v]
    return n, forest, draw(st.permutations(extras))


@settings(max_examples=200, deadline=None)
@given(forests_with_extras())
def test_component_count_matches_csgraph(case):
    n, forest, extras = case
    ends = np.array([(u, v) for u, v, _ in forest + extras], dtype=int).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    expected, _ = connected_components(adj, directed=False)
    for edges in (forest + extras, extras + forest):
        assert component_count(WeightedGraph.from_edges(n, edges)) == expected


def test_projection_for_single_edge():
    # n=2: P = v v' = I - ones/2
    v = _edge_vectors(projection_context(P2))
    assert np.allclose(v @ v.T, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_projection_invariants(g):
    # P = sum_e v_e v_e' is the projection onto range(L) = 1-perp
    v = _edge_vectors(projection_context(g))
    p = v @ v.T
    assert np.linalg.norm(p @ p - p, ord=2) < 1e-8
    assert np.trace(p) == pytest.approx(g.n - 1, abs=1e-8)
    assert np.abs(p @ np.ones(g.n)).max() < 1e-8


def test_projection_context_defers_the_eigendecomposition(monkeypatch):
    # the context builds nothing up front; eigh runs on the first read of
    # range_basis, once
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    ctx = projection_context(C4)
    assert calls == []
    assert ctx.range_basis.shape == (4, 3)
    assert ctx.range_basis is ctx.range_basis
    assert len(calls) == 1


def test_a_context_keeps_only_the_pieces_read_of_it():
    # the leverages are read off the factors, which the context keeps, and
    # the range basis off an eigendecomposition that it does not keep, with
    # the bits of those of a factorisation held apart; given factors are
    # read, not rebuilt
    g = generate(GeneratorSpec("erdos-renyi", 30, p=0.3, seed=4))
    ctx = projection_context(g)
    lev, b = ctx.leverages, ctx.range_basis
    assert set(vars(ctx)) == {"graph", "given", "factors", "leverages", "range_basis"}
    assert ctx.given is None
    factors = pseudo_factorize(build_laplacian(g))
    assert lev.tobytes() == (g.weight * factors.resistances(np.column_stack((g.u, g.v)))).tobytes()
    lam, q = graph_mod._spectrum(build_laplacian(g))
    nz = lam > 0.0
    assert b.tobytes() == (q[:, nz] / np.sqrt(lam[nz])).tobytes()
    given = ProjectionContext(g, factors)
    assert given.factors is factors
    assert given.leverages.tobytes() == lev.tobytes()


def test_leverages_read_the_factors_once_those_are_read(monkeypatch):
    # factors read first are kept and the leverages read them, with one
    # factorisation between the two and the bits of a context that read its
    # leverages first
    g = generate(GeneratorSpec("erdos-renyi", 30, p=0.3, seed=4))
    calls = []
    factorize = graph_mod.pseudo_factorize
    monkeypatch.setattr(graph_mod, "pseudo_factorize",
                        lambda l: calls.append(1) or factorize(l))
    ctx = projection_context(g)
    factors, lev = ctx.factors, ctx.leverages
    assert len(calls) == 1
    assert set(vars(ctx)) == {"graph", "given", "factors", "leverages"}
    assert ctx.factors is factors
    assert lev.tobytes() == projection_context(g).leverages.tobytes()


def test_projection_context_of_a_gap_below_the_null_tolerance(monkeypatch):
    # the path 0-1-2 with weights 1 and 1e-12 is connected, so its context is
    # built; its 1e-12 eigenvalue reads as null, so the range basis is refused
    spread = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1e-12)])
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", None)  # any eigh call would raise
    ctx = projection_context(spread)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(GraphConnectivityError, match="exactly one null eigenvalue, found 2"):
        ctx.range_basis


def test_projection_rejects_disconnected():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphConnectivityError):
        projection_context(g)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_edge_vector_norms_and_projection_sum(g):
    ctx = projection_context(g)
    vectors = _edge_vectors(ctx)
    pairs = [(e.u, e.v) for e in g.edges]
    resist = ctx.factors.resistances(pairs)
    # ||v_e||^2 = a_e r_e, and the v_e v_e' sum is I - 11'/n
    sq = (vectors * vectors).sum(axis=0)
    assert np.allclose(sq, g.weight * resist, atol=1e-9)
    assert np.allclose(sq, ctx.leverages, atol=1e-9)
    assert np.allclose(vectors @ vectors.T, np.eye(g.n) - 1.0 / g.n, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_resistance_sum_identity(g):
    factors = pseudo_factorize(build_laplacian(g))
    resist = factors.resistances([(e.u, e.v) for e in g.edges])
    assert (g.weight * resist).sum() == pytest.approx(g.n - 1, abs=1e-8 * g.n)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.integers(min_value=0, max_value=10**6))
def test_resistance_monotone_under_added_edge(g, pick):
    factors = pseudo_factorize(build_laplacian(g))
    pairs = [(e.u, e.v) for e in g.edges]
    before = factors.resistances(pairs)
    u = pick % g.n
    v = (pick // g.n) % g.n
    if u == v:
        v = (v + 1) % g.n
    bigger = WeightedGraph.from_edges(g.n, g.edges + (Edge(min(u, v), max(u, v), 1.0),))
    after = pseudo_factorize(build_laplacian(bigger)).resistances(pairs)
    assert np.all(after <= before + 1e-10)


def _whole_array_resistances(factors, pairs):
    """The unblocked read: every pair's factor-row difference held at once."""
    ends = np.array(pairs, dtype=int).reshape(-1, 2)
    d = factors.rows[ends[:, 0]] - factors.rows[ends[:, 1]]
    return np.square(d, out=d).sum(axis=1)


_BLOCK = graph_mod._RESISTANCE_BLOCK


@pytest.mark.parametrize("k", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_block_reads_give_the_whole_array_bits(k):
    # two random components and an isolated vertex: a factor grounded at 3 vertices
    a = generate(GeneratorSpec("erdos-renyi", 30, p=0.3, seed=2))
    b = generate(GeneratorSpec("erdos-renyi", 25, p=0.3, seed=3))
    g = WeightedGraph(56, np.concatenate((a.u, b.u + 30)), np.concatenate((a.v, b.v + 30)),
                      np.concatenate((a.weight, 0.5 + b.weight)))
    factors = pseudo_factorize(build_laplacian(g))
    assert len(factors.rows[0]) == g.n - 3
    ends = np.random.default_rng(k).integers(0, g.n, size=(k, 2))
    want = _whole_array_resistances(factors, ends)
    for pairs in (ends, ends.tolist(), [tuple(p) for p in ends.tolist()]):
        got = factors.resistances(pairs)
        assert got.dtype == np.float64 and got.shape == (k,)
        assert got.tobytes() == want.tobytes()


def test_leverages_are_read_in_bounded_memory(traced_peak):
    # all m = 3,983 edges at n = 400: the whole-array read holds two m x (n - 1)
    # float64 arrays, 25.4 MB; a block of rows holds under 1 MB. The context
    # is given its factors, so only the read is traced
    g = generate(GeneratorSpec("erdos-renyi", 400, p=0.05, seed=1))
    ctx = ProjectionContext(g, pseudo_factorize(build_laplacian(g)))
    lev, peak = traced_peak(lambda: ctx.leverages)
    assert lev.tobytes() == (g.weight * _whole_array_resistances(
        ctx.factors, np.column_stack((g.u, g.v)))).tobytes()
    assert peak < 3e6


def test_edge_list_roundtrip(tmp_path):
    g = WeightedGraph.from_edges(5, [(0, 1, 1.25), (1, 2, 0.5), (2, 3, 1.0)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path, comment="roundtrip fixture")
    back = read_edge_list(path)
    assert back.n == 5  # isolated vertex 4 survives via the n header
    assert back.edges == g.edges


def test_edge_list_without_header(tmp_path):
    path = tmp_path / "bare.edges"
    path.write_text("# comment\n0 1 1.0\n\n2 1 0.5\n")
    g = read_edge_list(path)
    assert g.n == 3
    # endpoint order comes straight from the file
    assert g.edges == (Edge(0, 1, 1.0), Edge(2, 1, 0.5))


def test_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n")
    with pytest.raises(ValueError, match="bad.edges:1"):
        read_edge_list(bad)
    worse = tmp_path / "worse.edges"
    worse.write_text("0 1 1.0\n1 2 oops\n")
    with pytest.raises(ValueError, match="worse.edges:2"):
        read_edge_list(worse)
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"0 1 1.0\n1 2 \xff\n")
    with pytest.raises(ValueError, match="binary.edges: .*can't decode"):
        read_edge_list(binary)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n 1_0\n0 1 1.0\n", 1),  # int() reads n = 10
        ("n ٣\n0 1 1.0\n", 1),  # int() reads n = 3
        ("0 1 1.0\n0 ٢ 1_0.5\n", 2),  # int() and float() read (0, 2) at 10.5
        ("# comment\n0 1 1.0\n1 2 ２.0\n", 3),  # a full-width digit
    ],
)
def test_edge_list_numbers_are_plain_ascii(tmp_path, text, lineno):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_edge_list(path)
    assert str(info.value).startswith(f"{path}:{lineno}: need plain ASCII numbers, got ")


def _reference_edge_list(lines):
    """The edge-list format read line by line: (n, triples), or raises
    ValueError holding the bad line's number (None for a bad graph), then any
    words the reader's message must hold. Numbers are ASCII without '_'."""

    def number(kind, tok):
        if not tok.isascii() or "_" in tok:
            raise ValueError(tok)
        return kind(tok)

    declared, triples, first = None, [], True
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            if first and tokens[0] == "n":
                if len(tokens) != 2:
                    raise ValueError
                declared = number(int, tokens[1])
            elif len(tokens) != 3:
                raise ValueError
            else:
                triples.append((number(int, tokens[0]), number(int, tokens[1]),
                                number(float, tokens[2])))
        except ValueError:
            raise ValueError(lineno) from None
        first = False
    if declared is None:
        if not triples:
            raise ValueError(None)
        declared = 1 + max(max(u, v) for u, v, _ in triples)
    if declared < 1:
        raise ValueError(None)
    for u, v, w in triples:
        # vertex ids are 64-bit integers, whatever n the file implies
        if not (-2**63 <= u < 2**63 and -2**63 <= v < 2**63):
            raise ValueError(None, f"endpoints ({u}, {v}) are not 64-bit integers")
        if not (0 <= u < declared and 0 <= v < declared and u != v and 0 < w < float("inf")):
            raise ValueError(None)
    return declared, triples


_EDGE_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["n", "x", "#", "#c", "1_0", "1e0", "+2", "007", "٣", "9" * 20]),
)
_EDGE_LINES = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(1e-3, 2.0)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]!r}"
    ),
    st.lists(_EDGE_TOKENS, min_size=1, max_size=4).map(" ".join),
    st.sampled_from(["", " \t", "# comment", "n 6", "n 2", "n 0", "n -1", "n x", "n", "n 2 3"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_EDGE_LINES, max_size=8))
@example(lines=["n x", "0 1 1.0"])
@example(lines=["n 3", "1 1 1.0"])
@example(lines=["n 3", "0 3 1.0"])
@example(lines=["0 1 nan"])
@example(lines=["n 0"])
@example(lines=["0 99999999999999999999 0.5"])
@example(lines=["n 99999999999999999999", "0 1 0.5"])
@example(lines=["n 1_0", "0 1 0.5"])
@example(lines=["0 ٢ 1_0.5"])
def test_edge_list_fuzz_matches_reference(tmp_path_factory, lines):
    # every input reads to the reference graph or fails naming the file
    path = tmp_path_factory.mktemp("fuzz") / "g.edges"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        n, triples = _reference_edge_list(lines)
    except ValueError as ref_exc:
        lineno, *words = ref_exc.args
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        where = f"{path}:{lineno}: " if lineno else f"{path}: "
        assert str(info.value).startswith(where), str(info.value)
        assert all(w in str(info.value) for w in words), str(info.value)
        return
    g = read_edge_list(path)
    assert g.n == n
    assert g.edges == tuple(Edge(u, v, w) for u, v, w in triples)
