"""Laplacian, pseudoinverse, and projection-context behavior against
closed-form oracles and Moore-Penrose identities."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from respark import graph as graph_mod
from respark.graph import (
    Edge,
    GraphConnectivityError,
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


def _pinv(factors):
    """Dense Moore-Penrose pseudoinverse Q diag(1/lambda) Q' over the
    nonzero eigenvalues of the factors."""
    nz = factors.eigenvalues > 0
    q = factors.eigenvectors[:, nz]
    return (q / factors.eigenvalues[nz]) @ q.T


def _edge_vectors(ctx):
    """Columns v_e = sqrt(a_e) S b_e of every reference edge, S the dense
    pseudoinverse square root Q diag(lambda^-1/2) Q' built from ctx.factors."""
    nz = ctx.factors.eigenvalues > 0
    q = ctx.factors.eigenvectors[:, nz]
    s = (q / np.sqrt(ctx.factors.eigenvalues[nz])) @ q.T
    us, vs = ctx.graph.endpoints()
    return np.sqrt(ctx.graph.weights()) * (s[:, us] - s[:, vs])


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
        WeightedGraph(0, ())
    for weight in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="edge 1: weight must be positive and finite"):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, weight)])


def test_graph_accessors():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)])
    assert g.m == 3
    assert g.edges[1] == Edge(1, 2, 0.5)
    assert np.array_equal(g.weights(), [1.0, 0.5, 2.0])
    assert g.prefix(2).edges == g.edges[:2]
    assert g.prefix(0).m == 0
    for count in (-1, 4):
        with pytest.raises(ValueError, match=f"prefix length {count} outside \\[0, 3\\]"):
            g.prefix(count)
    # kappa = sqrt(a_max / a_min) = sqrt(2 / 0.5) = 2
    assert g.kappa() == pytest.approx(2.0)
    assert WeightedGraph(3, ()).kappa() == 1.0


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
        build_laplacian(WeightedGraph(3, ()))


def test_an_overflowing_degree_names_its_vertex():
    # each weight is finite but vertex 1's two sum past the largest float;
    # the error names it, and NumPy's overflow warning does not escape
    g = WeightedGraph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weighted degree of vertex 1 is not finite"):
            build_laplacian(g)


def _one_shot_laplacian(n, us, vs, ws):
    # every row in one bincount: the Laplacian of a single chunk
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    cells = np.concatenate((lo * n + hi, hi * n + lo))
    l = 0.0 - np.bincount(cells, np.concatenate((ws, ws)), n * n).reshape(n, n)
    l.flat[:: n + 1] = np.bincount(lo, ws, n) + np.bincount(hi, ws, n)
    return l


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [2, 400])
def test_laplacian_in_chunks_has_the_bits_of_one_pass(monkeypatch, n, chunk):
    # at most 30 distinct pairs, each repeated in both orientations, with
    # weights over 24 decades so that the order of each cell's additions
    # shows in its bits
    rows = 3 * graph_mod._LAPLACIAN_CHUNK + 5 if chunk is None else 200
    if chunk is not None:
        monkeypatch.setattr(graph_mod, "_LAPLACIAN_CHUNK", chunk)
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
def test_an_overflow_in_a_later_chunk_names_its_vertex(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(graph_mod, "_LAPLACIAN_CHUNK", chunk)
    first = graph_mod._LAPLACIAN_CHUNK
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
    a_max = g.weights().max()
    assert np.abs(l.sum(axis=1)).max() <= 1e-12 * a_max * g.n
    assert np.abs(l - l.T).max() == 0.0
    w = np.linalg.eigvalsh(l)
    assert w.min() >= -1e-10 * max(w.max(), 1.0)


def test_single_edge_pinv():
    # [[1,-1],[-1,1]] has nonzero eigenvalue 2 and pseudoinverse L/4
    l = build_laplacian(P2)
    factors = pseudo_factorize(l)
    assert factors.eigenvalues[-1] == pytest.approx(2.0)
    assert np.allclose(_pinv(factors), l / 4.0, atol=1e-14)


def test_k3_spectrum():
    factors = pseudo_factorize(build_laplacian(K3))
    assert np.allclose(factors.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    assert factors.null_count == 1


def test_zero_matrix_factorizes_to_zero():
    factors = pseudo_factorize(np.zeros((3, 3)))
    assert np.array_equal(factors.eigenvalues, np.zeros(3))
    assert np.array_equal(_pinv(factors), np.zeros((3, 3)))


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
    plus = _pinv(pseudo_factorize(l))
    scale = np.linalg.norm(l)
    assert np.linalg.norm(l @ plus @ l - l) <= 1e-8 * scale
    assert np.linalg.norm(plus @ l @ plus - plus) <= 1e-8 * np.linalg.norm(plus)


def test_null_count_matches_components():
    two_triangles = WeightedGraph.from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )
    factors = pseudo_factorize(build_laplacian(two_triangles))
    assert factors.null_count == component_count(two_triangles) == 2
    assert not is_connected(two_triangles)


def test_connectivity_basics():
    assert is_connected(P2)
    assert not is_connected(WeightedGraph(2, ()))
    assert component_count(WeightedGraph(3, ())) == 3


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
    # the context holds the grounded factor; eigh runs on the first read of
    # range_basis, once
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    ctx = projection_context(C4)
    assert calls == []
    assert ctx.range_basis.shape == (4, 3)
    assert ctx.range_basis is ctx.range_basis
    assert len(calls) == 1


def test_projection_context_of_a_gap_below_the_null_tolerance(monkeypatch):
    # the path 0-1-2 with weights 1 and 1e-12 is connected, so its context is
    # built; its 1e-12 eigenvalue reads as null, so the eigen view is refused
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
    assert np.allclose(sq, g.weights() * resist, atol=1e-9)
    assert np.allclose(sq, ctx.leverages, atol=1e-9)
    assert np.allclose(vectors @ vectors.T, np.eye(g.n) - 1.0 / g.n, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_resistance_sum_identity(g):
    factors = pseudo_factorize(build_laplacian(g))
    resist = factors.resistances([(e.u, e.v) for e in g.edges])
    assert (g.weights() * resist).sum() == pytest.approx(g.n - 1, abs=1e-8 * g.n)


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
    bigger = WeightedGraph(g.n, g.edges + (Edge(min(u, v), max(u, v), 1.0),))
    after = pseudo_factorize(build_laplacian(bigger)).resistances(pairs)
    assert np.all(after <= before + 1e-10)


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


def _reference_edge_list(lines):
    """The edge-list format read line by line: (n, triples), or raises
    ValueError holding the bad line's number (None for a bad graph)."""
    declared, triples, first = None, [], True
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            if first and tokens[0] == "n":
                if len(tokens) != 2:
                    raise ValueError
                declared = int(tokens[1])
            elif len(tokens) != 3:
                raise ValueError
            else:
                triples.append((int(tokens[0]), int(tokens[1]), float(tokens[2])))
        except ValueError:
            raise ValueError(lineno) from None
        first = False
    if declared is None:
        if not triples:
            raise ValueError(None)
        declared = 1 + max(max(u, v) for u, v, _ in triples)
    if declared < 1 or not all(
        0 <= u < declared and 0 <= v < declared and u != v and 0 < w < float("inf")
        for u, v, w in triples
    ):
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
def test_edge_list_fuzz_matches_reference(tmp_path_factory, lines):
    # every input reads to the reference graph or fails naming the file
    path = tmp_path_factory.mktemp("fuzz") / "g.edges"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        n, triples = _reference_edge_list(lines)
    except ValueError as ref_exc:
        lineno = ref_exc.args[0]
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        where = f"{path}:{lineno}: " if lineno else f"{path}: "
        assert str(info.value).startswith(where), str(info.value)
        return
    g = read_edge_list(path)
    assert g.n == n
    assert g.edges == tuple(Edge(u, v, w) for u, v, w in triples)
