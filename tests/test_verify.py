"""The four run instruments (spectral sandwich, projection error, copy
count, quadratic variation) and the dominance machinery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from respark import verify as verify_mod
from respark.graph import (
    GraphConnectivityError,
    ProjectionContext,
    WeightedGraph,
    _grounded_inverse,
    _lower_inverse,
    _spectrum,
    build_laplacian,
    laplacian_from_arrays,
    projection_context,
    pseudo_factorize,
)
from respark.harness import GeneratorSpec, generate
from respark.sparsify import (
    Sparsifier,
    StreamConfig,
    StreamTrace,
    indicator_stream,
    stream_sparsify,
)
from respark.tape import RandomTape
from respark.verify import (
    DIAGNOSTICS_COLUMNS,
    DiagnosticsRecord,
    dkw_epsilon,
    dominance_check,
    projection_error,
    quadratic_variation,
    read_diagnostics,
    sample_dominating_w0_batch,
    spectral_check,
    write_diagnostics,
)

K3 = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
C4 = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


def _scaled(g, c):
    return WeightedGraph.from_edges(g.n, [(e.u, e.v, c * e.weight) for e in g.edges])


def _cfg(g, seed=0, budget=50, eps=0.5):
    return StreamConfig.for_graph(g, eps, 0.1, 1.0, seed=seed, budget_override=budget)


# ---------------------------------------------------------------------------
# spectral check


def test_spectral_check_identity():
    ok, worst = spectral_check(K3, K3, eps=0.5)
    assert ok
    assert worst == pytest.approx(0.0, abs=1e-12)


def test_spectral_check_measures_scale():
    # scaling every weight by c makes every ratio c, so worst = |c - 1|
    ok, worst = spectral_check(_scaled(C4, 1.3), C4, eps=0.25)
    assert not ok
    assert worst == pytest.approx(0.3, abs=1e-12)
    ok, worst = spectral_check(_scaled(C4, 1.3), C4, eps=0.31)
    assert ok


def test_spectral_check_boundary_slack():
    # exactly (1+eps) L_G sits on the boundary and must pass
    ok, worst = spectral_check(_scaled(C4, 1.5), C4, eps=0.5)
    assert ok
    assert worst == pytest.approx(0.5, abs=1e-12)


def test_spectral_check_empty_sparsifier_fails():
    empty = Sparsifier.empty(K3, _cfg(K3, budget=5))
    ok, worst = spectral_check(empty, K3, eps=0.5)
    assert not ok
    assert worst == pytest.approx(1.0, abs=1e-12)


def test_spectral_check_validation():
    with pytest.raises(ValueError, match="vertex counts"):
        spectral_check(K3, C4, eps=0.5)
    with pytest.raises(ValueError, match="eps"):
        spectral_check(K3, K3, eps=-0.1)
    with pytest.raises(ValueError, match="eps"):
        spectral_check(K3, K3, eps=math.nan)
    disconnected = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphConnectivityError):
        spectral_check(disconnected, disconnected, eps=0.5)
    # connected, but the 1e-12 eigenvalue reads as null at the first spectral read
    spread = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1e-12)])
    with pytest.raises(GraphConnectivityError, match="exactly one null eigenvalue, found 2"):
        spectral_check(spread, projection_context(spread), eps=0.5)
    # h is read through n and merged_columns() alone
    with pytest.raises(AttributeError, match="merged_columns"):
        spectral_check(SimpleNamespace(n=3), K3, eps=0.5)
    with pytest.raises(AttributeError, match="merged_columns"):
        projection_error(SimpleNamespace(n=3), K3)


def test_instruments_read_a_sparsifier_without_building_a_graph(monkeypatch):
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    h, _ = stream_sparsify(g, _cfg(g, seed=9, budget=400), block_size=10,
                           resistance_mode="exact", diagnostics=False)
    built = []
    check = WeightedGraph.__post_init__
    monkeypatch.setattr(WeightedGraph, "__post_init__", lambda self: built.append(check(self)))
    spectral_check(h, g, 0.5)
    projection_error(h, g)
    assert built == []
    # the spy sees a graph that is built
    WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    assert built == [None]


def test_spectral_check_with_a_given_context():
    # a context the caller already holds stands for its graph and gives the
    # same bits as the one the check builds itself
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    h, _ = stream_sparsify(g, _cfg(g, seed=9, budget=400), block_size=10,
                           resistance_mode="exact", diagnostics=False)
    ctx = projection_context(g)
    assert spectral_check(h, ctx, 0.5) == spectral_check(h, g, 0.5)
    with pytest.raises(ValueError, match="vertex counts"):
        spectral_check(K3, ctx, 0.5)


# ---------------------------------------------------------------------------
# projection error


def test_projection_error_zero_for_exact_reconstruction():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=3))
    h, _ = stream_sparsify(g, _cfg(g, budget=6), block_size=4,
                           resistance_mode="nodrop", diagnostics=False)
    assert projection_error(h, g) <= 1e-10


def test_projection_error_of_one_dropped_edge():
    # removing edge e without reweighting subtracts v_e v_e', whose norm is
    # the leverage a_e r_e; on C4 that is 3/4
    three = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    err = projection_error(three, C4)
    assert err == pytest.approx(3 / 4, abs=1e-10)


def test_projection_error_vertex_mismatch():
    with pytest.raises(ValueError, match="vertex counts"):
        projection_error(K3, C4)


@pytest.mark.parametrize("n, p", [(40, 0.25), (400, 0.05)])
def test_projection_error_reads_the_grounded_inverse_off_a_context(monkeypatch, n, p):
    # rows[1:].T of a connected reference's factors is C^-1 grounded at
    # vertex 0, bit for bit, and so are the congruence and the norm the
    # formed pencil takes with it; no eigh is run. The crossover is raised
    # to n, so the pencil is formed at 400 vertices too (the top-end read
    # above the crossover is tested below)
    monkeypatch.setattr(verify_mod, "_LANCZOS_ABOVE", n)
    g = generate(GeneratorSpec("erdos-renyi", n, p=p, seed=1234))
    rng = np.random.default_rng(n)
    h = WeightedGraph.from_edges(
        n, [(e.u, e.v, e.weight * rng.uniform(0.5, 2.0)) for e in g.edges if rng.random() < 0.6]
    )
    l_g = build_laplacian(g)
    ctx = ProjectionContext(g, pseudo_factorize(l_g))
    c_inv, read = _grounded_inverse(l_g, np.arange(n) > 0), ctx.factors.rows[1:].T
    assert np.array_equal(read, c_inv)
    l_h = build_laplacian(h)[1:, 1:]
    assert np.array_equal(read @ l_h @ read.T, c_inv @ l_h @ c_inv.T)
    want = float(np.abs(1.0 - np.linalg.eigvalsh(c_inv @ l_h @ c_inv.T)).max())
    monkeypatch.setattr(np.linalg, "eigh", None)  # any eigh call would raise
    assert projection_error(h, ctx) == projection_error(h, g) == want
    with pytest.raises(ValueError, match="vertex counts"):
        projection_error(K3, ctx)


def test_projection_error_needs_a_connected_reference():
    disconnected = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphConnectivityError):
        projection_error(disconnected, disconnected)
    # a context of a disconnected graph, as a stream prefix's grounded
    # factors can be, is refused on its component labels
    grounded = ProjectionContext(disconnected, pseudo_factorize(build_laplacian(disconnected)))
    with pytest.raises(GraphConnectivityError, match="projection error undefined"):
        projection_error(disconnected, grounded)


def _inv_sqrt(g):
    """The dense pseudoinverse square root S = Q diag(lambda^-1/2) Q' of the
    reference Laplacian L_G, over its nonzero eigenvalues."""
    lam, q = _spectrum(build_laplacian(g))
    q = q[:, lam > 0]
    return (q / np.sqrt(lam[lam > 0])) @ q.T


def _congruence_error(h, g):
    """(||P - S L_H S||, condition number of L_G on range(L_G)), both from the
    eigendecomposition of L_G: P from the eigenvectors of its nonzero
    eigenvalues, S its pseudoinverse square root."""
    lam, q = _spectrum(build_laplacian(g))
    q = q[:, lam > 0]
    s = _inv_sqrt(g)
    m_mat = s @ h.laplacian() @ s
    return float(np.abs(np.linalg.eigvalsh(q @ q.T - m_mat)).max()), lam[-1] / lam[1]


@st.composite
def references_and_sparsifiers(draw, lo, hi):
    """(g, h): a connected g on lo..hi vertices with weights in [1e-3, 1], a
    repeated and a reversed pair, and h a reweighted subset of g's edges
    in which some vertices lose every edge (so h may be disconnected)."""
    n = draw(st.integers(lo, hi))
    weights = st.floats(1e-3, 1.0)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weights)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(weights)))
    u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
    edges += [(u, v, draw(weights)), (v, u, draw(weights))]
    g = WeightedGraph.from_edges(n, edges)
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 10)))
    kept = [(e.u, e.v, e.weight * draw(st.floats(0.25, 4.0))) for e in g.edges
            if e.u not in isolated and e.v not in isolated and draw(st.booleans())]
    us, vs, ws = (np.array(col) for col in zip(*kept)) if kept else (
        np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    h = SimpleNamespace(n=n, merged_columns=lambda: (us, vs, ws),
                        laplacian=lambda: laplacian_from_arrays(n, us, vs, ws))
    return g, h


def _formed_pencil(h, ctx):
    """(norm, top eigenvalue) of the formed grounded pencil (L_H, L_G): the
    bits projection_error returns at or below the crossover."""
    lam = verify_mod._pencil_eigenvalues(ctx.factors.rows, h.laplacian())
    return float(np.abs(1.0 - lam).max()), float(lam[-1])


def _top_end_read(h, ctx):
    """Above the crossover, assert that a lambda_max >= 2 read agrees with
    the formed pencil to 1e-12 relative and that a smaller one gives its
    bits exactly; return lambda_max."""
    got, (dense, top) = projection_error(h, ctx), _formed_pencil(h, ctx)
    if top < 2.0:
        assert got == dense
    else:
        assert abs(got - dense) <= 1e-12 * dense
    return top


# n - 1 grounded rows: the base case of the triangular inverse, then one and
# two levels of its recursion, then above the crossover (_LANCZOS_ABOVE)
@pytest.mark.parametrize("lo, hi", [(2, 49), (50, 97), (99, 130), (257, 300)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_projection_error_matches_the_congruence(lo, hi, data):
    g, h = data.draw(references_and_sparsifiers(lo, hi))
    want, cond = _congruence_error(h, g)
    # S carries the rounding of L_G's small eigenvalues, so the reference
    # itself is off by up to about eps cond ||S L_H S||: at cond 9,233 it
    # was 1.8e-12 relative from a 40-digit value, the pencil 9.8e-14
    slack = 8 * np.finfo(float).eps * cond * (1.0 + want)
    assert abs(projection_error(h, g) - want) <= 1e-12 * want + 1e-12 + slack
    if g.n > verify_mod._LANCZOS_ABOVE:
        # h takes either branch; g with every weight scaled into [2, 4] has
        # every lambda there, so Lanczos answers, and into [2/3, 3/2] every
        # lambda below 2, so the formed pencil does
        ctx = projection_context(g)
        _top_end_read(h, ctx)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for lo_scale, hi_scale, branch in ((2.0, 4.0, True), (2 / 3, 1.5, False)):
            k = WeightedGraph(g.n, g.u, g.v, g.weight * rng.uniform(lo_scale, hi_scale, g.m))
            assert (_top_end_read(k, ctx) >= 2.0) == branch


def test_projection_error_of_an_empty_sparsifier_is_one():
    # no copy survives: L_H = 0, every lambda is 0, so the error is exactly
    # 1, at or below the crossover and above it, where Lanczos reads 0.0
    for n in (40, 300):
        g = generate(GeneratorSpec("erdos-renyi", n, p=0.1, seed=n))
        assert projection_error(Sparsifier.empty(g, _cfg(g, budget=20)), g) == 1.0


def test_an_edgeless_h_reads_exactly_one():
    # a graph without edges and a sparsifier without copies both have
    # L_H = 0, so every ratio and every pencil eigenvalue is 0: both
    # instruments read exactly 1.0, at or below the crossover and above it
    for n in (12, 300):
        g = generate(GeneratorSpec("erdos-renyi", n, p=0.5 if n == 12 else 0.1, seed=n))
        for h in (WeightedGraph(n, [], [], []), Sparsifier.empty(g, _cfg(g, budget=20))):
            assert projection_error(h, g) == 1.0
            assert spectral_check(h, g, eps=0.5) == (False, 1.0)


def test_projection_error_forms_no_pencil_when_lambda_max_reaches_2(monkeypatch):
    # above the crossover a lambda_max >= 2 is read by Lanczos, whose
    # eigh runs on its small tridiagonal: no (n - 1) x (n - 1) eigenproblem
    g = generate(GeneratorSpec("erdos-renyi", 300, p=0.05, seed=1234))
    h, _ = stream_sparsify(g, _cfg(g, seed=9, budget=200), block_size=1000,
                           resistance_mode="exact", diagnostics=False)
    dense, top = _formed_pencil(h, projection_context(g))
    assert top >= 2.0
    sizes = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, f=original: sizes.append(len(a)) or f(a))
    got = projection_error(h, g)
    assert sizes and max(sizes) < g.n - 1
    assert abs(got - dense) <= 1e-12 * dense


@pytest.mark.parametrize("k", [47, 49, 97, 99, 201])
def test_lower_inverse_matches_a_general_inverse(k):
    a = np.random.default_rng(k).standard_normal((k, k))
    c = np.linalg.cholesky(a @ a.T + k * np.eye(k))
    got = _lower_inverse(c)
    assert np.abs(got - np.linalg.inv(c)).max() <= 1e-12 * np.abs(got).max()
    assert np.abs(got @ c - np.eye(k)).max() <= 1e-12


def test_projection_error_agrees_with_spectral_worst():
    # for a sparsifier built from subsets of g's edges the two instruments
    # measure the same deviation
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    h, _ = stream_sparsify(g, _cfg(g, seed=9, budget=400), block_size=10,
                           resistance_mode="exact", diagnostics=False)
    proj = projection_error(h, g)
    _, worst = spectral_check(h, g, eps=0.5)
    assert worst == pytest.approx(proj, abs=1e-9)


# ---------------------------------------------------------------------------
# quadratic variation


def _single_edge_trace(p_after):
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    trace = StreamTrace(
        graph=g,
        budget_n=1,
        arrived=[0, 1],
        p_steps=[np.ones(1), np.array([p_after])],
        alive_steps=[np.ones(1), np.ones(1)],
    )
    return g, trace


def test_quadratic_variation_hand_value():
    # one copy, one edge, p: 1 -> 1/2. W = (1/1)(1)(2 - 1) ||v||^2 v v',
    # and ||v||^2 = a r = 1, so ||W|| = 1
    g, trace = _single_edge_trace(0.5)
    w = quadratic_variation(trace, projection_context(g))
    assert w == pytest.approx(1.0, abs=1e-10)


def test_quadratic_variation_zero_without_drops():
    g = generate(GeneratorSpec("path", 6))
    _, _, trace = indicator_stream(g, _cfg(g, budget=5), block_size=2,
                                   resistance_mode="nodrop", diagnostics=False,
                                   record_copies=False)
    assert quadratic_variation(trace, projection_context(g)) == 0.0


def test_quadratic_variation_nondecreasing_in_upto():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=2))
    _, _, trace = indicator_stream(g, _cfg(g, seed=4, budget=40), block_size=5,
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    values = [quadratic_variation(trace, ctx, upto=s) for s in range(trace.steps + 1)]
    assert values[0] == 0.0
    for prev, cur in zip(values, values[1:]):
        assert cur >= prev - 1e-12


@pytest.mark.parametrize("upto", [1.5, 1.0, "1", [1], True])
def test_quadratic_variation_takes_only_an_integer_upto(upto):
    g, trace = _single_edge_trace(0.5)
    ctx = projection_context(g)
    with pytest.raises(ValueError, match="upto must be an integer"):
        quadratic_variation(trace, ctx, upto=upto)
    # NumPy integers are integers
    for whole in (np.int64(1), np.uint8(1)):
        assert quadratic_variation(trace, ctx, upto=whole) == quadratic_variation(trace, ctx, 1)


def test_quadratic_variation_validation():
    g, trace = _single_edge_trace(0.5)
    ctx = projection_context(g)
    with pytest.raises(ValueError, match="outside the recorded range"):
        quadratic_variation(trace, ctx, upto=2)
    with pytest.raises(ValueError, match="outside the recorded range"):
        quadratic_variation(trace, ctx, upto=-1)
    with pytest.raises(ValueError, match="does not match"):
        quadratic_variation(trace, projection_context(K3))
    trace.p_steps.pop()
    with pytest.raises(ValueError, match="incomplete trace"):
        quadratic_variation(trace, ctx)
    # a context from another graph with the same n and m
    _, _, c4_trace = indicator_stream(C4, _cfg(C4, seed=3, budget=3), block_size=2,
                                      resistance_mode="exact", diagnostics=False)
    assert quadratic_variation(c4_trace, projection_context(C4)) == pytest.approx(0.75)
    star = WeightedGraph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="does not match"):
        quadratic_variation(c4_trace, projection_context(star))


def _variation_coefficients(trace, leverages, upto):
    """c_e of W = sum_e c_e v_e v_e' through step `upto`, given ||v_e||^2."""
    coeff = np.zeros(trace.graph.m)
    for s in range(1, upto + 1):
        p_prev, p_cur = trace.p_steps[s - 1], trace.p_steps[s]
        delta = np.clip(1.0 / p_cur - 1.0 / p_prev, 0.0, None)
        coeff += (trace.alive_steps[s - 1] / p_prev) * delta
    return coeff * leverages / trace.budget_n**2


def _reference_variation(trace, ctx, upto):
    """W = V diag(c) V' from the n x m matrix of edge vectors
    v_e = sqrt(a_e) S b_e, as the variation was first computed."""
    s = _inv_sqrt(ctx.graph)
    us, vs = ctx.graph.u, ctx.graph.v
    vectors = np.sqrt(ctx.graph.weight) * (s[:, us] - s[:, vs])
    coeff = _variation_coefficients(trace, (vectors * vectors).sum(axis=0), upto)
    w_mat = (vectors * coeff) @ vectors.T
    return float(max(np.linalg.eigvalsh(w_mat).max(), 0.0))


@st.composite
def multigraphs(draw):
    """Connected graphs on 3-10 vertices with at least one repeated pair
    and at least one edge stored as (u, v) with u > v."""
    n = draw(st.integers(3, 10))
    weights = st.floats(0.25, 1.0)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weights)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(weights)))
    u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
    edges.append((u, v, draw(weights)))  # the same pair again
    edges.append((v, u, draw(weights)))  # and once more, reversed
    order = draw(st.permutations(range(len(edges))))
    return WeightedGraph.from_edges(n, [edges[k] for k in order])


@settings(max_examples=40, deadline=None)
@given(g=multigraphs(), seed=st.integers(0, 2**32), budget=st.integers(2, 40), data=st.data())
def test_laplacian_form_matches_edge_vector_form(g, seed, budget, data):
    block = data.draw(st.integers(1, g.m))
    _, _, trace = indicator_stream(g, _cfg(g, seed=seed, budget=budget), block_size=block,
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    for upto in range(trace.steps + 1):
        want = _reference_variation(trace, ctx, upto)
        got = quadratic_variation(trace, ctx, upto=upto)
        assert abs(got - want) <= 1e-12 * want, (upto, got, want)


def _dense_laplacian(n, triples):
    """Laplacian summed edge by edge from (u, v, weight) triples."""
    l = np.zeros((n, n))
    for u, v, w in triples:
        l[u, u] += w
        l[v, v] += w
        l[u, v] -= w
        l[v, u] -= w
    return l


def _pencil_eigenvalues(a, l_g):
    """Eigenvalues of the pencil (A, L_G) with vertex 0 grounded, where L_G
    is positive definite: on range(L_G) they are those of S A S, S the
    pseudoinverse square root of L_G. scipy solves the pencil without L_G's
    eigenbasis."""
    return scipy.linalg.eigh(a[1:, 1:], l_g[1:, 1:], eigvals_only=True)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spectral_check_matches_the_grounded_pencil(data):
    g, h = data.draw(references_and_sparsifiers(2, 40))
    l_g = _dense_laplacian(g.n, g.edges)
    want = float(np.abs(_pencil_eigenvalues(h.laplacian(), l_g) - 1.0).max())
    _, worst = spectral_check(h, g, eps=0.5)
    # relative to ||S L_H S||, at most 1 + worst: an h equal to g has worst 0
    # up to rounding
    assert abs(worst - want) <= 1e-10 * (1.0 + want), (worst, want)


def _pencil_variation(trace, upto):
    """||W|| as the top eigenvalue of the grounded pencil (L_c, L_G), with
    the leverages a_e b_e' L_G^+ b_e from a grounded solve: nothing of
    respark's factors or range basis is read."""
    g = trace.graph
    l_g = _dense_laplacian(g.n, g.edges)
    inv = np.zeros((g.n, g.n))  # L_G^+ up to the null space, grounded at vertex 0
    inv[1:, 1:] = scipy.linalg.solve(l_g[1:, 1:], np.eye(g.n - 1), assume_a="pos")
    us, vs = g.u, g.v
    lev = g.weight * (inv[us, us] + inv[vs, vs] - inv[us, vs] - inv[vs, us])
    coeff = _variation_coefficients(trace, lev, upto)
    l_c = _dense_laplacian(g.n, zip(us, vs, g.weight * coeff))
    return max(float(_pencil_eigenvalues(l_c, l_g).max()), 0.0)


@settings(max_examples=40, deadline=None)
@given(g=multigraphs(), seed=st.integers(0, 2**32), budget=st.integers(2, 40), data=st.data())
def test_quadratic_variation_matches_the_grounded_pencil(g, seed, budget, data):
    block = data.draw(st.integers(1, g.m))
    _, _, trace = indicator_stream(g, _cfg(g, seed=seed, budget=budget), block_size=block,
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    for upto in range(trace.steps + 1):
        want = _pencil_variation(trace, upto)
        got = quadratic_variation(trace, ctx, upto=upto)
        assert abs(got - want) <= 1e-10 * want, (upto, got, want)


@settings(max_examples=30, deadline=None)
@given(multigraphs())
def test_leverages_are_cached_and_read_only(g):
    ctx = projection_context(g)
    lev = ctx.leverages
    want = g.weight * ctx.factors.resistances([(e.u, e.v) for e in g.edges])
    assert np.allclose(lev, want, rtol=1e-12, atol=0)
    assert ctx.leverages is lev
    assert not lev.flags.writeable
    with pytest.raises(ValueError):
        lev[0] = 0.0


def test_quadratic_variation_stays_under_analysis_bound():
    # ||W|| <= 9 alpha^2 n ln(kappa n) / N, here 9*16*ln(16)/500
    g = generate(GeneratorSpec("erdos-renyi", 16, p=0.4, seed=0))
    bound = 9.0 * 16.0 * math.log(16.0) / 500.0
    ctx = projection_context(g)
    for seed in range(10):
        _, _, trace = indicator_stream(g, _cfg(g, seed=seed, budget=500),
                                       block_size=8, resistance_mode="exact",
                                       diagnostics=False, record_copies=False)
        assert quadratic_variation(trace, ctx) <= bound


# ---------------------------------------------------------------------------
# the variation above the Lanczos crossover

_K = verify_mod._LANCZOS_ABOVE


def _multi_edge_graph(n, seed):
    """A connected ER graph on n vertices with some pairs repeated, some
    reversed, so that L_c adds parallel edges."""
    g = generate(GeneratorSpec("erdos-renyi", n, p=0.05, seed=seed))
    pick = np.arange(0, g.m, 7)
    return WeightedGraph(
        n,
        np.concatenate((g.u, g.u[pick], g.v[pick[::2]])),
        np.concatenate((g.v, g.v[pick], g.u[pick[::2]])),
        np.concatenate((g.weight, 0.5 * g.weight[pick], 0.25 * g.weight[pick[::2]])),
    )


def _dense_variation(trace, upto, monkeypatch):
    """quadratic_variation on the dense path, whatever the graph's size."""
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_LANCZOS_ABOVE", trace.graph.n)
        return quadratic_variation(trace, projection_context(trace.graph), upto=upto)


# The barbell's top eigenvalue is ill-conditioned: at its first step W is
# about 9 while the weights of L_c sum to about 37,000, over potentials that
# nearly cancel on the clique edges. There the dense path and Lanczos, both
# on the grounded factor, read 9.000000000024 and agree to 1.2e-14 relative;
# the pencil reference reads 9.000000000015, 1.0e-12 off them, against a
# 50-digit Rayleigh quotient of 9.0000000000123. So every graph holds the two
# paths to 1e-12 of each other, and the barbell is held to the 1e-10 of the
# small-graph pencil test against the reference, every other graph to 1e-12.
@pytest.mark.parametrize("mode", ["exact", "sparsifier"])
@pytest.mark.parametrize("g, rtol", [
    (generate(GeneratorSpec("cycle", _K + 8)), 1e-12),
    (generate(GeneratorSpec("complete", _K + 1)), 1e-12),
    (generate(GeneratorSpec("barbell", _K + 16)), 1e-10),
    (_multi_edge_graph(_K + 20, seed=3), 1e-12),
], ids=["cycle", "complete", "barbell", "multi-edges"])
def test_lanczos_variation_matches_the_dense_path_and_the_pencil(g, rtol, mode, monkeypatch):
    _, _, trace = indicator_stream(g, _cfg(g, seed=11, budget=30), block_size=-(-g.m // 3),
                                   resistance_mode=mode, diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    for upto in range(1, trace.steps + 1):
        got = quadratic_variation(trace, ctx, upto=upto)
        assert got > 0.0
        dense = _dense_variation(trace, upto, monkeypatch)
        pencil = _pencil_variation(trace, upto)
        assert abs(got - dense) <= 1e-12 * dense, (upto, got, dense)
        assert abs(got - pencil) <= rtol * pencil, (upto, got, pencil)
    # the Lanczos path read the factors and never built a range basis
    assert "factors" in vars(ctx) and "range_basis" not in vars(ctx)


@pytest.mark.parametrize("g", [
    generate(GeneratorSpec("path", 200)),
    generate(GeneratorSpec("barbell", 120)),
], ids=["path", "barbell"])
def test_dense_variation_matches_the_pencil(g):
    # below the crossover the grounded factor reads the path to 3.4e-13 of
    # the pencil reference and the barbell to 1.5e-13; the range basis read
    # them to 4.2e-12 and 1.1e-12, scaling round-off by 1/sqrt of L_G's
    # small eigenvalues
    assert g.n <= _K
    _, _, trace = indicator_stream(g, _cfg(g, seed=11, budget=30), block_size=-(-g.m // 3),
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    for upto in range(1, trace.steps + 1):
        got = quadratic_variation(trace, ctx, upto=upto)
        want = _pencil_variation(trace, upto)
        assert abs(got - want) <= 1e-12 * want, (upto, got, want)
    assert "range_basis" not in vars(ctx)


@settings(max_examples=40, deadline=None)
@given(g=multigraphs(), seed=st.integers(0, 2**32), budget=st.integers(2, 40), data=st.data())
def test_lanczos_on_small_graphs_matches_the_edge_vector_form(g, seed, budget, data):
    # with the crossover moved below every graph, Lanczos runs on operators
    # of dimension 2 to 9, where its n - 1 step cap and an exhausted Krylov
    # space end most runs
    block = data.draw(st.integers(1, g.m))
    _, _, trace = indicator_stream(g, _cfg(g, seed=seed, budget=budget), block_size=block,
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_mod, "_LANCZOS_ABOVE", 0)
        for upto in range(trace.steps + 1):
            want = _reference_variation(trace, ctx, upto)
            got = quadratic_variation(trace, ctx, upto=upto)
            assert abs(got - want) <= 1e-12 * want, (upto, got, want)
    assert "range_basis" not in vars(ctx)


@pytest.mark.parametrize("n", [_K, _K + 1])
def test_variation_at_the_crossover_matches_the_pencil(n):
    g = generate(GeneratorSpec("erdos-renyi", n, p=0.05, seed=n))
    _, _, trace = indicator_stream(g, _cfg(g, seed=2, budget=40), block_size=-(-g.m // 4),
                                   resistance_mode="exact", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    got = quadratic_variation(trace, ctx)
    want = _pencil_variation(trace, trace.steps)
    assert abs(got - want) <= 1e-12 * want, (got, want)
    # n = K takes the dense path and n = K + 1 the Lanczos path, both on the
    # grounded factor, so neither builds a range basis
    assert "range_basis" not in vars(ctx)
    assert "factors" in vars(ctx)


def test_lanczos_variation_of_a_zero_w_is_exactly_zero():
    # nodrop keeps every p at 1, so every coefficient is 0.0 and W = 0
    g = generate(GeneratorSpec("erdos-renyi", _K + 4, p=0.05, seed=5))
    _, _, trace = indicator_stream(g, _cfg(g, budget=10), block_size=-(-g.m // 3),
                                   resistance_mode="nodrop", diagnostics=False,
                                   record_copies=False)
    ctx = projection_context(g)
    for upto in range(trace.steps + 1):
        w = quadratic_variation(trace, ctx, upto=upto)
        assert np.float64(w).tobytes() == np.float64(0.0).tobytes()


def _variation_of_a_cut_path(n):
    """The variation against a context built around projection_context's
    check: the path on n vertices without its first edge, vertex 0 alone."""
    g = generate(GeneratorSpec("path", n))
    cut = WeightedGraph(g.n, g.u[1:], g.v[1:], g.weight[1:])
    _, _, trace = indicator_stream(cut, _cfg(cut, budget=10), block_size=cut.m,
                                   resistance_mode="nodrop", diagnostics=False,
                                   record_copies=False)
    return quadratic_variation(trace, ProjectionContext(cut))


def test_lanczos_variation_needs_a_connected_reference():
    # the factors name two components, and the variation is refused
    with pytest.raises(GraphConnectivityError, match="disconnected; variation undefined"):
        _variation_of_a_cut_path(_K + 2)


def test_dense_variation_needs_a_connected_reference():
    # the dense path reads the same factors and refuses with the same message
    with pytest.raises(GraphConnectivityError, match="disconnected; variation undefined"):
        _variation_of_a_cut_path(_K - 2)


def test_lanczos_variation_repeats_its_bits():
    # a fixed start vector: a second call in the same process, on a new
    # context and after other eigensolver calls, gives the same bits
    g = generate(GeneratorSpec("erdos-renyi", _K + 40, p=0.05, seed=9))
    _, _, trace = indicator_stream(g, _cfg(g, seed=4, budget=50), block_size=-(-g.m // 5),
                                   resistance_mode="sparsifier", diagnostics=False,
                                   record_copies=False)
    first = [quadratic_variation(trace, projection_context(g), upto=s)
             for s in range(trace.steps + 1)]
    np.linalg.eigh(np.diag(np.arange(5.0)))
    RandomTape(0).labeled("lanczos", g.n - 1)
    again = [quadratic_variation(trace, projection_context(g), upto=s)
             for s in range(trace.steps + 1)]
    assert np.array(first).tobytes() == np.array(again).tobytes()


# ---------------------------------------------------------------------------
# copy count


def test_count_event_empty():
    g = generate(GeneratorSpec("path", 4))
    cfg = _cfg(g, budget=10)
    count = Sparsifier.empty(g, cfg).copy_count()
    record = DiagnosticsRecord.from_measurements(0, count, math.nan, 0.0, cfg)
    assert (record.copy_count, record.b_event) == (0, False)


def test_count_event_overflow_threshold():
    # nodrop keeps every copy, so the count is arrived * N and crosses 3N
    # exactly when the third block lands
    g = generate(GeneratorSpec("path", 7))
    cfg = _cfg(g, budget=5)
    _, records = stream_sparsify(g, cfg, block_size=2, resistance_mode="nodrop",
                                 diagnostics=True)
    seen = [(r.copy_count, r.b_event) for r in records]
    assert seen == [(10, False), (20, True), (30, True)]


def test_count_mean_matches_survival_probabilities():
    # every copy of edge e survives with probability p_final(e); in exact
    # mode that probability is the same for every seed
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.5, seed=6))
    N, trials = 150, 60
    counts, p_final = [], None
    for seed in range(trials):
        h, _ = stream_sparsify(g, _cfg(g, seed=seed, budget=N), block_size=g.m,
                               resistance_mode="exact", diagnostics=False)
        counts.append(h.copy_count())
        ps = np.array([h.p_tilde[e] for e in range(g.m)])
        if p_final is None:
            p_final = ps
        else:
            assert np.array_equal(ps, p_final)
    expected = N * p_final.sum()
    se = math.sqrt(N * float((p_final * (1 - p_final)).sum()) / trials)
    assert abs(np.mean(counts) - expected) <= 3 * se


# ---------------------------------------------------------------------------
# dominating variable


def test_w0_support_and_truncation():
    tape = RandomTape(3)
    values = sample_dominating_w0_batch(0.04, 1.2, tape, 1000)
    cap = 1.2**2 / 0.04
    assert np.all(values >= 1.0)
    assert np.all(values <= cap)
    # the truncation atom is actually reachable
    assert values.max() > 0.5 * cap or values.max() == cap


def test_w0_degenerate_point_mass():
    values = sample_dominating_w0_batch(1.0, 1.0, RandomTape(0), 100)
    assert np.all(values == 1.0)


def test_w0_mean_matches_closed_form():
    # E[1/w0] = 1 + ln(alpha^2 / p) for the truncated c.d.f. 1 - 1/a
    tape = RandomTape(7)
    values = sample_dominating_w0_batch(0.01, 1.0, tape, 100_000)
    assert np.mean(values) == pytest.approx(1 + math.log(100.0), rel=0.02)


def test_w0_cdf_point():
    # P(1/w0 <= 2) = 1/2 whenever the cap exceeds 2
    values = sample_dominating_w0_batch(0.01, 1.0, RandomTape(11), 100_000)
    frac = float(np.mean(values <= 2.0))
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 100_000)


def test_w0_reproducible_and_indexed():
    a = sample_dominating_w0_batch(0.2, 1.5, RandomTape(9), 50)
    b = sample_dominating_w0_batch(0.2, 1.5, RandomTape(9), 50)
    assert np.array_equal(a, b)
    # a shorter request, here of a NumPy count, reads a prefix of the same stream
    assert sample_dominating_w0_batch(0.2, 1.5, RandomTape(9), np.int64(4))[3] == a[3]


def test_w0_parameter_validation():
    tape = RandomTape(0)
    with pytest.raises(ValueError):
        sample_dominating_w0_batch(0.0, 1.0, tape, 10)
    with pytest.raises(ValueError):
        sample_dominating_w0_batch(1.5, 1.0, tape, 10)
    with pytest.raises(ValueError):
        sample_dominating_w0_batch(0.5, 0.9, tape, 10)
    with pytest.raises(ValueError):
        sample_dominating_w0_batch(0.5, 1.0, tape, 0)
    with pytest.raises(ValueError, match="p_te"):
        sample_dominating_w0_batch(math.nan, 1.0, tape, 10)
    with pytest.raises(ValueError, match="alpha"):
        sample_dominating_w0_batch(0.5, math.nan, tape, 10)
    for count in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_dominating_w0_batch(0.5, 1.0, tape, count)


# ---------------------------------------------------------------------------
# dominance


def test_dkw_epsilon_closed_form():
    assert dkw_epsilon(10_000, 0.999) == pytest.approx(
        math.sqrt(math.log(2000.0) / 20_000.0)
    )
    with pytest.raises(ValueError):
        dkw_epsilon(0, 0.999)
    with pytest.raises(ValueError):
        dkw_epsilon(100, 1.0)


def test_dominance_identical_sets():
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 3.0, 20_000)
    assert dominance_check(x, x.copy())


def test_dominance_clear_cases():
    rng = np.random.default_rng(1)
    low = rng.uniform(1.0, 2.0, 20_000)
    high = low + 5.0
    # the larger variable dominates the smaller, not the reverse
    assert dominance_check(low, high)
    assert not dominance_check(high, low)


def test_dominance_same_distribution_fresh_draws():
    rng = np.random.default_rng(2)
    a = rng.exponential(1.0, 15_000) + 1.0
    b = rng.exponential(1.0, 15_000) + 1.0
    assert dominance_check(a, b)


def test_dominance_sample_floor():
    x = np.ones(100)
    with pytest.raises(ValueError, match="at least 10000"):
        dominance_check(x, x)


# ---------------------------------------------------------------------------
# diagnostics records


def test_from_measurements_events():
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=10)
    r = DiagnosticsRecord.from_measurements(1, 20, 0.49, 0.01, cfg)
    assert (r.a_event, r.b_event) == (False, False)
    r = DiagnosticsRecord.from_measurements(1, 20, 0.5, 0.01, cfg)
    assert r.a_event
    r = DiagnosticsRecord.from_measurements(1, 30, float("nan"), 0.01, cfg)
    assert not r.a_event
    assert r.b_event
    assert DiagnosticsRecord.from_measurements(1, 29, 0.0, 0.0, cfg).b_event is False
    with pytest.raises(ValueError):
        DiagnosticsRecord.from_measurements(1, 5, -0.1, 0.0, cfg)
    with pytest.raises(ValueError):
        DiagnosticsRecord.from_measurements(1, 5, 0.1, -1e-9, cfg)
    # NaN fails no `w < 0` test; a NaN variation must not reach a record
    with pytest.raises(ValueError, match="w_norm must be non-negative, got nan"):
        DiagnosticsRecord.from_measurements(1, 5, 0.1, math.nan, cfg)


def _records_equal(a, b):
    assert (a.step, a.copy_count, a.budget_n) == (b.step, b.copy_count, b.budget_n)
    assert (a.a_event, a.b_event) == (b.a_event, b.b_event)
    assert a.w_norm == b.w_norm
    if math.isnan(a.proj_error_norm):
        assert math.isnan(b.proj_error_norm)
    else:
        assert a.proj_error_norm == b.proj_error_norm


def test_diagnostics_csv_round_trip(tmp_path):
    records = [
        DiagnosticsRecord(1, 20, 0.2512345678901234, 0.017, 10, False, False),
        DiagnosticsRecord(2, 31, float("nan"), 0.021, 10, False, True),
        DiagnosticsRecord(3, 18, 0.51, 0.03, 10, True, False),
    ]
    path = tmp_path / "diag.csv"
    write_diagnostics(records, path)
    first = path.read_text().splitlines()[0]
    assert first == ",".join(DIAGNOSTICS_COLUMNS)
    loaded = read_diagnostics(path)
    assert len(loaded) == 3
    for a, b in zip(records, loaded):
        _records_equal(a, b)


def test_read_diagnostics_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,copy_count\n1,2\n")
    with pytest.raises(ValueError, match="missing diagnostics columns"):
        read_diagnostics(path)


@pytest.mark.parametrize(
    "row, error",
    [
        ("1,20,0.25,0.017,10,false", "column b_event: no cell"),
        ("1,20,0.25,0.017,10,false,false,7", "more cells than columns"),
        ("1,20,0.25,x,10,false,false", "column w_norm: could not convert"),
        ("1,2.5,0.25,0.017,10,false,false", "column copy_count: invalid literal"),
        ("1,20,0.25,0.017,10,maybe,false", "column a_event: expected true or false, got 'maybe'"),
        ("1,20,0.25,0.017,10,false,1", "column b_event: expected true or false, got '1'"),
        ("1,20,0.25,0.017,10,,false", "column a_event: expected true or false, got ''"),
    ],
    ids=["short", "long", "float", "int", "word-bool", "digit-bool", "empty-bool"],
)
def test_read_diagnostics_names_the_bad_cell(tmp_path, row, error):
    # the second data row is on line 3
    path = tmp_path / "bad.csv"
    good = "1,20,0.25,0.017,10,false,true"
    path.write_text(f"{','.join(DIAGNOSTICS_COLUMNS)}\n{good}\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_diagnostics(path)
    assert str(info.value).startswith(f"{path}:3: {error}")


def test_stream_records_are_writable(tmp_path):
    g = generate(GeneratorSpec("erdos-renyi", 9, p=0.5, seed=4))
    _, records = stream_sparsify(g, _cfg(g, seed=3, budget=60), block_size=5,
                                 resistance_mode="exact")
    assert records
    path = tmp_path / "run.csv"
    write_diagnostics(records, path)
    loaded = read_diagnostics(path)
    for a, b in zip(records, loaded):
        _records_equal(a, b)
