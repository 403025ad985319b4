"""Resistance estimators against series-parallel closed forms and the
dense pseudoinverse oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from respark.graph import (
    GraphConnectivityError,
    WeightedGraph,
    _spectrum,
    build_laplacian,
    pseudo_factorize,
)
from respark.resistance import (
    ResistanceEstimate,
    exact_resistance,
    exact_resistances,
    inject_alpha_noise,
    resistances_from_sparsifier,
)
from respark.sparsify import StreamConfig, stream_sparsify
from respark.tape import RandomTape
from respark.verify import spectral_check

K3 = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
C4 = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


def _factors(g):
    return pseudo_factorize(build_laplacian(g))


def test_k3_edge_resistance():
    # direct edge in parallel with a 2-edge path: 1/(1 + 1/2) = 2/3
    est = exact_resistance(_factors(K3), (0, 1))
    assert est.r_tilde == pytest.approx(2 / 3, abs=1e-10)
    assert est.alpha == 1.0


def test_c4_edge_resistance():
    # edge in parallel with the 3-edge detour: 1/(1 + 1/3) = 3/4
    for e in C4.edges:
        est = exact_resistance(_factors(C4), (e.u, e.v))
        assert est.r_tilde == pytest.approx(3 / 4, abs=1e-10)


def test_tree_edge_resistance_is_inverse_weight():
    star = WeightedGraph.from_edges(4, [(0, 1, 2.0), (0, 2, 0.5), (0, 3, 4.0)])
    factors = _factors(star)
    for e in star.edges:
        est = exact_resistance(factors, (e.u, e.v))
        assert est.r_tilde == pytest.approx(1 / e.weight, abs=1e-10)


def test_weighted_triangle_closed_form():
    # r_e = 1/(a_e + 1/(1/a_f + 1/a_g)) for the two other triangle edges f, g
    tri = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    factors = _factors(tri)
    a = {frozenset((e.u, e.v)): e.weight for e in tri.edges}
    for e in tri.edges:
        others = [w for k, w in a.items() if k != frozenset((e.u, e.v))]
        expected = 1.0 / (e.weight + 1.0 / (1.0 / others[0] + 1.0 / others[1]))
        assert exact_resistance(factors, (e.u, e.v)).r_tilde == pytest.approx(
            expected, abs=1e-12
        )


def test_complete_graph_resistance():
    # K_n unit weights: r = 2/n between any pair
    n = 5
    kn = WeightedGraph.from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    )
    est = exact_resistance(_factors(kn), (1, 3))
    assert est.r_tilde == pytest.approx(2 / n, abs=1e-10)


def test_batch_matches_single():
    factors = _factors(C4)
    pairs = [(e.u, e.v) for e in C4.edges]
    batch = exact_resistances(factors, pairs, edge_ids=[0, 1, 2, 3])
    for edge_id, (est, pair) in enumerate(zip(batch, pairs)):
        assert est.edge_id == edge_id
        assert est.r_tilde == exact_resistance(factors, pair).r_tilde
        assert est.alpha == 1.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        ResistanceEstimate(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ResistanceEstimate(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        ResistanceEstimate(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        inject_alpha_noise([], 0.9, 0)
    # NaN fails every comparison, so it must fail the guards too
    with pytest.raises(ValueError, match="accuracy parameter"):
        ResistanceEstimate(0, 1.0, math.nan)
    with pytest.raises(ValueError, match="alpha"):
        inject_alpha_noise([], math.nan, 0)


def test_cross_component_query_errors():
    two = WeightedGraph.from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )
    factors = _factors(two)
    with pytest.raises(GraphConnectivityError):
        exact_resistance(factors, (0, 3))
    # a batch names its first cross-component pair in input order
    batch = [(0, 1), (3, 4), (4, 1), (2, 5), (5, 3)]
    with pytest.raises(GraphConnectivityError, match=r"endpoints \(4, 1\) lie in different"):
        exact_resistances(factors, batch)
    # within one component the query is fine even though the graph is not connected
    assert exact_resistance(factors, (3, 4)).r_tilde == pytest.approx(2 / 3, abs=1e-10)


def test_wide_weight_spread_stays_connected():
    # the path 0-1-2 with weights 1 and 1e-12: its small eigenvalue, about
    # 1e-12 of the largest, is not a second component
    path = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1e-12)])
    ests = exact_resistances(_factors(path), [(0, 1), (1, 2)])
    assert [e.r_tilde for e in ests] == [
        pytest.approx(1.0, rel=1e-9), pytest.approx(1e12, rel=1e-9)
    ]
    r_tilde = resistances_from_sparsifier(path, [(0, 1), (1, 2)], eps=0.5)
    assert r_tilde[1] == pytest.approx(1e12, rel=1e-9)


@st.composite
def loose_multigraphs(draw):
    """Graphs on 2-12 vertices with 1-20 edges, repeated and reversed pairs
    allowed, so that some are disconnected and some have isolated vertices."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(st.tuples(pairs, st.floats(0.25, 4.0)), min_size=1, max_size=20))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges])


@settings(max_examples=60, deadline=None)
@given(loose_multigraphs())
def test_resistances_match_the_eigen_pseudoinverse(g):
    factors = _factors(g)
    us, vs = g.u, g.v
    _, comp = connected_components(coo_matrix((g.weight, (us, vs)), shape=(g.n, g.n)))
    lam, q = _spectrum(build_laplacian(g))
    q = q[:, lam > 0]
    pinv = (q / lam[lam > 0]) @ q.T
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    same = [(u, v) for u, v in pairs if comp[u] == comp[v]]
    got = np.array([e.r_tilde for e in exact_resistances(factors, same)])
    want = np.array([pinv[u, u] + pinv[v, v] - 2 * pinv[u, v] for u, v in same])
    assert np.allclose(got, want, rtol=1e-9, atol=0)
    for u, v in pairs:
        if comp[u] != comp[v]:
            with pytest.raises(GraphConnectivityError):
                exact_resistance(factors, (u, v))


def test_from_sparsifier_identity():
    # H = G exactly: the estimate column is the oracle's, bit for bit, in pair order
    g = C4
    pairs = [(e.u, e.v) for e in g.edges]
    exact = [est.r_tilde for est in exact_resistances(_factors(g), pairs)]
    approx = resistances_from_sparsifier(g, pairs, eps=0.5)
    assert approx.dtype == np.float64 and approx.shape == (len(pairs),)
    assert approx.tolist() == exact


def test_from_sparsifier_eps_validation():
    with pytest.raises(ValueError):
        resistances_from_sparsifier(C4, [(0, 1)], eps=0.0)
    with pytest.raises(ValueError):
        resistances_from_sparsifier(C4, [(0, 1)], eps=1.0)


def test_sandwich_property_on_stress_sparsifier():
    # a verified (1 +- eps)-sparsifier estimates every resistance within
    # [1/(1+eps), 1/(1-eps)] of the true value
    rng = np.random.default_rng(8)
    n, eps = 30, 0.5
    pairs_all = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs_all if rng.random() < 0.3]
    g = WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in chosen])
    cfg = StreamConfig.for_graph(g, eps, 0.1, 1.0, seed=77, budget_override=3000)
    h, _ = stream_sparsify(g, cfg, block_size=g.m, resistance_mode="exact",
                           diagnostics=False)
    ok, worst = spectral_check(h, g, eps)
    assert ok, f"fixture sparsifier failed its spectral check (worst {worst})"
    pairs = [(e.u, e.v) for e in g.edges]
    exact = np.array([e.r_tilde for e in exact_resistances(_factors(g), pairs)])
    approx = resistances_from_sparsifier(h.combined_with(()), pairs, eps)
    ratio = approx / exact
    assert np.all(ratio >= 1 / (1 + eps) - 1e-8)
    assert np.all(ratio <= 1 / (1 - eps) + 1e-8)


def test_estimates_monotone_in_added_edges():
    # adding a block can only lower resistances
    g = WeightedGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    pairs = [(e.u, e.v) for e in g.edges]
    alone = resistances_from_sparsifier(g, pairs, 0.5)
    richer = WeightedGraph.from_edges(5, g.edges + (type(g.edges[0])(0, 4, 1.0),))
    combined = resistances_from_sparsifier(richer, pairs, 0.5)
    assert np.all(combined <= alone + 1e-10)


def test_inject_alpha_noise_bounds_and_determinism():
    g = C4
    pairs = [(e.u, e.v) for e in g.edges]
    exact = np.array([est.r_tilde for est in exact_resistances(_factors(g), pairs)])
    noisy = inject_alpha_noise(exact, 2.0, 5)
    assert noisy.shape == exact.shape
    assert np.all(exact / 2.0 - 1e-12 <= noisy) and np.all(noisy <= 2.0 * exact + 1e-12)
    assert noisy.tolist() == inject_alpha_noise(exact, 2.0, 5).tolist()
    assert inject_alpha_noise(exact, 2.0, 6).tolist() != noisy.tolist()
    # the multipliers are the labeled stream's, in column order
    u = RandomTape(5).labeled("alpha-noise", len(exact))
    assert noisy.tolist() == [r * (0.5 + x * 1.5) for r, x in zip(exact, u)]


def test_inject_alpha_one_is_identity():
    exact = [est.r_tilde for est in exact_resistances(_factors(K3), [(0, 1), (1, 2)])]
    assert inject_alpha_noise(exact, 1.0, 9).tolist() == exact
