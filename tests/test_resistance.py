"""Resistance estimators against series-parallel closed forms and the
dense pseudoinverse oracle."""

import numpy as np
import pytest

from respark.graph import (
    GraphConnectivityError,
    WeightedGraph,
    build_laplacian,
    pseudo_factorize,
)
from respark.resistance import (
    AccuracyModel,
    ResistanceEstimate,
    cg_resistances,
    exact_resistance,
    exact_resistances,
    inject_alpha_noise,
    resistances_from_sparsifier,
)
from respark.sparsify import StreamConfig, stream_sparsify
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
        AccuracyModel(0.9)


def test_cross_component_query_errors():
    two = WeightedGraph.from_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )
    factors = _factors(two)
    with pytest.raises(GraphConnectivityError):
        exact_resistance(factors, (0, 3))
    # within one component the query is fine even though the graph is not connected
    assert exact_resistance(factors, (3, 4)).r_tilde == pytest.approx(2 / 3, abs=1e-10)


def test_from_sparsifier_identity():
    # H = G exactly: estimates equal the oracle, tagged alpha = 1/(1-eps)
    g = C4
    pairs = [(e.u, e.v) for e in g.edges]
    exact = [est.r_tilde for est in exact_resistances(_factors(g), pairs)]
    approx = resistances_from_sparsifier(g, pairs, eps=0.5)
    assert np.allclose([est.r_tilde for est in approx], exact, atol=1e-8)
    assert all(est.alpha == pytest.approx(2.0) for est in approx)


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
    approx = np.array(
        [e.r_tilde for e in resistances_from_sparsifier(h.to_graph(), pairs, eps)]
    )
    ratio = approx / exact
    assert np.all(ratio >= 1 / (1 + eps) - 1e-8)
    assert np.all(ratio <= 1 / (1 - eps) + 1e-8)


def test_estimates_monotone_in_added_edges():
    # adding a block can only lower resistances
    g = WeightedGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    pairs = [(e.u, e.v) for e in g.edges]
    alone = [e.r_tilde for e in resistances_from_sparsifier(g, pairs, 0.5)]
    richer = WeightedGraph(5, g.edges + (type(g.edges[0])(0, 4, 1.0),))
    combined = [e.r_tilde for e in resistances_from_sparsifier(richer, pairs, 0.5)]
    assert all(c <= a + 1e-10 for c, a in zip(combined, alone))


def test_inject_alpha_noise_bounds_and_determinism():
    g = C4
    pairs = [(e.u, e.v) for e in g.edges]
    exact = exact_resistances(_factors(g), pairs)
    model = AccuracyModel(2.0, seed=5)
    noisy = inject_alpha_noise(exact, model)
    again = inject_alpha_noise(exact, model)
    for est, ref in zip(noisy, exact):
        assert ref.r_tilde / 2.0 - 1e-12 <= est.r_tilde <= 2.0 * ref.r_tilde + 1e-12
        assert est.alpha == 2.0
    assert [e.r_tilde for e in noisy] == [e.r_tilde for e in again]
    shifted = inject_alpha_noise(exact, AccuracyModel(2.0, seed=6))
    assert [e.r_tilde for e in shifted] != [e.r_tilde for e in noisy]


def test_inject_alpha_one_is_identity():
    exact = exact_resistances(_factors(K3), [(0, 1), (1, 2)])
    out = inject_alpha_noise(exact, AccuracyModel(1.0, seed=9))
    assert [e.r_tilde for e in out] == [e.r_tilde for e in exact]


def test_cg_matches_dense_oracle():
    rng = np.random.default_rng(31)
    n = 30
    edges = [(v - 1, v, 1.0) for v in range(1, n)]
    edges += [
        (i, j, float(rng.uniform(0.5, 2.0)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.2
    ]
    g = WeightedGraph.from_edges(n, edges)
    pairs = [(e.u, e.v) for e in g.edges]
    dense = np.array([e.r_tilde for e in exact_resistances(_factors(g), pairs)])
    iterative = cg_resistances(g, pairs)
    assert np.allclose(iterative, dense, rtol=1e-6, atol=1e-9)


def test_cg_requires_connected():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphConnectivityError):
        cg_resistances(g, [(0, 1)])
