"""Budget arithmetic, the resparsification step, the stream drivers, and
their agreement with an independent dense-indicator reference."""

import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respark import sparsify as sparsify_mod
from respark.graph import (
    GraphConnectivityError,
    WeightedGraph,
    build_laplacian,
    projection_context,
    pseudo_factorize,
)
from respark.harness import GeneratorSpec, generate
from respark.resistance import ResistanceEstimate
from respark.sparsify import (
    ConfigError,
    Sparsifier,
    StreamConfig,
    StreamStepError,
    compute_budget,
    indicator_stream,
    partition_stream,
    read_sparsifier,
    resparsify,
    single_edge_stream,
    stream_sparsify,
    write_sparsifier,
)
from respark.tape import RandomTape

PATH3 = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def _small_cfg(g, seed=0, budget=60, eps=0.5):
    return StreamConfig.for_graph(g, eps, 0.1, 1.0, seed=seed, budget_override=budget)


# ---------------------------------------------------------------------------
# budget


def test_budget_frozen_values():
    # high-precision oracle values (mpmath, 60 digits), frozen
    assert compute_budget(0.5, 0.1, 1.0, 1.0, 10, 45) == 83126
    assert compute_budget(0.3, 0.01, 2.0, 1.0, 100, 1000) == 28275713
    assert compute_budget(0.5, 0.1, 1.0, 1.0, 40, 195) == 481547


def test_budget_alpha_scaling():
    # quadratic in alpha, so doubling multiplies by 4 up to the ceiling
    n1 = compute_budget(0.5, 0.1, 1.0, 4.0, 12, 30)
    n2 = compute_budget(0.5, 0.1, 2.0, 4.0, 12, 30)
    assert 0 <= 4 * n1 - n2 <= 3


def test_budget_eps_scaling():
    n1 = compute_budget(0.5, 0.1, 1.0, 1.0, 12, 30)
    n2 = compute_budget(0.25, 0.1, 1.0, 1.0, 12, 30)
    assert 0 <= 4 * n1 - n2 <= 3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eps=0.0),
        dict(eps=1.0),
        dict(delta=0.0),
        dict(delta=1.5),
        dict(alpha=0.5),
        dict(kappa=0.9),
        dict(n=1),
        dict(m=0),
        dict(alpha=math.nan),
        dict(kappa=math.nan),
        # N must fit the int64 count column
        dict(delta=1e-310),  # the log term is inf
        dict(eps=1e-160),  # N overflows to inf
        dict(eps=1e-200),  # eps**2 underflows to 0
        dict(eps=1e-150),  # N is finite but past 2**63
        dict(alpha=1e200, kappa=1e300, n=10**100),  # alpha**2 overflows
    ],
)
def test_budget_rejects_bad_params(kwargs):
    params = dict(eps=0.5, delta=0.1, alpha=1.0, kappa=1.0, n=10, m=45)
    params.update(kwargs)
    with pytest.raises(ConfigError):
        compute_budget(**params)


def test_budget_alpha_precondition():
    # alpha must stay below sqrt(kappa*n/3); 2 > sqrt(10/3)
    with pytest.raises(ConfigError, match="precondition"):
        compute_budget(0.5, 0.1, 2.0, 1.0, 10, 45)
    # the bound itself is allowed
    compute_budget(0.5, 0.1, math.sqrt(10 / 3), 1.0, 10, 45)


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


# ---------------------------------------------------------------------------
# config


def test_config_derives_budget():
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0)
    assert cfg.budget_n == 83126


def test_config_override():
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=2000)
    assert cfg.budget_n == 2000
    with pytest.raises(ConfigError):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=0)


@pytest.mark.parametrize("override", [2**63, 10**20, math.inf, math.nan])
def test_config_override_must_fit_the_count_column(override):
    # N is an int64 count per edge; the largest one is accepted (nothing is
    # allocated until a stream runs)
    with pytest.raises(ConfigError, match="is outside \\[1, 2\\*\\*63\\)"):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=override)
    largest = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=2**63 - 1)
    assert largest.budget_n == 2**63 - 1


def test_config_takes_no_budget_argument():
    # budget_n is derived; an argument for it would be silently replaced
    with pytest.raises(TypeError, match="budget_n"):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_n=500)


def test_config_seed_must_be_an_integer():
    # a float seed would be truncated onto another seed's stream
    with pytest.raises(ConfigError, match="seed must be an integer, got 2.9"):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=2.9)
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=np.int64(2))
    assert type(cfg.seed) is int and cfg == StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=2)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        cfg.with_seed(2.5)


@pytest.mark.parametrize("override", [2.5, 2000.0, np.float64(3.0)])
def test_config_override_must_be_an_integer(override):
    # a float would be truncated: 2.5 ran with N = 2 and reported 2.5
    with pytest.raises(ConfigError, match=re.escape(f"must be an integer, got {override!r}")):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=override)


def test_config_override_takes_a_numpy_integer():
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=np.int64(2000))
    assert type(cfg.budget_override) is int and type(cfg.budget_n) is int
    assert cfg == StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=0, budget_override=2000)
    assert cfg.budget_n == 2000


def test_config_equality_and_with_seed():
    a = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=3)
    b = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=3)
    assert a == b
    c = a.with_seed(4)
    assert c.seed == 4
    assert c.budget_n == a.budget_n
    assert c != a


def test_for_graph_reads_dimensions():
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.4, seed=7))
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=0, budget_override=10)
    assert (cfg.n, cfg.m) == (g.n, g.m)
    assert cfg.kappa == g.kappa()


def test_for_graph_warns_on_heavy_weights():
    g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.5)])
    with pytest.warns(UserWarning, match="exceeds 1"):
        StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=0, budget_override=10)


def test_for_graph_warns_on_wide_kappa():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.1)])
    with pytest.warns(UserWarning, match="exceeds n"):
        StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=0, budget_override=10)


# ---------------------------------------------------------------------------
# partition


def test_partition_shapes():
    g = generate(GeneratorSpec("path", 11))
    assert partition_stream(g, 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    assert partition_stream(g, 1) == [[e] for e in range(10)]
    assert partition_stream(g, 10) == [list(range(10))]
    assert partition_stream(g, 99) == [list(range(10))]
    with pytest.raises(ValueError):
        partition_stream(g, 0)


# ---------------------------------------------------------------------------
# resparsify step


def test_first_block_keeps_everything_at_probability_one():
    cfg = _small_cfg(PATH3, budget=40)
    h0 = Sparsifier.empty(PATH3, cfg)
    assert h0.copy_count() == 0
    # r = alpha*(n-1)/a makes the raw probability exactly 1
    ests = [ResistanceEstimate(0, 2.0, 1.0), ResistanceEstimate(1, 2.0, 1.0)]
    h1 = resparsify(h0, [0, 1], ests, RandomTape(cfg.seed))
    assert h1.step == 1 and h1.arrived == 2
    assert h1.p_tilde == {0: 1.0, 1: 1.0}
    assert h1.copy_count() == 2 * 40
    assert h1.copy_weight(0) == pytest.approx(1.0 / 40)


def test_probability_clamped_at_one():
    cfg = _small_cfg(PATH3, budget=10)
    h0 = Sparsifier.empty(PATH3, cfg)
    h1 = resparsify(h0, [0, 1], [ResistanceEstimate(0, 50.0, 1.0),
                                 ResistanceEstimate(1, 50.0, 1.0)], RandomTape(0))
    assert h1.p_tilde == {0: 1.0, 1: 1.0}


def test_min_rule_freezes_probability():
    # estimates may rise between steps; the kept probability must not
    cfg = _small_cfg(PATH3, budget=2000)
    h0 = Sparsifier.empty(PATH3, cfg)
    tape = RandomTape(cfg.seed)
    h1 = resparsify(h0, [0], [ResistanceEstimate(0, 0.6, 1.0)], tape)
    assert h1.p_tilde[0] == pytest.approx(0.3)
    assert 0 < h1.copy_count() < 2000
    before = h1.alive[0].copy()
    h2 = resparsify(
        h1, [1], [ResistanceEstimate(0, 5.0, 1.0), ResistanceEstimate(1, 2.0, 1.0)], tape
    )
    assert h2.p_tilde[0] == h1.p_tilde[0]
    # ratio 1 thins nothing
    assert np.array_equal(h2.alive[0], before)


def test_resparsify_rejects_out_of_order_block():
    cfg = _small_cfg(PATH3)
    h0 = Sparsifier.empty(PATH3, cfg)
    with pytest.raises(ValueError, match="next stream slice"):
        resparsify(h0, [1], [ResistanceEstimate(1, 2.0, 1.0)], RandomTape(0))


def test_resparsify_rejects_missing_estimates():
    cfg = _small_cfg(PATH3)
    h0 = Sparsifier.empty(PATH3, cfg)
    with pytest.raises(ValueError, match="missing resistance estimates"):
        resparsify(h0, [0, 1], [ResistanceEstimate(0, 2.0, 1.0)], RandomTape(0))


def test_survival_count_is_binomial():
    # one edge thinned at p = 0.3: mean surviving copies over seeds must sit
    # within 3 standard errors of N*p
    N, trials, p = 400, 300, 0.3
    cfg = _small_cfg(PATH3, budget=N)
    counts = []
    for seed in range(trials):
        h0 = Sparsifier.empty(PATH3, cfg.with_seed(seed))
        h1 = resparsify(h0, [0], [ResistanceEstimate(0, 0.6, 1.0)], RandomTape(seed))
        counts.append(h1.copy_count())
    se = math.sqrt(N * p * (1 - p) / trials)
    assert abs(np.mean(counts) - N * p) <= 3 * se


def test_dead_edges_stay_dead():
    # probability ~0 kills the edge at step 1; later steps must not revive
    # it or touch its frozen probability
    cfg = _small_cfg(PATH3, budget=5)
    h0 = Sparsifier.empty(PATH3, cfg)
    tape = RandomTape(123)
    h1 = resparsify(h0, [0], [ResistanceEstimate(0, 1e-12, 1.0)], tape)
    assert 0 not in h1.alive
    p_frozen = h1.p_tilde[0]
    h2 = resparsify(h1, [1], [ResistanceEstimate(1, 2.0, 1.0)], tape)
    assert 0 not in h2.alive
    assert h2.p_tilde[0] == p_frozen


# ---------------------------------------------------------------------------
# stream drivers


def _same_state(h1, h2):
    assert h1.step == h2.step
    assert h1.arrived == h2.arrived
    assert h1.p_tilde == h2.p_tilde
    assert sorted(h1.alive) == sorted(h2.alive)
    for e in h1.alive:
        assert np.array_equal(h1.alive[e], h2.alive[e])


def _dense_reference(g, cfg, block_size, mode):
    """The stream as a dense (m, N) copy-indicator matrix Z and vector p.

    Independent of the library's step loop and sparse state: unseen edges
    hold p = 1 with every copy alive, each step estimates resistances
    ("exact": on the stream prefix; "sparsifier": on the alive copies
    merged per edge plus the raw block, built here), and every copy of an
    alive-or-arriving edge survives iff its tape uniform is <= p_new / p_old.
    Returns one (arrived, p, alive counts, Z) row per step, row 0 included.
    """
    m, N, n = g.m, cfg.budget_n, g.n
    tape = RandomTape(cfg.seed)
    p = np.ones(m)
    Z = np.ones((m, N), dtype=bool)
    rows = [(0, p.copy(), np.full(m, float(N)), Z.copy())]
    arrived = 0
    for step, block in enumerate(partition_stream(g, block_size), start=1):
        alive_ids = [e for e in range(arrived) if Z[e].any()]
        targets = alive_ids + block
        if mode == "exact":
            reference = g.prefix(arrived + len(block))
        else:
            merged = [
                (g.edges[e].u, g.edges[e].v, Z[e].sum() * (g.edges[e].weight / (N * p[e])))
                for e in alive_ids
            ]
            reference = WeightedGraph.from_edges(n, merged + [g.edges[e] for e in block])
        factors = pseudo_factorize(build_laplacian(reference))
        r = factors.resistances([(g.edges[e].u, g.edges[e].v) for e in targets])
        for e, r_e in zip(targets, r):
            p_next = min(g.edges[e].weight * float(r_e) / (cfg.alpha * (n - 1)), 1.0, p[e])
            Z[e] &= tape.uniforms(step, e, N) <= p_next / p[e]
            p[e] = p_next
        arrived += len(block)
        alive = np.full(m, float(N))
        alive[:arrived] = Z[:arrived].sum(axis=1)
        rows.append((arrived, p.copy(), alive, Z.copy()))
    return rows


def _matches_reference(h, rows):
    arrived, p, _, Z = rows[-1]
    assert h.arrived == arrived
    assert h.p_tilde == {e: float(p[e]) for e in range(arrived)}
    alive = {e: np.flatnonzero(Z[e]) for e in range(arrived) if Z[e].any()}
    assert sorted(h.alive) == sorted(alive)
    for e in alive:
        assert np.array_equal(h.alive[e], alive[e])


def _trace_matches_reference(trace, rows):
    assert trace.arrived == [row[0] for row in rows]
    for name, k in (("p_steps", 1), ("alive_steps", 2), ("copy_steps", 3)):
        got = getattr(trace, name)
        assert len(got) == len(rows)
        assert all(np.array_equal(a, row[k]) for a, row in zip(got, rows)), name


def test_drivers_match_dense_reference_on_criterion_10_instances():
    # criterion 10's 20 instances and block sizes {1, 3, m}, against the
    # dense reference: final copy sets, and every trace row exactly
    models = ("path", "cycle", "complete", "erdos-renyi", "barbell")
    dropped = 0
    for i in range(20):
        model = models[i % 5]
        spec = GeneratorSpec(
            model, 8 + i % 5, p=0.5 if model == "erdos-renyi" else None, seed=100 + i
        )
        g = generate(spec)
        cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=i, budget_override=40)
        for block in (1, 3, g.m):
            rows = _dense_reference(g, cfg, block, "sparsifier")
            hb, _ = stream_sparsify(g, cfg, block_size=block,
                                    resistance_mode="sparsifier", diagnostics=False)
            _matches_reference(hb, rows)
            hi, _, trace = indicator_stream(g, cfg, block_size=block,
                                            resistance_mode="sparsifier", diagnostics=False)
            _same_state(hb, hi)
            _trace_matches_reference(trace, rows)
            dropped += hb.copy_count() < g.m * cfg.budget_n
    # the comparison means something only if copies actually die
    assert dropped > 0


def test_default_block_size_is_budget():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=3))
    cfg = _small_cfg(g, budget=8)
    _, records = stream_sparsify(g, cfg, resistance_mode="exact")
    assert len(records) == math.ceil(g.m / 8)


def test_stream_is_deterministic_in_seed():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=3))
    cfg = _small_cfg(g, seed=11, budget=50)
    h1, _ = stream_sparsify(g, cfg, block_size=4, resistance_mode="exact")
    h2, _ = stream_sparsify(g, cfg, block_size=4, resistance_mode="exact")
    _same_state(h1, h2)
    h3, _ = stream_sparsify(g, cfg.with_seed(12), block_size=4, resistance_mode="exact")
    flat1 = {(e, int(j)) for e, js in h1.alive.items() for j in js}
    flat3 = {(e, int(j)) for e, js in h3.alive.items() for j in js}
    assert flat1 != flat3


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from(("path", "cycle", "complete")),
    n=st.integers(3, 8),
    seed=st.integers(0, 999),
    block=st.integers(1, 6),
)
def test_drivers_agree_on_copy_sets(model, n, seed, block):
    # the drivers and the dense reference share the keyed tape, so any
    # common partition yields bit-identical state
    g = generate(GeneratorSpec(model, n))
    cfg = _small_cfg(g, seed=seed, budget=50)
    hb, _ = stream_sparsify(g, cfg, block_size=block, resistance_mode="exact",
                            diagnostics=False)
    hi, _, _ = indicator_stream(g, cfg, block_size=block, resistance_mode="exact",
                                diagnostics=False, record_copies=False)
    _same_state(hb, hi)
    _matches_reference(hb, _dense_reference(g, cfg, block, "exact"))


def test_single_edge_stream_is_block_one():
    g = generate(GeneratorSpec("erdos-renyi", 9, p=0.5, seed=2))
    cfg = _small_cfg(g, seed=5, budget=40)
    hs, _, _ = single_edge_stream(g, cfg, resistance_mode="sparsifier",
                                  diagnostics=False)
    hb, _ = stream_sparsify(g, cfg, block_size=1, resistance_mode="sparsifier",
                            diagnostics=False)
    _same_state(hs, hb)


@pytest.mark.parametrize(
    "mode, diagnostics, observe, builds",
    [
        ("exact", True, True, 1),  # estimates, diagnostics and on_step share one
        ("noisy", False, False, 1),
        ("sparsifier", True, False, 1),
        ("sparsifier", False, True, 1),
        ("sparsifier", False, False, 0),  # nothing reads it
        ("nodrop", False, False, 0),
    ],
)
def test_each_step_builds_its_prefix_at_most_once(monkeypatch, mode, diagnostics, observe, builds):
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=3))
    cfg = _small_cfg(g, seed=2, budget=30)
    calls = []
    original = WeightedGraph.prefix

    def counted(self, count):
        calls.append(count)
        return original(self, count)

    monkeypatch.setattr(WeightedGraph, "prefix", counted)
    seen = []
    on_step = (lambda step, h, prefix, record: seen.append((h.arrived, prefix))) if observe else None
    stream_sparsify(g, cfg, block_size=4, resistance_mode=mode, diagnostics=diagnostics,
                    on_step=on_step)
    steps = len(partition_stream(g, 4))
    assert len(calls) == builds * steps
    assert all(prefix.edges == g.edges[:arrived] for arrived, prefix in seen)


@pytest.mark.parametrize("mode", ["sparsifier", "exact"])
def test_resistance_steps_run_no_eigendecomposition(monkeypatch, mode):
    # every resistance is read off the grounded Cholesky factor; only the
    # projection context's eigen view calls eigh
    g = generate(GeneratorSpec("erdos-renyi", 30, p=0.3, seed=4))
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    stream_sparsify(g, _small_cfg(g, seed=1, budget=40), block_size=20,
                    resistance_mode=mode, diagnostics=False)
    assert calls == []
    projection_context(g).factors.eigenvalues
    assert calls == [(g.n, g.n)]  # the spy sees the eigen view


@pytest.mark.parametrize("mode", ["sparsifier", "exact"])
def test_a_single_stream_holds_one_step_reference_at_a_time(monkeypatch, mode):
    # step s's prefix reference (graph, factors, contexts) is dead by step
    # s + 1, so a long stream's memory does not grow with its steps
    import respark.sparsify as sparsify_mod

    refs = []

    class Watched(sparsify_mod._PrefixReference):
        def __init__(self, g, count):
            super().__init__(g, count)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(sparsify_mod, "_PrefixReference", Watched)
    alive = []
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    stream_sparsify(g, _small_cfg(g, seed=3, budget=40), block_size=6, resistance_mode=mode,
                    on_step=lambda *_: alive.append([r() is not None for r in refs]))
    steps = len(partition_stream(g, 6))
    assert alive == [[False] * (s - 1) + [True] for s in range(1, steps + 1)]
    assert not any(r() for r in refs)


def test_a_single_stream_builds_no_shared_references(monkeypatch):
    # only run_experiment shares references between streams; a single one
    # takes each step's reference alone, even with diagnostics and on_step
    import respark.sparsify as sparsify_mod

    built = []

    class Watched(sparsify_mod._References):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sparsify_mod, "_References", Watched)
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    seen = []
    _, records = stream_sparsify(g, _small_cfg(g, seed=3, budget=40), block_size=6,
                                 diagnostics=True, on_step=lambda *args: seen.append(args))
    assert len(records) == len(seen) == len(partition_stream(g, 6))
    assert built == []


def test_references_of_another_graph_are_refused():
    import respark.sparsify as sparsify_mod

    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    other = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=6))
    with pytest.raises(ValueError, match="another graph"):
        stream_sparsify(g, _small_cfg(g), references=sparsify_mod._References(other))
    twin = sparsify_mod._References(WeightedGraph(g.n, g.edges))  # an equal graph is g
    (h, records), (h_own, records_own) = (
        stream_sparsify(g, _small_cfg(g), references=refs) for refs in (twin, None)
    )
    assert records == records_own and h.p_tilde == h_own.p_tilde


def test_sparsifier_laplacian_is_built_once_and_read_only():
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.4, seed=9))
    h, _ = stream_sparsify(g, _small_cfg(g, budget=7), block_size=5, resistance_mode="exact",
                           diagnostics=False)
    lap = h.laplacian()
    assert lap is h.laplacian()
    with pytest.raises(ValueError, match="read-only"):
        lap[0, 0] = 0.0


def test_state_columns_are_read_only_and_are_the_trace_rows():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.6, seed=4))
    states = []
    h, _, trace = indicator_stream(
        g, _small_cfg(g, seed=8, budget=30), 4, "exact", diagnostics=False,
        record_copies=False, on_step=lambda step, h, prefix, record: states.append(h),
    )
    assert states[-1] is h and any(0 in hs.count[: hs.arrived] for hs in states)
    for s, hs in enumerate(states, start=1):
        assert trace.p_steps[s] is hs.p and trace.alive_steps[s] is hs.count
        assert hs.copy_count() == sum(len(js) for js in hs.alive.values())
    for column in (h.p, h.count, h.copies, *h.alive.values()):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    with pytest.raises(TypeError):
        h.alive[0] = h.copies
    with pytest.raises(TypeError):
        h.p_tilde[0] = 0.5
    assert (h == states[0]) is False and h == h


def test_nodrop_reconstructs_input_exactly():
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.4, seed=9))
    cfg = _small_cfg(g, budget=7)
    h, _ = stream_sparsify(g, cfg, block_size=5, resistance_mode="nodrop")
    assert all(p == 1.0 for p in h.p_tilde.values())
    assert h.copy_count() == g.m * 7
    L, LH = build_laplacian(g), h.laplacian()
    assert np.linalg.norm(LH - L) <= 1e-12 * np.linalg.norm(L)


def test_probabilities_never_increase():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.6, seed=4))
    cfg = _small_cfg(g, seed=8, budget=30)
    _, _, trace = indicator_stream(g, cfg, block_size=3, resistance_mode="exact",
                                   diagnostics=False)
    for prev, cur in zip(trace.p_steps, trace.p_steps[1:]):
        assert np.all(cur <= prev + 1e-15)


def test_alive_sets_only_shrink():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.6, seed=4))
    cfg = _small_cfg(g, seed=8, budget=30)
    _, _, trace = indicator_stream(g, cfg, block_size=3, resistance_mode="exact",
                                   diagnostics=False)
    for prev, cur in zip(trace.copy_steps, trace.copy_steps[1:]):
        assert not np.any(cur & ~prev)


def test_final_copy_weights():
    g = generate(GeneratorSpec("cycle", 8))
    cfg = _small_cfg(g, seed=2, budget=25)
    h, _ = stream_sparsify(g, cfg, block_size=2, resistance_mode="exact",
                           diagnostics=False)
    for e in h.alive:
        assert h.copy_weight(e) == g.edges[e].weight / (25 * h.p_tilde[e])


def test_trace_conventions():
    g = generate(GeneratorSpec("path", 6))
    cfg = _small_cfg(g, seed=1, budget=12)
    _, _, trace = indicator_stream(g, cfg, block_size=2, resistance_mode="exact",
                                   diagnostics=False)
    assert trace.arrived == [0, 2, 4, 5]
    assert trace.steps == 3
    # row 0: nothing seen, everything conventionally alive at probability 1
    assert np.all(trace.p_steps[0] == 1.0)
    assert np.all(trace.alive_steps[0] == 12.0)
    assert trace.copy_count(0) == 0
    # unseen edges keep the convention in later rows too
    assert trace.p_steps[1][3] == 1.0
    assert trace.alive_steps[1][3] == 12.0


def test_max_copy_ratios():
    g = generate(GeneratorSpec("cycle", 6))
    cfg = _small_cfg(g, seed=7, budget=15)
    _, _, trace = indicator_stream(g, cfg, block_size=2, resistance_mode="exact")
    ratios = trace.max_copy_ratios(0)
    assert ratios.shape == (15,)
    # the step-0 row contributes z/p = 1 for every copy, so 1 is a floor
    assert np.all(ratios >= 1.0)
    _, _, bare = indicator_stream(g, cfg, block_size=2, resistance_mode="exact",
                                  diagnostics=False, record_copies=False)
    with pytest.raises(ValueError, match="without per-copy indicators"):
        bare.max_copy_ratios(0)


def test_on_step_callback_sees_prefixes():
    g = generate(GeneratorSpec("path", 7))
    cfg = _small_cfg(g, budget=10)
    seen = []
    stream_sparsify(
        g, cfg, block_size=2, resistance_mode="exact",
        on_step=lambda s, h, prefix, rec: seen.append((s, h.arrived, prefix.m, rec)),
    )
    assert [(s, a, pm) for s, a, pm, _ in seen] == [(1, 2, 2), (2, 4, 4), (3, 6, 6)]
    assert all(rec is not None for *_, rec in seen)


def test_diagnostics_off_returns_no_records():
    g = generate(GeneratorSpec("path", 5))
    h, records = stream_sparsify(g, _small_cfg(g, budget=10), block_size=2,
                                 resistance_mode="exact", diagnostics=False)
    assert records == []
    assert h.arrived == g.m


def test_diagnostics_require_connected_input():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    cfg = _small_cfg(g, budget=10)
    with pytest.raises(GraphConnectivityError):
        stream_sparsify(g, cfg, block_size=2, resistance_mode="nodrop")
    # without diagnostics a disconnected stream is fine
    h, _ = stream_sparsify(g, cfg, block_size=2, resistance_mode="nodrop",
                           diagnostics=False)
    assert np.allclose(h.laplacian(), build_laplacian(g))


def test_config_graph_mismatch():
    g4 = generate(GeneratorSpec("path", 4))
    g5 = generate(GeneratorSpec("path", 5))
    cfg = _small_cfg(g4, budget=10)
    with pytest.raises(ConfigError, match="does not match graph"):
        stream_sparsify(g5, cfg, resistance_mode="exact")


def test_kappa_mismatch():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)])
    uniform = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    cfg = _small_cfg(uniform, budget=10)
    with pytest.raises(ConfigError, match="kappa"):
        stream_sparsify(g, cfg, resistance_mode="exact")


def test_unknown_resistance_mode():
    g = generate(GeneratorSpec("path", 4))
    # rejected up front, not as a failure of step 1
    with pytest.raises(ValueError, match="resistance mode"):
        stream_sparsify(g, _small_cfg(g, budget=10), resistance_mode="bogus")


def test_step_failures_carry_the_step(monkeypatch):
    import respark.sparsify as sparsify_mod

    g = generate(GeneratorSpec("path", 5))
    cfg = _small_cfg(g, budget=10)

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sparsify_mod, "exact_resistances", boom)
    with pytest.raises(StreamStepError, match="step 1: synthetic failure") as info:
        stream_sparsify(g, cfg, block_size=2, resistance_mode="exact")
    assert info.value.step == 1


# ---------------------------------------------------------------------------
# the theorem regime: at the unmodified budget N a thinned edge keeps about 1%
# of its copies, and the tape computes only the draws of those


THEOREM_ER = GeneratorSpec("erdos-renyi", 40, p=0.25, seed=3)


def _states_in_blocks_of_67(g, cfg):
    states = []
    stream_sparsify(g, cfg, block_size=67, resistance_mode="sparsifier", diagnostics=False,
                    on_step=lambda step, h, prefix, record: states.append(h))
    return states


def test_theorem_budget_stream_stays_under_3n(kernel_calls):
    g = generate(THEOREM_ER)
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=7)
    assert cfg.budget_n > 400_000
    states = _states_in_blocks_of_67(g, cfg)
    assert len(states) == math.ceil(g.m / 67)
    assert all(h.copy_count() < 3 * cfg.budget_n for h in states)
    # each step thins the edges alive after the one before, each through the
    # addressed kernel
    thinned = sum(len(h.alive) for h in states[:-1])
    assert len(kernel_calls) == thinned > 0
    assert max(kernel_calls) < 0.03 * cfg.budget_n


def test_addressed_draws_leave_every_copy_set_unchanged(kernel_calls, monkeypatch):
    import respark.tape as tape_mod

    g = generate(THEOREM_ER)
    # below the theorem budget, to keep the test short, but above the cost
    # rule's threshold for these alive fractions
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=7, budget_override=50_000)
    addressed = _states_in_blocks_of_67(g, cfg)
    taken = len(kernel_calls)
    assert taken > 0
    monkeypatch.setattr(tape_mod, "_ADDRESSED_COST", (math.inf, 0))
    full = _states_in_blocks_of_67(g, cfg)
    assert len(kernel_calls) == taken
    assert len(addressed) == len(full)
    for a, b in zip(addressed, full):
        assert a.p_tilde == b.p_tilde
        assert a.alive.keys() == b.alive.keys()
        assert all(np.array_equal(a.alive[e], b.alive[e]) for e in a.alive)


# ---------------------------------------------------------------------------
# file format


def test_sparsifier_file_round_trip(tmp_path):
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    cfg = _small_cfg(g, seed=42, budget=20)
    h, _ = stream_sparsify(g, cfg, block_size=3, resistance_mode="exact",
                           diagnostics=False)
    path = tmp_path / "h.sparsifier"
    write_sparsifier(h, path)
    loaded = read_sparsifier(path, n=g.n)
    assert (loaded.step, loaded.budget_n, loaded.seed) == (h.step, 20, 42)
    assert loaded.copy_count() == h.copy_count()
    assert np.array_equal(loaded.laplacian(), h.laplacian())
    alive = list(h.alive)
    assert loaded.e.tolist() == alive and np.array_equal(loaded.count, h.count[alive])
    assert np.array_equal(loaded.p_tilde, h.p[alive])
    assert np.array_equal(loaded.copies, h.copies)
    # without an explicit n the vertex count is inferred from endpoints
    inferred = read_sparsifier(path)
    assert inferred.n <= g.n
    # the writer's rows pass every check against their graph
    checked = read_sparsifier(path, graph=g)
    assert checked.n == g.n and np.array_equal(checked.weight, loaded.weight)
    with pytest.raises(ValueError, match="differs from the graph"):
        read_sparsifier(path, n=g.n + 1, graph=g)


def test_read_sparsifier_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text("0 1 0.5 0 3 1.0\n")
    with pytest.raises(ValueError, match="missing sparsifier header"):
        read_sparsifier(p)


def test_read_sparsifier_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_bytes(b"# respark sparsifier step=1 N=5 seed=0\n0 1 0.5 0 \xff 1.0\n")
    with pytest.raises(ValueError, match=f"^{p}: 'utf-8' codec can't decode"):
        read_sparsifier(p)


def test_read_sparsifier_rejects_malformed_row(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n0 1 0.5\n")
    with pytest.raises(ValueError, match="bad.sparsifier:2"):
        read_sparsifier(p)


@pytest.mark.parametrize(
    "row", ["0 1 1.0 0 0.5 1.0", "1e0 2 1.0 0 0 1.0", "0 1 1.0 2.0 0 1.0", "0 1.5 1.0 0 0 1.0"]
)
def test_read_sparsifier_rejects_float_in_integer_field(tmp_path, row):
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"# respark sparsifier step=1 N=5 seed=0\n\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:3: .*64-bit integers"):
        read_sparsifier(p)


def test_read_sparsifier_rejects_rows_parsed_through_the_float_fallback(tmp_path, monkeypatch):
    # NumPy 1.23-1.26 parse '0.5' in an integer field with a DeprecationWarning
    # and a truncated value; stand in for that parser here
    real_loadtxt = np.loadtxt

    def fallback_loadtxt(lines, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real_loadtxt(["0 1 1.0 0 0 1.0"], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", fallback_loadtxt)
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n0 1 1.0 0 0.5 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:2: "):
        read_sparsifier(p)


def test_bad_row_is_found_past_the_first_walk_block(tmp_path):
    rows = [f"0 1 0.5 {e} 0 1.0" for e in range(5000)]
    rows[4500] = "0 1 0.5 4500 0.0 1.0"
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:4502: "):
        read_sparsifier(p)
    rows[4500] = "0 1 0.5 4499 0 1.0"  # repeats the row before it
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:4502: .*repeats line 4501"):
        read_sparsifier(p)


def _reference_write(h, path):
    # the per-copy writer the columnar one replaced: one formatted row per copy
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# respark sparsifier step={h.step} N={h.budget_n} seed={h.config.seed}\n")
        for e in sorted(h.alive):
            edge = h.edges[e]
            for j in h.alive[e]:
                fh.write(
                    f"{edge.u} {edge.v} {h.copy_weight(e)!r} {e} {int(j)} {h.p_tilde[e]!r}\n"
                )


def _written_pair(tmp_path, h):
    ours, ref = tmp_path / "ours.sparsifier", tmp_path / "ref.sparsifier"
    write_sparsifier(h, ours)
    _reference_write(h, ref)
    return ours.read_bytes(), ref.read_bytes()


@pytest.mark.parametrize(
    "model, n, seed, budget, block, mode",
    [
        ("erdos-renyi", 8, 1, 20, 3, "exact"),
        ("erdos-renyi", 12, 7, 300, 5, "sparsifier"),
        ("complete", 6, 3, 9, 4, "noisy"),
        ("path", 5, 0, 4, 1, "exact"),
    ],
)
def test_writer_bytes_match_per_copy_reference(tmp_path, model, n, seed, budget, block, mode):
    spec = GeneratorSpec(model, n, p=0.5 if model == "erdos-renyi" else None,
                         weight_min=0.3, weight_max=1.0, seed=seed)
    g = generate(spec)
    cfg = _small_cfg(g, seed=seed, budget=budget)
    h, _ = stream_sparsify(g, cfg, block_size=block, resistance_mode=mode, diagnostics=False)
    assert h.copy_count() > 0
    ours, ref = _written_pair(tmp_path, h)
    assert ours == ref


def test_writer_bytes_match_reference_without_copies(tmp_path):
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    cfg = _small_cfg(g, seed=42, budget=20)
    empty = Sparsifier.empty(g, cfg)
    ours, ref = _written_pair(tmp_path, empty)
    assert ours == ref == b"# respark sparsifier step=0 N=20 seed=42\n"
    # a seen edge whose copies all died writes no row
    h, _ = stream_sparsify(g, cfg, block_size=3, resistance_mode="exact", diagnostics=False)
    dead = [e for e in range(h.arrived) if h.count[e] == 0]
    assert dead and all(e in h.p_tilde and e not in h.alive for e in dead)
    ours, ref = _written_pair(tmp_path, h)
    assert ours == ref
    assert len(ours.splitlines()) == 1 + h.copy_count()
    assert {int(line.split()[3]) for line in ours.splitlines()[1:]}.isdisjoint(dead)


def _reference_read(path, n=None):
    """The row-at-a-time reader the columnar one replaced, with every check
    of the file contract. Returns (header, rows) or raises ValueError."""
    header, rows, first_seen, edge_fields = None, [], {}, {}
    bound = math.inf if n is None else n

    def number(kind, tok):
        if not tok.isascii() or "_" in tok:
            raise ValueError(tok)
        return kind(tok)

    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh, start=1))
    for _, raw in lines:
        line = raw.strip()
        if header is None and line.startswith("#") and "respark sparsifier" in line:
            fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            try:
                header = {k: int(fields[k]) for k in ("step", "N", "seed") if k in fields}
            except ValueError:
                raise ValueError(f"{path}: header") from None
    budget = math.inf if header is None else header.get("N", math.inf)
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 6:
            raise ValueError(f"{path}:{lineno}: tokens")
        try:
            u, v, e, j = (number(int, tokens[k]) for k in (0, 1, 3, 4))
            w, p = number(float, tokens[2]), number(float, tokens[5])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: parse") from None
        if not (0 <= u < bound and 0 <= v < bound and u != v and 0 < w < math.inf
                and 0 < p <= 1 and 0 <= e < 2**63 and 0 <= j < budget and j < 2**63
                and u < 2**63 and v < 2**63 and (e, j) not in first_seen):
            raise ValueError(f"{path}:{lineno}: range")
        if edge_fields.setdefault(e, (u, v, w, p)) != (u, v, w, p):
            raise ValueError(f"{path}:{lineno}: mixed")  # differs from the edge's first row
        first_seen[e, j] = lineno
        rows.append((u, v, w, e, j, p))
    if header is None:
        raise ValueError(f"{path}: missing header")
    return header, rows


def _where(exc, path):
    """The 'path:lineno:' or 'path:' prefix of a reader error."""
    message = str(exc)
    assert message.startswith(f"{path}:")
    rest = message[len(str(path)) + 1:]
    lineno = rest.split(":", 1)[0]
    return lineno if lineno.isdigit() else ""


def _assert_reads_like_reference(path, n=None):
    try:
        header, rows = _reference_read(path, n)
    except ValueError as ref_exc:
        with pytest.raises(ValueError) as info:
            read_sparsifier(path, n)
        assert _where(info.value, path) == _where(ref_exc, path), str(info.value)
        return
    loaded = read_sparsifier(path, n)
    assert (loaded.step, loaded.budget_n, loaded.seed) == (
        header.get("step", 0), header.get("N", 0), header.get("seed", 0)
    )
    # per edge by ascending e: its fields, its number of copies and its copy ids, ascending
    ids = {}
    for u, v, w, e, j, p in rows:
        ids.setdefault((e, u, v, w, p), []).append(j)
    edges = sorted(ids)  # one key per edge, as an edge's rows agree
    want = dict(zip(("e", "u", "v", "weight", "p_tilde"), zip(*edges) if edges else [()] * 5),
                count=[len(ids[k]) for k in edges],
                copies=[j for k in edges for j in sorted(ids[k])])
    for name, values in want.items():
        dtype = float if name in ("weight", "p_tilde") else np.int64
        got = getattr(loaded, name)
        assert got.dtype == dtype and np.array_equal(got, np.array(values, dtype=dtype)), name
    if n is None:
        assert loaded.n == (1 + max(max(r[0], r[1]) for r in rows) if rows else 0)


_LOOSE = (
    "\n"
    "# a comment before the header\n"
    "  # respark sparsifier step=4 N=9 seed=-3   \n"
    "\n"
    "0\t1 0.25 0 0 0.5\n"
    "   \n"
    "1 2\t\t0.1 2 8 1.0   \n"
    "# trailing comment\n"
    "2 0 3e-5 5 3 1e-3\t\n"
    "\t0 2 1.5 6 4 0.75"
)


def test_reader_columns_match_reference_on_loose_layout(tmp_path):
    p = tmp_path / "loose.sparsifier"
    p.write_text(_LOOSE)
    _assert_reads_like_reference(p, n=3)
    _assert_reads_like_reference(p)
    loaded = read_sparsifier(p, n=3)
    assert (loaded.step, loaded.budget_n, loaded.seed, loaded.copy_count()) == (4, 9, -3, 4)
    assert loaded.e.tolist() == [0, 2, 5, 6] and loaded.copies.tolist() == [0, 8, 3, 4]


def test_reader_reports_true_line_of_bad_row(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text(
        "# respark sparsifier step=1 N=5 seed=0\n\n# note\n0 1 0.5 0 0 1.0\n0 1 0.5 0 9 1.0\n"
    )
    with pytest.raises(ValueError, match=r"bad\.sparsifier:5: .*copy index"):
        read_sparsifier(p)


_HEADER = "# respark sparsifier step=1 N=5 seed=0"
_MESSAGES = {
    "range": "need distinct vertex ids",
    "copy": r"need an edge id e >= 0 and a copy index j in \[0, 5\)",
    "parse": "expected 'u v weight e j p_tilde' with 64-bit integers",
}


@pytest.mark.parametrize(
    "row, check",
    [
        ("-1 1 0.5 1 0 1.0", "range"),
        ("3 1 0.5 1 0 1.0", "range"),
        ("0 -1 0.5 1 0 1.0", "range"),
        ("0 3 0.5 1 0 1.0", "range"),
        ("2 2 0.5 1 0 1.0", "range"),
        ("0 1 0.0 1 0 1.0", "range"),
        ("0 1 inf 1 0 1.0", "range"),
        ("0 1 nan 1 0 1.0", "range"),
        ("0 1 0.5 1 0 0.0", "range"),
        ("0 1 0.5 1 0 1.5", "range"),
        ("0 1 0.5 -1 0 1.0", "copy"),
        ("0 1 0.5 1 -1 1.0", "copy"),
        ("0 1 0.5 1 5 1.0", "copy"),
        ("0 1 0.5 0 0 1.0", r"copy j=0 of edge e=0 repeats line 2"),
    ],
)
def test_each_row_check_is_named(tmp_path, row, check):
    # one term of the row contract broken per row, on n = 3 and N = 5
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"{_HEADER}\n0 1 0.5 0 0 1.0\n{row}\n1 2 0.5 2 0 1.0\n")
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:3: {_MESSAGES.get(check, check)}"):
        read_sparsifier(p, n=3)


@pytest.mark.parametrize(
    "first, second, check",
    [
        ("0 1 0.5 1 0 1.5", "0 1 0.5 1 1", "range"),
        ("0 1 0.5 1 1", "0 1 0.5 1 0 1.5", "parse"),
        ("0 1 0.5 1 7 1.0", "0 1 0.5 2 0 1.0 # note", "copy"),
        ("0 1 0.5 2 0 1.0 # note", "0 1 0.5 1 7 1.0", "parse"),
        ("0 0 0.5 0 1 1.0", "0 1 0.5 0 0 1.0", "range"),
        ("0 1 0.5 0 0 1.0", "0 0 0.5 0 1 1.0", "copy j=0 of edge e=0 repeats line 2"),
        ("0 1 0.5 0 0 1.0", "0 1 x 2 0 1.0", "copy j=0 of edge e=0 repeats line 2"),
    ],
)
def test_earlier_of_two_bad_lines_is_reported(tmp_path, first, second, check):
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"{_HEADER}\n0 1 0.5 0 0 1.0\n{first}\n{second}\n")
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:3: {_MESSAGES.get(check, check)}"):
        read_sparsifier(p, n=3)


@pytest.mark.parametrize("bad_at, unparsed_at", [(10, 6000), (6000, 10), (4500, 4600), (4600, 4500)])
def test_earlier_bad_line_wins_across_walk_blocks(tmp_path, bad_at, unparsed_at):
    rows = [f"0 1 0.5 {e} 0 1.0" for e in range(7000)]
    rows[bad_at] = f"0 1 0.5 {bad_at} 5 1.0"  # copy index outside [0, N)
    rows[unparsed_at] = "0 1 0.5"
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"{_HEADER}\n" + "\n".join(rows) + "\n")
    check = "copy" if bad_at < unparsed_at else "parse"
    lineno = 2 + min(bad_at, unparsed_at)
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:{lineno}: {_MESSAGES[check]}"):
        read_sparsifier(p)


@pytest.mark.parametrize("tail", ["", "0 1 0.5\n"])
def test_repeat_names_the_true_line_of_its_first_copy(tmp_path, tail):
    # out of the writer's (e, j) order, so repeats are found by sorting; with
    # the unparsed tail the rows come from the line walk
    p = tmp_path / "bad.sparsifier"
    p.write_text(
        f"{_HEADER}\n\n# note\n0 1 0.5 1 0 1.0\n1 2 0.5 0 1 1.0\n\n  # more\n0 1 0.5 1 0 1.0\n"
        + tail
    )
    with pytest.raises(ValueError, match=r"bad\.sparsifier:8: copy j=0 of edge e=1 repeats line 4$"):
        read_sparsifier(p)


def test_first_repeat_in_file_order_is_reported(tmp_path):
    p = tmp_path / "bad.sparsifier"
    rows = ["0 1 0.5 5 0 1.0", "0 1 0.5 1 0 1.0", "0 1 0.5 5 1 1.0", "0 1 0.5 5 0 1.0",
            "0 1 0.5 1 0 1.0"]
    p.write_text(f"{_HEADER}\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:5: copy j=0 of edge e=5 repeats line 2$"):
        read_sparsifier(p)


_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.integers(2**62, 2**65).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1_0", "0x1", "1.0", "+2", "007", "٣", "#", "#c", "1e999"]),
)
# rows valid under the header '# respark sparsifier step=2 N=6 seed=1' and n = 5; u, v,
# weight and p_tilde follow from e, so the rows of an edge agree and edges have several
_GOOD_ROWS = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=8, unique=True),
    st.floats(1e-6, 1e3),
    st.floats(1e-6, 1.0),
).map(lambda drawn: [
    f"{e} {(e + 1 + e % 3) % 5} {drawn[1] / (e + 1)!r} {e} {j} {drawn[2] / (e + 1)!r}"
    for e, j in drawn[0]
])
_ROW = _GOOD_ROWS.filter(bool).map(lambda rows: rows[0])
_BAD_LINES = st.one_of(
    _ROW,  # may repeat an (e, j) pair of the good rows
    _ROW.map(lambda row: row.rsplit(" ", 1)[0]),  # truncated
    _ROW.map(lambda row: row + " # trailing comment"),
    st.lists(_TOKENS, min_size=5, max_size=7).map(" ".join),
    st.sampled_from(["", "  \t", "# comment", "# respark sparsifier step=1 N=3 seed=2",
                     "# respark sparsifier step=x N=5", "# respark sparsifier N=1_0"]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=_GOOD_ROWS,
    extra=st.lists(st.tuples(st.integers(0, 8), _BAD_LINES), max_size=2),
    header_first=st.sampled_from([True, True, True, False]),
    sep=st.sampled_from(["\n", "\r\n", " \t\n"]),
    n=st.sampled_from([None, 5]),
    chunk=st.integers(1, 60),
)
def test_reader_fuzz_matches_reference(
    tmp_path_factory, rows, extra, header_first, sep, n, chunk
):
    # mostly valid files with up to two inserted lines that may break them,
    # read whole (the default chunk holds any of them) and in small chunks
    lines = list(rows)
    for pos, line in extra:
        lines.insert(pos, line)
    if header_first:
        lines.insert(0, "# respark sparsifier step=2 N=6 seed=1")
    p = tmp_path_factory.mktemp("fuzz") / "f.sparsifier"
    p.write_bytes(sep.join(lines).encode("utf-8"))
    _assert_reads_like_reference(p, n)
    whole = _read_outcome(p, n=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparsify_mod, "_READ_CHUNK", chunk)
        assert _read_outcome(p, n=n) == whole


def _read_outcome(path, **kwargs):
    """What read_sparsifier makes of a file: its error message, or its
    header fields and the dtype and bytes of every column."""
    try:
        h = read_sparsifier(path, **kwargs)
    except ValueError as exc:
        return str(exc)
    cols = (h.e, h.u, h.v, h.weight, h.p_tilde, h.count, h.copies, h.laplacian())
    return (h.n, h.step, h.budget_n, h.seed, *((c.dtype.str, c.tobytes()) for c in cols))


_ROWS = "".join(f"0 1 0.5 {e} 0 1.0\n" for e in range(6))
# three edges of five copies each, every edge wider than the smaller chunks
_COPIES = [f"{e} {e + 1} {0.5 / (e + 1)!r} {e} {j} {1.0 / (e + 1)!r}\n"
           for e in range(3) for j in range(5)]


@pytest.mark.parametrize(
    "text",
    [
        _LOOSE,  # the header, comments, blank lines and an unterminated last line
        _LOOSE.replace("\n", "\r\n"),
        f"{_HEADER}\n{_ROWS}0 1 0.5 6 0 1.0 # note\n{_ROWS}",
        f"{_HEADER}\n{_ROWS}2 2 0.5 6 0 1.0\n{_ROWS}",
        f"{_HEADER}\n{_ROWS}0 1 0.5 6 0\n{_ROWS}",
        f"{_HEADER}\n{_ROWS}0 1 0.5 6 0 1.0\n0 1 0.5 2 0 1.0\n",
        f"{_ROWS}# respark sparsifier step=x N=5\n{_ROWS}",
        f"{_ROWS}# other\n{_ROWS}",
        f"{_HEADER}\n" + "".join(_COPIES),
        f"{_HEADER}\n" + "".join(_COPIES[::-1]),
        f"{_HEADER}\n" + "".join(_COPIES[:7]) + "1 2 0.25 1 3 0.75\n" + "".join(_COPIES[9:]),
    ],
    ids=["loose", "crlf", "hash-in-row", "bad-row", "unparsed", "repeat", "bad-header",
         "no-header", "copies", "copies-reversed", "mixed"],
)
def test_any_chunk_reads_like_the_whole_file(tmp_path, monkeypatch, text):
    # chunks of 1 to 60 characters put a chunk boundary inside every line
    p = tmp_path / "chunked.sparsifier"
    p.write_bytes(text.encode("utf-8"))
    whole = _read_outcome(p, n=3)
    for chunk in range(1, 61):
        monkeypatch.setattr(sparsify_mod, "_READ_CHUNK", chunk)
        assert _read_outcome(p, n=3) == whole, chunk
        _assert_reads_like_reference(p, n=3)
        _assert_reads_like_reference(p)


@pytest.mark.parametrize("header", [_HEADER, "# respark sparsifier step=x N=5"])
def test_a_decode_error_is_reported_at_its_file_offset(tmp_path, monkeypatch, header):
    # the bad byte lies past the first buffer a chunked read decodes, and the
    # whole text is decoded before a bad header is looked for
    p = tmp_path / "bad.sparsifier"
    head = f"{header}\n{_ROWS * 200}0 1 ".encode()
    p.write_bytes(head + b"\xff\n")
    whole = _read_outcome(p)
    assert whole.startswith(f"{p}: 'utf-8' codec can't decode byte 0xff in position {len(head)}:")
    monkeypatch.setattr(sparsify_mod, "_READ_CHUNK", 40)
    assert _read_outcome(p) == whole


def _large_writer_file(tmp_path):
    """A graph and the file of its sparsifier with more than 100k copies."""
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    h, _ = stream_sparsify(g, _small_cfg(g, seed=3, budget=110_000), block_size=3,
                           resistance_mode="exact", diagnostics=False)
    path = tmp_path / "h.sparsifier"
    write_sparsifier(h, path)
    assert h.copy_count() >= 100_000
    return g, h, path


def _traced_peak(read):
    """(result of read(), the peak memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = read()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_writer_file_holds_little_beyond_its_columns(tmp_path):
    # a chunk at a time, each chunk's rows kept as runs of one edge plus their
    # copy ids: joining the ids' pieces holds them twice
    g, h, path = _large_writer_file(tmp_path)
    loaded, peak = _traced_peak(lambda: read_sparsifier(path, graph=g))
    assert loaded.copy_count() == h.copy_count()
    assert peak < 2.5 * loaded.copies.nbytes


@pytest.mark.parametrize(
    "last", ["{u} {v} {w} {e} 110000 {p}", "{u} {v} {w} {e} 7", "{u} {v} 0.5 {e} 7 {p}"],
    ids=["copy-index", "five-fields", "mixed"],
)
def test_a_bad_last_row_is_named_in_bounded_memory(tmp_path, last):
    # the error path walks the file a chunk at a time, holding no object per line
    g, h, path = _large_writer_file(tmp_path)
    lines = path.read_text().splitlines()
    u, v, w, e, _, p = lines[-1].split()
    lines[-1] = last.format(u=u, v=v, w=w, e=e, p=p)
    path.write_text("\n".join(lines) + "\n")
    exc, peak = _traced_peak(lambda: pytest.raises(ValueError, read_sparsifier, path, graph=g))
    assert str(exc.value).startswith(f"{path}:{len(lines)}: ")
    assert peak < 2 * path.stat().st_size


def test_a_shuffled_writer_file_reads_like_the_writers_order(tmp_path):
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    h, _ = stream_sparsify(g, _small_cfg(g, seed=3, budget=40), block_size=3,
                           resistance_mode="exact", diagnostics=False)
    ordered, shuffled = tmp_path / "ordered.sparsifier", tmp_path / "shuffled.sparsifier"
    write_sparsifier(h, ordered)
    header, *rows = ordered.read_text().splitlines(keepends=True)
    assert len(rows) == h.copy_count() > 2 * len(h.alive)
    np.random.default_rng(0).shuffle(rows)
    shuffled.write_text(header + "".join(rows))
    whole = _read_outcome(ordered, graph=g)
    assert _read_outcome(shuffled, graph=g) == whole
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 17, 60):
            mp.setattr(sparsify_mod, "_READ_CHUNK", chunk)
            assert _read_outcome(shuffled, graph=g) == whole


@pytest.mark.parametrize("n", [None, 3])
@pytest.mark.parametrize(
    "body, lineno",
    [
        ("0 1 0.5 0 0 1.0\n0 1 0.5 0 1 0.5\n", 3),  # p_tilde
        ("0 1 0.5 0 0 1.0\n\n# note\n1 0 0.5 0 1 1.0\n", 5),  # endpoints' order
        ("0 1 0.5 0 0 1.0\n1 2 0.5 1 0 1.0\n0 1 0.25 0 1 1.0\n", 4),  # weight, out of order
    ],
)
def test_a_disagreeing_edge_is_refused_without_a_graph(tmp_path, body, lineno, n):
    p = tmp_path / "mixed.sparsifier"
    p.write_text(f"{_HEADER}\n{body}")
    with pytest.raises(ValueError, match=rf"mixed\.sparsifier:{lineno}: edge e=0 differs from "
                                         r"line 2 in u v, weight or p_tilde$"):
        read_sparsifier(p, n=n)
