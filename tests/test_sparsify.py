"""Budget arithmetic, the resparsification step, the stream drivers, and
their agreement with an independent dense-indicator reference."""

import inspect
import io
import math
import re
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respark import graph as graph_mod
from respark import harness
from respark import sparsify as sparsify_mod
from respark import verify as verify_mod
from respark.graph import (
    GraphConnectivityError,
    WeightedGraph,
    build_laplacian,
    is_connected,
    projection_context,
    pseudo_factorize,
)
from respark.harness import GeneratorSpec, generate, run_experiment
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
from respark.verify import projection_error, quadratic_variation, spectral_check

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
        dict(alpha=True),  # a bool is no real number, though True compares as 1
        dict(kappa=True),
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
    with pytest.raises(ConfigError, match="seed must be an integer, got True"):
        StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=True)
    cfg = StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=np.int64(2))
    assert type(cfg.seed) is int and cfg == StreamConfig(0.5, 0.1, 1.0, 1.0, 10, 45, seed=2)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        cfg.with_seed(2.5)


@pytest.mark.parametrize("override", [2.5, 2000.0, np.float64(3.0), True])
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
    assert partition_stream(g, np.int64(3)) == partition_stream(g, 3)
    with pytest.raises(ValueError):
        partition_stream(g, 0)


@pytest.mark.parametrize("block_size", [2.5, 3.0, "3", True])
def test_a_block_size_that_is_no_integer_is_refused(block_size):
    # a float would be truncated, so it is refused like a str, before any step
    g = generate(GeneratorSpec("path", 11))
    message = f"block size must be an integer, got {block_size!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        partition_stream(g, block_size)
    with pytest.raises(ConfigError, match=re.escape(message)):
        stream_sparsify(g, _small_cfg(g, budget=10), block_size=block_size,
                        resistance_mode="exact", on_step=pytest.fail)


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


def test_resparsify_rejects_a_column_that_does_not_match_the_targets():
    cfg = _small_cfg(PATH3)
    h0 = Sparsifier.empty(PATH3, cfg)
    with pytest.raises(ValueError, match=r"need 2 resistance estimates, one per target edge, "
                                         r"got an array of shape \(1,\)"):
        resparsify(h0, [0, 1], np.array([2.0]), RandomTape(0))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_resparsify_rejects_an_estimate_that_is_not_positive(bad):
    # the ResistanceEstimate check, made once over the column: NaN fails too
    cfg = _small_cfg(PATH3)
    h0 = Sparsifier.empty(PATH3, cfg)
    with pytest.raises(ValueError, match=f"estimate of edge 1 must be positive, got {bad}"):
        resparsify(h0, [0, 1], np.array([2.0, bad]), RandomTape(0))


def test_a_column_and_estimate_objects_give_the_same_state():
    # objects in any order are matched to the targets by edge id
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.6, seed=4))
    cfg = _small_cfg(g, seed=8, budget=300)
    h1 = resparsify(Sparsifier.empty(g, cfg), range(5), np.full(5, 0.5), RandomTape(8))
    targets = h1._targets(range(5, 9))
    r = np.linspace(0.2, 0.9, len(targets))
    ests = [ResistanceEstimate(e, x, 1.0) for e, x in zip(targets, r.tolist())][::-1]
    by_column = resparsify(h1, range(5, 9), r, RandomTape(8))
    by_objects = resparsify(h1, range(5, 9), ests, RandomTape(8))
    for name in ("p", "count", "copies"):
        assert getattr(by_column, name).tobytes() == getattr(by_objects, name).tobytes()


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


def _copy_ids(trace, s):
    """Each seen edge's surviving copy ids at row s, read off the row's
    copies column, which holds them edge after edge."""
    counts = trace.alive_steps[s][: trace.arrived[s]].tolist()
    ends = np.cumsum([0] + counts).tolist()
    assert ends[-1] == len(trace.copy_steps[s])
    return {e: trace.copy_steps[s][ends[e]:ends[e + 1]].tolist() for e in range(len(counts))}


def _trace_matches_reference(trace, rows):
    assert trace.arrived == [row[0] for row in rows]
    for name, k in (("p_steps", 1), ("alive_steps", 2)):
        got = getattr(trace, name)
        assert len(got) == len(rows)
        assert all(np.array_equal(a, row[k]) for a, row in zip(got, rows)), name
    assert len(trace.copy_steps) == len(rows)
    for s, (arrived, _, _, Z) in enumerate(rows):
        assert Z[arrived:].all()  # the N copies of each unseen edge, which rows leave out
        want = {e: np.flatnonzero(Z[e]).tolist() for e in range(arrived)}
        assert _copy_ids(trace, s) == want, s
    for e in range(trace.graph.m):
        # the (m, N) indicator formula, max over rows of z / p, bit for bit
        want = np.stack([Z[e] / p[e] for _, p, _, Z in rows]).max(axis=0)
        assert np.array_equal(trace.max_copy_ratios(e), want), e


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


def test_split_and_windowed_draws_keep_every_bit(monkeypatch):
    # ER(40, 0.25) at its theorem budget N = 484,918 in blocks of 67: every
    # step compares more than _SPLIT_DRAWS uniforms, and a block edge's N
    # draws span several windows. Serial draws with one call per block edge
    # (no windows), serial windows, and two threads give the same columns.
    g = generate(GeneratorSpec("erdos-renyi", 40, p=0.25, seed=1234))
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=1234)
    assert cfg.budget_n == 484_918 > sparsify_mod._WINDOW and g.m == 201
    drawn_by = set()
    kept = sparsify_mod._kept

    def recorded(*args):
        drawn_by.add(threading.current_thread().name)
        return kept(*args)

    monkeypatch.setattr(sparsify_mod, "_kept", recorded)
    states = {}
    for name, cpus, window in (("one call", 1, cfg.budget_n), ("windows", 1, None),
                               ("split", 2, None)):
        with monkeypatch.context() as patch:
            patch.setattr(sparsify_mod, "_usable_cpus", lambda: cpus)
            if window is not None:
                patch.setattr(sparsify_mod, "_WINDOW", window)
            drawn_by.clear()
            states[name], _ = stream_sparsify(g, cfg, block_size=67, diagnostics=False)
            assert len(drawn_by) == cpus
    want = states.pop("one call")
    for h in states.values():
        for name in ("p", "count", "copies"):
            assert getattr(h, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_draw_that_fails_fails_its_step_and_leaves_no_thread(monkeypatch, cpus):
    # the last edge of block 1 fails to draw; with two CPUs the helper pops
    # it first (the caller waits for that), and the step fails as the
    # serial one does, with the helper joined
    g = generate(GeneratorSpec("erdos-renyi", 40, p=0.25, seed=1234))
    cfg = _small_cfg(g, seed=3, budget=2**17)
    assert 67 * cfg.budget_n >= sparsify_mod._SPLIT_DRAWS
    failed = threading.Event()
    failed_on = []

    class FailingTape(RandomTape):
        def uniforms(self, step, edge, count, at=None):
            if edge == 66:
                failed_on.append(threading.current_thread())
                failed.set()
                raise ValueError(f"no draws for edge {edge}")
            if cpus == 2:
                assert failed.wait(timeout=60)
            return super().uniforms(step, edge, count, at)

    monkeypatch.setattr(sparsify_mod, "RandomTape", FailingTape)
    monkeypatch.setattr(sparsify_mod, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(StreamStepError) as caught:
        stream_sparsify(g, cfg, block_size=67, resistance_mode="nodrop", diagnostics=False)
    assert (caught.value.step, str(caught.value)) == (1, "step 1: no draws for edge 66")
    assert (failed_on[0] is threading.main_thread()) == (cpus == 1)
    assert threading.active_count() == threads


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from(("path", "cycle", "complete")),
    n=st.integers(3, 8),
    seed=st.integers(0, 999),
    block=st.integers(1, 6),
    diagnostics=st.booleans(),
)
def test_drivers_agree_on_copy_sets(model, n, seed, block, diagnostics):
    # the drivers and the dense reference share the keyed tape, so any
    # common partition yields bit-identical state, and the same records
    g = generate(GeneratorSpec(model, n))
    cfg = _small_cfg(g, seed=seed, budget=50)
    hb, records_b = stream_sparsify(g, cfg, block_size=block, resistance_mode="exact",
                                    diagnostics=diagnostics)
    hi, records_i, _ = indicator_stream(g, cfg, block_size=block, resistance_mode="exact",
                                        diagnostics=diagnostics, record_copies=False)
    _same_state(hb, hi)
    assert len(records_b) == (len(partition_stream(g, block)) if diagnostics else 0)
    assert repr(records_b) == repr(records_i)  # repr: a disconnected prefix records NaN
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
    # every resistance is read off the grounded Cholesky factor; only a
    # projection context's range basis calls eigh
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
    projection_context(g).range_basis
    assert calls == [(g.n, g.n)]  # the spy sees the range basis's eigh


@pytest.mark.parametrize("mode", ["sparsifier", "exact"])
def test_a_single_stream_holds_one_step_reference_at_a_time(monkeypatch, mode):
    # step s's prefix reference (graph, factors, contexts) is dead by step
    # s + 1, so a long stream's memory does not grow with its steps
    import respark.sparsify as sparsify_mod

    refs = []

    class Watched(sparsify_mod._PrefixReference):
        def __init__(self, *args):
            super().__init__(*args)
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
    twin = sparsify_mod._References(WeightedGraph(g.n, g.u, g.v, g.weight))  # an equal graph is g
    (h, records), (h_own, records_own) = (
        stream_sparsify(g, _small_cfg(g), references=refs) for refs in (twin, None)
    )
    assert records == records_own and h.p_tilde == h_own.p_tilde


def test_sparsifier_laplacian_is_built_on_every_read(tmp_path):
    # no sparsifier keeps its Laplacian: two reads have the same bits, and
    # writing into one changes neither the next read nor the state
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.4, seed=9))
    h, _ = stream_sparsify(g, _small_cfg(g, budget=7), block_size=5, resistance_mode="exact",
                           diagnostics=False)
    write_sparsifier(h, tmp_path / "h.sparsifier")
    loaded = read_sparsifier(tmp_path / "h.sparsifier", g)
    for state in (h, loaded):
        lap = state.laplacian()
        want = lap.tobytes()
        assert lap is not state.laplacian() and state.laplacian().tobytes() == want
        lap[0, 0] = 0.0
        assert state.laplacian().tobytes() == want
        assert not [k for k, v in vars(state).items() if np.ndim(v) == 2]


def test_a_diagnostics_stream_leaves_no_laplacian_on_its_state():
    # neither the instruments nor spectral_check leave an n x n array on the
    # final state
    g = generate(GeneratorSpec("erdos-renyi", 20, p=0.4, seed=2))
    h, records = stream_sparsify(g, _small_cfg(g, seed=5, budget=60), block_size=15,
                                 resistance_mode="sparsifier")
    assert records and h.arrived == g.m
    spectral_check(h, g, 0.5)
    assert not [k for k, v in vars(h).items() if np.ndim(v) == 2]


def test_state_columns_are_read_only_and_are_the_trace_rows():
    # with diagnostics on, the variation reads a trace of its own; the
    # returned one still shares each state's columns
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.6, seed=4))
    for diagnostics in (False, True):
        states = []
        h, records, trace = indicator_stream(
            g, _small_cfg(g, seed=8, budget=30), 4, "exact", diagnostics=diagnostics,
            record_copies=False, on_step=lambda step, h, prefix, record: states.append(h),
        )
        assert len(records) == (len(states) if diagnostics else 0)
        assert states[-1] is h and any(0 in hs.count[: hs.arrived] for hs in states)
        assert trace.steps == len(states) and trace.copy_steps is None
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


def test_nodrop_keeps_probability_one_on_weighted_graphs():
    # at r_e = alpha (n - 1) / a_e, a_e r_e / (alpha (n - 1)) rounds to
    # 1 - 2**-53 on some weights; the estimate nodrop gives leaves every p
    # at 1.0, so the variation is exactly 0
    spec = GeneratorSpec("erdos-renyi", 30, p=0.3, weight_min=0.5, weight_max=2.0, seed=3)
    g = generate(spec)
    with pytest.warns(UserWarning, match="exceeds 1"):
        cfg = _small_cfg(g, budget=20)
    _, _, trace = indicator_stream(g, cfg, block_size=40, resistance_mode="nodrop",
                                   diagnostics=False, record_copies=False)
    assert all((p == 1.0).all() for p in trace.p_steps)
    assert quadratic_variation(trace, projection_context(g)) == 0.0


@pytest.mark.parametrize("mode", ["sparsifier", "nodrop", "exact", "noisy"])
def test_streams_build_resistance_estimates_only_for_the_oracle(monkeypatch, mode):
    # the estimates go to resparsify as one column a step; the oracle's
    # exact_resistances is the one producer of ResistanceEstimate objects,
    # one per edge of each prefix, and only "exact" and "noisy" read it
    built = []
    check = ResistanceEstimate.__post_init__

    def spy(est):
        built.append(est.edge_id)
        check(est)

    monkeypatch.setattr(ResistanceEstimate, "__post_init__", spy)
    g = generate(GeneratorSpec("erdos-renyi", 12, p=0.5, seed=5))
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.5, seed=3, budget_override=40)
    blocks = partition_stream(g, 6)
    stream_sparsify(g, cfg, block_size=6, resistance_mode=mode)
    prefixes = [range(b[-1] + 1) for b in blocks]
    assert built == ([e for prefix in prefixes for e in prefix] if mode in ("exact", "noisy")
                     else [])


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
    for s in range(1, trace.steps + 1):
        prev = _copy_ids(trace, s - 1)
        for e, ids in _copy_ids(trace, s).items():
            # an edge unseen at s - 1 had all N copies
            assert set(ids) <= set(prev.get(e, range(cfg.budget_n))), (s, e)


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


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _records_are_the_instruments_bits(g, mode):
    states = []
    _, records, trace = indicator_stream(
        g, _small_cfg(g, seed=5, budget=300), block_size=100, resistance_mode=mode,
        record_copies=False, on_step=lambda step, h, prefix, record: states.append((h, prefix)),
    )
    assert len(records) == len(states) == trace.steps == len(partition_stream(g, 100))
    for s, (record, (h, prefix)) in enumerate(zip(records, states), start=1):
        proj = projection_error(h, prefix) if is_connected(prefix) else math.nan
        w_norm = quadratic_variation(trace, projection_context(g), upto=s)
        assert (record.step, record.copy_count) == (s, h.copy_count())
        assert _bits(record.proj_error_norm) == _bits(proj), s
        assert _bits(record.w_norm) == _bits(w_norm), s
    # both kinds of step: a prefix still disconnected, and one connected
    assert math.isnan(records[0].proj_error_norm) and not math.isnan(records[-1].proj_error_norm)


@pytest.mark.parametrize("mode", ["sparsifier", "exact"])
def test_diagnostics_records_are_the_instruments_bits(mode):
    # each record holds, byte for byte, what the public instruments give when
    # called step by step with fresh contexts: projection_error against the
    # prefix, and the variation on the run's trace against a new context of
    # the whole graph
    _records_are_the_instruments_bits(generate(GeneratorSpec("erdos-renyi", 200, p=0.05, seed=7)), mode)


@pytest.mark.parametrize("mode", ["sparsifier", "exact"])
def test_diagnostics_records_are_the_instruments_bits_above_the_lanczos_crossover(mode):
    # the same above the crossover, where the variation is read by Lanczos
    n = verify_mod._LANCZOS_ABOVE + 44
    _records_are_the_instruments_bits(generate(GeneratorSpec("erdos-renyi", n, p=0.05, seed=7)), mode)


def test_a_diagnostics_stream_holds_few_n_by_n_arrays(traced_peak):
    # ER(400, 0.05) in blocks of 200 at N = 500: a step holds the whole
    # graph's grounded factors (the variation reads them by Lanczos, above
    # its crossover, and no range basis), the trace, and the arrays of one
    # factorisation or one instrument at a time; no state keeps its
    # Laplacian and no factors keep theirs, so never 7 float64 n x n arrays
    g = generate(GeneratorSpec("erdos-renyi", 400, p=0.05, seed=1))
    (h, records), peak = traced_peak(lambda: stream_sparsify(
        g, _small_cfg(g, seed=1234, budget=500), block_size=200, resistance_mode="sparsifier",
    ))
    assert len(records) == len(partition_stream(g, 200)) and h.arrived == g.m
    assert peak <= 7 * g.n**2 * 8


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


class _ObserverFault(Exception):
    pass


@pytest.mark.parametrize("driver", [stream_sparsify, indicator_stream])
def test_an_observer_error_reaches_the_caller_unchanged(monkeypatch, driver):
    # on_step's own exception is no step failure: it is not wrapped, and no
    # later step is estimated or resparsified
    import respark.sparsify as sparsify_mod

    g = generate(GeneratorSpec("path", 8))
    steps, fault = [], _ObserverFault("observer failed")
    original = sparsify_mod.resparsify
    monkeypatch.setattr(sparsify_mod, "resparsify",
                        lambda *args: steps.append("resparsify") or original(*args))

    def observe(step, h, prefix, record):
        steps.append(step)
        if step == 2:
            raise fault

    with pytest.raises(_ObserverFault) as caught:
        driver(g, _small_cfg(g, budget=10), 2, "exact", on_step=observe)
    assert caught.value is fault and caught.value.__cause__ is None
    assert steps == ["resparsify", 1, "resparsify", 2]
    assert len(partition_stream(g, 2)) > 2


def test_public_stream_signatures_are_pinned():
    # the names, order, kinds and defaults callers rely on
    positional, keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
    required = inspect.Parameter.empty
    want = {
        stream_sparsify: [("g", positional, required), ("cfg", positional, required),
                          ("block_size", positional, None),
                          ("resistance_mode", positional, "sparsifier"),
                          ("diagnostics", positional, True), ("on_step", positional, None),
                          ("references", keyword, None)],
        indicator_stream: [("g", positional, required), ("cfg", positional, required),
                           ("block_size", positional, 1),
                           ("resistance_mode", positional, "sparsifier"),
                           ("diagnostics", positional, True),
                           ("record_copies", positional, True), ("on_step", positional, None)],
        single_edge_stream: [("g", positional, required), ("cfg", positional, required),
                             ("resistance_mode", positional, "sparsifier"),
                             ("diagnostics", positional, True),
                             ("record_copies", positional, True), ("on_step", positional, None)],
        run_experiment: [("spec", positional, required), ("cfg", positional, required),
                         ("trials", positional, required), ("block_size", positional, None),
                         ("resistance_mode", positional, "exact")],
    }
    for fn, params in want.items():
        got = inspect.signature(fn).parameters.values()
        assert [(p.name, p.kind, p.default) for p in got] == params, fn.__name__


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


def test_a_trace_keeps_each_states_copies_not_an_indicator_matrix(traced_peak):
    # at N = 50,000 an (m, N) indicator row of this graph is about 10 MB a
    # step; each trace row shares its state's copies column instead
    g = generate(THEOREM_ER)
    cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=7, budget_override=50_000)
    (h, _, trace), peak = traced_peak(lambda: indicator_stream(
        g, cfg, block_size=67, resistance_mode="sparsifier", diagnostics=False))
    assert trace.steps == math.ceil(g.m / 67) and trace.copy_steps[-1] is h.copies
    assert peak < g.m * cfg.budget_n
    e, js = next(iter(h.alive.items()))
    assert np.all(trace.max_copy_ratios(e)[js] == 1.0 / h.p_tilde[e])


def test_no_edge_triple_is_built_on_the_column_paths(monkeypatch):
    # the step loop, its diagnostics and the experiment harness read the
    # graph's columns; Edge triples are built only for callers that iterate
    built, edge = [], graph_mod.Edge
    monkeypatch.setattr(graph_mod, "Edge", lambda *fields: built.append(fields) or edge(*fields))
    harness.generate.cache_clear()  # a cached graph may have built its edges already
    spec = GeneratorSpec("erdos-renyi", 12, p=0.4, seed=6)
    g = generate(spec)
    cfg = _small_cfg(g, seed=2, budget=30)
    for mode in sparsify_mod.RESISTANCE_MODES:
        stream_sparsify(g, cfg, block_size=5, resistance_mode=mode, diagnostics=True)
    run_experiment(spec, cfg, trials=2, block_size=5)
    assert built == []
    assert len(g.edges) == len(built) == g.m  # the counter does see the triples built


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
    # in every resistance mode, dead edges included, the file read back
    # against its graph holds only the file's columns and gives the state's
    # merged columns and Laplacian bit for bit
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    cfg = _small_cfg(g, seed=42, budget=20)
    path = tmp_path / "h.sparsifier"
    dead = {}
    for mode in sparsify_mod.RESISTANCE_MODES:
        h, _ = stream_sparsify(g, cfg, block_size=3, resistance_mode=mode, diagnostics=False)
        write_sparsifier(h, path)
        loaded = read_sparsifier(path, g)
        assert loaded.graph is g and loaded.n == g.n
        assert not {"u", "v", "weight"} & vars(loaded).keys()
        assert (loaded.step, loaded.budget_n, loaded.seed) == (h.step, 20, 42)
        assert loaded.copy_count() == h.copy_count()
        alive = list(h.alive)
        assert loaded.e.tolist() == alive and np.array_equal(loaded.count, h.count[alive])
        assert np.array_equal(loaded.p_tilde, h.p[alive])
        assert np.array_equal(loaded.copies, h.copies)
        for got, want in zip(loaded.merged_columns(), h.merged_columns()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert loaded.laplacian().tobytes() == h.laplacian().tobytes()
        dead[mode] = h.arrived - len(alive)
    assert dead["exact"] > 0 and dead["sparsifier"] > 0 and dead["nodrop"] == 0


# the reader tests' graph: 7,000 parallel edges 0-1 of weight 2.5, so the row
# '0 1 0.5 e j 1.0' is the writer's for every edge e at N = 5
_PARALLEL = WeightedGraph(3, np.zeros(7000, np.int64), np.ones(7000, np.int64), np.full(7000, 2.5))


def _writer_row(g, budget, e, j, p):
    """The row write_sparsifier writes for copy j of g's edge e at N = budget and p_tilde p."""
    return f"{g.u[e]} {g.v[e]} {float(g.weight[e]) / (budget * p)!r} {e} {j} {p!r}"


def test_read_sparsifier_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text("0 1 0.5 0 3 1.0\n")
    with pytest.raises(ValueError, match="missing sparsifier header"):
        read_sparsifier(p, _PARALLEL)


def test_read_sparsifier_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_bytes(b"# respark sparsifier step=1 N=5 seed=0\n0 1 0.5 0 \xff 1.0\n")
    with pytest.raises(ValueError, match=f"^{p}: 'utf-8' codec can't decode"):
        read_sparsifier(p, _PARALLEL)


def test_read_sparsifier_rejects_malformed_row(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n0 1 0.5\n")
    with pytest.raises(ValueError, match="bad.sparsifier:2"):
        read_sparsifier(p, _PARALLEL)


@pytest.mark.parametrize(
    "row", ["0 1 1.0 0 0.5 1.0", "1e0 2 1.0 0 0 1.0", "0 1 1.0 2.0 0 1.0", "0 1.5 1.0 0 0 1.0"]
)
def test_read_sparsifier_rejects_float_in_integer_field(tmp_path, row):
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"# respark sparsifier step=1 N=5 seed=0\n0 1 0.5 0 0 1.0\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:3: .*64-bit integers"):
        read_sparsifier(p, _PARALLEL)


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
        read_sparsifier(p, _PARALLEL)


def test_bad_row_is_found_past_the_first_walk_block(tmp_path):
    rows = [f"0 1 0.5 {e} 0 1.0" for e in range(5000)]
    rows[4500] = "0 1 0.5 4500 0.0 1.0"
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:4502: "):
        read_sparsifier(p, _PARALLEL)
    rows[4500] = "0 1 0.5 4499 0 1.0"  # repeats the row before it
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.sparsifier:4502: .*repeats line 4501"):
        read_sparsifier(p, _PARALLEL)


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


def test_a_writer_file_reads_back_any_integer_seed(tmp_path):
    # a CLI --seed is any integer and run_experiment's trial seeds,
    # child_seed's, reach 2**64 - 1: the header reads each back whole
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    trial = next(seed for t in range(64)
                 if (seed := RandomTape(0).child_seed(f"trial/{t}")) >= 2**63)
    path = tmp_path / "h.sparsifier"
    for seed in (2**70, trial, -3):
        h, _ = stream_sparsify(g, _small_cfg(g, seed=seed, budget=20), block_size=3,
                               resistance_mode="exact", diagnostics=False)
        write_sparsifier(h, path)
        header = path.read_text().split("\n", 1)[0]
        assert header == f"# respark sparsifier step={h.step} N=20 seed={seed}"
        loaded = read_sparsifier(path, graph=g)
        assert (loaded.step, loaded.budget_n, loaded.seed) == (h.step, 20, seed)


@pytest.mark.parametrize("key", ["step", "N", "seed"])
def test_a_header_field_with_more_digits_than_int_reads_is_named(tmp_path, key):
    # past 4,300 digits int() refuses a decimal string; the reader names the field
    header = {"step": "1", "N": "5", "seed": "0", key: "9" * 5000}
    p = tmp_path / "h.sparsifier"
    p.write_text("# respark sparsifier " + " ".join(f"{k}={v}" for k, v in header.items())
                 + "\n0 1 0.5 0 0 1.0\n")
    with pytest.raises(ValueError) as info:
        read_sparsifier(p, _PARALLEL)
    assert str(info.value) == f"{p}: header {key}= has 5000 digits, too many to read as an integer"
    _assert_reads_like_reference(p, _PARALLEL)


def _reference_read(path, graph):
    """A line-at-a-time reader of graph's file in the writer's layout, with
    every check of the file contract: every byte UTF-8, line 1 the header,
    every later line one row as write_sparsifier writes it for graph. The
    first problem in the file raises ValueError; else returns
    ((step, N, seed), rows)."""

    def number(kind, tok):
        if not tok.isascii() or "_" in tok:
            raise ValueError(tok)
        return kind(tok)

    def read_header(first):
        first = first.strip()
        if not (first.startswith("#") and "respark sparsifier" in first):
            raise ValueError(f"{path}: missing header")
        pairs = [tok.split("=", 1) for tok in first.split() if "=" in tok]
        header = []
        for key in ("step", "N", "seed"):
            values = [value for name, value in pairs if name == key]
            if len(values) != 1 or not re.fullmatch("-?[0-9]+", values[0], re.ASCII):
                raise ValueError(f"{path}: header")
            try:
                header.append(int(values[0]))
            except ValueError:  # more digits than int() reads
                raise ValueError(f"{path}: header") from None
        if not (header[0] >= 0 and 1 <= header[1] < 2**63):
            raise ValueError(f"{path}: header")
        return tuple(header)

    with open(path, "rb") as fh:
        data = fh.read()
    # a text-mode read's lines: each ends at b"\n", b"\r\n" or a lone b"\r"
    header, rows, offset = None, [], 0
    for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            raw = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: 'utf-8' codec can't decode in position "
                             f"{offset + exc.start}") from None
        offset += len(line)
        if lineno == 1:
            header = read_header(raw)
            budget = header[1]
            continue
        tokens = raw.split()  # a blank line has none, a comment a '#' token
        if len(tokens) != 6:
            raise ValueError(f"{path}:{lineno}: tokens")
        try:
            u, v, e, j = (number(int, tokens[k]) for k in (0, 1, 3, 4))
            w, p = number(float, tokens[2]), number(float, tokens[5])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: parse") from None
        if not (0 <= u < graph.n and 0 <= v < graph.n and u != v and 0 < w < math.inf
                and 0 < p <= 1 and 0 <= e < 2**63 and 0 <= j < budget and j < 2**63
                and u < 2**63 and v < 2**63):
            raise ValueError(f"{path}:{lineno}: range")
        if rows and (e, j) <= rows[-1][3:5]:
            raise ValueError(f"{path}:{lineno}: order")  # (e, j) ascends strictly
        if rows and rows[-1][3] == e and rows[-1][:3] + rows[-1][5:] != (u, v, w, p):
            raise ValueError(f"{path}:{lineno}: mixed")  # differs from the row before
        if not (e < graph.m and (u, v) == (graph.u[e], graph.v[e])):
            raise ValueError(f"{path}:{lineno}: edge")
        if w != graph.weight[e] / (budget * p):
            raise ValueError(f"{path}:{lineno}: weight")
        rows.append((u, v, w, e, j, p))
    return header or read_header(""), rows  # an empty file has no header


def _where(exc, path):
    """Where a reader error is: the lineno of its 'path:lineno:' prefix, the
    byte offset of a decode error, or "" for another 'path:' error."""
    message = str(exc)
    assert message.startswith(f"{path}:")
    rest = message[len(str(path)) + 1:]
    lineno = rest.split(":", 1)[0]
    if rest.startswith(" 'utf-8' codec can't decode"):
        return "byte " + re.search(r"in position (\d+)", rest)[1]
    return lineno if lineno.isdigit() else ""


def _assert_reads_like_reference(path, graph):
    try:
        header, rows = _reference_read(path, graph)
    except ValueError as ref_exc:
        with pytest.raises(ValueError) as info:
            read_sparsifier(path, graph)
        assert _where(info.value, path) == _where(ref_exc, path), str(info.value)
        return
    loaded = read_sparsifier(path, graph)
    assert loaded.graph is graph and (loaded.step, loaded.budget_n, loaded.seed) == header
    # per edge by ascending e: its fields, its number of copies and its copy ids, ascending
    ids = {}
    for u, v, w, e, j, p in rows:
        ids.setdefault((e, u, v, w, p), []).append(j)
    edges = sorted(ids)  # one key per edge, as an edge's rows agree
    e, u, v, w, p = (np.array(c) for c in (zip(*edges) if edges else [()] * 5))
    count = np.array([len(ids[k]) for k in edges], dtype=np.int64)
    want = dict(e=e.astype(np.int64), p_tilde=p.astype(float), count=count,
                copies=np.array([j for k in edges for j in sorted(ids[k])], dtype=np.int64))
    for name, values in want.items():
        got = getattr(loaded, name)
        assert got.dtype == values.dtype and np.array_equal(got, values), name
    # the merged triples: the rows' endpoints, and count times the rows' weight, bit for bit
    merged = (u.astype(np.int64), v.astype(np.int64), count * w.astype(float))
    for got, values in zip(loaded.merged_columns(), merged):
        assert got.dtype == values.dtype and got.tobytes() == values.tobytes()


# the writer's layout with loose whitespace: spaces around the header,
# tabs and spaces around and between a row's fields, no final newline
_LOOSE = (
    "  # respark sparsifier step=4 N=9 seed=-3   \n"
    "0\t1 0.25 0 0 0.5\n"
    "1 2\t\t0.1 2 8 1.0   \n"
    "2 0 2.9999999999999997e-05 5 3 1e-3\t\n"
    "\t0 2 1.5 6 4 0.75"
)
# _LOOSE's graph: each row's weight is a_e / (N * p_tilde) of its edge at N = 9,
# bit for bit; edges 1, 3 and 4 have no rows
_LOOSE_G = WeightedGraph.from_edges(3, [(0, 1, 1.125), (0, 1, 1.0), (1, 2, 0.9), (0, 1, 1.0),
                                        (0, 1, 1.0), (2, 0, 2.7e-7), (0, 2, 10.125)])


def test_reader_columns_match_reference_on_loose_layout(tmp_path):
    p = tmp_path / "loose.sparsifier"
    p.write_text(_LOOSE)
    _assert_reads_like_reference(p, _LOOSE_G)
    loaded = read_sparsifier(p, _LOOSE_G)
    assert (loaded.step, loaded.budget_n, loaded.seed, loaded.copy_count()) == (4, 9, -3, 4)
    assert loaded.e.tolist() == [0, 2, 5, 6] and loaded.copies.tolist() == [0, 8, 3, 4]


def test_reader_reports_true_line_of_bad_row(tmp_path):
    p = tmp_path / "bad.sparsifier"
    p.write_text("# respark sparsifier step=1 N=5 seed=0\n"
                 + "".join(f"0 1 0.5 0 {j} 1.0\n" for j in (0, 1, 2, 9)))
    with pytest.raises(ValueError, match=r"bad\.sparsifier:5: .*copy index"):
        read_sparsifier(p, _PARALLEL)


_HEADER = "# respark sparsifier step=1 N=5 seed=0"
_MESSAGES = {
    "range": "need distinct vertex ids",
    "copy": r"need an edge id e >= 0 and a copy index j in \[0, 5\)",
    "parse": "expected 'u v weight e j p_tilde' with 64-bit integers",
    "edge": "need an edge id e < 7000 and graph edge e's endpoints in its order",
    "weight": r"need the weight a_e / \(N \* p_tilde\) of graph edge e at N=5",
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
        ("1 0 0.5 1 0 1.0", "edge"),
        ("0 1 0.5 7000 0 1.0", "edge"),
        ("0 1 0.25 1 0 1.0", "weight"),
        ("0 1 0.5 1 0 0.5", "weight"),
        # a_e / (N * p_tilde) overflows to inf, with no RuntimeWarning
        ("0 1 0.5 1 0 5e-324", "weight"),
        ("0 1 0.5 1 0 1e-320", "weight"),
    ],
)
def test_each_row_check_is_named(tmp_path, row, check):
    # one term of the row contract broken per row, on _PARALLEL (n = 3) and N = 5
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"{_HEADER}\n0 1 0.5 0 0 1.0\n{row}\n0 1 0.5 2 0 1.0\n")
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:3: {_MESSAGES.get(check, check)}"):
        read_sparsifier(p, _PARALLEL)


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
        read_sparsifier(p, _PARALLEL)


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
        read_sparsifier(p, _PARALLEL)


@pytest.mark.parametrize("tail", ["", "0 1 0.5\n"])
def test_repeat_names_the_true_line_of_its_first_copy(tmp_path, tail):
    # edge 0's five copies come before the two of edge 1; with the unparsed
    # tail the rows come from the line-by-line parse
    p = tmp_path / "bad.sparsifier"
    p.write_text(f"{_HEADER}\n" + "".join(f"0 1 0.5 0 {j} 1.0\n" for j in range(5))
                 + "0 1 0.5 1 0 1.0\n0 1 0.5 1 0 1.0\n" + tail)
    with pytest.raises(ValueError, match=r"bad\.sparsifier:8: copy j=0 of edge e=1 repeats line 7$"):
        read_sparsifier(p, _PARALLEL)


_ORDER = r"need rows in \(e, j\) order as the writer writes them; "


def test_the_first_row_out_of_order_is_reported(tmp_path):
    p = tmp_path / "bad.sparsifier"
    # a lower edge id; the repeats of lines 2 and 3 come later
    rows = ["0 1 0.5 5 0 1.0", "0 1 0.5 1 0 1.0", "0 1 0.5 5 1 1.0", "0 1 0.5 5 0 1.0",
            "0 1 0.5 1 0 1.0"]
    p.write_text(f"{_HEADER}\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:3: {_ORDER}e=1 j=0 follows line 2$"):
        read_sparsifier(p, _PARALLEL)
    # a lower copy index of the same edge, past two higher ones
    p.write_text(f"{_HEADER}\n0 1 0.5 0 1 1.0\n0 1 0.5 0 2 1.0\n0 1 0.5 0 3 1.0\n"
                 "0 1 0.5 0 0 1.0\n")
    with pytest.raises(ValueError, match=rf"bad\.sparsifier:5: {_ORDER}e=0 j=0 follows line 4$"):
        read_sparsifier(p, _PARALLEL)


_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.integers(2**62, 2**65).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1_0", "0x1", "1.0", "+2", "007", "٣", "#", "#c", "1e999"]),
)
# the fuzz's graph: 5 vertices, 5 edges of differing weights
_FUZZ_G = WeightedGraph.from_edges(
    5, [(e, (e + 1 + e % 3) % 5, a) for e, a in enumerate([0.3, 1.0, 2.5, 1e-3, 7.0])]
)
# the writer's rows of _FUZZ_G under the header '# respark sparsifier step=2 N=6 seed=1',
# in (e, j) order; an edge's p_tilde is drawn and follows from e, so the rows of an
# edge agree and edges have several
_GOOD_ROWS = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=8, unique=True).map(sorted),
    st.floats(1e-6, 1.0),
).map(lambda drawn: [_writer_row(_FUZZ_G, 6, e, j, drawn[1] / (e + 1)) for e, j in drawn[0]])
_ROW = _GOOD_ROWS.filter(bool).map(lambda rows: rows[0])
_BAD_LINES = st.one_of(
    _ROW,  # may repeat an (e, j) pair of the good rows
    _ROW.map(lambda row: row.rsplit(" ", 1)[0]),  # truncated
    _ROW.map(lambda row: row.rsplit(" ", 1)[0] + " 1.0"),  # p_tilde not the weight's
    _ROW.map(lambda row: row + " # trailing comment"),
    # bytes that are not UTF-8 anywhere in a row, written through surrogateescape
    st.tuples(_ROW, st.sampled_from(["\udcff", "\udce2\udc82", "\udce2\udc82("]),
              st.integers(0, 40)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
    st.lists(_TOKENS, min_size=5, max_size=7).map(" ".join),
    st.sampled_from(["", "  \t", "# comment", "# respark sparsifier step=1 N=3 seed=2",
                     "# respark sparsifier step=x N=5", "# respark sparsifier N=1_0",
                     "# respark sparsifier", "# respark sparsifier step=+1 N=1_0 seed=٣",
                     "# respark sparsifier step=1 N=5 N=9 seed=0",
                     "# respark sparsifier step=1 N=0 seed=0",
                     "# respark sparsifier step=-1 N=3 seed=0",
                     f"# respark sparsifier step=1 N={2**63} seed=0"]),
)
# headers valid for _GOOD_ROWS: N = 6, the fields in any order, any seed
_GOOD_HEADERS = st.sampled_from([
    "# respark sparsifier step=2 N=6 seed=1",
    f"# respark sparsifier step=0 N=6 seed={2**70}",
    "# respark sparsifier seed=-5 N=6 step=3",
])


@settings(max_examples=300, deadline=None)
@given(
    rows=_GOOD_ROWS,
    extra=st.lists(st.tuples(st.integers(0, 8), _BAD_LINES), max_size=2),
    header=_GOOD_HEADERS,
    header_at=st.sampled_from([0, 0, 0, 1, None]),
    sep=st.sampled_from(["\n", "\r\n", " \t\n"]),
    end=st.booleans(),
    chunk=st.integers(1, 60),
)
def test_reader_fuzz_matches_reference(
    tmp_path_factory, rows, extra, header, header_at, sep, end, chunk
):
    # mostly writer files (the header on line 1, with or without a final
    # newline) with up to two inserted lines that may break them, a bad byte
    # among them, the header sometimes on line 2 or missing, read whole (the
    # default chunk holds any of them) and in small chunks
    lines = list(rows)
    for pos, line in extra:
        lines.insert(pos, line)
    if header_at is not None:
        lines.insert(header_at, header)
    p = tmp_path_factory.mktemp("fuzz") / "f.sparsifier"
    text = sep.join(lines) + (sep if end and lines else "")
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    _assert_reads_like_reference(p, _FUZZ_G)
    whole = _read_outcome(p, _FUZZ_G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparsify_mod, "_READ_CHUNK", chunk)
        assert _read_outcome(p, _FUZZ_G) == whole


@settings(max_examples=100, deadline=None)
@given(rows=_GOOD_ROWS.flatmap(st.permutations), chunk=st.integers(1, 60))
def test_reader_fuzz_on_shuffled_rows(tmp_path_factory, rows, chunk):
    # the rows of a valid file in any order: one out of (e, j) order is
    # refused where the reference refuses it, read whole and in small chunks
    p = tmp_path_factory.mktemp("fuzz") / "f.sparsifier"
    p.write_text("\n".join(["# respark sparsifier step=2 N=6 seed=1", *rows]) + "\n")
    _assert_reads_like_reference(p, _FUZZ_G)
    whole = _read_outcome(p, _FUZZ_G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparsify_mod, "_READ_CHUNK", chunk)
        assert _read_outcome(p, _FUZZ_G) == whole


def _read_outcome(path, graph):
    """What read_sparsifier makes of graph's file: its error message, or its
    header fields and the dtype and bytes of every column and merged triple."""
    try:
        h = read_sparsifier(path, graph)
    except ValueError as exc:
        return str(exc)
    cols = (h.e, h.p_tilde, h.count, h.copies, *h.merged_columns(), h.laplacian())
    return (h.n, h.step, h.budget_n, h.seed, *((c.dtype.str, c.tobytes()) for c in cols))


_ROWS = "".join(f"0 1 0.5 {e} 0 1.0\n" for e in range(6))
# the path 0-1-2-3, whose writer's rows at N = 5 are _COPIES: three edges of
# five copies each, every edge wider than the smaller chunks
_COPIES_G = WeightedGraph.from_edges(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])
_COPIES = [_writer_row(_COPIES_G, 5, e, j, 1.0 / (e + 1)) + "\n"
           for e in range(3) for j in range(5)]


@pytest.mark.parametrize(
    "text, graph",
    [
        (_LOOSE, _LOOSE_G),  # loose whitespace in every line and an unterminated last line
        (_LOOSE.replace("\n", "\r\n"), _LOOSE_G),
        (_LOOSE.replace("\n", "\r"), _LOOSE_G),  # a lone '\r' ends a line
        (_LOOSE.replace("\n", "\r\r\n"), _LOOSE_G),  # a lone '\r', then '\r\n': a blank line
        (f"{_HEADER}\n{_ROWS}0 1 0.5 6 0 1.0 # note\n{_ROWS}", _PARALLEL),
        (f"{_HEADER}\n{_ROWS}2 2 0.5 6 0 1.0\n{_ROWS}", _PARALLEL),
        (f"{_HEADER}\n{_ROWS}0 1 0.5 6 0\n{_ROWS}", _PARALLEL),
        (f"{_HEADER}\n{_ROWS}0 1 0.5 6 0 1.0\n0 1 0.5 2 0 1.0\n", _PARALLEL),
        (f"# respark sparsifier step=x N=5\n{_ROWS}{_ROWS}", _PARALLEL),
        (f"{_ROWS}{_HEADER}\n{_ROWS}", _PARALLEL),  # the header after rows
        (f"{_HEADER}\n" + "".join(_COPIES), _COPIES_G),
        (f"{_HEADER}\n" + "".join(_COPIES[::-1]), _COPIES_G),
        (f"{_HEADER}\n" + "".join(_COPIES[:7]) + "1 2 0.25 1 3 0.75\n" + "".join(_COPIES[9:]),
         _COPIES_G),
        (f"{_HEADER}\n{_ROWS}\n{_ROWS}", _PARALLEL),
        (f"{_HEADER}\n{_ROWS} \t\n{_ROWS}", _PARALLEL),
        (f"{_HEADER}\n{_ROWS}# note\n{_ROWS}", _PARALLEL),
        # a bad row, then a byte that is not UTF-8 on the next line or the one
        # after: some chunk after the first holds both, and the row comes first
        (f"{_HEADER}\n{_ROWS}2 2 0.5 6 0 1.0\n".encode() + b"0 1 \xff 7 0 1.0\n"
         + _ROWS.encode(), _PARALLEL),
        (f"{_HEADER}\n{_ROWS}0 1 0.5 6 9 1.0\n0 1 0.5 7 0 1.0\n".encode()
         + b"0 1 0.5 8 \xe2\x82( 1.0\n" + _ROWS.encode(), _PARALLEL),
    ],
    ids=["loose", "crlf", "cr", "cr-crlf", "hash-in-row", "bad-row", "unparsed", "repeat",
         "bad-header", "no-header", "copies", "copies-reversed", "mixed", "blank", "whitespace",
         "comment", "bad-row-then-byte", "bad-row-then-bytes"],
)
def test_any_chunk_reads_like_the_whole_file(tmp_path, monkeypatch, text, graph):
    # chunks of 1 to 60 characters put a chunk boundary inside every line
    p = tmp_path / "chunked.sparsifier"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    whole = _read_outcome(p, graph)
    for chunk in range(1, 61):
        monkeypatch.setattr(sparsify_mod, "_READ_CHUNK", chunk)
        assert _read_outcome(p, graph) == whole, chunk
        _assert_reads_like_reference(p, graph)


@pytest.mark.parametrize("header", [_HEADER, "# respark sparsifier step=x N=5"])
def test_a_decode_error_is_reported_at_its_file_offset(tmp_path, monkeypatch, header):
    # the bad byte, after 1,200 good rows and multibyte characters in the
    # header, is reported at every chunk size unless a bad header or a bad
    # row comes first
    p = tmp_path / "bad.sparsifier"
    rows = "".join(f"0 1 0.5 {e} 0 1.0\n" for e in range(1200))
    header_error = header != _HEADER and f"{p}: header step='x' is not an integer"
    for bad_row in ("", "0 1 0.5 1200 5 1.0\n"):
        head = f"{header} é € 😀\n{rows}{bad_row}0 1 ".encode()
        row_error = bad_row and (f"{p}:1202: need an edge id e >= 0 and a copy index j in "
                                 f"[0, 5), got {bad_row.strip()!r}")
        for tail, where in ((b"\xff\n", f"byte 0xff in position {len(head)}"),
                            (b"\xe2\x82(\n", f"bytes in position {len(head)}-{len(head) + 1}"),
                            (b"\xe2\x82", f"bytes in position {len(head)}-{len(head) + 1}")):
            p.write_bytes(head + tail)
            outcomes = set()
            for chunk in (2**16, 1, 2, 3, 40):
                monkeypatch.setattr(sparsify_mod, "_READ_CHUNK", chunk)
                outcomes.add(_read_outcome(p, _PARALLEL))
            assert len(outcomes) == 1
            want = header_error or row_error or f"{p}: 'utf-8' codec can't decode {where}:"
            assert outcomes.pop().startswith(want)


def _large_writer_file(tmp_path):
    """A graph and the file of its sparsifier with more than 100k copies."""
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    h, _ = stream_sparsify(g, _small_cfg(g, seed=3, budget=110_000), block_size=3,
                           resistance_mode="exact", diagnostics=False)
    path = tmp_path / "h.sparsifier"
    write_sparsifier(h, path)
    assert h.copy_count() >= 100_000
    return g, h, path


def test_reading_a_writer_file_holds_little_beyond_its_columns(tmp_path, traced_peak):
    # one pass, a chunk at a time, filling the per-edge columns over the
    # graph in place and appending the copy ids to one buffer, which becomes
    # copies: no id is held twice
    g, h, path = _large_writer_file(tmp_path)
    loaded, peak = traced_peak(lambda: read_sparsifier(path, graph=g))
    assert loaded.copy_count() == h.copy_count()
    assert peak < 1.75 * loaded.copies.nbytes


@pytest.mark.parametrize("graph", [_PARALLEL, WeightedGraph(3, [], [], [])],
                         ids=["parallel", "edgeless"])
def test_a_header_only_file_reads_as_empty_columns(tmp_path, graph):
    p = tmp_path / "empty.sparsifier"
    p.write_text(f"{_HEADER}\n")
    loaded = read_sparsifier(p, graph)
    assert (loaded.step, loaded.budget_n, loaded.seed, loaded.copy_count()) == (1, 5, 0, 0)
    for name, dtype in (("e", np.int64), ("p_tilde", np.float64), ("count", np.int64),
                        ("copies", np.int64)):
        column = getattr(loaded, name)
        assert column.dtype == dtype and column.shape == (0,), name
        assert not column.flags.writeable, name
    assert not loaded.laplacian().any()


@pytest.mark.parametrize(
    "last",
    ["{u} {v} {w} {e} 110000 {p}", "{u} {v} {w} {e} 7", "{u} {v} 0.5 {e} 7 {p}", None],
    ids=["copy-index", "five-fields", "mixed", "0xff"],
)
def test_a_bad_last_row_is_named_in_bounded_memory(tmp_path, traced_peak, last):
    # the bad line is quoted from its chunk, and the file up to it is read a
    # chunk at a time, holding no object per line
    g, h, path = _large_writer_file(tmp_path)
    if last is None:  # the last data byte, before the final newline, is not UTF-8
        data = path.read_bytes()
        path.write_bytes(data[:-2] + b"\xff\n")
        where = f"{path}: 'utf-8' codec can't decode byte 0xff in position {len(data) - 2}: "
    else:
        lines = path.read_text().splitlines()
        u, v, w, e, _, p = lines[-1].split()
        lines[-1] = last.format(u=u, v=v, w=w, e=e, p=p)
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}:{len(lines)}: "
    exc, peak = traced_peak(lambda: pytest.raises(ValueError, read_sparsifier, path, graph=g))
    assert str(exc.value).startswith(where)
    assert peak < 2 * path.stat().st_size


def test_a_read_stops_at_its_first_bad_line(tmp_path, monkeypatch):
    # a bad row at line 2 is refused after one check of the first chunk,
    # and the rest of the file is not read
    g, h, path = _large_writer_file(tmp_path)
    header, row, *rows = path.read_text().splitlines(keepends=True)
    u, v, w, e, _, p = row.split()
    path.write_text("".join([header, f"{u} {v} {w} {e} 110000 {p}\n", *rows]))
    checks, _first_bad_row = [], sparsify_mod._first_bad_row

    def first_bad_row(*args):
        checks.append(args)
        return _first_bad_row(*args)

    class Raw(io.FileIO):  # counts the bytes read from the file
        read_bytes = 0

        def readinto(self, buffer):
            n = super().readinto(buffer)
            Raw.read_bytes += n
            return n

    def counting_open(file, mode, **kwargs):  # open, in binary or text mode, through Raw
        fh = io.BufferedReader(Raw(file))
        return fh if "b" in mode else io.TextIOWrapper(fh, **kwargs)

    monkeypatch.setattr(sparsify_mod, "_first_bad_row", first_bad_row)
    monkeypatch.setattr(sparsify_mod, "open", counting_open, raising=False)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: need an edge id e >= 0"):
        read_sparsifier(path, g)
    assert len(checks) == 1
    assert Raw.read_bytes < 2 * sparsify_mod._READ_CHUNK < path.stat().st_size / 10


def test_a_shuffled_writer_file_is_refused_at_its_first_row_out_of_order(tmp_path):
    g = generate(GeneratorSpec("erdos-renyi", 8, p=0.6, seed=1))
    h, _ = stream_sparsify(g, _small_cfg(g, seed=3, budget=40), block_size=3,
                           resistance_mode="exact", diagnostics=False)
    ordered, shuffled = tmp_path / "ordered.sparsifier", tmp_path / "shuffled.sparsifier"
    write_sparsifier(h, ordered)
    assert read_sparsifier(ordered, graph=g).copy_count() == h.copy_count()
    header, *rows = ordered.read_text().splitlines(keepends=True)
    assert len(rows) == h.copy_count() > 2 * len(h.alive)
    np.random.default_rng(0).shuffle(rows)
    shuffled.write_text(header + "".join(rows))
    pairs = [tuple(map(int, row.split()[3:5])) for row in rows]
    k = next(k for k in range(1, len(pairs)) if pairs[k] <= pairs[k - 1])
    # line k + 2 holds row k, after the header
    whole = (f"{shuffled}:{k + 2}: need rows in (e, j) order as the writer writes them; "
             f"e={pairs[k][0]} j={pairs[k][1]} follows line {k + 1}")
    assert _read_outcome(shuffled, graph=g) == whole
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 17, 60):
            mp.setattr(sparsify_mod, "_READ_CHUNK", chunk)
            assert _read_outcome(shuffled, graph=g) == whole


_MIXED = r"edge e=0 differs from line 2 in u v, weight or p_tilde"


@pytest.mark.parametrize(
    "body, lineno, message",
    [
        ("0 1 0.5 0 0 1.0\n0 1 0.5 0 1 0.5\n", 3, _MIXED),  # p_tilde
        ("0 1 0.5 0 0 1.0\n1 0 0.5 0 1 1.0\n", 3, _MIXED),  # endpoints' order
        ("0 1 0.5 0 0 1.0\n0 1 0.25 0 1 1.0\n1 2 0.5 1 0 1.0\n", 3, _MIXED),  # weight
        # weight, out of order: refused for its place before its fields are compared
        ("0 1 0.5 0 0 1.0\n1 2 0.5 1 0 1.0\n0 1 0.25 0 1 1.0\n", 4,
         _ORDER + "e=0 j=1 follows line 3"),
    ],
)
def test_a_disagreeing_edge_is_refused_without_a_graph(tmp_path, body, lineno, message):
    # the rows alone refuse these files: "mixed" and "order" are named before
    # the graph rule that each row at fault breaks too
    g = WeightedGraph.from_edges(3, [(0, 1, 2.5), (1, 2, 2.5)])
    p = tmp_path / "mixed.sparsifier"
    p.write_text(f"{_HEADER}\n{body}")
    with pytest.raises(ValueError, match=rf"mixed\.sparsifier:{lineno}: {message}$"):
        read_sparsifier(p, g)


_PARSE = "expected 'u v weight e j p_tilde' with 64-bit integers u, v, e, j, got "


@pytest.mark.parametrize(
    "text, where",
    [
        (f"{_HEADER}\n0 1 0.5 0 0 1.0\n\n0 1 0.5 0 1 1.0\n", f"3: {_PARSE}''"),
        (f"{_HEADER}\n0 1 0.5 0 0 1.0\n \t \n0 1 0.5 0 1 1.0\n", f"3: {_PARSE}''"),
        (f"{_HEADER}\n0 1 0.5 0 0 1.0\n# note\n0 1 0.5 0 1 1.0\n", f"3: {_PARSE}'# note'"),
        (f"{_HEADER}\n{_HEADER}\n0 1 0.5 0 0 1.0\n", f"2: {_PARSE}{_HEADER!r}"),
        (f"{_HEADER}\n0 1 0.5 0 0 1.0\n\n", f"3: {_PARSE}''"),
        (f"\n{_HEADER}\n0 1 0.5 0 0 1.0\n", " missing sparsifier header comment"),
        (f"0 1 0.5 0 0 1.0\n{_HEADER}\n", " missing sparsifier header comment"),
        (f"# a note\n{_HEADER}\n", " missing sparsifier header comment"),
        ("", " missing sparsifier header comment"),
    ],
    ids=["blank", "whitespace", "comment", "second-header", "blank-last", "header-on-line-2",
         "late-header", "note-first", "empty"],
)
def test_a_line_out_of_the_writers_layout_is_refused_at_its_line(tmp_path, text, where):
    # a line after the header that is not a row is refused as a row that does
    # not parse; line 1 must be the header, before any row is checked
    p = tmp_path / "layout.sparsifier"
    p.write_text(text)
    assert _read_outcome(p, _PARALLEL) == f"{p}:{where}"
    _assert_reads_like_reference(p, _PARALLEL)
