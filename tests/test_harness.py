"""Generators, the Monte Carlo experiment driver, and report files."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom

from respark import graph as graph_mod, sparsify as sparsify_mod, verify as verify_mod
from respark.graph import is_connected
from respark.harness import (
    GeneratorSpec,
    TrialStepRow,
    _pair_topology,
    clopper_pearson,
    emit_report,
    generate,
    load_report_json,
    read_report_rows,
    report_from_dict,
    report_to_dict,
    run_experiment,
    tree_first_order,
)
from respark.sparsify import ConfigError, StreamConfig, StreamStepError, stream_sparsify
from respark.verify import spectral_check


def _cfg(g, seed=0, budget=50, eps=0.5):
    return StreamConfig.for_graph(g, eps, 0.1, 1.0, seed=seed, budget_override=budget)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(model="star", n=5),
        dict(model="path", n=1),
        dict(model="erdos-renyi", n=5),
        dict(model="erdos-renyi", n=5, p=0.0),
        dict(model="erdos-renyi", n=5, p=1.5),
        dict(model="path", n=5, weight_min=2.0, weight_max=1.0),
        dict(model="path", n=5, weight_min=0.0, weight_max=1.0),
        # non-finite bounds, which rng.uniform cannot draw between
        dict(model="path", n=5, weight_min=1.0, weight_max=math.inf),
        dict(model="path", n=5, weight_min=math.inf, weight_max=math.inf),
        dict(model="path", n=5, weight_min=1.0, weight_max=math.nan),
        # a bool is no real number, though True compares as 1
        dict(model="erdos-renyi", n=6, p=True),
        dict(model="path", n=5, weight_min=True, weight_max=True),
    ],
)
def test_generator_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GeneratorSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n=4.5), "vertex count must be an integer, got 4.5"),
        (dict(n=4, seed=0.25), "generator seed must be an integer, got 0.25"),
        (dict(n=4, seed=-1), "generator seed must be >= 0, got -1"),
        (dict(n=4, seed=True), "generator seed must be an integer, got True"),
    ],
)
def test_generator_spec_takes_an_integer_n_and_seed(kwargs, message):
    # refused where the spec is made, in words that name the field
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(GeneratorSpec("path", **kwargs))
    spec = GeneratorSpec("path", np.int64(4), seed=np.uint8(3))
    assert (type(spec.n), type(spec.seed)) == (int, int) and (spec.n, spec.seed) == (4, 3)


def test_path_topology():
    g = generate(GeneratorSpec("path", 4))
    assert [(e.u, e.v, e.weight) for e in g.edges] == [
        (0, 1, 1.0),
        (1, 2, 1.0),
        (2, 3, 1.0),
    ]


def test_cycle_topology():
    g = generate(GeneratorSpec("cycle", 5))
    assert g.m == 5
    degree = np.zeros(5, dtype=int)
    for e in g.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert np.all(degree == 2)


def test_complete_topology():
    g = generate(GeneratorSpec("complete", 4))
    assert g.m == 6
    assert {frozenset((e.u, e.v)) for e in g.edges} == {
        frozenset(p) for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    }


def test_barbell_topology():
    # two cliques of 3 and 4 vertices plus one bridge
    g = generate(GeneratorSpec("barbell", 7))
    assert g.m == 3 + 6 + 1
    assert is_connected(g)


def test_generation_is_deterministic():
    spec = GeneratorSpec("erdos-renyi", 15, p=0.3, seed=42, weight_min=0.5, weight_max=2.0)
    g1 = generate(spec)
    generate.cache_clear()  # regenerate, not a cache hit
    g2 = generate(spec)
    assert g1.edges == g2.edges
    g3 = generate(GeneratorSpec("erdos-renyi", 15, p=0.3, seed=43, weight_min=0.5, weight_max=2.0))
    assert g1.edges != g3.edges


def test_weight_ranges():
    g = generate(GeneratorSpec("complete", 6, weight_min=0.5, weight_max=2.0, seed=3))
    w = g.weight
    assert np.all((0.5 <= w) & (w <= 2.0))
    assert w.min() != w.max()
    unit = generate(GeneratorSpec("complete", 6))
    assert np.all(unit.weight == 1.0)


def test_disconnected_draw_gets_connectors():
    # p = 0.06 at n = 20 rarely comes out connected; seed 5 needs 4
    # connector edges and a reorder, and the result must be connected with
    # a spanning tree up front
    spec = GeneratorSpec("erdos-renyi", 20, p=0.06, seed=5)
    g = generate(spec)
    raw = _pairs(spec, np.random.default_rng(spec.seed))
    assert g.m > len(raw)
    assert [(e.u, e.v) for e in g.edges[: len(raw)]] != raw
    assert is_connected(g)
    assert is_connected(g.prefix(g.n - 1))


def _pairs(spec, rng):
    return list(zip(*(a.tolist() for a in _pair_topology(spec, rng))))


def _pair_loop(spec, rng):
    # the per-pair loops the vectorized generator replaced: one draw per
    # pair (i < j) in row-major order for erdos-renyi
    n = spec.n
    if spec.model in ("path", "cycle"):
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * (spec.model == "cycle")
    if spec.model == "barbell":
        k = n // 2
        left = [(i, j) for i in range(k) for j in range(i + 1, k)]
        right = [(i, j) for i in range(k, n) for j in range(i + 1, n)]
        return left + right + [(max(k - 1, 0), k)]
    pairs = []
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            if spec.model == "complete" or rng.random() < spec.p:
                pairs.append((i, j))
    return pairs


@pytest.mark.parametrize("model", ["complete", "erdos-renyi", "path", "cycle", "barbell"])
@pytest.mark.parametrize("n", [2, 3, 7, 40, 101])
def test_pair_topology_matches_the_per_pair_loop(model, n):
    for seed in range(3):
        spec = GeneratorSpec(model, n, p=(0.05, 0.3, 1.0)[seed], seed=seed)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _pairs(spec, ours) == _pair_loop(spec, theirs)
        # the weights are drawn next, from the same generator state
        assert ours.random() == theirs.random()


def test_every_generated_graph_is_connected():
    for seed in range(10):
        g = generate(GeneratorSpec("erdos-renyi", 12, p=0.15, seed=seed))
        assert is_connected(g)
        assert is_connected(g.prefix(g.n - 1))


def test_tree_first_order_is_stable():
    g = generate(GeneratorSpec("erdos-renyi", 10, p=0.5, seed=1))
    ordered = tree_first_order(g)
    assert set(ordered.edges) == set(g.edges)
    tree, rest = ordered.edges[: g.n - 1], ordered.edges[g.n - 1 :]
    # relative order within each group matches the input order
    pos = {e: i for i, e in enumerate(g.edges)}
    assert [pos[e] for e in tree] == sorted(pos[e] for e in tree)
    assert [pos[e] for e in rest] == sorted(pos[e] for e in rest)


# ---------------------------------------------------------------------------
# confidence intervals


def test_clopper_pearson_zero_failures():
    lo, hi = clopper_pearson(0, 200)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1 / 200))


def test_clopper_pearson_all_failures():
    lo, hi = clopper_pearson(200, 200)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 200))


def test_clopper_pearson_symmetry():
    lo, hi = clopper_pearson(30, 100)
    lo2, hi2 = clopper_pearson(70, 100)
    assert lo == pytest.approx(1.0 - hi2)
    assert hi == pytest.approx(1.0 - lo2)


def test_clopper_pearson_coverage_endpoints():
    # at the upper endpoint the chance of seeing <= k failures is the tail
    k, n = 5, 100
    _, hi = clopper_pearson(k, n)
    assert binom.cdf(k, n, hi) == pytest.approx(0.025, abs=1e-10)
    lo, _ = clopper_pearson(k, n)
    assert binom.cdf(k - 1, n, lo) == pytest.approx(0.975, abs=1e-10)


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(1, 10, confidence=1.0)


# ---------------------------------------------------------------------------
# experiment driver


def test_run_experiment_validation():
    spec = GeneratorSpec("path", 5)
    g = generate(spec)
    cfg = _cfg(g)
    with pytest.raises(ValueError, match="at least one trial"):
        run_experiment(spec, cfg, trials=0)
    with pytest.raises(ValueError, match="resistance mode"):
        run_experiment(spec, cfg, trials=1, resistance_mode="bogus")
    with pytest.raises(ValueError, match="block size must be >= 1, got 0"):
        run_experiment(spec, cfg, trials=1, block_size=0)
    with pytest.raises(ConfigError, match="block size must be >= 1, got 0"):
        run_experiment(spec, cfg, trials=1, block_size=np.int64(0))
    other = _cfg(generate(GeneratorSpec("path", 6)))
    with pytest.raises(ValueError, match="does not match graph.*StreamConfig.for_graph"):
        run_experiment(spec, other, trials=1)
    # same n and m, but weights drawn from [0.25, 1] give kappa > 1
    heavy = _cfg(generate(GeneratorSpec("path", 5, weight_min=0.25, seed=3)))
    assert (heavy.n, heavy.m) == (cfg.n, cfg.m) and heavy.kappa > 1.0
    with pytest.raises(ValueError, match="kappa.*StreamConfig.for_graph"):
        run_experiment(spec, heavy, trials=1)


@pytest.mark.parametrize("block_size", [2.5, "3", True])
def test_run_experiment_refuses_a_block_size_that_is_no_integer(monkeypatch, block_size):
    # the input is refused before any trial, not recorded as trial errors
    spec = GeneratorSpec("path", 5)
    monkeypatch.setattr("respark.harness.stream_sparsify", pytest.fail)
    with pytest.raises(ConfigError, match="block size must be an integer"):
        run_experiment(spec, _cfg(generate(spec)), trials=2, block_size=block_size)


@pytest.mark.parametrize("trials", [2.5, "3", True])
def test_run_experiment_refuses_a_trial_count_that_is_no_integer(monkeypatch, trials):
    # refused before the graph is generated
    spec = GeneratorSpec("path", 5)
    cfg = _cfg(generate(spec))
    monkeypatch.setattr("respark.harness.generate", pytest.fail)
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_experiment(spec, cfg, trials=trials)


def test_run_experiment_stores_a_numpy_block_size_as_an_int(tmp_path):
    spec = GeneratorSpec("erdos-renyi", 10, p=0.4, seed=2)
    cfg = _cfg(generate(spec), seed=7, budget=40)
    report = run_experiment(spec, cfg, trials=np.int64(2), block_size=np.int64(12))
    assert type(report.block_size) is int and type(report.trials) is int
    assert report == run_experiment(spec, cfg, trials=2, block_size=12)
    emit_report(report, tmp_path / "report.json", format="json")
    assert load_report_json(tmp_path / "report.json") == report


def test_run_experiment_shape_and_determinism():
    spec = GeneratorSpec("erdos-renyi", 10, p=0.4, seed=2)
    g = generate(spec)
    cfg = _cfg(g, seed=7, budget=40)
    block = 12  # >= the 9 tree edges, so every prefix is connected
    r1 = run_experiment(spec, cfg, trials=5, block_size=block)
    assert r1.trials == 5
    assert len(r1.trial_seeds) == 5
    assert len(set(r1.trial_seeds)) == 5
    steps = math.ceil(g.m / block)
    assert len(r1.rows) == 5 * steps
    assert {row.trial for row in r1.rows} == set(range(5))
    for row in r1.rows:
        assert row.seed == r1.trial_seeds[row.trial]
        assert row.spectral_ok is not None
    assert len(r1.step_stats) == steps
    assert all(s.trials == 5 for s in r1.step_stats)
    r2 = run_experiment(spec, cfg, trials=5, block_size=block)
    assert r1 == r2


def test_run_experiment_regime_labels():
    spec = GeneratorSpec("path", 4)
    g = generate(spec)
    stress = run_experiment(spec, _cfg(g, budget=20), trials=1, block_size=3)
    assert stress.regime == "stress"
    theorem_cfg = StreamConfig.for_graph(g, 0.5, 0.1, 1.0, seed=0)
    theorem = run_experiment(spec, theorem_cfg, trials=1, block_size=g.m)
    assert theorem.regime == "theorem"
    assert theorem.failed_trials == 0


def test_run_experiment_failure_accounting():
    # the failure rate counts trials, not rows, and the interval matches
    # the count
    spec = GeneratorSpec("erdos-renyi", 12, p=0.4, seed=1)
    g = generate(spec)
    report = run_experiment(spec, _cfg(g, seed=3, budget=25), trials=20, block_size=12)
    failed = report.failed_trials
    assert 0 <= failed <= 20
    a_or_b = {r.trial for r in report.rows if r.a_event or r.b_event}
    assert failed == len(a_or_b | {e.trial for e in report.errors})
    assert report.failure_rate == failed / 20
    assert report.failure_ci95 == clopper_pearson(failed, 20)


def test_run_experiment_disconnected_prefixes_skip_spectral():
    spec = GeneratorSpec("path", 5)
    report = run_experiment(spec, _cfg(generate(spec), budget=10), trials=1, block_size=1)
    first = report.rows[0]
    assert first.spectral_ok is None
    assert math.isnan(first.worst_ratio)
    assert math.isnan(first.proj_error_norm)
    assert not first.a_event
    last = report.rows[-1]
    assert last.spectral_ok is not None


# the acceptance suite's stress run: 201 edges in five blocks of 50, every
# prefix connected (the 39 tree edges come first)
STRESS_SPEC = GeneratorSpec("erdos-renyi", 40, p=0.25, seed=1234)


def _stress_cfg(alpha=1.0):
    g = generate(STRESS_SPEC)
    return StreamConfig.for_graph(g, 0.5, 0.1, alpha, seed=1234, budget_override=2000)


@pytest.mark.parametrize("mode", ["exact", "noisy", "sparsifier"])
def test_shared_references_change_no_bit(mode):
    # each trial's rows equal those of an independent stream with its own
    # references and a spectral check that builds its own context; alpha
    # 1.5 gives the noisy mode a real noise band
    g, cfg = generate(STRESS_SPEC), _stress_cfg(alpha=1.5)
    report = run_experiment(STRESS_SPEC, cfg, trials=3, block_size=50, resistance_mode=mode)
    assert report.errors == ()
    rebuilt = []
    for t, seed in enumerate(report.trial_seeds):

        def collect(step, h, prefix, record, t=t, seed=seed):
            ok, worst = spectral_check(h, prefix, cfg.eps)
            rebuilt.append(TrialStepRow(t, seed, **vars(record), spectral_ok=ok, worst_ratio=worst))

        stream_sparsify(g, cfg.with_seed(seed), block_size=50, resistance_mode=mode,
                        diagnostics=True, on_step=collect)
    assert len(rebuilt) == 3 * 5
    assert report.rows == tuple(rebuilt)  # field by field, floats by ==


def _spy(monkeypatch, calls, owner, name, label):
    """Append label to calls on every call of owner.name."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(label)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_reference_work_does_not_grow_with_the_trials(monkeypatch):
    # per run: one whole-graph context (a factorisation, which the
    # variation, its leverages and the last prefix read), and per step index
    # one spectral-check context (an eigh for its range basis, no factor)
    # and, but for the last, one exact factor, whatever the trial count
    calls = []
    _spy(monkeypatch, calls, graph_mod, "pseudo_factorize", "factorize")
    _spy(monkeypatch, calls, sparsify_mod, "pseudo_factorize", "factorize")
    _spy(monkeypatch, calls, np.linalg, "eigh", "eigh")
    counts = {}
    for trials in (1, 4):
        calls.clear()
        run_experiment(STRESS_SPEC, _stress_cfg(), trials=trials, block_size=50)
        counts[trials] = Counter(calls)
    assert counts[1] == counts[4] == Counter(factorize=4 + 1, eigh=5)


def test_a_single_stream_reads_its_whole_graph_through_one_factorisation(monkeypatch):
    # a diagnostics stream on a graph at or below the Lanczos crossover: the
    # whole-graph context makes one factorisation, which the variation, its
    # leverages and the last step's prefix of all m edges read, and no eigh;
    # each earlier step makes its prefix's factor
    g = generate(STRESS_SPEC)
    assert g.n <= verify_mod._LANCZOS_ABOVE
    calls = []
    _spy(monkeypatch, calls, graph_mod, "pseudo_factorize", "context")
    _spy(monkeypatch, calls, sparsify_mod, "pseudo_factorize", "prefix")
    _spy(monkeypatch, calls, np.linalg, "eigh", "eigh")
    _, records = stream_sparsify(g, _stress_cfg(), block_size=50, resistance_mode="exact",
                                 diagnostics=True)
    assert len(records) == 5
    assert Counter(calls) == Counter(context=1, prefix=4)


def test_run_experiment_records_trial_errors(monkeypatch):
    import respark.harness as harness_mod

    spec = GeneratorSpec("path", 5)
    g = generate(spec)
    cfg = _cfg(g, budget=10)
    real = harness_mod.stream_sparsify
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise StreamStepError(2, "synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "stream_sparsify", flaky)
    report = run_experiment(spec, cfg, trials=3, block_size=2)
    assert report.trials_with_error == 1
    assert report.failed_trials >= 1
    assert report.errors[0].trial == 0
    assert report.errors[0].step == 2
    assert "synthetic failure" in report.errors[0].message
    # the errored trial contributes no rows
    assert {r.trial for r in report.rows} == {1, 2}


def test_run_experiment_error_without_step(monkeypatch):
    import respark.harness as harness_mod

    spec = GeneratorSpec("path", 4)
    cfg = _cfg(generate(spec), budget=10)

    def boom(*args, **kwargs):
        raise ValueError("no step attached")

    monkeypatch.setattr(harness_mod, "stream_sparsify", boom)
    report = run_experiment(spec, cfg, trials=2, block_size=3)
    assert report.trials_with_error == 2
    assert all(e.step == -1 for e in report.errors)
    assert report.failure_rate == 1.0
    assert report.rows == ()
    assert report.step_stats == ()


# ---------------------------------------------------------------------------
# report files


def _nan_free_report():
    spec = GeneratorSpec("erdos-renyi", 10, p=0.4, seed=2)
    g = generate(spec)
    return run_experiment(spec, _cfg(g, seed=7, budget=40), trials=3, block_size=12)


def test_report_json_round_trip(tmp_path):
    report = _nan_free_report()
    path = tmp_path / "report.json"
    emit_report(report, path, format="json")
    loaded = load_report_json(path)
    assert loaded == report
    assert math.isnan(loaded.wall_clock_seconds)  # never serialized


def test_report_json_is_byte_stable(tmp_path):
    report = _nan_free_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, p1, format="json")
    emit_report(_nan_free_report(), p2, format="json")
    assert p1.read_bytes() == p2.read_bytes()


def test_report_csv_round_trip(tmp_path):
    report = _nan_free_report()
    path = tmp_path / "rows.csv"
    emit_report(report, path, format="csv")
    rows = read_report_rows(path)
    assert rows == list(report.rows)


def test_report_csv_keeps_none_spectral(tmp_path):
    spec = GeneratorSpec("path", 5)
    report = run_experiment(spec, _cfg(generate(spec), budget=10), trials=1, block_size=1)
    path = tmp_path / "rows.csv"
    emit_report(report, path, format="csv")
    rows = read_report_rows(path)
    assert rows[0].spectral_ok is None
    assert math.isnan(rows[0].worst_ratio)
    assert rows[-1].spectral_ok == report.rows[-1].spectral_ok


def test_report_csv_optional_bool_column(tmp_path):
    # spectral_ok may be empty (None); otherwise only true and false parse
    path = tmp_path / "rows.csv"
    emit_report(_nan_free_report(), path, format="csv")
    header, first = path.read_text().splitlines()[:2]
    at = header.split(",").index("spectral_ok")

    def write_cell(cell):
        cells = first.split(",")
        cells[at] = cell
        path.write_text(f"{header}\n{','.join(cells)}\n")

    for cell, want in [("", None), ("true", True), ("false", False)]:
        write_cell(cell)
        assert read_report_rows(path)[0].spectral_ok is want
    for cell in ("True", "0"):
        write_cell(cell)
        with pytest.raises(ValueError) as info:
            read_report_rows(path)
        assert str(info.value) == (
            f"{path}:2: column spectral_ok: expected true or false, got {cell!r}"
        )


def test_report_schema_guard():
    report = _nan_free_report()
    data = report_to_dict(report)
    assert data["schema_version"] == 1
    assert data["kind"] == "respark-experiment-report"
    assert report_from_dict(data) == report
    bad = dict(data)
    bad["schema_version"] = 2
    with pytest.raises(ValueError, match="schema version"):
        report_from_dict(bad)


def test_report_budget_consistency_guard():
    data = report_to_dict(_nan_free_report())
    data["config"] = dict(data["config"])
    data["config"]["budget_n"] = data["config"]["budget_n"] + 1
    with pytest.raises(ValueError, match="budget_n"):
        report_from_dict(data)


def test_load_report_json_rejects_malformed_reports(tmp_path):
    data = report_to_dict(_nan_free_report())
    no_generator = {k: v for k, v in data.items() if k != "generator"}
    no_budget = {**data, "config": {k: v for k, v in data["config"].items() if k != "budget_n"}}
    fractional = {**data["generator"], "n": 6.5, "seed": 0.25}
    cases = [
        ("[]", "expected a JSON object, got list"),
        (json.dumps(no_generator), "missing field 'generator'"),
        (json.dumps(no_budget), "missing field 'budget_n'"),
        (json.dumps({**data, "generator": [1, 2]}), "must be a mapping"),
        (json.dumps({**data, "schema_version": 2}), "unsupported report schema version 2"),
        (json.dumps({**data, "generator": fractional}),
         "vertex count must be an integer, got 6.5"),
        (json.dumps({**data, "generator": {**fractional, "n": 6}}),
         "generator seed must be an integer, got 0.25"),
        (json.dumps({**data, "config": {**data["config"], "seed": True}}),
         "seed must be an integer, got True"),
        (json.dumps({**data, "generator": {**data["generator"], "p": True}}),
         "p must be a real number, got True"),
        (json.dumps({**data, "config": {**data["config"], "alpha": True}}),
         "alpha must be a real number, got True"),
        ("{", "Expecting property name"),
    ]
    path = tmp_path / "report.json"
    for text, error in cases:
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_report_json(path)
        assert str(info.value).startswith(f"{path}: "), text
        assert error in str(info.value), text


def test_report_field_order_is_stable():
    data = report_to_dict(_nan_free_report())
    assert list(data)[:5] == ["schema_version", "kind", "regime", "generator", "config"]
    assert json.dumps(data)  # serializable as-is


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit_report(_nan_free_report(), tmp_path / "x.bin", format="xml")
