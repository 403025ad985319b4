"""Tests of the benchmark's own instruments.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import respark  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from respark import harness, sparsify  # noqa: E402
from run import Runner, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "byte")]

# Each binding a workload reaches, and the workload where it does most work.
HEAVY = {
    "respark.tape.RandomTape:uniforms": "mc-stress",
    "respark.graph:pseudo_factorize": "mc-stress",
    "respark.graph:is_connected": "mc-stress",
    "respark.sparsify:pseudo_factorize": "mc-stress",
    "respark.sparsify:projection_context": "mc-stress",
    "respark.sparsify:is_connected": "mc-stress",
    "respark.sparsify:exact_resistances": "mc-stress",
    "respark.sparsify:resparsify": "mc-stress",
    "respark.verify:projection_context": "mc-stress",
    "respark.verify:projection_error": "mc-stress",
    "respark.verify:quadratic_variation": "mc-stress",
    "respark.harness:is_connected": "mc-stress",
    "respark.harness:stream_sparsify": "mc-stress",
    "respark.harness:spectral_check": "mc-stress",
    "respark.harness:run_experiment": "mc-stress",
    "respark.harness:emit_report": "mc-stress",
    "respark.resistance:pseudo_factorize": "stream-n400",
    "respark.sparsify:resistances_from_sparsifier": "stream-n400",
    "respark.sparsify.Sparsifier:combined_with": "stream-n400",
    "respark.sparsify:stream_sparsify": "stream-n400",
    "respark.verify:spectral_check": "stream-n400",
    "respark.cli:main": "cli-theorem",
    "respark.cli:read_edge_list": "cli-theorem",
    "respark.cli:stream_sparsify": "cli-theorem",
    "respark.cli:write_sparsifier": "cli-theorem",
    "respark.cli:read_sparsifier": "cli-theorem",
    "respark.cli:spectral_check": "cli-theorem",
    "respark.cli:projection_context": "cli-theorem",
    "respark.cli:projection_error": "cli-theorem",
}


def traced_call(workload, workdir):
    clock = tracing.StepClock()
    runner = Runner(workload, workdir, clock)
    with tracing.Tracer() as tracer, clock.installed(workload.clock_module):
        op = runner.call(tracer)
    assert op.failures == []
    return tracer, op, tracing.layer_metrics(tracer.run_spans(op.run_id))


def test_counts_and_digest_repeat_across_traced_runs(tmp_path):
    runs = [traced_call(workloads.MonteCarloStress(1234, trials=3), tmp_path) for _ in range(2)]
    (_, op_a, a), (_, op_b, b) = runs
    assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}
    assert a["tape.keys"] > 0 and a["graph.factorize_calls"] > 0 and a["verify.qv_steps_scanned"] > 0
    assert op_a.digest == op_b.digest


def test_tracer_restores_every_binding():
    before = [(owner, attr, original) for owner, attr, original, _, _ in tracing.traced_bindings()]
    with tracing.Tracer():
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_every_reached_binding_works_on_its_heavy_workload(tmp_path):
    calls = {}
    for name, cls in workloads.WORKLOADS.items():
        tracer, _, _ = traced_call(cls(1234), tmp_path)
        calls[name] = tracer.calls_by_binding()
    for site, heavy in HEAVY.items():
        assert calls[heavy][site] >= 1, (site, heavy)
    reached = {site for counter in calls.values() for site in counter} - {"perfbench"}
    assert reached == set(HEAVY)


def hand_stream(mode: str, block_size: int, budget: int, g):
    """Trace one stream; return the layer metrics and the per-step sparsifiers."""
    cfg = respark.StreamConfig.for_graph(g, 0.5, 0.1, 1.0, 7, budget_override=budget)
    states = []
    with tracing.Tracer() as tracer, tracer.op():
        sparsify.stream_sparsify(
            g, cfg, block_size=block_size, resistance_mode=mode, diagnostics=True,
            on_step=lambda step, h, prefix, record: states.append(h),
        )
    return tracing.layer_metrics(tracer.run_spans(1)), states


def test_hand_checkable_nodrop_stream():
    # path 0-1-2-3-4 in blocks of one edge with every copy kept: step s keys
    # the s edges seen so far, so 1+2+3+4 keys of N=3 draws each
    g = respark.WeightedGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    metrics, _ = hand_stream("nodrop", 1, 3, g)
    assert metrics["tape.keys"] == 10
    assert metrics["tape.draws"] == 30
    assert metrics["tape.useful_ratio"] == 1.0
    assert metrics["sparsify.resparsify_calls"] == 4
    assert metrics["verify.qv_steps_scanned"] == 4 * 5 // 2


def test_keys_follow_alive_union_block_when_copies_drop():
    g = respark.generate(respark.GeneratorSpec("complete", 8, seed=3))
    metrics, states = hand_stream("exact", 5, 4, g)
    blocks = sparsify.partition_stream(g, 5)
    previous = [set()] + [set(h.alive) for h in states[:-1]]
    expected = sum(len(alive | set(block)) for alive, block in zip(previous, blocks))
    assert any(len(h.alive) < h.arrived for h in states)  # some edges really died
    assert metrics["tape.keys"] == expected
    steps = len(blocks)
    assert metrics["verify.qv_steps_scanned"] == steps * (steps + 1) // 2


def test_oracle_rejects_a_wrong_spectral_check(tmp_path, monkeypatch):
    original = harness.spectral_check

    def off_by_a_little(h, g, eps):
        ok, worst = original(h, g, eps)
        return ok, worst + 1e-6

    monkeypatch.setattr(harness, "spectral_check", off_by_a_little)
    workload = workloads.MonteCarloStress(1234, trials=2)
    clock = tracing.StepClock()
    with clock.installed(workload.clock_module):
        op = Runner(workload, tmp_path, clock).call()
    assert op.failures and all("disagrees" in f for f in op.failures)


def test_tail_has_ten_samples_beyond_it():
    assert tail(range(100)) == (89, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-stress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [1, 1234])
def test_inputs_are_a_function_of_the_seed(seed):
    a, b = workloads.MonteCarloStress(seed, trials=1), workloads.MonteCarloStress(seed, trials=1)
    assert a.spec == b.spec and a.graph == b.graph and a.graph.m == 201
