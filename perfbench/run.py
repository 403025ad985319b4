"""The respark benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-stress --seed 1234 --seconds 20 --trace 0

``--trace 0`` measures set-up in fresh processes, then calls the workload in
a closed loop for ``--seconds`` seconds with tracing off and reports the
end-to-end metrics. ``--trace 1`` alternates untraced calls and calls with
every layer wrapped (see tracing.py) for ``--seconds`` seconds and reports
the per-layer metrics of BENCHMARK.json, including the tracing overhead. Every call's output is
checked by the workload's oracle and digested; the digest must not change
between calls. A summary goes to stdout, followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on the 2-CPU reference machine two threads gave the n=400
# stream no speed-up and doubled its CPU time (OpenBLAS spin-waits).
BLAS_THREADS = 1
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class Op:
    """One closed-loop call of the workload."""

    run_id: int = 0
    wall_s: float = float("nan")
    latencies: list = field(default_factory=list)
    max_copies: int = 0
    worst_ratio: float = float("nan")
    failure_rate: float | None = None
    digest: str | None = None
    failures: list = field(default_factory=list)


class Runner:
    def __init__(self, workload, workdir: Path, clock):
        self.workload = workload
        self.workdir = workdir
        self.clock = clock
        self.ops: list[Op] = []

    def call(self, tracer=None) -> Op:
        op = Op()
        self.clock.take()
        try:
            start = perf_counter()
            with tracer.op() if tracer else nullcontext():
                outcome = self.workload.run(self.workdir)
            op.wall_s = perf_counter() - start
            op.run_id = tracer.run if tracer else 0
            outcome.streams = self.clock.take()
            self.workload.finish(outcome)
            op.failures = self.workload.check(outcome)
            op.digest = self.workload.digest(outcome)
            op.latencies = [x for s in outcome.streams for x in s.latencies()]
            op.max_copies = max((c for s in outcome.streams for c in s.copies), default=0)
            op.worst_ratio = outcome.worst_ratio
            op.failure_rate = getattr(outcome, "failure_rate", None)
        except Exception as exc:  # one failed call is counted, the loop goes on
            traceback.print_exc()
            op.failures = [f"{type(exc).__name__}: {exc}"]
        self.ops.append(op)
        return op

    def loop(self, seconds: float, tracer=None) -> list[Op]:
        """Call the workload again and again until `seconds` have passed."""
        ops, start = [], perf_counter()
        while True:
            ops.append(self.call(tracer))
            if perf_counter() - start >= seconds:
                return ops


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile has 10 beyond it; the maximum is
    reported as p100.
    """
    xs = sorted(samples)
    k = len(xs)
    if k >= 11:
        return xs[k - 11], 100.0 * (k - 10) / k, k
    return xs[-1], 100.0, k


def measure_setup(workload) -> tuple[list[float], list[str]]:
    times, failures = [], []
    params = json.dumps(workload.setup_params())
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), params],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if (got["m"], got["budget_n"]) != (workload.graph.m, workload.cfg.budget_n):
            failures.append(f"setup probe built m={got['m']} N={got['budget_n']}")
        times.append(got["setup_s"])
    return times, failures


def step_metrics(ops) -> tuple[dict, dict]:
    """Median and tail block latency, pooled over the given calls."""
    latencies_ms = [x * 1e3 for op in ops for x in op.latencies]
    tail_ms, tail_pct, tail_n = tail(latencies_ms)
    values = {"step_p50_ms": statistics.median(latencies_ms), "step_tail_ms": tail_ms}
    notes = {"step_p50_ms": f"{tail_n} steps", "step_tail_ms": f"p{tail_pct:.2f} of {tail_n} steps"}
    return values, notes


def end_to_end(setup_times, ops, workload) -> tuple[dict, dict]:
    walls = [op.wall_s for op in ops]
    values, notes = step_metrics(ops)
    values.update({
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "space_ratio": max(op.max_copies for op in ops) / workload.cfg.budget_n,
    })
    notes.update({
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(ops)} calls, {min(walls):.4g} to {max(walls):.4g}",
        "space_ratio": f"max copies over N={workload.cfg.budget_n}",
    })
    return values, notes


def per_layer(tracer, traced, untraced, count_names) -> tuple[dict, dict]:
    """Layer metrics of the traced calls; step latency of the untraced ones."""
    import tracing

    per_op = [tracing.layer_metrics(tracer.run_spans(op.run_id)) for op in traced]
    values = {
        name: per_op[0][name] if name in count_names else statistics.median(m[name] for m in per_op)
        for name in per_op[0]
    }
    walls = statistics.median(op.wall_s for op in traced), statistics.median(op.wall_s for op in untraced)
    values["trace.overhead_ratio"] = walls[0] / walls[1] - 1.0
    step_values, notes = step_metrics(untraced)
    values.update(step_values)
    notes.update({
        "trace.overhead_ratio": f"traced {walls[0]:.4f} s vs untraced {walls[1]:.4f} s",
        "tape.keys": f"counts per call; times are medians of {len(traced)} traced calls",
    })
    return values, notes


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        record = json.loads((HERE / "record.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return record.get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "respark" / "__init__.py").is_file():
        print(f"error: no respark source tree at {SRC}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import respark

    if not Path(respark.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported respark from {respark.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    clock = tracing.StepClock()
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(workload, Path(tmp), clock)
        if args.trace == 0:
            setup_times, failures = measure_setup(workload)
            with clock.installed(workload.clock_module):
                if workload.warmup:
                    runner.call()
                timed = runner.loop(args.seconds)
        else:
            # alternate untraced and traced calls so that drift of the
            # machine's speed does not show up as tracing overhead
            tracer, untraced, traced = tracing.Tracer(), [], []
            start = perf_counter()
            while not traced or perf_counter() - start < args.seconds:
                with clock.installed(workload.clock_module):
                    untraced.append(runner.call())
                with tracer, clock.installed(workload.clock_module):
                    traced.append(runner.call(tracer))
            tracer.write_jsonl(OUT / f"spans-{args.workload}.jsonl")

    ops = runner.ops
    digests = [op.digest for op in ops if op.digest is not None]
    for op in ops:
        if op.digest is not None and op.digest != digests[0]:
            op.failures.append("output digest differs from the first call's")
    failed = sum(1 for op in ops if op.failures)
    for op in ops:
        for message in op.failures:
            print(f"check failed: {message}", file=sys.stderr)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    values, notes, listed = {}, {}, []
    good = [op for op in ops if not op.failures]
    if args.trace == 0:
        listed = spec["end_to_end"]
        timed_ok = [op for op in timed if not op.failures]
        if timed_ok and setup_times:
            values, notes = end_to_end(setup_times, timed_ok, workload)
    else:
        listed = spec["per_layer"]
        traced_ok = [op for op in traced if not op.failures]
        untraced_ok = [op for op in untraced if not op.failures]
        if traced_ok and untraced_ok:
            count_names = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "byte")}
            values, notes = per_layer(tracer, traced_ok, untraced_ok, count_names)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if values}
    correct = failed == 0 and not failures and bool(metrics)

    recorded = recorded_digest(args.workload, args.seed)
    digest = digests[0] if len(set(digests)) == 1 else "inconsistent"
    if recorded is None:
        digest_note = "no recorded digest for this seed"
    else:
        digest_note = "same as recorded" if recorded == digest else f"recorded {recorded}"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} calls, {failed} failed, BLAS threads {BLAS_THREADS}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{note}")
    for name in ("step_p50_ms", "step_tail_ms"):
        if name in values and name not in metrics:
            print(f"  {name:32s} {values[name]:>16.6g} ms  ({notes[name]}; not gated)")
    if good:
        print(f"  {'worst_ratio':32s} {good[-1].worst_ratio:>16.6g}  (final sparsifier; not gated)")
        if good[-1].failure_rate is not None:
            print(f"  {'failure_rate':32s} {good[-1].failure_rate:>16.6g}  (failed trials over trials; not gated)")
    print(f"  {'error_rate':32s} {failed / max(len(ops), 1):>16.6g}  ({failed} of {len(ops)} calls)")
    print(f"  digest sha256:{digest}  ({digest_note})")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
