"""Seeded experiment harness: graph generators, the Monte Carlo driver
that reruns the stream pipeline under many tape seeds with full per-step
verification, and report emission.

Experiments run in one of two labeled regimes. "theorem" uses the derived
budget, which exceeds the edge count at desk scale, so every probability
stays 1 and the run checks pipeline exactness. "stress" overrides the
budget downward to make drops actually happen and compares the observed
event rates against the failure-probability targets. The distinction is
recorded in every report.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .graph import WeightedGraph, _integer, _UnionFind, is_connected
from .sparsify import StreamConfig, _block_size, _check_run_inputs, _References, stream_sparsify
from .tape import RandomTape
from .verify import _read_rows, _write_rows, spectral_check

__all__ = [
    "ExperimentReport",
    "GeneratorSpec",
    "TrialError",
    "TrialStepRow",
    "StepStats",
    "clopper_pearson",
    "emit_report",
    "generate",
    "load_report_json",
    "read_report_rows",
    "run_experiment",
    "tree_first_order",
]

GENERATOR_MODELS = ("path", "cycle", "complete", "erdos-renyi", "barbell")

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GeneratorSpec:
    """A seeded graph-generation request.

    Weight range [weight_min, weight_max], finite, is sampled uniformly
    per edge; the degenerate range [1, 1] gives unit weights exactly.
    """

    model: str
    n: int
    p: float | None = None
    weight_min: float = 1.0
    weight_max: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in GENERATOR_MODELS:
            raise ValueError(f"model must be one of {GENERATOR_MODELS}, got {self.model!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        if self.model == "erdos-renyi":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError(f"erdos-renyi needs edge probability in (0, 1], got {self.p}")
        if not 0.0 < self.weight_min <= self.weight_max < math.inf:  # NaN fails too
            raise ValueError(f"need 0 < weight_min <= weight_max < inf, "
                             f"got [{self.weight_min}, {self.weight_max}]")


def tree_first_order(g: WeightedGraph) -> WeightedGraph:
    """Stable reorder putting a spanning forest first.

    Streams whose prefixes are connected keep the per-step projection
    reference well-defined from the first checkpoint on; the experiment
    driver generates graphs in this order.
    """
    uf = _UnionFind(g.n)
    tree = np.array([uf.union(u, v) for u, v in zip(g.u.tolist(), g.v.tolist())], dtype=bool)
    order = np.concatenate((np.flatnonzero(tree), np.flatnonzero(~tree)))
    return WeightedGraph(g.n, g.u[order], g.v[order], g.weight[order])


def _pair_topology(spec: GeneratorSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The model's vertex pairs as endpoint columns (i, j)."""
    n = spec.n
    if spec.model in ("path", "cycle"):
        i = np.arange(n - 1)
        if spec.model == "cycle":
            return np.append(i, n - 1), np.append(i + 1, 0)
        return i, i + 1
    if spec.model == "barbell":
        k = n // 2
        (li, lj), (ri, rj) = np.triu_indices(k, 1), np.triu_indices(n - k, 1)
        return (np.concatenate((li, ri + k, [max(k - 1, 0)])),
                np.concatenate((lj, rj + k, [k])))
    # complete, or erdos-renyi keeping each pair on one draw in row-major order
    i, j = np.triu_indices(n, 1)
    if spec.model == "erdos-renyi":
        keep = rng.random(len(i)) < spec.p
        i, j = i[keep], j[keep]
    return i, j


@functools.lru_cache(maxsize=1)
def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Connected weighted graph for a GeneratorSpec, deterministic per seed.

    Edges come out spanning-tree first; disconnected draws get minimal
    connector edges appended before reordering. The graph of the last spec
    is cached (both types are frozen), so a caller and the experiment
    driver it hands the spec to share one generation.
    """
    rng = np.random.default_rng(spec.seed)
    i, j = _pair_topology(spec, rng)
    uf = _UnionFind(spec.n)
    for u, v in zip(i.tolist(), j.tolist()):
        uf.union(u, v)
    reps = np.array(sorted({uf.find(x) for x in range(spec.n)}))
    i, j = np.append(i, reps[:-1]), np.append(j, reps[1:])  # connectors between components
    weights = rng.uniform(spec.weight_min, spec.weight_max, size=len(i))
    return tree_first_order(WeightedGraph(spec.n, i, j, weights))


def clopper_pearson(failures: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval for a failure count."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, {trials}], got {failures}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    # Beta quantiles of a failures and b successes by the inverse regularized
    # incomplete beta, imported here so that only experiments load SciPy
    from scipy.special import betaincinv
    tail = (1.0 - confidence) / 2.0
    a, b = failures, trials - failures
    lo = 0.0 if a == 0 else float(betaincinv(a, b + 1, tail))
    hi = 1.0 if b == 0 else float(betaincinv(a + 1, b, 1.0 - tail))
    return lo, hi


@dataclass(frozen=True)
class TrialStepRow:
    """One (trial, step) measurement: the step's DiagnosticsRecord fields
    plus the spectral check; spectral_ok is None on steps whose prefix
    graph is disconnected (no reference to check against)."""

    trial: int
    seed: int
    step: int
    copy_count: int
    proj_error_norm: float
    w_norm: float
    budget_n: int
    a_event: bool
    b_event: bool
    spectral_ok: bool | None
    worst_ratio: float


@dataclass(frozen=True)
class TrialError:
    trial: int
    step: int
    message: str


@dataclass(frozen=True)
class StepStats:
    step: int
    trials: int
    copy_count_mean: float
    copy_count_max: int
    proj_error_mean: float
    proj_error_max: float
    w_norm_mean: float
    w_norm_max: float


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo outcome.

    Bit-reproducible from (generator, config, block size, mode): the
    wall-clock field is populated at run time but excluded from emitted
    files and from equality, so serialized reports depend only on the
    master seed and parameters.
    """

    generator: GeneratorSpec
    config: StreamConfig
    block_size: int
    resistance_mode: str
    regime: str
    trials: int
    trial_seeds: tuple[int, ...]
    trials_with_a_event: int
    trials_with_b_event: int
    trials_with_error: int
    failed_trials: int
    failure_rate: float
    failure_ci95: tuple[float, float]
    prop1_violations: int
    step_stats: tuple[StepStats, ...]
    rows: tuple[TrialStepRow, ...]
    errors: tuple[TrialError, ...]
    wall_clock_seconds: float = field(default=float("nan"), compare=False)


def _nan_stats(values: Sequence[float]) -> tuple[float, float]:
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan"), float("nan")
    return float(np.mean(finite)), float(np.max(finite))


def _aggregate(
    generator: GeneratorSpec,
    cfg: StreamConfig,
    block_size: int,
    mode: str,
    trial_seeds: Sequence[int],
    rows: Sequence[TrialStepRow],
    errors: Sequence[TrialError],
    wall_clock: float,
) -> ExperimentReport:
    trials = len(trial_seeds)
    a_trials = {r.trial for r in rows if r.a_event}
    b_trials = {r.trial for r in rows if r.b_event}
    err_trials = {e.trial for e in errors}
    failed = a_trials | b_trials | err_trials
    prop1 = sum(
        1
        for r in rows
        if not math.isnan(r.proj_error_norm)
        and r.proj_error_norm <= cfg.eps
        and r.spectral_ok is False
    )
    by_step: dict[int, list[TrialStepRow]] = {}
    for r in rows:
        by_step.setdefault(r.step, []).append(r)
    stats = []
    for step in sorted(by_step):
        group = by_step[step]
        proj_mean, proj_max = _nan_stats([r.proj_error_norm for r in group])
        w_mean, w_max = _nan_stats([r.w_norm for r in group])
        counts = [r.copy_count for r in group]
        stats.append(
            StepStats(
                step=step,
                trials=len(group),
                copy_count_mean=float(np.mean(counts)),
                copy_count_max=int(max(counts)),
                proj_error_mean=proj_mean,
                proj_error_max=proj_max,
                w_norm_mean=w_mean,
                w_norm_max=w_max,
            )
        )
    return ExperimentReport(
        generator=generator,
        config=cfg,
        block_size=block_size,
        resistance_mode=mode,
        regime="stress" if cfg.budget_override is not None else "theorem",
        trials=trials,
        trial_seeds=tuple(int(s) for s in trial_seeds),
        trials_with_a_event=len(a_trials),
        trials_with_b_event=len(b_trials),
        trials_with_error=len(err_trials),
        failed_trials=len(failed),
        failure_rate=len(failed) / trials,
        failure_ci95=clopper_pearson(len(failed), trials),
        prop1_violations=prop1,
        step_stats=tuple(stats),
        rows=tuple(rows),
        errors=tuple(errors),
        wall_clock_seconds=wall_clock,
    )


def run_experiment(
    spec: GeneratorSpec,
    cfg: StreamConfig,
    trials: int,
    block_size: int | None = None,
    resistance_mode: str = "exact",
) -> ExperimentReport:
    """T independent stream runs over one generated graph, fully verified.

    The graph is generated once from spec; trial t reruns the stream under
    tape seed child("trial/t") of cfg.seed. Every step records the
    diagnostics row plus a spectral check of the sparsifier against the
    stream prefix (skipped, with spectral_ok None, while the prefix is
    disconnected). A trial counts as failed when any step raises a_event
    or b_event, or when the run errors; errored trials keep their error
    message and trial index in the report and contribute no rows.

    What a step reads of its prefix does not depend on the tape seed: the
    prefix graph, its exact estimates, its grounded factors and its
    projection context are built once per step index, like the whole-graph
    context of the variation norm, and every trial reads the same ones.
    """
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    block_size = cfg.budget_n if block_size is None else _block_size(block_size)
    start = time.perf_counter()
    g = generate(spec)
    _check_run_inputs(g, cfg, resistance_mode)
    master = RandomTape(cfg.seed)
    trial_seeds = [master.child_seed(f"trial/{t}") for t in range(trials)]
    rows: list[TrialStepRow] = []
    errors: list[TrialError] = []
    references = _References(g)
    for t, seed in enumerate(trial_seeds):
        cfg_t = cfg.with_seed(seed)
        trial_rows: list[TrialStepRow] = []

        def collect(step, h, prefix, record, _trial=t, _seed=seed, _rows=trial_rows):
            if is_connected(prefix):
                ok, worst = spectral_check(h, references.prefix(prefix.m).spectral, cfg.eps)
            else:
                ok, worst = None, float("nan")
            _rows.append(
                TrialStepRow(_trial, _seed, **vars(record), spectral_ok=ok, worst_ratio=worst)
            )

        try:
            stream_sparsify(
                g,
                cfg_t,
                block_size=block_size,
                resistance_mode=resistance_mode,
                diagnostics=True,
                on_step=collect,
                references=references,
            )
        except Exception as exc:
            step = getattr(exc, "step", -1)
            errors.append(TrialError(t, int(step), f"{type(exc).__name__}: {exc}"))
            continue
        rows.extend(trial_rows)
    wall = time.perf_counter() - start
    return _aggregate(spec, cfg, block_size, resistance_mode, trial_seeds, rows, errors, wall)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: ExperimentReport) -> dict:
    """Stable-ordered plain-dict form, wall clock excluded: schema_version,
    kind and regime, then the report's fields in declaration order."""
    data = asdict(report)
    del data["wall_clock_seconds"]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "respark-experiment-report",
        "regime": data.pop("regime"),
        **data,
    }


def _from_json(kind, value):
    """A JSON value as the annotated field type: a dataclass from an object,
    a tuple from an array (of dataclasses when annotated so)."""
    if is_dataclass(kind):
        return kind(**value)
    if get_origin(kind) is tuple:
        return tuple(_from_json(get_args(kind)[0], item) for item in value)
    return value


def report_from_dict(data: dict) -> ExperimentReport:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema version {data.get('schema_version')!r}"
        )
    # StreamConfig derives budget_n from the other fields: compare, not pass
    config = dict(data["config"])
    budget_n = config.pop("budget_n")
    data = {**data, "config": config}
    kinds = get_type_hints(ExperimentReport)
    report = ExperimentReport(**{
        f.name: _from_json(kinds[f.name], data[f.name])
        for f in fields(ExperimentReport)
        if f.name != "wall_clock_seconds"
    })
    if report.config.budget_n != budget_n:
        raise ValueError(
            f"stored budget_n={budget_n} disagrees with recomputed {report.config.budget_n}"
        )
    return report


def emit_report(report: ExperimentReport, path, format: str = "json") -> str:
    """Write the report; JSON carries the whole report (schema versioned),
    CSV carries one row per (trial, step) for external aggregation."""
    path = str(path)
    if format == "json":
        payload = json.dumps(report_to_dict(report), indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        return path
    if format == "csv":
        _write_rows(path, report.rows, TrialStepRow)
        return path
    raise ValueError(f"format must be 'json' or 'csv', got {format!r}")


def load_report_json(path) -> ExperimentReport:
    """A report back from JSON; a malformed one raises ValueError starting 'path:'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return report_from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_report_rows(path) -> list[TrialStepRow]:
    """Rows back from a CSV emission."""
    return _read_rows(path, TrialStepRow, "report")
