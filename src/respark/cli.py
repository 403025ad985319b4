"""Umbrella command line: gen, resistances, sparsify, verify, experiment.

Exit codes: 0 success (and, for verify/experiment, all checks passed),
1 a check failed, 2 bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .graph import (
    build_laplacian,
    projection_context,
    pseudo_factorize,
    read_edge_list,
    write_edge_list,
)
from .harness import GENERATOR_MODELS, GeneratorSpec, emit_report, generate, run_experiment
from .sparsify import (
    RESISTANCE_MODES,
    StreamConfig,
    StreamStepError,
    read_sparsifier,
    stream_sparsify,
    write_sparsifier,
)
from .verify import projection_error, spectral_check, write_diagnostics

__all__ = ["main"]


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=GENERATOR_MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (erdos-renyi)")
    p.add_argument("--weight-min", type=float, default=1.0)
    p.add_argument("--weight-max", type=float, default=1.0)


def _add_stream_args(p: argparse.ArgumentParser, resistance_mode: str) -> None:
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--budget-override", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resistance-mode", default=resistance_mode, choices=RESISTANCE_MODES)


def _generator_spec(args) -> GeneratorSpec:
    return GeneratorSpec(args.model, args.n, args.p, args.weight_min, args.weight_max,
                         args.seed)


def _add_gen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen", help="generate a connected weighted graph")
    _add_generator_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="edge-list file to write")
    p.set_defaults(func=_cmd_gen)


def _add_resistances(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("resistances", help="exact effective resistances per edge")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.set_defaults(func=_cmd_resistances)


def _add_sparsify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sparsify", help="run the resparsification stream")
    p.add_argument("--input", required=True, help="edge-list file")
    _add_stream_args(p, "sparsifier")
    p.add_argument("--output", required=True, help="sparsifier file to write")
    p.add_argument("--diagnostics", default=None, help="per-step diagnostics CSV")
    p.set_defaults(func=_cmd_sparsify)


def _add_verify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("verify", help="check a sparsifier file against its graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--sparsifier", required=True, help="sparsifier file")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_verify)


def _add_experiment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="seeded Monte Carlo over stream runs")
    _add_generator_args(p)
    _add_stream_args(p, "exact")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-failure-rate", type=float, default=0.05,
                   help="largest acceptable fraction of failed trials")
    p.add_argument("--report", required=True, help="report file to write")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(func=_cmd_experiment)


def _cmd_gen(args) -> int:
    spec = _generator_spec(args)
    g = generate(spec)
    comment = (
        f"generated model={spec.model} n={spec.n} p={spec.p} "
        f"weights=[{spec.weight_min},{spec.weight_max}] seed={spec.seed}"
    )
    write_edge_list(g, args.output, comment=comment)
    print(f"wrote {g.m} edges on {g.n} vertices to {args.output}")
    return 0


def _cmd_resistances(args) -> int:
    g = read_edge_list(args.graph)
    # an edge's endpoints share a component, so every resistance is finite
    rs = pseudo_factorize(build_laplacian(g)).resistances(np.column_stack((g.u, g.v)))
    total = 0.0
    for u, v, a, r in zip(g.u.tolist(), g.v.tolist(), g.weight.tolist(), rs.tolist()):
        total += a * r
        print(f"{u} {v} {a!r} {r!r}")
    print(f"# sum_check {total!r} {g.n - 1}")
    return 0


def _cmd_sparsify(args) -> int:
    g = read_edge_list(args.input)
    cfg = StreamConfig.for_graph(
        g, args.epsilon, args.delta, args.alpha, args.seed, args.budget_override
    )
    h, records = stream_sparsify(
        g,
        cfg,
        block_size=args.block_size,
        resistance_mode=args.resistance_mode,
        diagnostics=args.diagnostics is not None,
    )
    write_sparsifier(h, args.output)
    if args.diagnostics is not None:
        write_diagnostics(records, args.diagnostics)
    print(
        f"step={h.step} copies={h.copy_count()} budget={cfg.budget_n} "
        f"wrote {args.output}"
    )
    return 0


def _cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    sp = read_sparsifier(args.sparsifier, graph=g)
    ctx = projection_context(g)
    ok, worst = spectral_check(sp, ctx, args.epsilon)
    proj = projection_error(sp, ctx)
    print(f"worst_ratio {worst!r}")
    print(f"projection_error {proj!r}")
    print(f"spectral_check {'pass' if ok else 'fail'} at epsilon={args.epsilon}")
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    if not 0.0 <= args.max_failure_rate <= 1.0:  # NaN fails too
        raise ValueError(f"max failure rate must lie in [0, 1], got {args.max_failure_rate}")
    spec = _generator_spec(args)
    g = generate(spec)
    cfg = StreamConfig.for_graph(
        g, args.epsilon, args.delta, args.alpha, args.seed, args.budget_override
    )
    report = run_experiment(
        spec,
        cfg,
        trials=args.trials,
        block_size=args.block_size,
        resistance_mode=args.resistance_mode,
    )
    emit_report(report, args.report, format=args.format)
    print(
        f"regime={report.regime} trials={report.trials} "
        f"failed={report.failed_trials} rate={report.failure_rate:.4f} "
        f"ci95=({report.failure_ci95[0]:.4f}, {report.failure_ci95[1]:.4f}) "
        f"b_events={report.trials_with_b_event} "
        f"prop1_violations={report.prop1_violations} "
        f"errors={report.trials_with_error} wrote {args.report}"
    )
    ok = (
        report.trials_with_error == 0
        and report.failure_rate <= args.max_failure_rate
        and report.trials_with_b_event == 0
        and report.prop1_violations == 0
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="respark",
        description="spectral graph sparsification over edge streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_resistances(sub)
    _add_sparsify(sub)
    _add_verify(sub)
    _add_experiment(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError, StreamStepError) as exc:  # ConfigError included
        # a ValueError is bad input, a MemoryError a graph or budget too large
        # to allocate; any other failure of a step is a bug
        if isinstance(exc, StreamStepError) and not isinstance(
            exc.__cause__, (ValueError, MemoryError)
        ):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
