# Seeded Monte Carlo study of the failure events.
#
# Reruns the stream construction under many tape seeds on one generated
# graph and tallies the two bad events per trial: a (projection error
# reaching eps at some step) and b (copy count reaching 3N). The exact
# binomial interval puts error bars on the observed rates, and the whole
# report is a pure function of the master seed, so a rerun reproduces it
# byte for byte.
#
#   python3 demos/concentration_experiment.py
#   python3 demos/concentration_experiment.py --trials 200 --budget 4000 --report out.json

import argparse
import json
import os
import tempfile

from respark import (
    GeneratorSpec,
    StreamConfig,
    clopper_pearson,
    emit_report,
    generate,
    run_experiment,
)


def main():
    ap = argparse.ArgumentParser(description="Monte Carlo failure-rate study of the stream sparsifier.")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--budget", type=int, default=2000, help="copy budget override N")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--report", default=None, help="where to write the JSON report")
    args = ap.parse_args()

    spec = GeneratorSpec("erdos-renyi", 40, p=0.25, seed=args.seed)
    g = generate(spec)
    cfg = StreamConfig.for_graph(
        g, eps=args.eps, delta=0.1, alpha=1.0, seed=args.seed, budget_override=args.budget
    )
    regime = "stress" if cfg.budget_override is not None else "theorem"
    print(f"graph: n={g.n}, m={g.m}; N={cfg.budget_n} ({regime} regime)")
    print(f"running {args.trials} trials, block size 50, exact resistances ...")

    report = run_experiment(spec, cfg, trials=args.trials, block_size=50)

    print(f"\ntrials with a-event (proj error >= eps): {report.trials_with_a_event}")
    print(f"trials with b-event (copies >= 3N):       {report.trials_with_b_event}")
    print(f"trials errored:                           {report.trials_with_error}")
    lo, hi = report.failure_ci95
    print(f"failure rate {report.failure_rate:.4f}, 95% interval [{lo:.4f}, {hi:.4f}]")
    print(f"spectral violations among passing steps:  {report.prop1_violations}")
    print(f"wall clock: {report.wall_clock_seconds:.1f}s")

    # Per-step aggregates. The projection error settles once the prefix is
    # connected; the copy count hovers near its step-1 level.
    print("\nstep  mean copies  max copies  mean proj err  max proj err")
    for s in report.step_stats:
        print(
            f"{s.step:4d}  {s.copy_count_mean:11.1f}  {s.copy_count_max:10d}"
            f"  {s.proj_error_mean:13.4f}  {s.proj_error_max:12.4f}"
        )

    # Exact binomial tails at other confidence levels, for comparison.
    failures, trials = report.failed_trials, report.trials
    for conf in (0.95, 0.99):
        lo, hi = clopper_pearson(failures, trials, conf)
        print(f"\n{failures}/{trials} failures at {conf:.0%}: [{lo:.4f}, {hi:.4f}]")

    # without --report the JSON goes to a scratch directory removed on exit
    with tempfile.TemporaryDirectory(prefix="respark-report-") as tmp:
        path = args.report or os.path.join(tmp, "report.json")
        emit_report(report, path)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    where = args.report or "a temporary file, now removed (keep one with --report)"
    print(f"\nreport written to {where} ({len(payload['rows'])} rows, schema v{payload['schema_version']})")


if __name__ == "__main__":
    main()
