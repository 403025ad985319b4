"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PARAMS_JSON

Times importing respark (and respark.cli for the CLI workload) plus building
the workload's graph and StreamConfig, and prints one JSON line with the
seconds taken and the m and N it built, so the caller can check them.
"""

import json
import sys
import time

START = time.perf_counter()


def main() -> int:
    src, params = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import respark

    if params["cli"]:
        import respark.cli  # noqa: F401
    spec = respark.GeneratorSpec(params["model"], params["n"], p=params["p"], seed=params["gen_seed"])
    g = respark.generate(spec)
    cfg = respark.StreamConfig.for_graph(
        g, params["eps"], params["delta"], params["alpha"], params["seed"],
        budget_override=params["budget_override"],
    )
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "m": g.m, "budget_n": cfg.budget_n}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
