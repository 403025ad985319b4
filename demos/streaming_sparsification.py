"""One pass over an edge stream, resparsifying block by block.

The theorem-scale copy budget N is astronomically conservative at desk
scale, so this script first prints what the formula asks for, then runs
the same machinery with a small override and watches the sparsifier
track the growing prefix graph anyway.
"""

import os
import tempfile

import numpy as np

from respark import (
    GeneratorSpec,
    StreamConfig,
    compute_budget,
    generate,
    read_sparsifier,
    spectral_check,
    stream_sparsify,
    write_sparsifier,
)

EPS = 0.5
DELTA = 0.1
SEED = 42

g = generate(GeneratorSpec("erdos-renyi", 30, p=0.3, weight_min=0.25, weight_max=1.0, seed=SEED))
print(f"input stream: n={g.n}, m={g.m} edges")

# What the guarantee wants. 40 a^2 n ln^2(3 kappa m / delta) / eps^2 copies
# per edge is sound but useless here: the "sparsifier" would carry orders
# of magnitude more mass than the graph it compresses.
n_theorem = compute_budget(EPS, DELTA, 1.0, g.kappa(), g.n, g.m)
print(f"theorem budget at eps={EPS}, delta={DELTA}: N = {n_theorem}")

# Desk-scale override. The probabilities, weights, and survival rules are
# untouched; only the copy count per edge shrinks.
cfg = StreamConfig.for_graph(g, eps=EPS, delta=DELTA, alpha=1.0, seed=SEED, budget_override=2000)
print(f"running with N = {cfg.budget_n}, block size 25, exact resistances\n")

# A NaN projection error marks a step whose prefix graph is still
# disconnected: no reference projection exists yet.
print("step  arrived  copies  min p_tilde  proj error")


def show(step, h_s, prefix, rec):
    p_min = min(h_s.p_tilde.values())
    print(
        f"{step:4d}  {h_s.arrived:7d}  {rec.copy_count:6d}"
        f"  {p_min:11.4f}  {rec.proj_error_norm:10.4f}"
    )


h, records = stream_sparsify(g, cfg, block_size=25, resistance_mode="exact", on_step=show)

# The spectral sandwich against the full input. Every Laplacian quadratic
# form is preserved within (1 +- eps) when the check passes.
ok, worst = spectral_check(h, g, EPS)
print(f"\nspectral check at eps={EPS}: passed={ok}, worst ratio deviation {worst:.4f}")
print(f"copies kept: {h.copy_count()} (hard cap 3N = {3 * cfg.budget_n})")

dropped = sum(1 for e in range(g.m) if e not in h.alive)
print(f"edges with no surviving copy: {dropped} of {g.m}")

# The sparsifier state is plain text on disk and reconstructs bit-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "h.tsv")
    write_sparsifier(h, path)
    h2 = read_sparsifier(path, graph=g)
same = np.array_equal(h.laplacian(), h2.laplacian())
print(f"round trip through {os.path.basename(path)}: laplacians identical = {same}")
