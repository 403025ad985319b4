"""The three measuring sticks: projection error, quadratic variation, w0.

Everything the sparsifier promises is checked through one of these. The
projection error bounds the spectral deviation, the predictable quadratic
variation is the knob the concentration argument turns, and the heavy
tailed 1/w0 variable dominates how far any single copy's weight can wander.
"""

import math

import numpy as np

from respark import (
    RandomTape,
    StreamConfig,
    WeightedGraph,
    dkw_epsilon,
    dominance_check,
    indicator_stream,
    projection_context,
    projection_error,
    quadratic_variation,
    sample_dominating_w0_batch,
    spectral_check,
)

# ## Projection error vs the spectral sandwich
#
# For a sparsifier H of G, ||P - S L_H S|| <= eps implies the two-sided
# bound (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x. The projection error
# is max |1 - lambda| over the grounded pencil (L_H, L_G), vertex 0's row
# and column removed, and the worst ratio deviation is the same number.
# Drop one edge of C4: the missing leverage is 3/4, and that is both.

c4 = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
c4_minus = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])

err = projection_error(c4_minus, c4)
ok, worst = spectral_check(c4_minus, c4, eps=0.5)
print(f"C4 minus one edge: projection error {err:.6f}, worst ratio deviation {worst:.6f}")
print(f"passes eps=0.5? {ok}  (the dropped edge had leverage 3/4)")

# ## Quadratic variation of a stream run
#
# W accumulates (1/N^2) (alive/p_old)(1/p_new - 1/p_old) ||v||^2 v v' over
# every probability drop. Small W means the copy-weight martingale cannot
# have moved far, which is what the eps-deviation bound feeds on.

g = WeightedGraph.from_edges(
    8, [(i, (i + 1) % 8, 1.0) for i in range(8)] + [(0, 4, 1.0), (2, 6, 1.0)]
)
cfg = StreamConfig.for_graph(g, eps=0.5, delta=0.1, alpha=1.0, seed=7, budget_override=10_000)
h, _, trace = indicator_stream(g, cfg, block_size=2, resistance_mode="exact")

full_ctx = projection_context(g)
print("\nstep   ||W|| so far")
for s in range(1, h.step + 1):
    print(f"{s:4d}   {quadratic_variation(trace, full_ctx, upto=s):.6f}")

bound = 9.0 * g.n * math.log(cfg.kappa * g.n) / cfg.budget_n
print(f"analysis bound 9 a^2 n ln(kappa n) / N = {bound:.6f}")

# ## The dominating variable 1/w0
#
# Per copy, the running weight ratio is stochastically dominated by 1/w0
# with c.d.f. 1 - 1/a on [1, alpha^2/p]. Its mean is 1 + ln(alpha^2/p).

p_te, alpha = 0.02, 1.0
tape = RandomTape(2024)
w0 = sample_dominating_w0_batch(p_te, alpha, tape, 200_000)
print(f"\n1/w0 at p={p_te}: sample mean {w0.mean():.4f}, exact {1 + math.log(alpha**2 / p_te):.4f}")
print(f"truncation cap alpha^2/p = {alpha**2 / p_te:.1f}, share at cap {np.mean(w0 == w0.max()):.4f} (= p)")

# Dominance is read off pooled e.c.d.f.s with a DKW band. A fresh draw of
# the same law is judged dominated; doubling it pushes mass past anything
# 1/w0 can cover and the check refuses.
other = sample_dominating_w0_batch(p_te, alpha, RandomTape(2025), 200_000)
print(f"\nsame law, fresh seed: dominated = {dominance_check(other, w0)}")
print(f"inflated by 2x:       dominated = {dominance_check(other * 2.0, w0)}")
print(f"DKW half-width at n=200000, 99.9%: {dkw_epsilon(200_000, 0.999):.5f}")

# The per-copy maxima from the traced run above feed the same check: each
# copy's max over steps of z/p_tilde against 1/w0 drawn at that edge's
# final probability.
edge0 = 0
ratios = trace.max_copy_ratios(edge0)
p_final = trace.p_steps[-1][edge0]
w0_edge = sample_dominating_w0_batch(p_final, cfg.alpha, tape, 50_000)
print(
    f"\nedge {edge0}: final p_tilde {p_final:.4f}, "
    f"max copy ratio {ratios.max():.2f}, w0 cap {1 / p_final:.2f}"
)
print(f"run ratios dominated by 1/w0? {dominance_check(ratios, w0_edge)}")
