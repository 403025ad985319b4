"""Laplacians, pseudoinverses, and effective resistances.

Walks the graph-side primitives on graphs small enough to check by hand:
the factored pseudoinverse, the projection onto the cut space, and exact
effective resistances with their sum identity.
"""

import numpy as np

from respark import (
    WeightedGraph,
    build_laplacian,
    exact_resistance,
    exact_resistances,
    projection_context,
    pseudo_factorize,
)

# ## A triangle, by hand
#
# K3 with unit weights: eigenvalues {0, 3, 3}, and every edge sees the
# direct unit conductance in parallel with the two-edge path of
# conductance 1/2, so r = 1/(1 + 1/2) = 2/3.

k3 = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
L = build_laplacian(k3)
print("K3 Laplacian:")
print(L)

# the null eigenvalue's round-off rounds to -0.0; adding 0.0 prints it as 0.
print("eigenvalues:", np.round(np.linalg.eigvalsh(L), 12) + 0.0)

factors = pseudo_factorize(L)

r = exact_resistance(factors, (0, 1))
print(f"edge (0,1) resistance: {r.r_tilde:.6f}  (expected {2 / 3:.6f})")

# ## The projection the sparsifier chases
#
# P = S L S with S the inverse square root of L is the projection onto
# the span of the scaled edge vectors v_e = sqrt(a_e) S b_e, and it equals
# their sum of outer products. Its trace counts n - 1, one unit per
# spanning-tree edge, and the trace of each outer product is the edge's
# leverage: the resistance sum identity sum_e a_e r_e = n - 1.

ctx = projection_context(k3)
print("sum of leverages:", round(float(ctx.leverages.sum()), 12))

pairs = [(e.u, e.v) for e in k3.edges]
ests = exact_resistances(factors, pairs)
total = sum(e.weight * est.r_tilde for e, est in zip(k3.edges, ests))
print("sum of weighted resistances:", round(total, 12), "= n - 1 =", k3.n - 1)

# ## Leverage is what sampling sees
#
# The squared norm of a scaled edge vector is the edge's leverage a_e r_e,
# which the context caches as `leverages`. On a weighted star every edge is
# a bridge: r = 1/a and leverage 1, so every edge is equally indispensable
# no matter its weight.

star = WeightedGraph.from_edges(4, [(0, 1, 2.0), (0, 2, 0.5), (0, 3, 4.0)])
star_ctx = projection_context(star)
for e, lev in zip(star.edges, star_ctx.leverages):
    print(
        f"star edge ({e.u},{e.v}) weight {e.weight}: "
        f"r = {1 / e.weight:.4f}, leverage = {lev:.12f}"
    )

# ## Resistances only drop as the graph grows
#
# Adding the chord (0,3) to a path gives current a second route between
# the endpoints; every resistance weakly decreases.

path = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
closed = WeightedGraph.from_edges(
    4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
)
f_path = pseudo_factorize(build_laplacian(path))
f_closed = pseudo_factorize(build_laplacian(closed))
for pair in [(0, 1), (1, 2), (2, 3), (0, 3)]:
    before = exact_resistance(f_path, pair).r_tilde
    after = exact_resistance(f_closed, pair).r_tilde
    print(f"pair {pair}: path {before:.4f} -> cycle {after:.4f}")
