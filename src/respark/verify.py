"""Correctness instruments for stream runs.

Four quantities drive both the per-step diagnostics and the experiment
harness: the sandwich spectral check (every generalized Rayleigh ratio of
the sparsifier against the reference inside [1-eps, 1+eps]), the
projection-error norm ||P - P_tilde||, the running copy count with its
3N-overflow event, and the predictable quadratic variation ||W|| of the
copy-indicator martingale. The sandwich, the oracle, is read in the
reference's eigenbasis. The projection error and the variation are read
off the reference's grounded Cholesky factor alone: both are eigenvalues
of a grounded pencil, formed densely and read by one eigvalsh at or below
one measured graph size, the crossover both share, and read at its top by
Lanczos iteration above it. The variation is the top eigenvalue. The projection error is
max |1 - lambda|, and every lambda >= 0, so a top eigenvalue of at least
2 gives it as that eigenvalue less 1; a smaller one falls back to the
dense pencil. The dominating-variable sampler and the
stochastic-dominance test back the concentration experiment: per-copy
maxima of z/p_tilde are compared against the heavy-tailed variable with
c.d.f. 1 - 1/a truncated at alpha^2/p.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .graph import (
    GraphConnectivityError,
    ProjectionContext,
    WeightedGraph,
    _integer,
    laplacian_from_arrays,
    projection_context,
)
from .tape import RandomTape

__all__ = [
    "DiagnosticsRecord",
    "dkw_epsilon",
    "dominance_check",
    "projection_error",
    "quadratic_variation",
    "read_diagnostics",
    "sample_dominating_w0_batch",
    "spectral_check",
    "write_diagnostics",
]

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One per-step measurement row.

    a_event flags a projection error at or above eps; a NaN projection
    error (recorded when the stream prefix is still disconnected, so no
    reference projection exists) never raises the flag. b_event flags a
    copy count at or above three times the budget.
    """

    step: int
    copy_count: int
    proj_error_norm: float
    w_norm: float
    budget_n: int
    a_event: bool
    b_event: bool

    @classmethod
    def from_measurements(cls, step, copy_count, proj_error_norm, w_norm, cfg):
        proj = float(proj_error_norm)
        w = float(w_norm)
        if not w >= 0.0:  # NaN fails too
            raise ValueError(f"w_norm must be non-negative, got {w}")
        if not math.isnan(proj) and proj < 0.0:
            raise ValueError(f"proj_error_norm must be non-negative, got {proj}")
        a_event = (not math.isnan(proj)) and proj >= cfg.eps
        b_event = int(copy_count) >= 3 * cfg.budget_n
        return cls(int(step), int(copy_count), proj, w, cfg.budget_n, a_event, b_event)


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _reference_context(h, reference: WeightedGraph | ProjectionContext) -> ProjectionContext:
    """reference as a context, a graph through projection_context; h must share its n."""
    g = reference.graph if isinstance(reference, ProjectionContext) else reference
    if h.n != g.n:
        raise ValueError(f"vertex counts differ: h has {h.n}, g has {g.n}")
    return projection_context(g) if reference is g else reference


def spectral_check(
    h, reference: WeightedGraph | ProjectionContext, eps: float
) -> tuple[bool, float]:
    """Test (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x for all x.

    h is anything with n and merged_columns(), a graph or a sparsifier;
    L_H is built from those columns, so an h without edges reads worst
    deviation exactly 1. reference is G itself or a projection context of
    G, which spares a caller that already holds one a second
    factorisation. The ratios are the eigenvalues of S L_H S (S
    the pseudoinverse square root of L_G) on the range of L_G, those of
    B' L_H B with B the range basis of G's context; the check passes when
    every one lies in [1-eps, 1+eps] with 1e-9 slack. Returns (passed,
    worst deviation |ratio - 1|).

    Raises GraphConnectivityError when G (or its range basis) is
    disconnected and ValueError on a vertex-count mismatch.
    """
    if not eps >= 0.0:  # NaN fails too
        raise ValueError(f"eps must be non-negative, got {eps}")
    b = _reference_context(h, reference).range_basis
    # L_H is a temporary, let go once B' L_H is formed
    ratios = np.linalg.eigvalsh(b.T @ laplacian_from_arrays(h.n, *h.merged_columns()) @ b)
    worst = float(np.abs(ratios - 1.0).max())
    return worst <= eps + 1e-9, worst


def projection_error(h, reference: WeightedGraph | ProjectionContext) -> float:
    """||P - S L_H S||, the projection-error norm of h against reference G.

    P is the projection onto range(L_G) and S the pseudoinverse square
    root of L_G. With copy weights a_e / (N p_tilde), S L_H S equals the
    indicator sum (1/N) sum_j sum_e (z/p_tilde) v_e v_e' over the seen
    edges, so against a stream prefix this is the run's error at that step.

    On range(L_G) its eigenvalues are 1 - lambda over the eigenvalues
    lambda of the grounded pencil (L_H, L_G): both Laplacians with vertex
    0's row and column removed, where L_G is positive definite. With L_G = C C' (C its
    Cholesky factor) they are the eigenvalues of C^-1 L_H C^-T, so one
    Cholesky factor replaces an eigendecomposition of L_G. C^-1 is
    rows[1:].T of the grounded factors of reference's context (see
    _grounded_rows); no eigh is run.

    L_H is PSD, so every lambda >= 0 and 1 - lambda <= 1: once the top
    eigenvalue lambda_max is >= 2 the norm is lambda_max - 1, whatever the
    bottom of the pencil. h is anything with n and merged_columns(), a
    graph or a sparsifier, and both reads take L_H from those columns, so
    an h without edges reads exactly 1.0. Above _LANCZOS_ABOVE vertices,
    the variation's crossover, _lanczos_top reads lambda_max; a Ritz value
    never exceeds lambda_max, so a read >= 2 is returned less 1. Otherwise,
    and at every size at or below the crossover, one eigvalsh of the formed
    pencil C^-1 L_H C^-T gives the norm.

    Raises GraphConnectivityError when G is disconnected and ValueError on
    a vertex-count mismatch or a G without edges.
    """
    rows = _grounded_rows(_reference_context(h, reference), "projection error")
    columns = h.merged_columns()
    if h.n > _LANCZOS_ABOVE:
        top = _lanczos_top(rows, *columns)
        if top >= 2.0:
            return top - 1.0
    pencil = _pencil_eigenvalues(rows, laplacian_from_arrays(h.n, *columns))
    return float(np.abs(1.0 - pencil).max())


def _grounded_rows(ctx: ProjectionContext, what: str) -> np.ndarray:
    """ctx's grounded factors' rows, rows[1:] = C^-T with L_G = C C' grounded
    at vertex 0. G is connected when their component labels are all 0."""
    factors = ctx.factors
    if factors.labels.any():
        raise GraphConnectivityError(f"reference graph is disconnected; {what} undefined")
    return factors.rows


def _pencil_eigenvalues(rows: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the grounded pencil (l, L_G): those of
    C^-1 l C^-T, l grounded at vertex 0, rows from _grounded_rows. l is let
    go once C^-1 l is formed, so a caller that passes its only reference
    holds one n x n array less."""
    c_inv = rows[1:].T
    m = c_inv @ l[1:, 1:]
    del l
    return np.linalg.eigvalsh(m @ c_inv.T)


# Both pencil instruments read a dense eigvalsh of the grounded pencil on
# graphs of at most this many vertices, and the top eigenvalue by Lanczos on
# the same operator above it (see projection_error and quadratic_variation).
_LANCZOS_ABOVE = 256
_LANCZOS_CHECK = 8  # Lanczos steps between two reads of the top Ritz pair
_LANCZOS_ULPS = 4  # the residual, in units in the last place of the top Ritz value


def quadratic_variation(trace, ctx: ProjectionContext, upto: int | None = None) -> float:
    """Norm of the predictable quadratic variation accumulated through `upto`.

    W = (1/N^2) sum_s sum_e (alive_{s-1,e} / p_{s-1,e})
        (1/p_{s,e} - 1/p_{s-1,e}) (v_e'v_e) v_e v_e'

    with v_e = sqrt(a_e) S b_e (S the pseudoinverse square root of ctx's
    Laplacian). ctx must be built from the whole traced graph (equal to
    trace.graph, else ValueError): the variation compares every step
    against one fixed reference. upto is an integer in [0, trace.steps]
    (else ValueError). The trace rows carry the unseen-edge convention
    (p = 1, all N copies alive), so an edge's arrival step contributes with
    exactly that convention and the formula applies row-by-row with no
    casework.

    Writing W = sum_e c_e v_e v_e' gives W = S L_c S, where L_c is the
    Laplacian of the graph's own edge list with edge weights a_e c_e
    (duplicate pairs add); v_e'v_e = a_e r_e is ctx.leverages. ||W|| is the
    top eigenvalue of S L_c S on range(L_G), that is of the grounded pencil
    (L_c, L_G): of C^-1 L_c C^-T with L_G = C C' grounded at vertex 0, read
    off ctx.factors, which with the leverages is all it reads of ctx. On a graph
    of at most _LANCZOS_ABOVE vertices the pencil is formed and read by
    _pencil_eigenvalues. Above, _lanczos_top reads its top eigenvalue by
    Lanczos from the fixed start vector RandomTape(0).labeled("lanczos",
    n - 1) - 1/2, stopped once the top Ritz pair's residual is at most
    _LANCZOS_ULPS ulps of its value, or after n - 1 steps. The result is
    clamped at 0.0. A GraphConnectivityError means ctx's graph is
    disconnected.
    """
    steps = trace.steps
    upto = steps if upto is None else _integer("upto", upto)
    if not 0 <= upto <= steps:
        raise ValueError(f"upto={upto} outside the recorded range [0, {steps}]")
    if len(trace.p_steps) != steps + 1 or len(trace.alive_steps) != steps + 1:
        raise ValueError("incomplete trace: per-step arrays disagree in length")
    g = ctx.graph
    # identity first: the stream's own context shares the traced graph
    if g is not trace.graph and g != trace.graph:
        raise ValueError("ctx does not match the traced stream")
    # first: on a first read the factorisation runs before L_c exists
    rows = _grounded_rows(ctx, "variation")
    coeff = np.zeros(g.m)
    for s in range(1, upto + 1):
        p_prev = trace.p_steps[s - 1]
        p_cur = trace.p_steps[s]
        alive_prev = trace.alive_steps[s - 1]
        # p_tilde is non-increasing, so the reciprocal gap is >= 0 up to
        # float rounding; clamp the rounding
        delta = np.clip(1.0 / p_cur - 1.0 / p_prev, 0.0, None)
        coeff += (alive_prev / p_prev) * delta
    coeff *= ctx.leverages / trace.budget_n**2
    w = g.weight * coeff
    if g.n > _LANCZOS_ABOVE:
        return _lanczos_top(rows, g.u, g.v, w)
    return max(float(_pencil_eigenvalues(rows, laplacian_from_arrays(g.n, g.u, g.v, w))[-1]), 0.0)


def _lanczos_top(rows: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Top eigenvalue, clamped at 0.0, of rows' L rows, where rows are the
    grounded factors' rows of a connected graph (rows[0] = 0, rows[1:] =
    C^-T) and L is the Laplacian of the edges (u, v) with weights w >= 0.

    Lanczos iteration with full reorthogonalisation (Golub and Van Loan,
    Matrix Computations, ch. 10) from a fixed start vector, the uniforms of
    RandomTape(0).labeled("lanczos", k) minus 1/2, so the result is a
    function of the inputs alone; the all-ones vector would not do, being
    orthogonal to every eigenvector antisymmetric about vertex 0. L is
    applied from the edges with a positive weight. Every _LANCZOS_CHECK
    steps the top Ritz pair (theta, s) of the tridiagonal T is read, and
    the iteration stops once its residual beta |s_last| is at most
    _LANCZOS_ULPS ulps of theta, or after k = n - 1 steps, the operator's
    dimension. With no positive weight the result is exactly 0.0.
    """
    live = w > 0.0
    if not live.any():
        return 0.0
    u, v, w = u[live], v[live], w[live]
    n, k = rows.shape

    def laplacian(y: np.ndarray) -> np.ndarray:
        d = w * (y[u] - y[v])
        return np.bincount(u, d, n) - np.bincount(v, d, n)

    tol = _LANCZOS_ULPS * np.finfo(float).eps
    basis = np.empty((min(k, 4 * _LANCZOS_CHECK), k))
    alpha: list[float] = []
    beta: list[float] = []
    q = RandomTape(0).labeled("lanczos", k) - 0.5
    q /= np.sqrt(q @ q)
    for j in range(1, k + 1):
        if j > len(basis):
            basis = np.concatenate((basis, np.empty((min(j, k + 1 - j), k))))
        basis[j - 1] = q
        r = rows.T @ laplacian(rows @ q)  # rows @ q is C^-T q after vertex 0's zero
        alpha.append(float(q @ r))
        done = basis[:j]
        r -= (done @ r) @ done  # twice is enough (Giraud et al., 2005)
        r -= (done @ r) @ done
        b = float(np.sqrt(r @ r))
        # theta >= max(alpha), so a b below tol * max(alpha) meets the stop
        # rule: the Krylov space is invariant to rounding, and r / b would
        # be rounding noise, not a vector orthogonal to the basis
        exhausted = b <= tol * max(alpha)
        if exhausted or j == k or j % _LANCZOS_CHECK == 0:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if exhausted or j == k or b * abs(s[-1, -1]) <= tol * theta[-1]:
                break
        beta.append(b)
        q = r / b
    return max(float(theta[-1]), 0.0)


def sample_dominating_w0_batch(
    p_te: float, alpha: float, tape: RandomTape, count: int
) -> np.ndarray:
    """Vector of `count` inverse-c.d.f. draws of 1/w0, keyed by (p_te, alpha):
    c.d.f. 1 - 1/a on [1, alpha^2 / p_te], the cap an atom."""
    if not p_te > 0.0:  # NaN fails too
        raise ValueError(f"p_te must be positive, got {p_te}")
    if p_te > 1.0:
        raise ValueError(f"p_te must be at most 1, got {p_te}")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    count = _integer("count", count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = tape.labeled(f"w0/{float(p_te)!r}/{float(alpha)!r}", count)
    return np.minimum(1.0 / (1.0 - u), alpha**2 / p_te)


def dkw_epsilon(count: int, confidence: float) -> float:
    """Two-sided Dvoretzky-Kiefer-Wolfowitz band half-width."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * count))


DOMINANCE_MIN_SAMPLES = 10_000


def dominance_check(
    max_ratio_samples: Sequence[float],
    w0_samples: Sequence[float],
    confidence: float = 0.999,
) -> bool:
    """Empirical stochastic dominance of 1/w0 over the per-copy maxima.

    True iff the e.c.d.f. of the w0 samples sits at or below the e.c.d.f.
    of the max-ratio samples at every pooled sample point, with a DKW
    allowance splitting `confidence` across the two sets. Both sets must
    carry the same (p_te, alpha); that matching is the caller's contract.
    Each set needs at least DOMINANCE_MIN_SAMPLES samples.
    """
    ratios = np.sort(np.asarray(max_ratio_samples, dtype=float))
    w0 = np.sort(np.asarray(w0_samples, dtype=float))
    if len(ratios) < DOMINANCE_MIN_SAMPLES or len(w0) < DOMINANCE_MIN_SAMPLES:
        raise ValueError(
            f"need at least {DOMINANCE_MIN_SAMPLES} samples per set, "
            f"got {len(ratios)} and {len(w0)}"
        )
    per_set = 1.0 - (1.0 - confidence) / 2.0
    band = dkw_epsilon(len(ratios), per_set) + dkw_epsilon(len(w0), per_set)
    grid = np.union1d(ratios, w0)
    cdf_ratios = np.searchsorted(ratios, grid, side="right") / len(ratios)
    cdf_w0 = np.searchsorted(w0, grid, side="right") / len(w0)
    return bool(np.all(cdf_w0 <= cdf_ratios + band))


# ---------------------------------------------------------------------------
# row CSV: one codec for every flat record dataclass


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_cell(kind: str, text: str | None):
    # kind is the field's annotation string: int, float, bool or bool | None;
    # text is None when the row ended before this column
    if text is None:
        raise ValueError("no cell")
    text = text.strip()
    if kind.startswith("bool"):
        if kind.endswith("None") and not text:
            return None
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return int(text) if kind == "int" else float(text)


def _write_rows(path, rows: Sequence, cls) -> None:
    names = [f.name for f in fields(cls)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_cell(getattr(r, k)) for k in names] for r in rows)


def _read_rows(path, cls, what: str) -> list:
    """A malformed row raises ValueError starting 'path:lineno:'."""
    kinds = {f.name: f.type for f in fields(cls)}
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(kinds) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing {what} columns {sorted(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row:
                raise ValueError(f"{where}: more cells than columns")
            values = {}
            for k, t in kinds.items():
                try:
                    values[k] = _parse_cell(t, row[k])
                except ValueError as exc:
                    raise ValueError(f"{where}: column {k}: {exc}") from None
            records.append(cls(**values))
    return records


def write_diagnostics(records: Sequence[DiagnosticsRecord], path) -> None:
    _write_rows(path, records, DiagnosticsRecord)


def read_diagnostics(path) -> list[DiagnosticsRecord]:
    return _read_rows(path, DiagnosticsRecord, "diagnostics")
