"""Correctness instruments for stream runs.

Four quantities drive both the per-step diagnostics and the experiment
harness: the sandwich spectral check (every generalized Rayleigh ratio of
the sparsifier against the reference inside [1-eps, 1+eps]), the
projection-error norm ||P - P_tilde||, the running copy count with its
3N-overflow event, and the predictable quadratic variation ||W|| of the
copy-indicator martingale. The dominating-variable sampler and the
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

from .graph import ProjectionContext, WeightedGraph, projection_context
from .tape import RandomTape

__all__ = [
    "DiagnosticsRecord",
    "DominatingSample",
    "count_event",
    "dkw_epsilon",
    "dominance_check",
    "projection_error",
    "quadratic_variation",
    "read_diagnostics",
    "sample_dominating_w0",
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
        if w < 0.0:
            raise ValueError(f"w_norm must be non-negative, got {w}")
        if not math.isnan(proj) and proj < 0.0:
            raise ValueError(f"proj_error_norm must be non-negative, got {proj}")
        a_event = (not math.isnan(proj)) and proj >= cfg.eps
        b_event = int(copy_count) >= 3 * cfg.budget_n
        return cls(int(step), int(copy_count), proj, w, cfg.budget_n, a_event, b_event)


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _laplacian_of(h) -> np.ndarray:
    try:
        return np.asarray(h.laplacian(), dtype=float)
    except AttributeError as exc:
        raise TypeError(f"{type(h).__name__} does not expose a laplacian()") from exc


def spectral_check(h, g: WeightedGraph, eps: float) -> tuple[bool, float]:
    """Test (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x for all x.

    h may be a sparsifier or a plain graph; anything with n and
    laplacian(). The ratios are the eigenvalues of S L_H S (S the inverse
    square root of L_G) restricted to the range of L_G; the check passes
    when every one lies in [1-eps, 1+eps] with 1e-9 slack. Returns
    (passed, worst deviation |ratio - 1|).

    Raises GraphConnectivityError when g is disconnected and ValueError on
    a vertex-count mismatch.
    """
    if eps < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if h.n != g.n:
        raise ValueError(f"vertex counts differ: h has {h.n}, g has {g.n}")
    ctx = projection_context(g)
    m_mat = ctx.inv_sqrt @ _laplacian_of(h) @ ctx.inv_sqrt
    nonnull = ctx.factors.eigenvalues > 0.0
    q = ctx.factors.eigenvectors[:, nonnull]
    ratios = np.linalg.eigvalsh(q.T @ m_mat @ q)
    worst = float(np.abs(ratios - 1.0).max())
    return worst <= eps + 1e-9, worst


def projection_error(h, ctx: ProjectionContext) -> float:
    """||P - S L_H S|| for the reference projection P carried by ctx.

    With copy weights a_e / (N p_tilde), S L_H S equals the indicator sum
    (1/N) sum_j sum_e (z/p_tilde) v_e v_e' over the seen edges, so this is
    the projection-error norm of the run at the step ctx was built from.
    """
    if h.n != ctx.n:
        raise ValueError(f"vertex counts differ: h has {h.n}, ctx has {ctx.n}")
    m_mat = ctx.inv_sqrt @ _laplacian_of(h) @ ctx.inv_sqrt
    return float(np.abs(np.linalg.eigvalsh(ctx.projection - m_mat)).max())


def quadratic_variation(trace, ctx: ProjectionContext, upto: int | None = None) -> float:
    """Norm of the predictable quadratic variation accumulated through `upto`.

    W = (1/N^2) sum_s sum_e (alive_{s-1,e} / p_{s-1,e})
        (1/p_{s,e} - 1/p_{s-1,e}) (v_e'v_e) v_e v_e'

    with v_e taken from ctx, which must be built from the whole input
    graph: the variation compares every step against one fixed reference.
    The trace rows carry the unseen-edge convention (p = 1, all N copies
    alive), so an edge's arrival step contributes with exactly that
    convention and the formula applies row-by-row with no casework.
    """
    steps = trace.steps
    if upto is None:
        upto = steps
    if not 0 <= upto <= steps:
        raise ValueError(f"upto={upto} outside the recorded range [0, {steps}]")
    if len(trace.p_steps) != steps + 1 or len(trace.alive_steps) != steps + 1:
        raise ValueError("incomplete trace: per-step arrays disagree in length")
    if ctx.n != trace.n or ctx.graph.m != len(trace.edges):
        raise ValueError("ctx does not match the traced stream")
    vectors = ctx.edge_vectors()
    sq_norms = (vectors * vectors).sum(axis=0)
    coeff = np.zeros(len(trace.edges))
    for s in range(1, upto + 1):
        p_prev = trace.p_steps[s - 1]
        p_cur = trace.p_steps[s]
        alive_prev = trace.alive_steps[s - 1]
        # p_tilde is non-increasing, so the reciprocal gap is >= 0 up to
        # float rounding; clamp the rounding
        delta = np.clip(1.0 / p_cur - 1.0 / p_prev, 0.0, None)
        coeff += (alive_prev / p_prev) * delta
    coeff *= sq_norms / trace.budget_n**2
    w_mat = (vectors * coeff) @ vectors.T
    return float(max(np.linalg.eigvalsh(w_mat).max(), 0.0))


def count_event(h, cfg) -> tuple[int, bool]:
    """Copy count and the 3N overflow flag."""
    count = int(h.copy_count())
    return count, count >= 3 * cfg.budget_n


@dataclass(frozen=True)
class DominatingSample:
    """One draw of 1/w0: c.d.f. 1 - 1/a on [1, truncation]."""

    value: float
    truncation: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.value <= self.truncation * (1.0 + 1e-12):
            raise ValueError(
                f"sample {self.value} outside [1, {self.truncation}]"
            )


def _check_w0_params(p_te: float, alpha: float) -> float:
    if p_te <= 0.0:
        raise ValueError(f"p_te must be positive, got {p_te}")
    if p_te > 1.0:
        raise ValueError(f"p_te must be at most 1, got {p_te}")
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return alpha**2 / p_te


def sample_dominating_w0_batch(
    p_te: float, alpha: float, tape: RandomTape, count: int
) -> np.ndarray:
    """Vector of `count` inverse-c.d.f. draws of 1/w0, keyed by (p_te, alpha)."""
    cap = _check_w0_params(p_te, alpha)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = tape.labeled(f"w0/{float(p_te)!r}/{float(alpha)!r}", count)
    return np.minimum(1.0 / (1.0 - u), cap)


def sample_dominating_w0(
    p_te: float, alpha: float, tape: RandomTape, index: int = 0
) -> DominatingSample:
    """The index-th draw of the tape's (p_te, alpha) stream, as a checked sample."""
    cap = _check_w0_params(p_te, alpha)
    values = sample_dominating_w0_batch(p_te, alpha, tape, index + 1)
    return DominatingSample(float(values[index]), cap)


def dkw_epsilon(count: int, confidence: float) -> float:
    """Two-sided Dvoretzky-Kiefer-Wolfowitz band half-width."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * count))


def dominance_check(
    max_ratio_samples: Sequence[float],
    w0_samples: Sequence[float],
    confidence: float = 0.999,
    min_samples: int = 10_000,
) -> bool:
    """Empirical stochastic dominance of 1/w0 over the per-copy maxima.

    True iff the e.c.d.f. of the w0 samples sits at or below the e.c.d.f.
    of the max-ratio samples at every pooled sample point, with a DKW
    allowance splitting `confidence` across the two sets. Both sets must
    carry the same (p_te, alpha); that matching is the caller's contract.
    """
    ratios = np.sort(np.asarray(max_ratio_samples, dtype=float))
    w0 = np.sort(np.asarray(w0_samples, dtype=float))
    if len(ratios) < min_samples or len(w0) < min_samples:
        raise ValueError(
            f"need at least {min_samples} samples per set, "
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


def _parse_cell(kind: str, text: str):
    # kind is the field's annotation string: int, float, bool or bool | None
    text = text.strip()
    if kind.startswith("bool"):
        return None if kind.endswith("None") and not text else text.lower() == "true"
    return int(text) if kind == "int" else float(text)


def _write_rows(path, rows: Sequence, cls) -> None:
    names = [f.name for f in fields(cls)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_cell(getattr(r, k)) for k in names] for r in rows)


def _read_rows(path, cls, what: str) -> list:
    kinds = {f.name: f.type for f in fields(cls)}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(kinds) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing {what} columns {sorted(missing)}")
        return [cls(**{k: _parse_cell(t, row[k]) for k, t in kinds.items()}) for row in reader]


def write_diagnostics(records: Sequence[DiagnosticsRecord], path) -> None:
    _write_rows(path, records, DiagnosticsRecord)


def read_diagnostics(path) -> list[DiagnosticsRecord]:
    return _read_rows(path, DiagnosticsRecord, "diagnostics")
