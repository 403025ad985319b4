"""Incremental resparsification: budget, config, the per-block step, and
the stream step loop.

`stream_sparsify` holds the one step loop: estimate resistances on the
current state, resparsify (thin the surviving copies by probability ratios
and sample the new block), record the diagnostics, then call on_step. The
state is per-edge columns (probability, surviving copy count) plus the
surviving copy ids. `stream_sparsify` returns the final sparsifier and,
with diagnostics on, one DiagnosticsRecord per step; the diagnostics keep
their own trace, without copies. `indicator_stream` also returns the
per-step StreamTrace, recorded through on_step, whose rows are the states'
own columns, the copy ids included when asked for. `single_edge_stream`
is `indicator_stream` with block size 1. All of them run the same loop on
the same keyed random tape, so for a fixed block partition they produce
bit-identical copy sets.
"""

from __future__ import annotations

import codecs
import math
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from . import verify
from .graph import (
    ProjectionContext,
    WeightedGraph,
    _integer,
    build_laplacian,
    laplacian_from_arrays,
    is_connected,
    projection_context,
    pseudo_factorize,
)
from .resistance import (
    ResistanceEstimate,
    exact_resistances,
    inject_alpha_noise,
    resistances_from_sparsifier,
)
from .tape import RandomTape

__all__ = [
    "ConfigError",
    "LoadedSparsifier",
    "Sparsifier",
    "StreamConfig",
    "StreamStepError",
    "StreamTrace",
    "RESISTANCE_MODES",
    "compute_budget",
    "indicator_stream",
    "partition_stream",
    "read_sparsifier",
    "resparsify",
    "single_edge_stream",
    "stream_sparsify",
    "write_sparsifier",
]

RESISTANCE_MODES = ("sparsifier", "exact", "noisy", "nodrop")
_MAX_BUDGET = 2**63  # the int64 count column holds N


class ConfigError(ValueError):
    """A stream configuration violates a precondition."""


class StreamStepError(RuntimeError):
    """A stream run failed at a specific step."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


def _validate_budget_params(eps, delta, alpha, kappa, n, m) -> None:
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if not alpha >= 1.0:  # NaN fails too
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    if not kappa >= 1.0:
        raise ConfigError(f"kappa must be >= 1, got {kappa}")
    if n < 2:
        raise ConfigError(f"need at least 2 vertices, got {n}")
    if m < 1:
        raise ConfigError(f"need at least 1 edge, got {m}")
    limit = math.sqrt(kappa * n / 3.0)
    if alpha > limit * (1.0 + 1e-12):
        raise ConfigError(
            f"alpha={alpha} violates the precondition alpha <= sqrt(kappa*n/3) = {limit:.6g}"
        )


def compute_budget(
    eps: float, delta: float, alpha: float, kappa: float, n: int, m: int
) -> int:
    """Space budget N = ceil(40 alpha^2 n ln^2(3 kappa m / delta) / eps^2).

    The logarithm is natural: all concentration constants downstream are
    stated in nats.
    """
    _validate_budget_params(eps, delta, alpha, kappa, n, m)
    log_term = math.log(3.0 * kappa * m / delta)
    try:
        budget = 40.0 * alpha**2 * n * log_term**2 / eps**2
    except (OverflowError, ZeroDivisionError):  # alpha**2 overflowed, or eps**2 underflowed to 0
        budget = math.inf
    if not budget < _MAX_BUDGET:
        raise ConfigError(f"budget N = {budget:.6g} is not below 2**63; raise eps or delta")
    return math.ceil(budget)


@dataclass(frozen=True)
class StreamConfig:
    """All stream parameters plus the derived copy budget.

    budget_n is no argument: it is derived from the other fields unless
    budget_override is given. Overridden runs exercise the drop path at
    desk scale and are labeled "stress" (outside theorem constants) by the
    harness. seed and budget_override must be integers.
    """

    eps: float
    delta: float
    alpha: float
    kappa: float
    n: int
    m: int
    seed: int
    budget_override: int | None = None
    budget_n: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _validate_budget_params(self.eps, self.delta, self.alpha, self.kappa, self.n, self.m)
        seed = _integer("seed", self.seed, ConfigError)
        override = self.budget_override
        if override is not None:
            if not 1 <= override < _MAX_BUDGET:  # NaN fails too
                raise ConfigError(f"budget override {override} is outside [1, 2**63)")
            budget = override = _integer("budget override", override, ConfigError)
        else:
            budget = compute_budget(
                self.eps, self.delta, self.alpha, self.kappa, self.n, self.m
            )
        object.__setattr__(self, "budget_n", budget)
        object.__setattr__(self, "budget_override", override)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def for_graph(
        cls,
        g: WeightedGraph,
        eps: float,
        delta: float,
        alpha: float,
        seed: int,
        budget_override: int | None = None,
    ) -> "StreamConfig":
        """Build a config whose n, m, kappa are taken from the graph."""
        w = g.weight
        if len(w) and w.max() > 1.0:
            warnings.warn(
                f"max edge weight {w.max():.3g} exceeds 1; the budget constants "
                "assume weights at most 1 and are conservative otherwise",
                stacklevel=2,
            )
        kappa = g.kappa()
        if kappa > g.n:
            warnings.warn(
                f"weight spread kappa={kappa:.3g} exceeds n={g.n}; ln(kappa) now "
                "dominates the budget's log factor",
                stacklevel=2,
            )
        return cls(eps, delta, alpha, kappa, g.n, g.m, seed, budget_override)

    def with_seed(self, seed: int) -> "StreamConfig":
        return replace(self, seed=seed)


def _block_size(value) -> int:
    """value as a block size: an integer (NumPy's too, as an int) >= 1, else ConfigError."""
    block_size = _integer("block size", value, ConfigError)
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    return block_size


def partition_stream(g: WeightedGraph, block_size: int) -> list[list[int]]:
    """Split the stream into ceil(m / block_size) blocks of edge ids, in order."""
    block_size = _block_size(block_size)
    return [
        list(range(start, min(start + block_size, g.m)))
        for start in range(0, g.m, block_size)
    ]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_COPIES = _read_only(np.empty(0, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Sparsifier:
    """State after step `step`, as read-only columns over the m edges of graph.

    p and count hold each edge's probability and surviving copies; an unseen
    edge holds p = 1 with all N copies, and a dead edge keeps its last p
    (it never re-enters the graph). copies holds the surviving copy ids of
    the seen edges in CSR order: edge after edge, ascending within an edge.
    Each copy of edge e carries weight a_e / (N * p[e]). resparsify returns
    a new instance; alive and p_tilde are mappings derived from the columns,
    n and edges the graph's.
    """

    config: StreamConfig
    step: int
    graph: WeightedGraph
    arrived: int
    p: np.ndarray
    count: np.ndarray
    copies: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.p, self.count, self.copies):
            _read_only(column)

    @classmethod
    def empty(cls, g: WeightedGraph, cfg: StreamConfig) -> "Sparsifier":
        return cls(cfg, 0, g, 0, np.ones(g.m), np.full(g.m, cfg.budget_n), _NO_COPIES)

    n = property(lambda self: self.graph.n)
    edges = property(lambda self: self.graph.edges)

    @property
    def budget_n(self) -> int:
        return self.config.budget_n

    @cached_property
    def p_tilde(self) -> Mapping[int, float]:
        """Each seen edge's probability."""
        return MappingProxyType(dict(enumerate(self.p[: self.arrived].tolist())))

    @cached_property
    def alive(self) -> Mapping[int, np.ndarray]:
        """Each edge with surviving copies, in id order, to its copy ids (views of copies)."""
        ends = self.count[: self.arrived].cumsum().tolist()
        runs = enumerate(zip([0] + ends, ends))
        return MappingProxyType({e: self.copies[i:j] for e, (i, j) in runs if i < j})

    def copy_count(self) -> int:
        return len(self.copies)

    def copy_weight(self, edge_id: int) -> float:
        return float(self.graph.weight[edge_id]) / (self.budget_n * self.p_tilde[edge_id])

    def _targets(self, block: Sequence[int]) -> list[int]:
        """The alive edges in id order, then `block` (unseen, so ascending)."""
        return [*self.alive, *block]

    def merged_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_merged_columns of the alive edges, in id order; empty when no copy survives."""
        alive = np.flatnonzero(self.count[: self.arrived])
        return _merged_columns(self.graph, alive, self.count[alive], self.p[alive], self.budget_n)

    def laplacian(self) -> np.ndarray:
        """Laplacian of merged_columns(), built anew on every call and not kept."""
        return laplacian_from_arrays(self.n, *self.merged_columns())

    def combined_with(self, block: Sequence[int]) -> WeightedGraph:
        """The graph of merged_columns() with the raw edges of the next block appended."""
        g, ids = self.graph, np.array(block, dtype=np.int64)
        columns = zip(self.merged_columns(), (g.u[ids], g.v[ids], g.weight[ids]))
        return WeightedGraph(g.n, *map(np.concatenate, columns))


def _merged_columns(
    g: WeightedGraph, ids: np.ndarray, count: np.ndarray, p: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, weight) of the merged copies of edges ids of g, with count
    copies at probability p each: every edge once, at count * a_e / (N * p).
    Both sparsifier states build their Laplacians from these triples."""
    return g.u[ids], g.v[ids], count * (g.weight[ids] / (budget * p))


def _estimate_column(estimates, targets: list[int]) -> np.ndarray:
    """estimates as the r_tilde column of targets: an array already aligned
    with them, or ResistanceEstimate objects matched by edge id."""
    if isinstance(estimates, np.ndarray):
        if estimates.shape == (len(targets),):
            return estimates
        raise ValueError(f"need {len(targets)} resistance estimates, one per target edge, "
                         f"got an array of shape {estimates.shape}")
    rmap = {est.edge_id: est.r_tilde for est in estimates}
    missing = [e for e in targets if e not in rmap]
    if missing:
        raise ValueError(f"missing resistance estimates for edges {missing}")
    return np.array([rmap[e] for e in targets], dtype=float)


def resparsify(
    h_prev: Sparsifier,
    block: Sequence[int],
    estimates: np.ndarray | Sequence[ResistanceEstimate],
    tape: RandomTape,
) -> Sparsifier:
    """One resparsification step: thin survivors, sample the new block.

    Parameters
    ----------
    h_prev : Sparsifier
        The step-(s-1) state.
    block : sequence of int
        Edge ids of the arriving block; must be the next contiguous slice
        of the stream.
    estimates : float64 array, or sequence of ResistanceEstimate
        The positive column r_tilde of h_prev._targets(block): every edge
        with surviving copies, in id order, then the block. Objects are
        matched to those edges by edge id.
    tape : RandomTape
        Supplies u_{s,e,j}; copy j of edge e survives iff u_{s,e,j} <=
        p_new / p_prev. A block edge starts at its column values p = 1 with
        all N copies, so the same test performs its N Bernoulli(p_new) trials.
        The draws are taken by _survivors: past _SPLIT_DRAWS of them, and
        with two CPUs usable, a helper thread with its own tape of the same
        seed shares them, and a block edge's N draws are read _WINDOW at a
        time. Every draw is a pure function of its key, so the copy sets
        are the same bits whichever thread draws them.
    """
    cfg = h_prev.config
    s = h_prev.step + 1
    n, alpha, N = h_prev.n, cfg.alpha, cfg.budget_n
    block = [int(e) for e in block]
    expected = list(range(h_prev.arrived, h_prev.arrived + len(block)))
    if block != expected:
        raise ValueError(f"block must be the next stream slice {expected}, got {block}")
    targets = h_prev._targets(block)
    r = _estimate_column(estimates, targets)
    if not (r > 0).all():  # NaN fails too
        k = int((r > 0).argmin())
        raise ValueError(f"resistance estimate of edge {targets[k]} must be positive, got {r[k]}")

    # min rule: p <= prev makes the survival ratio p / prev <= 1 exactly
    prev = h_prev.p[targets]
    p_new = h_prev.graph.weight[targets] * r / (alpha * (n - 1))
    p_new = np.minimum(np.minimum(p_new, 1.0), prev)
    qs = (p_new / prev).tolist()  # each target's survival ratio
    # dead copies stay dead, so only an alive edge's copies' draws are read
    jobs = [*h_prev.alive.items(), *((e, None) for e in block)]
    kept = _survivors(tape, s, N, jobs, qs, len(block) * N + h_prev.copy_count())
    p, count = h_prev.p.copy(), h_prev.count.copy()
    p[targets] = p_new
    count[targets] = [len(ids) for ids in kept]
    copies = np.concatenate(kept)
    return Sparsifier(cfg, s, h_prev.graph, h_prev.arrived + len(block), p, count, copies)


# A step that compares fewer uniforms than this draws them on the calling
# thread alone. Measured on a 2-vCPU Xeon VM with NumPy 2.4 and one step of
# block edges (medians of 5 x 15 steps a side, N from 2,000 to 484,918): the
# split step took 1.2-1.7 of the serial time up to 128,000 draws, 0.6-1.05
# from 400,000 to 1 million and 0.45-0.6 from 1.45 million; starting, keying
# and joining the helper alone costs about 0.09 ms.
_SPLIT_DRAWS = 2**20
# A block edge with more copies than this reads its draws this many at a
# time, so each thread holds one window of doubles, not an N-draw array.
_WINDOW = 2**16


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kept(tape: RandomTape, s: int, N: int, e: int, js: np.ndarray | None, q: float) -> np.ndarray:
    """The copy ids of edge e that survive step s at ratio q: of js, an alive
    edge's copies, or of all N copies of a block edge (js None)."""
    if js is not None:
        return js[tape.uniforms(s, e, N, at=js) <= q]
    if N <= _WINDOW:
        return np.flatnonzero(tape.uniforms(s, e, N) <= q)
    return np.concatenate([
        a + np.flatnonzero(tape.uniforms(s, e, N, at=range(a, min(a + _WINDOW, N))) <= q)
        for a in range(0, N, _WINDOW)
    ])


def _survivors(
    tape: RandomTape, s: int, N: int, jobs: list, qs: list[float], draws: int
) -> list[np.ndarray]:
    """_kept of each (edge, js) target in jobs at its ratio in qs, in order.

    A step comparing at least _SPLIT_DRAWS uniforms, with two CPUs usable,
    shares its targets with one helper thread through a deque: the caller
    pops from the left (the alive edges, whose addressed draws hold the
    interpreter lock) and the helper from the right (the block edges, whose
    fills release it), each drawing from its own tape. The helper is joined
    before this returns, and its exception is raised here.
    """
    if draws < _SPLIT_DRAWS or _usable_cpus() < 2:
        return [_kept(tape, s, N, e, js, q) for (e, js), q in zip(jobs, qs)]
    kept: list = [None] * len(jobs)
    work = deque(enumerate(zip(jobs, qs)))
    errors: list[Exception] = []

    def drain(own: RandomTape, pop) -> None:
        while work:
            try:
                i, ((e, js), q) = pop()
            except IndexError:  # the other thread took the last target
                return
            kept[i] = _kept(own, s, N, e, js, q)

    def helper() -> None:
        try:
            drain(type(tape)(tape.seed), work.pop)
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)
            work.clear()

    thread = threading.Thread(target=helper, name="respark-survivors")
    thread.start()
    try:
        drain(tape, work.popleft)
    finally:
        work.clear()  # on an error here, the helper stops after its current target
        thread.join()
    if errors:
        raise errors[0]
    return kept


class _PrefixReference:
    """What a step reads of the stream prefix through its block: the prefix
    graph, its connectivity, its grounded factors (the exact estimates of
    every prefix edge and projection_error read them) and the projection
    context spectral_check reads. Each piece, the graph included, is built
    on first read, so a reference costs nothing to construct and a piece no
    step reads is never built. All of it depends on the graph and the
    prefix length alone, not on the tape. The prefix of all m edges reads
    the factors of whole, the stream's whole-graph context, when given."""

    def __init__(self, g: WeightedGraph, count: int, whole: ProjectionContext | None = None):
        self._source, self._count = g, count
        self._whole = whole if count == g.m else None

    @cached_property
    def graph(self) -> WeightedGraph:
        return self._source.prefix(self._count)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def grounded(self) -> ProjectionContext:
        """The prefix given its grounded factors, which the exact estimates
        and projection_error read; it is a projection context only when the
        prefix is connected."""
        return self._whole or ProjectionContext(
            self.graph, pseudo_factorize(build_laplacian(self.graph)))

    @cached_property
    def exact(self) -> np.ndarray:
        """The oracle's resistance of every prefix edge, indexed by edge id."""
        g = self.graph
        estimates = exact_resistances(self.grounded.factors, np.column_stack((g.u, g.v)))
        return np.array([est.r_tilde for est in estimates])

    @cached_property
    def spectral(self) -> ProjectionContext:
        """projection_context of the prefix."""
        return verify.projection_context(self.graph)


class _References:
    """The references that run_experiment's trials over one graph g share:
    the whole-graph projection context the variation norm reads, and one
    _PrefixReference per prefix length, given that context, built on first
    use and kept for the references' lifetime."""

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self._prefixes: dict[int, _PrefixReference] = {}

    @cached_property
    def whole(self) -> ProjectionContext:
        return projection_context(self.graph)

    def prefix(self, count: int) -> _PrefixReference:
        return self._prefixes.setdefault(count, _PrefixReference(self.graph, count, self.whole))


def _step_estimates(
    h_prev: Sparsifier, block: Sequence[int], mode: str, ref: _PrefixReference
) -> np.ndarray:
    """The r_tilde column of h_prev._targets(block) for step h_prev.step + 1,
    per the configured mode. ref is the reference of the stream prefix
    through the block; only the "exact" and "noisy" modes read it."""
    g, cfg = h_prev.graph, h_prev.config
    targets = h_prev._targets(block)
    if mode == "nodrop":
        # twice the r_e that makes a_e r_e / (alpha (n - 1)) one, so no rounding
        # leaves p below 1: the exact-reconstruction path
        return 2.0 * cfg.alpha * (cfg.n - 1) / g.weight[targets]
    if mode == "sparsifier":
        pairs = np.column_stack((g.u[targets], g.v[targets]))
        return resistances_from_sparsifier(h_prev.combined_with(block), pairs, cfg.eps)
    exact = ref.exact[targets]
    if mode == "exact":
        return exact
    # "noisy": the oracle perturbed within the declared accuracy band
    key = f"noise/{h_prev.step + 1}"
    return inject_alpha_noise(exact, cfg.alpha, RandomTape(cfg.seed).child_seed(key))


@dataclass
class StreamTrace:
    """Per-step probability and aliveness history of one stream run over graph.

    Row s describes the state after step s (row 0 is the initial state);
    p_steps[s] and alive_steps[s] are that state's own p and count columns,
    so unseen edges hold p = 1 with all N copies alive and the analysis
    formulas apply verbatim to every row. copy_steps, when recorded, holds
    each state's own copies column, shared with it (CSR by alive_steps[s]).
    """

    graph: WeightedGraph
    budget_n: int
    arrived: list[int]
    p_steps: list[np.ndarray]
    alive_steps: list[np.ndarray]
    copy_steps: list[np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return len(self.arrived) - 1

    def copy_count(self, step: int) -> int:
        seen = self.arrived[step]
        return int(self.alive_steps[step][:seen].sum())

    def max_copy_ratios(self, edge_id: int) -> np.ndarray:
        """max over steps of z_{s,e,j} / p_{s,e} for each copy j of one edge:
        1/p at its last alive row, as p never rises (every copy lives at row 0)."""
        if self.copy_steps is None:
            raise ValueError("trace was recorded without per-copy indicators")
        ratios = np.ones(self.budget_n)
        rows = zip(self.arrived, self.p_steps, self.alive_steps, self.copy_steps)
        for arrived, p, count, copies in rows:  # an unseen edge has all N copies
            start = int(count[:edge_id].sum())
            alive = copies[start:start + int(count[edge_id])] if edge_id < arrived else slice(None)
            ratios[alive] = 1.0 / p[edge_id]
        return ratios

    def _append(self, h: Sparsifier) -> None:
        """Add state h's row: its p, count and, when recorded, copies columns."""
        self.arrived.append(h.arrived)
        self.p_steps.append(h.p)
        self.alive_steps.append(h.count)
        if self.copy_steps is not None:
            self.copy_steps.append(h.copies)


def _check_run_inputs(g: WeightedGraph, cfg: StreamConfig, mode: str) -> None:
    """Reject a resistance mode or a config that no step of the run could use."""
    if mode not in RESISTANCE_MODES:
        raise ValueError(f"resistance mode must be one of {RESISTANCE_MODES}, got {mode!r}")
    hint = "build the config with StreamConfig.for_graph"
    if cfg.n != g.n or cfg.m != g.m:
        raise ConfigError(
            f"config (n={cfg.n}, m={cfg.m}) does not match graph (n={g.n}, m={g.m}); {hint}"
        )
    kappa = g.kappa()
    if abs(cfg.kappa - kappa) > 1e-9 * max(1.0, kappa):
        raise ConfigError(
            f"config kappa={cfg.kappa} does not match graph kappa={kappa}; {hint}"
        )


def stream_sparsify(
    g: WeightedGraph,
    cfg: StreamConfig,
    block_size: int | None = None,
    resistance_mode: str = "sparsifier",
    diagnostics: bool = True,
    on_step: Callable | None = None,
    *,
    references: _References | None = None,
) -> tuple[Sparsifier, list]:
    """Run the block-stream driver over the whole edge stream: the one step
    loop. Each step estimates, resparsifies, records its diagnostics, then
    calls on_step.

    Parameters
    ----------
    g : WeightedGraph
        The input stream; edge order is the arrival order.
    cfg : StreamConfig
        Must match g's n, m, and kappa. cfg.seed keys every random decision,
        so the returned sparsifier is exactly reconstructible from
        (seed, cfg, g).
    block_size : int, optional
        Defaults to the budget N, giving ceil(m/N) blocks.
    resistance_mode : str
        One of RESISTANCE_MODES; "sparsifier" estimates on the running
        sparsifier plus the block, "exact" uses the oracle on the stream
        prefix, "noisy" perturbs the oracle within [1/alpha, alpha],
        "nodrop" pins every probability at 1.
    diagnostics : bool
        Record a DiagnosticsRecord per step. Requires g connected (the
        variation norm needs a whole-graph reference). Steps whose prefix
        graph is disconnected get a NaN projection error and a_event False.
        The variation reads a trace of the states' p and count columns,
        kept for the run without copies.
    on_step : callable, optional
        Called as on_step(step, sparsifier, prefix_graph, record) after
        each step; record is None when diagnostics are off. What it raises
        reaches the caller unchanged, and no later step runs.
    references : optional, keyword only
        The prefix references of g that run_experiment builds once and
        shares between its trials: each step's prefix graph (the one
        on_step gets), its exact estimates, its grounded factors and its
        projection context, and the whole-graph context. They change no
        output. Without them, each step builds its own reference, each
        piece on first read, and drops it when the step ends.

    Returns
    -------
    (Sparsifier, list of DiagnosticsRecord)
    """
    _check_run_inputs(g, cfg, resistance_mode)
    if references is not None and references.graph is not g and references.graph != g:
        raise ValueError("references were built for another graph")
    blocks = partition_stream(g, cfg.budget_n if block_size is None else block_size)
    tape = RandomTape(cfg.seed)
    h = Sparsifier.empty(g, cfg)
    records: list = []
    whole = history = None
    if diagnostics:
        history = StreamTrace(g, cfg.budget_n, [], [], [])
        history._append(h)  # row 0, before any edge is seen
        # the variation norm uses one fixed whole-graph reference, which
        # keeps only its grounded factors and leverages; building it
        # requires the input graph to be connected
        whole = projection_context(g) if references is None else references.whole
    for step, block in enumerate(blocks, start=1):
        count = h.arrived + len(block)
        ref = (_PrefixReference(g, count, whole) if references is None
               else references.prefix(count))
        try:
            h = resparsify(h, block, _step_estimates(h, block, resistance_mode, ref), tape)
        except Exception as exc:
            raise StreamStepError(step, str(exc)) from exc
        record = None
        if diagnostics:
            history._append(h)
            # the variation first: the prefix factors that projection_error
            # builds are then not alive beside the variation's products
            w_norm = verify.quadratic_variation(history, whole, upto=step)
            proj = verify.projection_error(h, ref.grounded) if ref.connected else float("nan")
            record = verify.DiagnosticsRecord.from_measurements(
                step, h.copy_count(), proj, w_norm, cfg
            )
            records.append(record)
        if on_step is not None:
            on_step(step, h, ref.graph, record)
    return h, records


def indicator_stream(
    g: WeightedGraph,
    cfg: StreamConfig,
    block_size: int = 1,
    resistance_mode: str = "sparsifier",
    diagnostics: bool = True,
    record_copies: bool = True,
    on_step: Callable | None = None,
) -> tuple[Sparsifier, list, StreamTrace]:
    """stream_sparsify, also returning its complete per-step trace.

    The trace is recorded through stream_sparsify's on_step, before the
    caller's on_step is called. Its rows are the states' p and count
    columns, row 0 the empty state's; with record_copies each row also
    holds the state's copies column.
    """
    trace = StreamTrace(g, cfg.budget_n, [], [], [], [] if record_copies else None)
    trace._append(Sparsifier.empty(g, cfg))

    def record(step, h, prefix, diagnostics_record):
        trace._append(h)
        if on_step is not None:
            on_step(step, h, prefix, diagnostics_record)

    h, records = stream_sparsify(g, cfg, block_size, resistance_mode, diagnostics, record)
    return h, records, trace


def single_edge_stream(
    g: WeightedGraph,
    cfg: StreamConfig,
    resistance_mode: str = "sparsifier",
    diagnostics: bool = True,
    record_copies: bool = True,
    on_step: Callable | None = None,
) -> tuple[Sparsifier, list, StreamTrace]:
    """The single-edge-arrival formulation: indicator_stream with block size 1."""
    return indicator_stream(g, cfg, 1, resistance_mode, diagnostics, record_copies, on_step)


# ---------------------------------------------------------------------------
# sparsifier file format
#
# Line 1 is the header comment '# respark sparsifier step=S N=N seed=SEED',
# and every later line one 'u v weight e j p_tilde' row per alive copy in
# (e, j) order, so row k is line k + 2. Floats are written by repr, so they
# read back bit for bit.

_ROW_DTYPE = np.dtype(
    [("u", "i8"), ("v", "i8"), ("weight", "f8"), ("e", "i8"), ("j", "i8"), ("p_tilde", "f8")]
)


def write_sparsifier(h: Sparsifier, path) -> None:
    """Write alive copies: header comment, then 'u v weight e j p_tilde' rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# respark sparsifier step={h.step} N={h.budget_n} seed={h.config.seed}\n")
        us, vs = h.graph.u.tolist(), h.graph.v.tolist()
        for e, js in h.alive.items():
            # every copy of an edge shares all fields but j
            head = f"{us[e]} {vs[e]} {h.copy_weight(e)!r} {e} "
            tail = f" {h.p_tilde[e]!r}\n"
            fh.write(head + (tail + head).join(map(str, js.tolist())) + tail)


@dataclass(frozen=True, eq=False)
class LoadedSparsifier:
    """A sparsifier file read back against its graph, shaped like Sparsifier.

    It holds only what the file adds to the graph: e, p_tilde and count are
    read-only per-edge columns over the edges with rows in the file, by
    ascending e, and copies holds the copy ids in CSR order: edge after
    edge, ascending within an edge. So the memory held is 8 bytes a copy
    plus the per-edge columns. read_sparsifier proves a row's u, v and
    weight equal to the graph's endpoints of e and a_e / (N * p_tilde) bit
    for bit, so merged_columns() builds the triples as Sparsifier's does,
    and a written Sparsifier read back has the same Laplacian bit for bit.
    """

    graph: WeightedGraph
    step: int
    budget_n: int
    seed: int
    e: np.ndarray
    p_tilde: np.ndarray
    count: np.ndarray
    copies: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.e, self.p_tilde, self.count, self.copies):
            _read_only(column)

    n = property(lambda self: self.graph.n)

    def copy_count(self) -> int:
        return len(self.copies)

    def merged_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_merged_columns of the file's edges, by ascending e."""
        return _merged_columns(self.graph, self.e, self.count, self.p_tilde, self.budget_n)

    def laplacian(self) -> np.ndarray:
        """Laplacian of merged_columns(), built anew on every call and not kept."""
        return laplacian_from_arrays(self.n, *self.merged_columns())


def read_sparsifier(path, graph: WeightedGraph) -> LoadedSparsifier:
    """Read the sparsifier file of graph, checking every row against it.

    The file must be laid out as write_sparsifier writes it. Line 1 is the
    header, a comment holding 'respark sparsifier' and each of step=, N=
    and seed= once, every value an optional '-' then ASCII digits, with
    step >= 0 and N in [1, 2**63). Every later line is one row, so row k is
    line k + 2:
    'u v weight e j p_tilde' with 64-bit integers u, v, e, j and floats
    weight, p_tilde, all plain ASCII decimals (the grammar of np.loadtxt),
    with distinct vertex ids in [0, graph.n), a finite weight > 0, an edge
    id e >= 0, a copy index j in [0, N) and p_tilde in (0, 1]. The rows
    come in the writer's order, strictly ascending in (e, j), and a row of
    the same edge as the row before it agrees with it in u, v, weight and
    p_tilde. Each row is also what write_sparsifier writes for graph:
    e < graph.m, u v are edge e's endpoints in the graph's order, and the
    weight is a_e / (N * p_tilde) bit for bit.

    A bad row, a blank line or a comment after line 1 raises ValueError
    starting 'path:lineno:', a bad or missing header one starting 'path:'.

    The file is read and parsed a chunk of whole lines at a time, and each
    chunk's rows are kept as runs of one edge plus their copy ids, so the
    memory held is 8 bytes a copy, the runs and one chunk. The line at
    fault is read again by its number; a file that is not UTF-8 is decoded
    again a chunk at a time to find the offset of its first bad byte.
    """
    try:
        (step, budget, seed), runs, copies, stop = _read_runs(path)
    except ValueError:  # not UTF-8, or a missing or bad header
        _raise_decode_error(path)
        raise
    bad = _first_bad_row(runs, copies, budget, graph)
    if bad is not None or stop is not None:
        k, check = bad or (stop, "parse")
        raise _row_error(path, runs, copies, k, check, budget, graph)
    # in (e, j) order each edge's runs are adjacent and agree in all but count
    firsts = np.flatnonzero(np.diff(runs["e"], prepend=-1))
    return LoadedSparsifier(
        graph, step, budget, seed, e=runs["e"][firsts], p_tilde=runs["p_tilde"][firsts],
        count=np.add.reduceat(runs["count"], firsts), copies=copies,
    )


_READ_CHUNK = 2**16  # characters read together, then through the end of a line

# a run: consecutive rows equal in every field but j, held once with their number
_RUN_DTYPE = np.dtype(
    [("e", "i8"), ("u", "i8"), ("v", "i8"), ("weight", "f8"), ("p_tilde", "f8"), ("count", "i8")]
)


def _read_runs(path) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray, int | None]:
    """(header, runs, copy ids, stop) of a file: its header's (step, N, seed),
    then its rows read a chunk of whole lines at a time.

    The rows are those before the first line after the header that is not
    a row (a blank line, a comment or text that does not parse); stop is
    that line's row index, or None when there is no such line. A missing
    or bad header raises _read_header's ValueError, and text that is not
    UTF-8 raises UnicodeDecodeError (at a chunk's offset).
    """
    stop, count = None, 0
    runs, copies = [np.empty(0, _RUN_DTYPE)], [_NO_COPIES]
    with open(path, "r", encoding="utf-8") as fh:
        header = _read_header(path, fh.readline())
        while text := fh.read(_READ_CHUNK):
            text += fh.readline()
            if stop is not None:
                continue  # only a decode error is left to find
            lines = text.split("\n")
            if not lines[-1]:  # after the newline that ends the last line
                lines.pop()
            rows = _parse_rows(lines)
            if rows is None or len(rows) < len(lines):  # loadtxt skips blank lines
                good = next(k for k, line in enumerate(lines)
                            if not line.strip() or _parse_rows([line]) is None)
                rows = _parse_rows(lines[:good]) if good else np.empty(0, _ROW_DTYPE)
                stop = count + good
            count += len(rows)
            runs.append(_runs(rows))
            copies.append(rows["j"].copy())  # a view would keep the chunk's rows alive
    return header, np.concatenate(runs), np.concatenate(copies), stop


def _runs(rows: np.ndarray) -> np.ndarray:
    """Rows as runs: each stretch of rows equal in all fields but j, held once."""
    fields = _RUN_DTYPE.names[:-1]
    starts = np.zeros(len(rows), dtype=bool)
    starts[:1] = True
    for name in fields:
        starts[1:] |= rows[name][1:] != rows[name][:-1]
    starts = np.flatnonzero(starts)
    runs = np.empty(len(starts), _RUN_DTYPE)
    for name in fields:
        runs[name] = rows[name][starts]
    runs["count"] = np.diff(starts, append=len(rows))
    return runs


def _raise_decode_error(path) -> None:
    """Raise the error of a file that is not UTF-8 as decoding it whole words
    it, decoding a chunk of bytes at a time (an incomplete last character
    waits in the decoder for the next chunk)."""
    decoder, end = codecs.getincrementaldecoder("utf-8")(), 0  # end: of the bytes read
    try:
        with open(path, "rb") as fh:
            while data := fh.read(_READ_CHUNK):
                end += len(data)
                decoder.decode(data)
            decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:  # exc.object: the bytes waiting, then the chunk
        start, bad = end - len(exc.object) + exc.start, exc.object[exc.start:exc.end]
        where = (f"byte 0x{bad[0]:02x} in position {start}" if len(bad) == 1
                 else f"bytes in position {start}-{start + len(bad) - 1}")
        raise ValueError(f"{path}: 'utf-8' codec can't decode {where}: {exc.reason}") from exc


def _parse_rows(lines) -> np.ndarray | None:
    """Rows parsed from a list of lines, or None when one does not parse (a
    '#' included); a blank line is skipped.

    This is the one number grammar of the format. NumPy 1.23 to 1.26 parse a
    float in an integer field (say '0.7' or '1e0') with only a
    DeprecationWarning and truncate it; that warning is made an error here,
    so such a row is rejected as newer NumPy rejects it.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows
            warnings.filterwarnings(
                "error", ".*Parsing an integer via a float", DeprecationWarning
            )
            return np.loadtxt(lines, dtype=_ROW_DTYPE, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


def _read_header(path, line: str) -> tuple[int, int, int]:
    """(step, N, seed) of line 1, which must be the comment holding
    'respark sparsifier' and each field once as a 'key=value' token: an
    optional '-' then ASCII digits, with step >= 0 and N in [1, 2**63).
    Anything else, digits past the count int() converts included, raises
    ValueError starting 'path:'."""
    if not (line.lstrip().startswith("#") and "respark sparsifier" in line):
        raise ValueError(f"{path}: missing sparsifier header comment")
    pairs = [tok.split("=", 1) for tok in line.split() if "=" in tok]
    header = []
    for key in ("step", "N", "seed"):
        values = [value for name, value in pairs if name == key]
        if len(values) != 1:
            raise ValueError(f"{path}: header needs {key}= once, got it {len(values)} times")
        digits = values[0].removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{path}: header {key}={values[0]!r} is not an integer")
        try:
            header.append(int(values[0]))
        except ValueError:  # past Python's limit on the digits int() converts
            raise ValueError(f"{path}: header {key}= has {len(digits)} digits, "
                             "too many to read as an integer") from None
    step, budget, seed = header
    if step < 0 or not 1 <= budget < _MAX_BUDGET:
        raise ValueError(f"{path}: header needs step >= 0 and N in [1, 2**63), "
                         f"got step={step} N={budget}")
    return step, budget, seed


_ROW_ERRORS = {
    "parse": "expected 'u v weight e j p_tilde' with 64-bit integers u, v, e, j, got {line!r}",
    "range": "need distinct vertex ids in [0, {n}), a finite weight > 0 and p_tilde "
             "in (0, 1], got {line!r}",
    "copy": "need an edge id e >= 0 and a copy index j in [0, {budget}), got {line!r}",
    "repeat": "copy j={j} of edge e={e} repeats line {earlier}",
    "order": "need rows in (e, j) order as the writer writes them; e={e} j={j} follows "
             "line {earlier}",
    "mixed": "edge e={e} differs from line {earlier} in u v, weight or p_tilde",
    "edge": "need an edge id e < {m} and graph edge e's endpoints in its order, got {line!r}",
    "weight": "need the weight a_e / (N * p_tilde) of graph edge e at N={budget}, "
              "got {line!r}",
}


def _first_bad_row(
    runs: np.ndarray, j: np.ndarray, budget: int, graph: WeightedGraph
) -> tuple[int, str] | None:
    """The one row contract of graph's file, on rows held as runs and their
    copy ids j: (index, check) for the first row that breaks it, or None.
    check names the _ROW_ERRORS entry; at one row the first of them in that
    order is named. A rule on a run's fields breaks at the run's first row.
    "repeat", "order" and "mixed" compare a row with the row before it;
    "edge" and "weight" compare it with the graph.
    """
    u, v, w, e, p, count = (runs[k] for k in ("u", "v", "weight", "e", "p_tilde", "count"))
    starts = count.cumsum() - count
    n = graph.n
    in_range = (
        (0 <= u) & (u < n) & (0 <= v) & (v < n) & (u != v)
        & (0.0 < w) & (w < math.inf) & (0.0 < p) & (p <= 1.0)
    )
    run_ok = in_range & (0 <= e)
    found = []  # (index, check) per broken rule, in _ROW_ERRORS order
    if not run_ok.all():
        run = int(run_ok.argmin())
        found.append((int(starts[run]), "range" if not in_range[run] else "copy"))
    if len(j) and (j.min() < 0 or j.max() >= budget):
        found.append((int(((j < 0) | (j >= budget)).argmax()), "copy"))
    # down[k]: row k + 1 does not follow row k; within a run e is equal
    down = j[1:] <= j[:-1]
    at = starts[1:] - 1
    down[at] = (e[1:] < e[:-1]) | ((e[1:] == e[:-1]) & down[at])
    if down.any():
        k = int(down.argmax())
        e_k, e_next = e[np.searchsorted(starts, [k, k + 1], side="right") - 1]
        found.append((k + 1, "repeat" if (e_k, j[k]) == (e_next, j[k + 1]) else "order"))
    differ = (u[1:] != u[:-1]) | (v[1:] != v[:-1]) | (w[1:] != w[:-1]) | (p[1:] != p[:-1])
    mixed = (e[1:] == e[:-1]) & differ
    if mixed.any():
        found.append((int(starts[mixed.argmax() + 1]), "mixed"))
    # on the runs that keep the row rules; an edge id past the graph reads
    # the -1 sentinel
    ok = np.flatnonzero(run_ok)
    at = np.minimum(e[ok], graph.m)
    gu, gv = (np.append(x, -1) for x in (graph.u, graph.v))
    a = np.append(graph.weight, np.nan)[at]
    rules = [("edge", (u[ok] == gu[at]) & (v[ok] == gv[at])),
             ("weight", w[ok] == a / (budget * p[ok]))]
    for check, rule_ok in rules:
        if not rule_ok.all():
            found.append((int(starts[ok[rule_ok.argmin()]]), check))
    # min keeps the first of equal indices, so the check first in order
    return min(found, key=lambda found_at: found_at[0], default=None)


def _row_error(
    path, runs: np.ndarray, j: np.ndarray, k: int, check: str, budget: int,
    graph: WeightedGraph,
) -> ValueError:
    """The 'path:lineno:' error of row k, line k + 2, which breaks `check`
    (against row k - 1, line k + 1, for "repeat", "order" and "mixed")."""
    e = copy = None
    if k < len(j):  # else the row did not parse
        e = int(runs["e"][np.searchsorted(runs["count"].cumsum(), k, side="right")])
        copy = int(j[k])
    with open(path, "r", encoding="utf-8") as fh:  # a line at a time
        line = next(islice(fh, k + 1, None)).strip()
    return ValueError(f"{path}:{k + 2}: " + _ROW_ERRORS[check].format(
        line=line, n=graph.n, budget=budget, m=graph.m, e=e, j=copy, earlier=k + 1,
    ))
