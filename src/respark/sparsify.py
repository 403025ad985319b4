"""Incremental resparsification: budget, config, the per-block step, and
the stream step loop.

Every stream driver runs one loop: estimate resistances on the current
state, resparsify (thin the surviving copies by probability ratios and
sample the new block), record, then call the observer. The state is
per-edge columns (probability, surviving copy count) plus the surviving
copy ids; three entry points differ only in what the loop records.
`stream_sparsify` returns the final sparsifier and, with diagnostics on,
one DiagnosticsRecord per step. `indicator_stream` also returns the
per-step StreamTrace, whose rows are the states' own columns, and
optionally the full (m, N) copy-indicator row per step.
`single_edge_stream` is `indicator_stream` with block size 1. All of them
consume the same keyed random tape, so for a fixed block partition they
produce bit-identical copy sets.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from . import verify
from .graph import (
    Edge,
    ProjectionContext,
    WeightedGraph,
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


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)  # NumPy integers too, but no float: it would be truncated
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


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
        seed = _integer("seed", self.seed)
        override = self.budget_override
        if override is not None:
            if not 1 <= override < _MAX_BUDGET:  # NaN fails too
                raise ConfigError(f"budget override {override} is outside [1, 2**63)")
            budget = override = _integer("budget override", override)
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
        w = g.weights()
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


def partition_stream(g: WeightedGraph, block_size: int) -> list[list[int]]:
    """Split the stream into ceil(m / block_size) blocks of edge ids, in order."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    return [
        list(range(start, min(start + block_size, g.m)))
        for start in range(0, g.m, block_size)
    ]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_MERGED_DTYPE = np.dtype([("u", "i8"), ("v", "i8"), ("weight", "f8")])
_NO_COPIES = _read_only(np.empty(0, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Sparsifier:
    """State after step `step`, as read-only columns over the m stream edges.

    p and count hold each edge's probability and surviving copies; an unseen
    edge holds p = 1 with all N copies, and a dead edge keeps its last p
    (it never re-enters the graph). copies holds the surviving copy ids of
    the seen edges in CSR order: edge after edge, ascending within an edge.
    Each copy of edge e carries weight a_e / (N * p[e]). resparsify returns
    a new instance; alive and p_tilde are mappings derived from the columns.
    """

    config: StreamConfig
    step: int
    n: int
    edges: tuple[Edge, ...]
    arrived: int
    p: np.ndarray
    count: np.ndarray
    copies: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.p, self.count, self.copies):
            _read_only(column)

    @classmethod
    def empty(cls, g: WeightedGraph, cfg: StreamConfig) -> "Sparsifier":
        return cls(cfg, 0, g.n, g.edges, 0, np.ones(g.m), np.full(g.m, cfg.budget_n), _NO_COPIES)

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
        return self.edges[edge_id].weight / (self.budget_n * self.p_tilde[edge_id])

    def _targets(self, block: Sequence[int]) -> list[int]:
        """The alive edges in id order, then `block` (unseen, so ascending)."""
        return [*self.alive, *block]

    def _merged(self, block: Sequence[int] = ()) -> np.ndarray:
        """(u, v, weight) rows: each alive edge's merged copies, then `block`'s raw edges."""
        ids = self._targets(block)
        rows = np.array([self.edges[e] for e in ids], dtype=_MERGED_DTYPE)
        alive, a = ids[: len(ids) - len(block)], rows["weight"]
        a[: len(alive)] = self.count[alive] * (a[: len(alive)] / (self.budget_n * self.p[alive]))
        return rows

    def laplacian(self) -> np.ndarray:
        """Read-only Laplacian of the merged copies, built on first call."""
        return self._laplacian

    @cached_property
    def _laplacian(self) -> np.ndarray:
        rows = self._merged()
        return _read_only(laplacian_from_arrays(self.n, rows["u"], rows["v"], rows["weight"]))

    def combined_with(self, block: Sequence[int]) -> WeightedGraph:
        """The merged sparsifier plus the raw edges of the next block."""
        return WeightedGraph.from_edges(self.n, self._merged(block).tolist())


def resparsify(
    h_prev: Sparsifier,
    block: Sequence[int],
    estimates: Sequence[ResistanceEstimate],
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
    estimates : sequence of ResistanceEstimate
        Must cover every edge that has surviving copies plus every edge of
        the block.
    tape : RandomTape
        Supplies u_{s,e,j}; copy j of edge e survives iff u_{s,e,j} <=
        p_new / p_prev. A block edge starts at its column values p = 1 with
        all N copies, so the same test performs its N Bernoulli(p_new) trials.
    """
    cfg = h_prev.config
    s = h_prev.step + 1
    n, alpha, N = h_prev.n, cfg.alpha, cfg.budget_n
    block = [int(e) for e in block]
    expected = list(range(h_prev.arrived, h_prev.arrived + len(block)))
    if block != expected:
        raise ValueError(f"block must be the next stream slice {expected}, got {block}")
    rmap = {est.edge_id: est.r_tilde for est in estimates}
    targets = h_prev._targets(block)
    missing = [e for e in targets if e not in rmap]
    if missing:
        raise ValueError(f"missing resistance estimates for edges {missing}")

    p, count = h_prev.p.copy(), h_prev.count.copy()
    kept = []
    for e, prev in zip(targets, h_prev.p[targets].tolist()):
        # min rule: p <= prev makes the survival ratio p / prev <= 1 exactly
        p_e = min(h_prev.edges[e].weight * rmap[e] / (alpha * (n - 1)), 1.0, prev)
        if e >= h_prev.arrived:
            kept.append(np.flatnonzero(tape.uniforms(s, e, N) <= p_e / prev))
        else:
            # dead copies stay dead, so only the alive copies' draws are read
            js = h_prev.alive[e]
            kept.append(js[tape.uniforms(s, e, N, at=js) <= p_e / prev])
        p[e], count[e] = p_e, len(kept[-1])
    copies = np.concatenate(kept)
    return Sparsifier(cfg, s, n, h_prev.edges, h_prev.arrived + len(block), p, count, copies)


class _PrefixReference:
    """What a step reads of the stream prefix through its block: the prefix
    graph, its connectivity, its grounded factors (the exact estimates of
    every prefix edge and projection_error read them) and the projection
    context spectral_check reads. Each piece, the graph included, is built
    on first read, so a reference costs nothing to construct and a piece no
    step reads is never built. All of it depends on the graph and the
    prefix length alone, not on the tape."""

    def __init__(self, g: WeightedGraph, count: int):
        self._source, self._count = g, count

    @cached_property
    def graph(self) -> WeightedGraph:
        return self._source.prefix(self._count)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def grounded(self) -> ProjectionContext:
        """The prefix with its grounded factors; its eigen view stays unbuilt
        unless a caller reads it, and it is a projection context only when
        the prefix is connected."""
        return ProjectionContext(self.graph, pseudo_factorize(build_laplacian(self.graph)))

    @cached_property
    def exact(self) -> list[ResistanceEstimate]:
        """The oracle's estimate of every prefix edge, indexed by edge id."""
        pairs = [(e.u, e.v) for e in self.graph.edges]
        return exact_resistances(self.grounded.factors, pairs)

    @cached_property
    def spectral(self) -> ProjectionContext:
        """projection_context of the prefix."""
        return verify.projection_context(self.graph)


class _References:
    """The references that run_experiment's trials over one graph g share:
    the whole-graph projection context the variation norm reads, and one
    _PrefixReference per prefix length, each built on first use and kept
    for the references' lifetime."""

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self._prefixes: dict[int, _PrefixReference] = {}

    @cached_property
    def whole(self) -> ProjectionContext:
        return projection_context(self.graph)

    def prefix(self, count: int) -> _PrefixReference:
        return self._prefixes.setdefault(count, _PrefixReference(self.graph, count))


def _step_estimates(
    h_prev: Sparsifier,
    block: Sequence[int],
    g: WeightedGraph,
    mode: str,
    step: int,
    ref: _PrefixReference,
) -> list[ResistanceEstimate]:
    """Resistance estimates for alive(H_{s-1}) union block, per the configured
    mode. ref is the reference of the stream prefix through the block; only
    the "exact" and "noisy" modes read it."""
    cfg = h_prev.config
    targets = h_prev._targets(block)
    if mode == "nodrop":
        # inflated estimates pin every probability at 1; exercises the
        # exact-reconstruction path
        return [
            ResistanceEstimate(e, cfg.alpha * (cfg.n - 1) / g.edges[e].weight, cfg.alpha)
            for e in targets
        ]
    if mode == "sparsifier":
        combined = h_prev.combined_with(block)
        pairs = [(g.edges[e].u, g.edges[e].v) for e in targets]
        return resistances_from_sparsifier(combined, pairs, cfg.eps, targets)
    exact = [ref.exact[e] for e in targets]
    if mode == "exact":
        return exact
    # "noisy": the oracle perturbed within the declared accuracy band
    return inject_alpha_noise(exact, cfg.alpha, RandomTape(cfg.seed).child_seed(f"noise/{step}"))


@dataclass
class StreamTrace:
    """Per-step probability and aliveness history of one stream run.

    Row s describes the state after step s (row 0 is the initial state);
    p_steps[s] and alive_steps[s] are that state's own p and count columns,
    so unseen edges hold p = 1 with all N copies alive and the analysis
    formulas apply verbatim to every row. copy_steps, when recorded, holds
    the full (m, N) indicator matrix per step.
    """

    n: int
    budget_n: int
    edges: tuple[Edge, ...]
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
        """max over steps of z_{s,e,j} / p_{s,e} for each copy j of one edge."""
        if self.copy_steps is None:
            raise ValueError("trace was recorded without per-copy indicators")
        ratios = np.stack(
            [zs[edge_id] / ps[edge_id] for zs, ps in zip(self.copy_steps, self.p_steps)]
        )
        return ratios.max(axis=0)

    def _append(self, h: Sparsifier) -> None:
        """Add state h's row: its p and count columns and, with copies, its indicators."""
        self.arrived.append(h.arrived)
        self.p_steps.append(h.p)
        self.alive_steps.append(h.count)
        if self.copy_steps is not None:
            z = np.zeros((len(self.edges), self.budget_n), dtype=bool)
            z[h.arrived :] = True  # the N copies of each unseen edge
            z[np.repeat(np.arange(h.arrived), h.count[: h.arrived]), h.copies] = True
            self.copy_steps.append(z)


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


def _run_stream(
    g: WeightedGraph,
    cfg: StreamConfig,
    block_size: int | None,
    mode: str,
    on_step: Callable | None,
    diagnostics: bool,
    trace: bool,
    copies: bool = False,
    references: _References | None = None,
) -> tuple[Sparsifier, list, StreamTrace | None]:
    """The one step loop: estimate, resparsify, record, then call on_step.

    A trace is recorded when asked for or when diagnostics need one (the
    variation norm reads it); per-copy rows only when `copies` is set. Each
    step reads its prefix reference from references (built for g) when
    given, else from one built for the step alone; either way a piece of it
    is built only when the estimates, the diagnostics or on_step read it.
    """
    _check_run_inputs(g, cfg, mode)
    if references is not None and references.graph is not g and references.graph != g:
        raise ValueError("references were built for another graph")
    blocks = partition_stream(g, cfg.budget_n if block_size is None else block_size)
    tape = RandomTape(cfg.seed)
    h = Sparsifier.empty(g, cfg)
    history = None
    if trace or diagnostics:
        history = StreamTrace(g.n, cfg.budget_n, g.edges, [], [], [], [] if copies else None)
        history._append(h)  # row 0, before any edge is seen
    # the variation norm uses one fixed whole-graph reference; building it
    # requires the input graph to be connected
    ctx_full = None
    if diagnostics:
        ctx_full = projection_context(g) if references is None else references.whole
    records: list = []
    for step, block in enumerate(blocks, start=1):
        count = h.arrived + len(block)
        ref = _PrefixReference(g, count) if references is None else references.prefix(count)
        try:
            estimates = _step_estimates(h, block, g, mode, step, ref)
            h = resparsify(h, block, estimates, tape)
        except Exception as exc:
            raise StreamStepError(step, str(exc)) from exc
        if history is not None:
            history._append(h)
        record = None
        if diagnostics:
            proj = verify.projection_error(h, ref.grounded) if ref.connected else float("nan")
            w_norm = verify.quadratic_variation(history, ctx_full, upto=step)
            record = verify.DiagnosticsRecord.from_measurements(
                step, h.copy_count(), proj, w_norm, cfg
            )
            records.append(record)
        if on_step is not None:
            on_step(step, h, ref.graph, record)
    return h, records, history


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
    """Run the block-stream driver over the whole edge stream.

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
    on_step : callable, optional
        Called as on_step(step, sparsifier, prefix_graph, record) after
        each step; record is None when diagnostics are off.
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
    h, records, _ = _run_stream(
        g, cfg, block_size, resistance_mode, on_step, diagnostics, trace=False,
        references=references,
    )
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
    """The same stream computation, returning its complete per-step trace.

    Trace rows are the states' p and count columns; with record_copies each
    row also holds the full (m, N) copy-indicator matrix. The copy sets are
    exactly those of stream_sparsify for the same partition and tape.
    """
    return _run_stream(
        g, cfg, block_size, resistance_mode, on_step, diagnostics, trace=True,
        copies=record_copies,
    )


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
# A header comment '# respark sparsifier step=S N=N seed=SEED', then one
# 'u v weight e j p_tilde' row per alive copy in (e, j) order. Floats are
# written by repr, so they read back bit for bit.

_ROW_DTYPE = np.dtype(
    [("u", "i8"), ("v", "i8"), ("weight", "f8"), ("e", "i8"), ("j", "i8"), ("p_tilde", "f8")]
)


def write_sparsifier(h: Sparsifier, path) -> None:
    """Write alive copies: header comment, then 'u v weight e j p_tilde' rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# respark sparsifier step={h.step} N={h.budget_n} seed={h.config.seed}\n")
        for e, js in h.alive.items():
            # every copy of an edge shares all fields but j
            head = f"{h.edges[e].u} {h.edges[e].v} {h.copy_weight(e)!r} {e} "
            tail = f" {h.p_tilde[e]!r}\n"
            fh.write(head + (tail + head).join(map(str, js.tolist())) + tail)




@dataclass(frozen=True, eq=False)
class LoadedSparsifier:
    """A sparsifier file read back, shaped like Sparsifier.

    e, u, v, weight, p_tilde and count are read-only per-edge columns over
    the edges with rows in the file, by ascending e: each edge's endpoints,
    copy weight, probability and number of copies. copies holds the copy
    ids in CSR order: edge after edge, ascending within an edge. So the
    memory held is 8 bytes a copy plus the per-edge columns. The Laplacian
    is built from the merged triples (u, v, count * weight), as Sparsifier
    builds its own, so a written Sparsifier read back with its n has the
    same Laplacian bit for bit.
    """

    n: int
    step: int
    budget_n: int
    seed: int
    e: np.ndarray
    u: np.ndarray
    v: np.ndarray
    weight: np.ndarray
    p_tilde: np.ndarray
    count: np.ndarray
    copies: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.e, self.u, self.v, self.weight, self.p_tilde, self.count, self.copies):
            _read_only(column)

    def copy_count(self) -> int:
        return len(self.copies)

    def laplacian(self) -> np.ndarray:
        """Read-only Laplacian of the merged copies, built on first call."""
        return self._laplacian

    @cached_property
    def _laplacian(self) -> np.ndarray:
        merged = self.count * self.weight
        return _read_only(laplacian_from_arrays(self.n, self.u, self.v, merged))


def read_sparsifier(
    path, n: int | None = None, graph: WeightedGraph | None = None
) -> LoadedSparsifier:
    """Read a sparsifier file, checking every row (against n or graph when given).

    Blank lines and lines starting with '#' are skipped; the first comment
    holding 'respark sparsifier' is the header, whose step, N and seed must
    be integers. Every other line must be 'u v weight e j p_tilde' with
    64-bit integers u, v, e, j and floats weight, p_tilde, all plain ASCII
    decimals (the grammar of np.loadtxt), with distinct vertex ids in
    [0, n), a finite weight > 0, an edge id e >= 0, a copy index j in
    [0, N), p_tilde in (0, 1], and no (e, j) pair seen before. All rows of
    an edge agree in u, v, weight and p_tilde. The rows may come in any
    order; the writer's is (e, j).

    With graph, n is graph.n and the rows must also be what write_sparsifier
    writes for it: e < graph.m, u v are edge e's endpoints in the graph's
    order, and, when the header gives N, the weight is a_e / (N * p_tilde)
    bit for bit.

    A bad row raises ValueError starting 'path:lineno:', a bad or missing
    header one starting 'path:'.

    The file is read and parsed a chunk of whole lines at a time, and each
    chunk's rows are kept as runs of one edge plus their copy ids, so the
    memory held is 8 bytes a copy, the runs and one chunk. A file that fails
    a check is walked again a chunk at a time to find the line at fault;
    only one that is not UTF-8 is read again whole, to name its offset.
    """
    if graph is not None:
        if n is not None and n != graph.n:
            raise ValueError(f"n={n} differs from the graph's {graph.n} vertices")
        n = graph.n
    bound = math.inf if n is None else n
    try:
        header, runs, copies, stop = _read_runs(path)
    except ValueError:  # not UTF-8, or a header field that is not an integer
        _raise_decode_error(path)
        raise
    budget = (header or {}).get("N", math.inf)
    bad = _first_bad_row(runs, copies, bound, budget, graph)
    if bad is not None or stop is not None:
        k, check, earlier = bad or (stop, "parse", -1)
        raise _row_error(path, runs, copies, k, check, earlier, bound, budget, graph)
    if header is None:
        raise ValueError(f"{path}: missing sparsifier header comment")
    edges, copies = _per_edge(runs, copies)
    if n is None:
        n = 1 + int(max(edges["u"].max(), edges["v"].max())) if len(edges) else 0
    return LoadedSparsifier(
        n=int(n),
        step=header.get("step", 0),
        budget_n=header.get("N", 0),
        seed=header.get("seed", 0),
        **{name: edges[name].copy() for name in _RUN_DTYPE.names},
        copies=copies,
    )


_READ_CHUNK = 2**16  # characters read together, then through the end of a line

# a run: consecutive rows equal in every field but j, held once with their number
_RUN_DTYPE = np.dtype(
    [("e", "i8"), ("u", "i8"), ("v", "i8"), ("weight", "f8"), ("p_tilde", "f8"), ("count", "i8")]
)


def _read_runs(path) -> tuple[dict[str, int] | None, np.ndarray, np.ndarray, int | None]:
    """(header, runs, copy ids, stop) of a file read whole lines at a time.

    The rows are those before the first data line that does not parse or
    has a '#' inside it; stop is that line's row index, or None when there
    is no such line. The header is looked for through the whole file. A
    header field that is not an integer raises its ValueError, and text
    that is not UTF-8 raises UnicodeDecodeError (at a chunk's offset).
    """
    header, stop, count = None, None, 0
    runs, copies = [np.empty(0, _RUN_DTYPE)], [_NO_COPIES]
    with open(path, "r", encoding="utf-8") as fh:
        while text := fh.read(_READ_CHUNK):
            text += fh.readline()
            if header is None:
                header = _read_header(path, text)
            if stop is not None:
                continue
            rows = None if _hash_inside_row(text) else _parse_rows(text.split("\n"))
            if rows is None:
                rows = _rows_before_bad_line(text)
                stop = count + len(rows)
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


def _rows_before_bad_line(text: str) -> np.ndarray:
    """The rows of a chunk before its first data line that does not parse
    alone, with no '#' a comment."""
    lines = [line for line in map(str.strip, text.split("\n"))
             if line and not line.startswith("#")]
    good = next(
        (k for k, line in enumerate(lines) if _parse_rows([line], comments=None) is None),
        len(lines),
    )
    return _parse_rows(lines[:good], comments=None) if good else np.empty(0, _ROW_DTYPE)


def _raise_decode_error(path) -> None:
    """Raise the error of a file that is not UTF-8, at its byte offset in the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while fh.read(_READ_CHUNK):
                pass
        return
    except UnicodeDecodeError:
        pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.read()  # decoded whole, the error names its offset in the file
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_rows(lines, comments: str | None = "#") -> np.ndarray | None:
    """Rows parsed from a file or a list of lines, or None when one does not parse.

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
            return np.loadtxt(lines, dtype=_ROW_DTYPE, comments=comments, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


def _comment_lines(text: str):
    """(line start, position of its first '#', line end) per line holding a '#'."""
    pos = text.find("#")
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        yield start, pos, end
        pos = text.find("#", end)


def _read_header(path, text: str) -> dict[str, int] | None:
    """The integer fields of the first 'respark sparsifier' comment, if any."""
    for start, pos, end in _comment_lines(text):
        line = text[pos:end]
        if not text[start:pos].strip() and "respark sparsifier" in line:
            fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            header = {}
            for key in ("step", "N", "seed"):
                if key in fields:
                    try:
                        header[key] = int(fields[key])
                    except ValueError:
                        raise ValueError(
                            f"{path}: header {key}={fields[key]!r} is not an integer"
                        ) from None
            return header
    return None


def _hash_inside_row(text: str) -> bool:
    # loadtxt would drop such a '#' and the rest of its row as a comment
    return any(text[start:pos].strip() for start, pos, _ in _comment_lines(text))


_ROW_ERRORS = {
    "parse": "expected 'u v weight e j p_tilde' with 64-bit integers u, v, e, j, got {line!r}",
    "range": "need distinct vertex ids in [0, {bound}), a finite weight > 0 and p_tilde "
             "in (0, 1], got {line!r}",
    "copy": "need an edge id e >= 0 and a copy index j in [0, {budget}), got {line!r}",
    "repeat": "copy j={j} of edge e={e} repeats line {earlier}",
    "edge": "need an edge id e < {m} and graph edge e's endpoints in its order, got {line!r}",
    "weight": "need the weight a_e / (N * p_tilde) of graph edge e at N={budget}, "
              "got {line!r}",
    "mixed": "edge e={e} differs from line {earlier} in u v, weight or p_tilde",
}


def _in_writer_order(runs: np.ndarray, j: np.ndarray) -> bool:
    """Whether the rows' (e, j) pairs strictly ascend, as the writer writes them."""
    e = runs["e"]
    up = j[1:] > j[:-1]
    at = runs["count"].cumsum()[:-1] - 1  # the last row of each run but the last
    up[at] = (e[1:] > e[:-1]) | ((e[1:] == e[:-1]) & up[at])
    return bool(up.all())


def _first_bad_row(
    runs: np.ndarray, j: np.ndarray, bound, budget, graph: WeightedGraph | None = None
) -> tuple[int, str, int] | None:
    """The one row contract, on rows held as runs and their copy ids j:
    (index, check, earlier) for the first row in file order that breaks it,
    or None. check names the _ROW_ERRORS entry; earlier is the index of the
    row a "repeat" repeats or a "mixed" row differs from (else -1). The
    graph checks run only with a graph.
    """
    u, v, w, e, p, count = (runs[k] for k in ("u", "v", "weight", "e", "p_tilde", "count"))
    starts = count.cumsum() - count
    in_range = (
        (0 <= u) & (u < bound) & (0 <= v) & (v < bound) & (u != v)
        & (0.0 < w) & (w < math.inf) & (0.0 < p) & (p <= 1.0)
    )
    run_ok = in_range & (0 <= e)
    # (index, rank, check, earlier) per broken rule: the earliest row wins,
    # then the lowest rank
    found = []
    bad = np.flatnonzero(~(np.repeat(run_ok, count) & (0 <= j) & (j < budget)))
    if len(bad):
        k = int(bad[0])
        run = np.searchsorted(starts, k, side="right") - 1
        found.append((k, 0, "range" if not in_range[run] else "copy", -1))
    if not _in_writer_order(runs, j):
        # a stable sort keeps each pair's rows together and in file order
        rows_e = np.repeat(e, count)
        order = np.lexsort((j, rows_e))
        eo, jo = rows_e[order], j[order]
        same = np.flatnonzero((eo[1:] == eo[:-1]) & (jo[1:] == jo[:-1]))
        if len(same):
            k = same[np.argmin(order[same + 1])]
            found.append((int(order[k + 1]), 1, "repeat", int(order[k])))
    if len(runs):
        found += _edge_breaks(runs, starts, run_ok, budget, graph)
    if not found:
        return None
    index, _, check, earlier = min(found)
    return index, check, earlier


def _edge_breaks(runs, starts, run_ok, budget, graph: WeightedGraph | None) -> list[tuple]:
    """_first_bad_row's per-edge rules, as (index, rank, check, earlier) entries.

    On every read, each row of an edge must equal the edge's first row in
    all but j ("mixed"), so the graph rules are checked on first rows only
    (those whose own checks pass; the row checks report the others).
    """
    # each edge's runs next to each other, in file order
    e = runs["e"]
    order = None if (e[1:] >= e[:-1]).all() else np.argsort(e, kind="stable")
    in_file = (lambda k: k) if order is None else order.__getitem__
    by_edge = runs if order is None else runs[order]
    same_edge = by_edge["e"][1:] == by_edge["e"][:-1]
    differ = np.zeros_like(same_edge)
    for name in ("u", "v", "weight", "p_tilde"):
        differ |= by_edge[name][1:] != by_edge[name][:-1]
    found = []
    mixed = np.flatnonzero(same_edge & differ)
    if len(mixed):
        k = mixed[np.argmin(in_file(mixed + 1))]
        later, earlier = in_file(k + 1), in_file(k)
        last = starts[earlier] + runs["count"][earlier] - 1  # the earlier run's last row
        found.append((int(starts[later]), 4, "mixed", int(last)))
    if graph is None:
        return found
    firsts = in_file(np.flatnonzero(np.concatenate(([True], ~same_edge))))
    firsts = firsts[run_ok[firsts]]
    fe = e[firsts]
    # an edge id past the graph reads the -1 sentinel
    at = np.where(fe < graph.m, fe, graph.m)
    gu, gv = (np.append(x, -1) for x in graph.endpoints())
    rules = [("edge", (runs["u"][firsts] == gu[at]) & (runs["v"][firsts] == gv[at]))]
    if budget < math.inf:
        a = np.append(graph.weights(), np.nan)[at]
        rules.append(("weight", runs["weight"][firsts] == a / (budget * runs["p_tilde"][firsts])))
    for rank, (check, rule_ok) in enumerate(rules, start=2):
        broken = firsts[~rule_ok]
        if len(broken):
            found.append((int(starts[broken].min()), rank, check, -1))
    return found


def _per_edge(runs: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows that keep the contract as one run per edge, by ascending e, and
    their copy ids in CSR order: edge after edge, ascending within an edge."""
    if not _in_writer_order(runs, j):
        j = j[np.lexsort((j, np.repeat(runs["e"], runs["count"])))]
        runs = runs[np.argsort(runs["e"], kind="stable")]
    e = runs["e"]
    firsts = np.flatnonzero(np.concatenate(([len(e) > 0], e[1:] != e[:-1])))
    edges = runs[firsts]
    edges["count"] = np.add.reduceat(runs["count"], firsts)
    return edges, j


def _row_error(
    path, runs: np.ndarray, j: np.ndarray, k: int, check: str, earlier: int, bound, budget,
    graph: WeightedGraph | None,
) -> ValueError:
    """The 'path:lineno:' error of row k, which breaks `check` (against row
    `earlier`, when that is not -1)."""
    e = copy = None
    if earlier >= 0:
        e = int(runs["e"][np.searchsorted(runs["count"].cumsum(), k, side="right")])
        copy = int(j[k])
    lines = _data_lines(path, {k, earlier} - {-1})
    m = graph.m if graph is not None else None
    return ValueError(f"{path}:{lines[k][0]}: " + _ROW_ERRORS[check].format(
        line=lines[k][1], bound=bound, budget=budget, m=m, e=e, j=copy,
        earlier=lines.get(earlier, (None,))[0],
    ))


def _data_lines(path, rows: set[int]) -> dict[int, tuple[int, str]]:
    """(line number, stripped text) of the data lines with the given row
    indices, read a chunk at a time. Row k is the k-th line that is neither
    blank nor a comment: loadtxt skips exactly those lines."""
    found, row, lineno = {}, 0, 0
    with open(path, "r", encoding="utf-8") as fh:
        while rows - found.keys() and (text := fh.read(_READ_CHUNK)):
            text += fh.readline()
            for line in map(str.strip, text.removesuffix("\n").split("\n")):
                lineno += 1
                if line and not line.startswith("#"):
                    if row in rows:
                        found[row] = (lineno, line)
                    row += 1
    return found
