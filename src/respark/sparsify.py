"""Incremental resparsification: budget, config, the per-block step, and
the stream step loop.

Every stream driver runs one loop: estimate resistances on the current
state, resparsify (thin the surviving copies by probability ratios and
sample the new block), record, then call the observer. The state stays
sparse (only surviving copies are stored); three entry points differ only
in what the loop records. `stream_sparsify` returns the final sparsifier
and, with diagnostics on, one DiagnosticsRecord per step.
`indicator_stream` also returns the per-step StreamTrace, with unseen
edges conventionally holding probability 1 and all copies alive, and
optionally the full (m, N) copy-indicator row per step.
`single_edge_stream` is `indicator_stream` with block size 1. All of them
consume the same keyed random tape, so for a fixed block partition they
produce bit-identical copy sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import verify
from .graph import (
    Edge,
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
    return math.ceil(40.0 * alpha**2 * n * log_term**2 / eps**2)


@dataclass(frozen=True)
class StreamConfig:
    """All stream parameters plus the derived copy budget.

    budget_n is derived from the other fields unless budget_override is
    given; overridden runs exercise the drop path at desk scale and are
    labeled "stress" (outside theorem constants) by the harness.
    """

    eps: float
    delta: float
    alpha: float
    kappa: float
    n: int
    m: int
    seed: int
    budget_override: int | None = None
    budget_n: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _validate_budget_params(self.eps, self.delta, self.alpha, self.kappa, self.n, self.m)
        if self.budget_override is not None:
            if int(self.budget_override) < 1:
                raise ConfigError(f"budget override must be >= 1, got {self.budget_override}")
            budget = int(self.budget_override)
        else:
            budget = compute_budget(
                self.eps, self.delta, self.alpha, self.kappa, self.n, self.m
            )
        object.__setattr__(self, "budget_n", budget)
        object.__setattr__(self, "seed", int(self.seed))

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
        return replace(self, seed=int(seed))


def partition_stream(g: WeightedGraph, block_size: int) -> list[list[int]]:
    """Split the stream into ceil(m / block_size) blocks of edge ids, in order."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    return [
        list(range(start, min(start + block_size, g.m)))
        for start in range(0, g.m, block_size)
    ]


@dataclass(frozen=True)
class Sparsifier:
    """State after step `step`: surviving copies and their probabilities.

    Treated as immutable; resparsify returns a new instance. p_tilde keeps
    an entry for every edge seen so far, frozen at its last value once the
    edge has no surviving copies (a dead edge never re-enters the graph, so
    its probability is never consulted again). alive maps an edge id to the
    ascending copy indices still present; each such copy carries weight
    a_e / (N * p_tilde[e]).
    """

    config: StreamConfig
    step: int
    n: int
    edges: tuple[Edge, ...]
    arrived: int
    p_tilde: dict[int, float]
    alive: dict[int, np.ndarray]

    @classmethod
    def empty(cls, g: WeightedGraph, cfg: StreamConfig) -> "Sparsifier":
        return cls(cfg, 0, g.n, g.edges, 0, {}, {})

    @property
    def budget_n(self) -> int:
        return self.config.budget_n

    def copy_count(self) -> int:
        return int(sum(len(js) for js in self.alive.values()))

    def copy_weight(self, edge_id: int) -> float:
        return self.edges[edge_id].weight / (self.budget_n * self.p_tilde[edge_id])

    def _merged(self, block: Sequence[int] = ()) -> list[tuple[int, int, float]]:
        """(u, v, weight) per alive edge with its copies merged, in id
        order, followed by the raw edges of `block`."""
        merged = [
            (self.edges[e].u, self.edges[e].v, len(self.alive[e]) * self.copy_weight(e))
            for e in sorted(self.alive)
        ]
        return merged + [self.edges[e] for e in block]

    def laplacian(self) -> np.ndarray:
        us, vs, ws = zip(*self._merged()) if self.alive else ((), (), ())
        return laplacian_from_arrays(
            self.n, np.array(us, dtype=int), np.array(vs, dtype=int), np.array(ws, dtype=float)
        )

    def combined_with(self, block: Sequence[int]) -> WeightedGraph:
        """The merged sparsifier plus the raw edges of the next block."""
        return WeightedGraph.from_edges(self.n, self._merged(block))


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
        Supplies u_{s,e,j}; copy j of edge e survives iff
        u_{s,e,j} <= p_new / p_prev, and new edges start from the
        all-alive, probability-1 convention so the same ratio test
        performs their N Bernoulli(p_new) trials.
    """
    cfg = h_prev.config
    s = h_prev.step + 1
    n, alpha, N = h_prev.n, cfg.alpha, cfg.budget_n
    block = [int(e) for e in block]
    expected = list(range(h_prev.arrived, h_prev.arrived + len(block)))
    if block != expected:
        raise ValueError(f"block must be the next stream slice {expected}, got {block}")
    rmap = {est.edge_id: est.r_tilde for est in estimates}
    needed = sorted(set(h_prev.alive) | set(block))
    missing = [e for e in needed if e not in rmap]
    if missing:
        raise ValueError(f"missing resistance estimates for edges {missing}")

    block_set = set(block)
    p_new: dict[int, float] = dict(h_prev.p_tilde)
    alive_new: dict[int, np.ndarray] = {}
    for e in needed:
        prev = h_prev.p_tilde.get(e, 1.0)
        # min rule: p <= prev makes the survival ratio p / prev <= 1 exactly
        p = min(h_prev.edges[e].weight * rmap[e] / (alpha * (n - 1)), 1.0, prev)
        if e in block_set:
            kept = np.flatnonzero(tape.uniforms(s, e, N) <= p / prev)
        else:
            # dead copies stay dead, so only the alive copies' draws are read
            js = h_prev.alive[e]
            kept = js[tape.uniforms(s, e, N, at=js) <= p / prev]
        p_new[e] = p
        if len(kept):
            alive_new[e] = kept
    return Sparsifier(
        config=cfg,
        step=s,
        n=n,
        edges=h_prev.edges,
        arrived=h_prev.arrived + len(block),
        p_tilde=p_new,
        alive=alive_new,
    )


def _step_estimates(
    h_prev: Sparsifier,
    block: Sequence[int],
    g: WeightedGraph,
    mode: str,
    step: int,
    prefix: WeightedGraph | None,
) -> list[ResistanceEstimate]:
    """Resistance estimates for alive(H_{s-1}) union block, per the configured
    mode. prefix is the stream prefix through the block; only the "exact"
    and "noisy" modes read it."""
    cfg = h_prev.config
    targets = sorted(set(h_prev.alive) | set(block))
    if not targets:
        return []
    pairs = [(g.edges[e].u, g.edges[e].v) for e in targets]
    if mode == "nodrop":
        # inflated estimates pin every probability at 1; exercises the
        # exact-reconstruction path
        return [
            ResistanceEstimate(e, cfg.alpha * (cfg.n - 1) / g.edges[e].weight, cfg.alpha)
            for e in targets
        ]
    if mode == "sparsifier":
        combined = h_prev.combined_with(block)
        return resistances_from_sparsifier(combined, pairs, cfg.eps, targets)
    factors = pseudo_factorize(build_laplacian(prefix))
    exact = exact_resistances(factors, pairs, targets)
    if mode == "exact":
        return exact
    # "noisy": the oracle perturbed within the declared accuracy band
    return inject_alpha_noise(exact, cfg.alpha, RandomTape(cfg.seed).child_seed(f"noise/{step}"))


@dataclass
class StreamTrace:
    """Per-step probability and aliveness history of one stream run.

    Row s describes the state after step s (row 0 is the initial state).
    Unseen edges hold the convention p = 1 with all N copies alive, so the
    analysis formulas apply verbatim to every row. copy_steps, when
    recorded, holds the full (m, N) indicator matrix per step.
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
        """Add the row of state h, built from its sparse alive sets: unseen
        edges get p = 1 and all N copies alive; per-copy rows start all
        False for the seen edges and are then set at each alive edge's
        surviving copy indices."""
        m, N = len(self.edges), self.budget_n
        p = np.ones(m)
        alive = np.full(m, float(N))
        for e, val in h.p_tilde.items():
            p[e] = val
            alive[e] = 0.0
        for e, js in h.alive.items():
            alive[e] = float(len(js))
        self.arrived.append(h.arrived)
        self.p_steps.append(p)
        self.alive_steps.append(alive)
        if self.copy_steps is not None:
            z = np.ones((m, N), dtype=bool)
            z[: h.arrived] = False
            for e, js in h.alive.items():
                z[e, js] = True
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
) -> tuple[Sparsifier, list, StreamTrace | None]:
    """The one step loop: estimate, resparsify, record, then call on_step.

    A trace is recorded when asked for or when diagnostics need one (the
    variation norm reads it); per-copy rows only when `copies` is set. Each
    step's prefix graph is built once, and only when the estimates, the
    diagnostics or on_step read it.
    """
    _check_run_inputs(g, cfg, mode)
    blocks = partition_stream(g, cfg.budget_n if block_size is None else block_size)
    tape = RandomTape(cfg.seed)
    h = Sparsifier.empty(g, cfg)
    history = None
    if trace or diagnostics:
        history = StreamTrace(g.n, cfg.budget_n, g.edges, [], [], [], [] if copies else None)
        history._append(h)  # row 0, before any edge is seen
    # the variation norm uses one fixed whole-graph reference; building it
    # requires the input graph to be connected
    ctx_full = projection_context(g) if diagnostics else None
    needs_prefix = mode in ("exact", "noisy") or diagnostics or on_step is not None
    prefix = None
    records: list = []
    for step, block in enumerate(blocks, start=1):
        try:
            if needs_prefix:
                prefix = g.prefix(h.arrived + len(block))
            estimates = _step_estimates(h, block, g, mode, step, prefix)
            h = resparsify(h, block, estimates, tape)
        except (StreamStepError, ConfigError):
            raise
        except Exception as exc:
            raise StreamStepError(step, str(exc)) from exc
        if history is not None:
            history._append(h)
        record = None
        if diagnostics:
            if is_connected(prefix):
                proj = verify.projection_error(h, prefix)
            else:
                proj = float("nan")
            w_norm = verify.quadratic_variation(history, ctx_full, upto=step)
            record = verify.DiagnosticsRecord.from_measurements(
                step, h.copy_count(), proj, w_norm, cfg
            )
            records.append(record)
        if on_step is not None:
            on_step(step, h, prefix, record)
    return h, records, history


def stream_sparsify(
    g: WeightedGraph,
    cfg: StreamConfig,
    block_size: int | None = None,
    resistance_mode: str = "sparsifier",
    diagnostics: bool = True,
    on_step: Callable | None = None,
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

    Returns
    -------
    (Sparsifier, list of DiagnosticsRecord)
    """
    h, records, _ = _run_stream(
        g, cfg, block_size, resistance_mode, on_step, diagnostics, trace=False
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

    Trace rows carry the unseen-edge convention (probability 1, all copies
    alive); with record_copies each row also holds the full (m, N)
    copy-indicator matrix. The copy sets are exactly those of
    stream_sparsify for the same partition and tape.
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
        fh.write(
            f"# respark sparsifier step={h.step} N={h.budget_n} seed={h.config.seed}\n"
        )
        for e in sorted(h.alive):
            js = h.alive[e]
            if len(js):
                edge = h.edges[e]
                # every copy of an edge shares all fields but j
                head = f"{edge.u} {edge.v} {h.copy_weight(e)!r} {e} "
                tail = f" {h.p_tilde[e]!r}\n"
                fh.write(head + (tail + head).join(map(str, js.tolist())) + tail)


@dataclass(frozen=True, eq=False)
class LoadedSparsifier:
    """A sparsifier file read back: enough state to verify against a graph.

    The rows are held as columns, one array per field, in file order.
    """

    n: int
    step: int
    budget_n: int
    seed: int
    u: np.ndarray
    v: np.ndarray
    weight: np.ndarray
    e: np.ndarray
    j: np.ndarray
    p_tilde: np.ndarray

    def copy_count(self) -> int:
        return len(self.u)

    def laplacian(self) -> np.ndarray:
        return laplacian_from_arrays(self.n, self.u, self.v, self.weight)


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
    [0, N), p_tilde in (0, 1], and no (e, j) pair seen before.

    With graph, n is graph.n and the rows must also be what write_sparsifier
    writes for it: e < graph.m, u v are edge e's endpoints in the graph's
    order, all rows of an edge agree in u, v, weight and p_tilde, and, when
    the header gives N, the weight is a_e / (N * p_tilde) bit for bit.

    A bad row raises ValueError starting 'path:lineno:', a bad or missing
    header one starting 'path:'.
    """
    if graph is not None:
        if n is not None and n != graph.n:
            raise ValueError(f"n={n} differs from the graph's {graph.n} vertices")
        n = graph.n
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
            fh.seek(0)
            rows = _parse_rows(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    header = _read_header(path, text)
    bound = math.inf if n is None else n
    budget = (header or {}).get("N", math.inf)
    if _hash_inside_row(text):
        rows = None
    if rows is None or _first_bad_row(rows, bound, budget, graph):
        raise _row_error(path, text, rows, bound, budget, graph)
    if header is None:
        raise ValueError(f"{path}: missing sparsifier header comment")
    if n is None:
        n = 1 + int(max(rows["u"].max(), rows["v"].max())) if len(rows) else 0
    return LoadedSparsifier(
        n=int(n),
        step=header.get("step", 0),
        budget_n=header.get("N", 0),
        seed=header.get("seed", 0),
        **{name: rows[name] for name in _ROW_DTYPE.names},
    )


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


def _first_bad_row(
    rows: np.ndarray, bound, budget, graph: WeightedGraph | None = None
) -> tuple[int, str, int] | None:
    """The one row contract: (index, check, earlier) for the first row in
    file order that breaks it, or None. check names the _ROW_ERRORS entry;
    earlier is the index of the row a "repeat" repeats or a "mixed" row
    differs from (else -1). The graph checks run only with a graph.
    """
    u, v, w, e, j, p = (rows[k] for k in _ROW_DTYPE.names)
    in_range = (
        (0 <= u) & (u < bound) & (0 <= v) & (v < bound) & (u != v)
        & (0.0 < w) & (w < math.inf) & (0.0 < p) & (p <= 1.0)
    )
    ok = in_range & (0 <= e) & (0 <= j) & (j < budget)
    # (index, rank, check, earlier) per broken rule: the earliest row wins,
    # then the lowest rank
    found = []
    bad = np.flatnonzero(~ok)
    if len(bad):
        found.append((int(bad[0]), 0, "range" if not in_range[bad[0]] else "copy", -1))
    de, dj = np.diff(e), np.diff(j)
    if not ((de > 0) | ((de == 0) & (dj > 0))).all():
        # not in the writer's (e, j) order: a stable sort keeps each pair's
        # rows together and in file order
        order = np.lexsort((j, e))
        same = np.flatnonzero((np.diff(e[order]) == 0) & (np.diff(j[order]) == 0))
        if len(same):
            k = same[np.argmin(order[same + 1])]
            found.append((int(order[k + 1]), 1, "repeat", int(order[k])))
    if graph is not None and len(rows):
        found += _graph_breaks(u, v, w, e, p, ok, de, budget, graph)
    if not found:
        return None
    index, _, check, earlier = min(found)
    return index, check, earlier


def _graph_breaks(u, v, w, e, p, ok, de, budget, graph: WeightedGraph) -> list[tuple]:
    """_first_bad_row's graph rules, as (index, rank, check, earlier) entries.

    Every row of an edge must equal the edge's first row in all but j, so
    the graph rules are checked on first rows only (those that pass the row
    checks; the row checks report the others).
    """
    # each edge's rows next to each other, in file order
    order = None if (de >= 0).all() else np.argsort(e, kind="stable")
    in_file = (lambda k: k) if order is None else order.__getitem__
    cols = [c if order is None else c[order] for c in (u, v, w, p, e)]
    same_edge = cols[4][1:] == cols[4][:-1]
    differ = np.zeros_like(same_edge)
    for c in cols[:4]:
        differ |= c[1:] != c[:-1]
    found = []
    mixed = np.flatnonzero(same_edge & differ)
    if len(mixed):
        k = mixed[np.argmin(in_file(mixed + 1))]
        found.append((int(in_file(k + 1)), 4, "mixed", int(in_file(k))))
    firsts = in_file(np.flatnonzero(np.concatenate(([True], ~same_edge))))
    firsts = firsts[ok[firsts]]
    fe = e[firsts]
    # an edge id past the graph reads the -1 sentinel
    at = np.where(fe < graph.m, fe, graph.m)
    gu, gv = (np.append(x, -1) for x in graph.endpoints())
    rules = [("edge", (u[firsts] == gu[at]) & (v[firsts] == gv[at]))]
    if budget < math.inf:
        a = np.append(graph.weights(), np.nan)[at]
        rules.append(("weight", w[firsts] == a / (budget * p[firsts])))
    for rank, (check, rule_ok) in enumerate(rules, start=2):
        broken = np.flatnonzero(~rule_ok)
        if len(broken):
            found.append((int(firsts[broken[0]]), rank, check, -1))
    return found


_WALK_BLOCK = 4096  # lines parsed together while looking for one that does not parse


def _row_error(
    path, text: str, rows: np.ndarray | None, bound, budget, graph: WeightedGraph | None
) -> ValueError:
    """The 'path:lineno:' error for the first bad row of a file.

    Without the `rows` of a whole-file parse, the data lines are walked up
    to the first that does not parse: through _parse_rows a block at a time,
    and a line at a time inside a failing block, with no '#' a comment.
    That line is reported unless _first_bad_row names a row before it.
    """
    lines = [
        (lineno, line)
        for lineno, line in enumerate((raw.strip() for raw in text.split("\n")), start=1)
        if line and not line.startswith("#")
    ]
    # loadtxt skips exactly the blank and comment lines dropped here, so
    # whole-file row k is data line k
    stop = None
    if rows is None:
        parsed = [np.empty(0, dtype=_ROW_DTYPE)]
        for start in range(0, len(lines), _WALK_BLOCK):
            block = [line for _, line in lines[start:start + _WALK_BLOCK]]
            rows = _parse_rows(block, comments=None)
            if rows is None:
                singles = [_parse_rows([line], comments=None) for line in block]
                stop = start + next(k for k, row in enumerate(singles) if row is None)
                parsed += singles[:stop - start]
                break
            parsed.append(rows)
        rows = np.concatenate(parsed)
    k, check, earlier = _first_bad_row(rows, bound, budget, graph) or (stop, "parse", -1)
    e, j = rows[["e", "j"]][k].item() if earlier >= 0 else (None, None)
    m = graph.m if graph is not None else None
    return ValueError(f"{path}:{lines[k][0]}: " + _ROW_ERRORS[check].format(
        line=lines[k][1], bound=bound, budget=budget, m=m, e=e, j=j, earlier=lines[earlier][0]
    ))
