"""Per-layer spans and per-step timestamps, taken from outside respark.

The package imports names by value (``pseudo_factorize`` is reachable as
``graph.pseudo_factorize``, ``resistance.pseudo_factorize``,
``sparsify.pseudo_factorize`` and ``cli.pseudo_factorize``), so wrapping a
function in its defining module alone would miss most calls. ``Tracer``
therefore finds every module attribute of respark that *is* a traced
function and wraps each of those bindings; methods are wrapped once on their
class. Spans live in memory until the benchmark writes them out, and every
binding is restored on exit so that untraced runs call the originals.

``StepClock`` is the only hook active in untraced runs: it chains onto a
``stream_sparsify`` binding's ``on_step`` to timestamp the end of each block.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

MODULES = (
    "respark",
    "respark.tape",
    "respark.graph",
    "respark.resistance",
    "respark.sparsify",
    "respark.verify",
    "respark.harness",
    "respark.cli",
)


def _draws(args, kwargs, result):
    return {"draws": len(result)}


def _matrix_key(args, kwargs, result):
    mat = np.ascontiguousarray(args[0] if args else kwargs["l"], dtype=float)
    digest = hashlib.blake2b(mat.tobytes(), digest_size=16).hexdigest()
    return {"key": f"{mat.shape}:{digest}"}


def _useful_uniforms(args, kwargs, result):
    # resparsify(h_prev, block, estimates, tape): a block edge compares all N
    # uniforms, a thinned edge only those of its alive copies
    h_prev = args[0] if args else kwargs["h_prev"]
    block = args[1] if len(args) > 1 else kwargs["block"]
    return {"useful": len(block) * h_prev.budget_n + h_prev.copy_count()}


def _upto(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    upto = args[2] if len(args) > 2 else kwargs.get("upto")
    return {"upto": trace.steps if upto is None else int(upto)}


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _report_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _cli_command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


# (defining module, attribute path, span name, annotator run after the call)
TRACED = (
    ("respark.tape", "RandomTape.uniforms", "tape.uniforms", _draws),
    ("respark.graph", "pseudo_factorize", "graph.pseudo_factorize", _matrix_key),
    ("respark.graph", "projection_context", "graph.projection_context", None),
    ("respark.graph", "is_connected", "graph.is_connected", None),
    ("respark.graph", "read_edge_list", "graph.read_edge_list", None),
    ("respark.resistance", "exact_resistances", "resistance.estimate", None),
    ("respark.resistance", "resistances_from_sparsifier", "resistance.estimate", None),
    ("respark.sparsify", "stream_sparsify", "sparsify.stream_sparsify", None),
    ("respark.sparsify", "resparsify", "sparsify.resparsify", _useful_uniforms),
    ("respark.sparsify", "Sparsifier.combined_with", "sparsify.combined_with", None),
    ("respark.sparsify", "write_sparsifier", "sparsify.write_sparsifier", _written_bytes),
    ("respark.sparsify", "read_sparsifier", "sparsify.read_sparsifier", None),
    ("respark.verify", "spectral_check", "verify.spectral_check", None),
    ("respark.verify", "projection_error", "verify.projection_error", None),
    ("respark.verify", "quadratic_variation", "verify.quadratic_variation", _upto),
    ("respark.harness", "run_experiment", "harness.run_experiment", None),
    ("respark.harness", "emit_report", "harness.emit_report", _report_bytes),
    ("respark.cli", "main", "cli.main", _cli_command),
)


@dataclass
class Span:
    name: str
    site: str  # binding the call went through, "module:attribute"
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0
    child_s: float = 0.0  # time covered by direct children
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


def traced_bindings():
    """(owner, attribute, original, span name, annotator) for every binding."""
    modules = [importlib.import_module(name) for name in MODULES]
    out = []
    for module_name, path, span_name, annotate in TRACED:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            out.append((cls, attr, vars(cls)[attr], span_name, annotate))
            continue
        original = getattr(owner, path)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    out.append((module, attr, original, span_name, annotate))
    return out


def _owner_name(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


class Tracer:
    """Context manager that wraps every binding and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, original, name, annotate in traced_bindings():
                site = f"{_owner_name(owner)}:{attr}"
                setattr(owner, attr, self._wrap(original, name, site, annotate))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _open(self, name: str, site: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, site, 0.0, parent=parent, run=self.run)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = perf_counter()
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds
        return span

    def _wrap(self, fn, name, site, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(index)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self):
        """Root span of one benchmark operation; its spans share a run id."""
        self.run += 1
        index = self._open("bench.op", "perfbench")
        try:
            yield
        finally:
            self._close(index)

    def run_spans(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def calls_by_binding(self) -> Counter:
        return Counter(s.site for s in self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "site": s.site,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run,
                            "self_s": s.self_seconds,
                            **s.info,
                        }
                    )
                    + "\n"
                )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation, all but trace.overhead_ratio.

    "_s" is inclusive time in the named calls; "_self_s" excludes the time
    their child spans cover.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr="seconds"):
        return float(sum(getattr(s, attr) for s in named(name)))

    def info_sum(name, key):
        return int(sum(s.info.get(key, 0) for s in named(name)))

    def cli_seconds(command):
        return float(sum(s.seconds for s in named("cli.main") if s.info.get("command") == command))

    draws = info_sum("tape.uniforms", "draws")
    factorizations = named("graph.pseudo_factorize")
    streams = named("sparsify.stream_sparsify")
    trials = [s.seconds * 1e3 for s in streams if s.site.startswith("respark.harness:")]
    return {
        "tape.keys": len(named("tape.uniforms")),
        "tape.draws": draws,
        "tape.busy_s": total("tape.uniforms"),
        "tape.useful_ratio": info_sum("sparsify.resparsify", "useful") / draws if draws else 0.0,
        "graph.factorize_calls": len(factorizations),
        "graph.factorize_s": total("graph.pseudo_factorize"),
        "graph.factorize_unique_ratio": (
            len({s.info["key"] for s in factorizations}) / len(factorizations)
            if factorizations
            else 0.0
        ),
        "graph.projection_context_calls": len(named("graph.projection_context")),
        "graph.projection_context_s": total("graph.projection_context"),
        "graph.is_connected_calls": len(named("graph.is_connected")),
        "graph.read_edge_list_s": total("graph.read_edge_list"),
        "resistance.estimate_calls": len(named("resistance.estimate")),
        "resistance.estimate_self_s": total("resistance.estimate", "self_seconds"),
        "sparsify.resparsify_calls": len(named("sparsify.resparsify")),
        "sparsify.resparsify_self_s": total("sparsify.resparsify", "self_seconds"),
        "sparsify.combined_with_s": total("sparsify.combined_with"),
        "sparsify.write_s": total("sparsify.write_sparsifier"),
        "sparsify.write_bytes": info_sum("sparsify.write_sparsifier", "bytes"),
        "sparsify.read_s": total("sparsify.read_sparsifier"),
        "verify.spectral_check_calls": len(named("verify.spectral_check")),
        "verify.spectral_check_s": total("verify.spectral_check"),
        "verify.projection_error_s": total("verify.projection_error"),
        "verify.quadratic_variation_s": total("verify.quadratic_variation"),
        "verify.qv_steps_scanned": info_sum("verify.quadratic_variation", "upto"),
        "harness.trial_p50_ms": statistics.median(trials) if trials else 0.0,
        "harness.emit_report_s": total("harness.emit_report"),
        "harness.report_bytes": info_sum("harness.emit_report", "bytes"),
        "cli.gen_s": cli_seconds("gen"),
        "cli.sparsify_s": cli_seconds("sparsify"),
        "cli.verify_s": cli_seconds("verify"),
    }


@dataclass
class StreamRecord:
    """One stream_sparsify call: its start, each step's end and copy count, its result."""

    start: float
    step_ends: list[float] = field(default_factory=list)
    copies: list[int] = field(default_factory=list)
    final: object = None

    def latencies(self) -> list[float]:
        ends = [self.start] + self.step_ends
        return [b - a for a, b in zip(ends, ends[1:])]


class StepClock:
    """Timestamps the end of every block by chaining onto stream_sparsify's on_step.

    The chained callback runs after the caller's own on_step, so a step ends
    when the caller's per-step work (the harness's spectral check) is done.
    """

    def __init__(self):
        self.streams: list[StreamRecord] = []

    def wrap(self, stream_fn):
        clock = self

        @functools.wraps(stream_fn)
        def clocked(*args, on_step=None, **kwargs):
            record = StreamRecord(perf_counter())
            clock.streams.append(record)

            def chained(step, h, prefix, diag):
                if on_step is not None:
                    on_step(step, h, prefix, diag)
                record.step_ends.append(perf_counter())
                record.copies.append(h.copy_count())

            result = stream_fn(*args, on_step=chained, **kwargs)
            record.final = result[0]
            return result

        return clocked

    @contextmanager
    def installed(self, module, attr: str = "stream_sparsify"):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original))
        try:
            yield self
        finally:
            setattr(module, attr, original)

    def take(self) -> list[StreamRecord]:
        """The streams recorded since the last take."""
        streams, self.streams = self.streams, []
        return streams
