"""The three benchmark workloads, their oracle and their output digests.

Every workload is a closed loop: the runner calls ``run`` again only after
the previous call returned. Inputs come from the workload seed alone. Each
graph is an Erdos-Renyi draw conditioned on its edge count, because the
number of stream blocks (and so the work) jumps with m: the generator seed
is the workload seed itself when that draw has an accepted edge count, and
otherwise the first accepted seed of a fixed blake2b sequence.

The oracle never uses the code it checks: Laplacians are built here from
edge triples and the sandwich is recomputed with ``scipy.linalg.eigh`` on the
grounded pencil (vertex 0 removed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
from pathlib import Path

import numpy as np
import scipy.linalg

import respark
from respark import cli, harness, sparsify, verify

AGREEMENT_TOL = 1e-8  # oracle sandwich vs the program's spectral_check


def er_graph(seed: int, n: int, p: float, m_lo: int, m_hi: int, max_tries: int = 10_000):
    """Erdos-Renyi(n, p) from the workload seed, conditioned on m_lo <= m <= m_hi."""
    for k in range(max_tries):
        gen_seed = seed
        if k:
            h = hashlib.blake2b(f"perfbench/{seed}/{k}".encode(), digest_size=8)
            gen_seed = int.from_bytes(h.digest(), "little")
        spec = respark.GeneratorSpec("erdos-renyi", n, p=p, seed=gen_seed)
        g = respark.generate(spec)
        if m_lo <= g.m <= m_hi:
            return spec, g
    raise RuntimeError(f"no ER({n}, {p}) draw with {m_lo} <= m <= {m_hi} in {max_tries} tries")


# ---------------------------------------------------------------------------
# oracle helpers


def laplacian(n: int, triples) -> np.ndarray:
    L = np.zeros((n, n))
    for u, v, w in triples:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def graph_laplacian(g) -> np.ndarray:
    return laplacian(g.n, ((e.u, e.v, e.weight) for e in g.edges))


def sparsifier_laplacian(h) -> np.ndarray:
    """Sum over alive copies of a_e / (N p_e) b_e b_e'."""
    N = h.config.budget_n
    return laplacian(
        h.n,
        (
            (h.edges[e].u, h.edges[e].v, len(js) * h.edges[e].weight / (N * h.p_tilde[e]))
            for e, js in h.alive.items()
        ),
    )


def grounded_sandwich(L_H: np.ndarray, L_G: np.ndarray) -> float:
    """max |lambda - 1| over the pencil (L_H, L_G) with vertex 0 grounded."""
    ratios = scipy.linalg.eigh(L_H[1:, 1:], L_G[1:, 1:], eigvals_only=True)
    return float(np.abs(ratios - 1.0).max())


def agreement(label: str, ours: float, theirs: float) -> list[str]:
    if abs(ours - theirs) <= AGREEMENT_TOL:
        return []
    return [f"{label}: oracle sandwich {ours!r} disagrees with spectral_check {theirs!r}"]


def space_failures(label: str, copies, budget_n: int) -> list[str]:
    worst = max(copies)
    if worst < 3 * budget_n:
        return []
    return [f"{label}: {worst} copies reach the 3N bound (N={budget_n})"]


def sparsifier_digest(hasher, h) -> None:
    """Feed a sparsifier's content (edge, p_tilde repr, copy indices) to hasher."""
    for e in sorted(h.alive):
        hasher.update(f"{e} {h.p_tilde[e]!r}\n".encode())
        hasher.update(np.asarray(h.alive[e], dtype="<i8").tobytes())


def step_copies(streams) -> list[int]:
    return [c for s in streams for c in s.copies]


# ---------------------------------------------------------------------------
# workloads


class Outcome:
    """What one call of a workload produced; filled in by the workload."""

    def __init__(self, streams=None, worst_ratio=float("nan"), **extra):
        self.streams = streams or []
        self.worst_ratio = worst_ratio
        self.__dict__.update(extra)


class Workload:
    """Inputs shared by all workloads: an ER graph, its config and Laplacian."""

    name: str
    clock_module = None  # module whose stream_sparsify binding the StepClock wraps
    warmup = True
    budget_override: int | None = None
    uses_cli = False

    def __init__(self, seed: int, n: int, p: float, m_lo: int, m_hi: int):
        self.seed = seed
        self.spec, self.graph = er_graph(seed, n, p, m_lo, m_hi)
        self.cfg = respark.StreamConfig.for_graph(
            self.graph, 0.5, 0.1, 1.0, seed, budget_override=self.budget_override
        )
        self.L_G = graph_laplacian(self.graph)

    def setup_params(self) -> dict:
        """What a fresh process needs to rebuild this workload's graph and config."""
        spec = self.spec
        return {
            "model": spec.model, "n": spec.n, "p": spec.p, "gen_seed": spec.seed,
            "eps": self.cfg.eps, "delta": self.cfg.delta, "alpha": self.cfg.alpha,
            "seed": self.seed, "budget_override": self.budget_override, "cli": self.uses_cli,
        }

    def finish(self, outcome: Outcome) -> None:
        """Summaries of a call's outcome, computed outside the timed region."""

    def digest(self, outcome: Outcome) -> str:
        hasher = hashlib.sha256()
        for s in outcome.streams:
            sparsifier_digest(hasher, s.final)
        return hasher.hexdigest()


class MonteCarloStress(Workload):
    name = "mc-stress"
    clock_module = harness
    budget_override = 2000

    def __init__(self, seed: int, trials: int = 20):
        # 201 edges in blocks of 50: five steps, the last a single edge
        super().__init__(seed, 40, 0.25, 201, 201)
        self.trials = trials

    def run(self, workdir: Path) -> Outcome:
        report = harness.run_experiment(
            self.spec, self.cfg, self.trials, block_size=50, resistance_mode="exact"
        )
        path = harness.emit_report(report, workdir / "report.json")
        return Outcome(report=report, report_path=Path(path))

    def finish(self, outcome: Outcome) -> None:
        last = max(r.step for r in outcome.report.rows)
        finals = (r for r in outcome.report.rows if r.step == last)
        outcome.final_rows = sorted(finals, key=lambda r: r.trial)
        outcome.worst_ratio = statistics.median(r.worst_ratio for r in outcome.final_rows)
        outcome.failure_rate = outcome.report.failure_rate

    def check(self, outcome: Outcome) -> list[str]:
        report, N = outcome.report, self.cfg.budget_n
        failures = []
        if report.errors:
            failures.append(f"{len(report.errors)} trials raised: {report.errors[0].message}")
        failed = {r.trial for r in report.rows if r.a_event or r.b_event}
        failed |= {e.trial for e in report.errors}
        if len(failed) / report.trials != report.failure_rate:
            failures.append(
                f"report failure_rate {report.failure_rate} != recount {len(failed) / report.trials}"
            )
        finals = [s.final for s in outcome.streams]
        if len(finals) != self.trials or len(outcome.final_rows) != self.trials:
            failures.append(f"expected {self.trials} trial streams, saw {len(finals)}")
            return failures
        for row, h in zip(outcome.final_rows, finals):
            ours = grounded_sandwich(sparsifier_laplacian(h), self.L_G)
            failures += agreement(f"trial {row.trial}", ours, row.worst_ratio)
        failures += space_failures("report rows", [r.copy_count for r in report.rows], N)
        failures += space_failures("streams", step_copies(outcome.streams), N)
        return failures

    def digest(self, outcome: Outcome) -> str:
        report = hashlib.sha256(outcome.report_path.read_bytes()).hexdigest()
        return hashlib.sha256((report + super().digest(outcome)).encode()).hexdigest()


class StreamN400(Workload):
    name = "stream-n400"
    clock_module = sparsify
    budget_override = 500

    def __init__(self, seed: int):
        # 20 blocks of 200 edges; m within 20 of the 3,967 edges drawn at seed 1234
        super().__init__(seed, 400, 0.05, 3947, 3987)

    def run(self, workdir: Path) -> Outcome:
        h, records = sparsify.stream_sparsify(
            self.graph, self.cfg, block_size=200, resistance_mode="sparsifier", diagnostics=True
        )
        _, worst = verify.spectral_check(h, self.graph, self.cfg.eps)
        return Outcome(h=h, records=records, worst_ratio=worst)

    def check(self, outcome: Outcome) -> list[str]:
        h, N = outcome.h, self.cfg.budget_n
        failures = []
        if h.arrived != self.graph.m:
            failures.append(f"stream stopped after {h.arrived} of {self.graph.m} edges")
        ours = grounded_sandwich(sparsifier_laplacian(h), self.L_G)
        failures += agreement("final", ours, outcome.worst_ratio)
        copies = step_copies(outcome.streams)
        if copies != [r.copy_count for r in outcome.records]:
            failures.append("diagnostics copy counts differ from the sparsifier's")
        failures += space_failures("steps", copies, N)
        return failures


class CliTheorem(Workload):
    name = "cli-theorem"
    clock_module = cli
    warmup = False  # each CLI call pays its own lazy set-up in real use
    uses_cli = True

    def __init__(self, seed: int):
        # 201 edges in blocks of 67: three steps at N = 484,918
        super().__init__(seed, 40, 0.25, 201, 201)

    def run(self, workdir: Path) -> Outcome:
        g_path, h_path = str(workdir / "graph.txt"), str(workdir / "sparsifier.txt")
        commands = [
            ["gen", "--model", "erdos-renyi", "--n", "40", "--p", "0.25",
             "--seed", str(self.spec.seed), "--output", g_path],
            ["sparsify", "--input", g_path, "--epsilon", "0.5", "--block-size", "67",
             "--seed", str(self.seed), "--output", h_path],
            ["verify", "--graph", g_path, "--sparsifier", h_path, "--epsilon", "0.5"],
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in commands]
        return Outcome(codes=codes, stdout=out.getvalue(), g_path=g_path, h_path=h_path)

    def finish(self, outcome: Outcome) -> None:
        for line in outcome.stdout.splitlines():
            if line.startswith("worst_ratio "):
                outcome.worst_ratio = float(line.split()[1])

    def check(self, outcome: Outcome) -> list[str]:
        N = self.cfg.budget_n
        failures = []
        if outcome.codes != [0, 0, 0]:
            return [f"CLI exit codes {outcome.codes} (gen, sparsify, verify); stdout: {outcome.stdout!r}"]
        if self._read_graph(outcome.g_path) != [tuple(e) for e in self.graph.edges]:
            failures.append("gen wrote a different graph than the workload's")
        if len(outcome.streams) != 1:
            return failures + [f"expected one sparsify stream, saw {len(outcome.streams)}"]
        h = outcome.streams[0].final
        if h.budget_n != N:
            failures.append(f"sparsify used N={h.budget_n}, theorem budget is {N}")
        rows, weights = self._read_sparsifier(outcome.h_path)
        if rows != h.copy_count():
            failures.append(f"file has {rows} rows, in-memory sparsifier {h.copy_count()} copies")
        L_H = laplacian(self.graph.n, ((u, v, w) for (u, v), w in weights.items()))
        failures += agreement("file", grounded_sandwich(L_H, self.L_G), outcome.worst_ratio)
        failures += space_failures("steps", step_copies(outcome.streams) + [rows], N)
        return failures

    @staticmethod
    def _read_graph(path) -> list[tuple]:
        edges = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if len(tokens) == 3 and not line.startswith("#"):
                    edges.append((int(tokens[0]), int(tokens[1]), float(tokens[2])))
        return edges

    @staticmethod
    def _read_sparsifier(path) -> tuple[int, dict]:
        rows, weights = 0, {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                u, v, w = line.split(maxsplit=3)[:3]
                key = (int(u), int(v))
                weights[key] = weights.get(key, 0.0) + float(w)
                rows += 1
        return rows, weights


WORKLOADS = {w.name: w for w in (MonteCarloStress, StreamN400, CliTheorem)}
