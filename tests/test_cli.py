"""End-to-end command line flows through main()."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from respark import harness
from respark.cli import main
from respark.graph import is_connected, read_edge_list
from respark.harness import load_report_json
from respark.sparsify import StreamStepError, read_sparsifier
from respark.verify import read_diagnostics


def _gen(tmp_path, name="g.edges", n="12", seed="3"):
    path = tmp_path / name
    code = main([
        "gen", "--model", "erdos-renyi", "--n", n, "--p", "0.4",
        "--seed", seed, "--output", str(path),
    ])
    assert code == 0
    return path


def test_gen_writes_connected_graph(tmp_path, capsys):
    path = _gen(tmp_path)
    out = capsys.readouterr().out
    assert "wrote" in out and str(path) in out
    g = read_edge_list(path)
    assert g.n == 12
    assert is_connected(g)


def test_gen_is_byte_deterministic(tmp_path):
    p1 = _gen(tmp_path, "a.edges")
    p2 = _gen(tmp_path, "b.edges")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "bounds", [("1", "inf"), ("inf", "inf"), ("1", "nan")], ids=["max-inf", "both-inf", "max-nan"]
)
def test_gen_refuses_non_finite_weight_bounds(tmp_path, capsys, bounds):
    path = tmp_path / "g.edges"
    code = main(["gen", "--model", "path", "--n", "5", "--weight-min", bounds[0],
                 "--weight-max", bounds[1], "--output", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: need 0 < weight_min <= weight_max < inf, "
                   f"got [{float(bounds[0])}, {float(bounds[1])}]\n")
    assert not path.exists()


def test_resistances_prints_sum_identity(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert main(["resistances", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    g = read_edge_list(path)
    data = [ln.split() for ln in lines if not ln.startswith("#")]
    assert len(data) == g.m
    # weighted resistances sum to n - 1 on a connected graph
    total = sum(float(w) * float(r) for _, _, w, r in data)
    assert total == pytest.approx(g.n - 1, abs=1e-8)
    check = [ln for ln in lines if ln.startswith("# sum_check")]
    assert len(check) == 1
    printed_total, printed_target = check[0].split()[2:4]
    assert float(printed_total) == pytest.approx(total)
    assert printed_target == str(g.n - 1)


def test_resistances_of_a_wide_weight_spread(tmp_path, capsys):
    # the path 0-1-2 with weights 1 and 1e-12 is connected; the 1e-12
    # eigenvalue of its Laplacian is not a second component
    path = tmp_path / "spread.edges"
    path.write_text("0 1 1.0\n1 2 1e-12\n", encoding="utf-8")
    assert main(["resistances", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    r = [float(ln.split()[3]) for ln in lines if not ln.startswith("#")]
    assert r == [pytest.approx(1.0, rel=1e-9), pytest.approx(1e12, rel=1e-9)]


def test_resistances_prints_the_same_bytes(tmp_path, capsys):
    # a fixed weighted graph with a cycle, printed as before the estimates
    # became one column
    path = tmp_path / "w.edges"
    path.write_text("0 1 1.0\n1 2 0.5\n2 0 2.0\n2 3 0.25\n3 1 3.0\n", encoding="utf-8")
    assert main(["resistances", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == (
        "0 1 1.0 0.6513761467889913\n"
        "1 2 0.5 0.7155963302752295\n"
        "2 0 2.0 0.4128440366972476\n"
        "2 3 0.25 0.9174311926605507\n"
        "3 1 3.0 0.3119266055045872\n"
        "# sum_check 3.000000000000001 3\n"
    )


def test_sparsify_writes_outputs(tmp_path, capsys):
    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    diag = tmp_path / "diag.csv"
    code = main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "60", "--block-size", "12", "--seed", "5",
        "--resistance-mode", "exact",
        "--output", str(out), "--diagnostics", str(diag),
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    g = read_edge_list(graph)
    sp = read_sparsifier(out, graph=g)
    assert sp.budget_n == 60
    assert sp.copy_count() > 0
    records = read_diagnostics(diag)
    assert len(records) == math.ceil(g.m / 12)


def test_verify_passes_on_faithful_sparsifier(tmp_path, capsys):
    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "500", "--block-size", "30", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ])
    capsys.readouterr()
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(out),
        "--epsilon", "0.5",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("worst_ratio ")
    assert lines[1].startswith("projection_error ")
    assert lines[2].endswith("pass at epsilon=0.5")


def test_verify_builds_one_projection_context(tmp_path, capsys, monkeypatch):
    # spectral_check and projection_error share the context verify builds;
    # the loaded sparsifier keeps no Laplacian, so each instrument builds one
    from respark import cli, sparsify, verify

    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "200", "--block-size", "30", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ])
    calls = []
    original = verify.projection_context

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(cli, "projection_context", counted)
    monkeypatch.setattr(verify, "projection_context", counted)
    choleskies = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: choleskies.append(a) or cholesky(a))
    laplacians = []
    build = verify.laplacian_from_arrays  # L_H from the loaded merged columns
    for module in (sparsify, verify):
        monkeypatch.setattr(module, "laplacian_from_arrays",
                            lambda *args: laplacians.append(args) or build(*args))
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(out), "--epsilon", "0.5",
    ])
    assert code == 0
    assert len(calls) == 1
    assert len(choleskies) == 1  # projection_error reads the context's factor
    assert len(laplacians) == 2  # one for each instrument, none kept between them


def test_verify_prints_the_in_memory_sparsifiers_numbers(tmp_path, capsys, monkeypatch):
    # the file reads back to the Laplacian of the sparsifier that was written,
    # so both instruments print that sparsifier's numbers to the last bit
    from respark import cli
    from respark.graph import projection_context
    from respark.verify import projection_error, spectral_check

    written = []
    write = cli.write_sparsifier
    monkeypatch.setattr(cli, "write_sparsifier",
                        lambda h, path: written.append(h) or write(h, path))
    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    assert main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "3000", "--block-size", "30", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", str(graph), "--sparsifier", str(out),
                 "--epsilon", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (h,) = written
    ctx = projection_context(read_edge_list(graph))
    _, worst = spectral_check(h, ctx, 0.5)
    proj = projection_error(h, ctx)
    assert lines[:2] == [f"worst_ratio {worst!r}", f"projection_error {proj!r}"]


def test_verify_above_the_crossover_prints_the_in_memory_value(tmp_path, capsys, monkeypatch):
    # above 256 vertices the file's merged rows feed the same Lanczos read
    # as the in-memory sparsifier's merged columns; an error above 1 means
    # lambda_max > 2, so the top-end branch answered
    from respark import cli
    from respark.graph import projection_context
    from respark.verify import projection_error

    written = []
    write = cli.write_sparsifier
    monkeypatch.setattr(cli, "write_sparsifier",
                        lambda h, path: written.append(h) or write(h, path))
    graph, out = tmp_path / "g.edges", tmp_path / "h.sparsifier"
    assert main(["gen", "--model", "erdos-renyi", "--n", "300", "--p", "0.05",
                 "--seed", "3", "--output", str(graph)]) == 0
    assert main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "200", "--block-size", "1000", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ]) == 0
    capsys.readouterr()
    main(["verify", "--graph", str(graph), "--sparsifier", str(out), "--epsilon", "0.5"])
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("projection_error ")]
    printed = float(line.split()[1])
    (h,) = written
    want = projection_error(h, projection_context(read_edge_list(graph)))
    assert printed > 1.0
    assert abs(printed - want) <= 1e-12 * want


def test_verify_refuses_a_shuffled_writer_file(tmp_path, capsys):
    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "500", "--block-size", "30", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ])
    header, *rows = out.read_text().splitlines(keepends=True)
    np.random.default_rng(0).shuffle(rows)
    out.write_text(header + "".join(rows))
    capsys.readouterr()
    code = main(["verify", "--graph", str(graph), "--sparsifier", str(out), "--epsilon", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {out}:" in err and "need rows in (e, j) order" in err
    assert "Traceback" not in err


def test_verify_fails_at_tight_epsilon(tmp_path, capsys):
    graph = _gen(tmp_path)
    out = tmp_path / "h.sparsifier"
    main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--budget-override", "40", "--block-size", "12", "--seed", "5",
        "--resistance-mode", "exact", "--output", str(out),
    ])
    capsys.readouterr()
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(out),
        "--epsilon", "1e-6",
    ])
    assert code == 1
    assert "fail" in capsys.readouterr().out


def test_experiment_writes_report(tmp_path, capsys):
    # desk-scale budgets fail the default 5% gate routinely, so gate on
    # errors only here; the rate gate has its own test below
    report = tmp_path / "report.json"
    code = main([
        "experiment", "--model", "erdos-renyi", "--n", "10", "--p", "0.4",
        "--epsilon", "0.5", "--trials", "5", "--budget-override", "60",
        "--block-size", "12", "--seed", "3", "--report", str(report),
        "--max-failure-rate", "1.0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "regime=stress" in out
    loaded = load_report_json(report)
    assert loaded.trials == 5
    assert loaded.trials_with_error == 0
    assert loaded.trials_with_b_event == 0


def test_experiment_generates_its_graph_once(tmp_path, monkeypatch):
    calls = []
    original = harness._pair_topology

    def counted(spec, rng):
        calls.append(spec)
        return original(spec, rng)

    monkeypatch.setattr(harness, "_pair_topology", counted)
    harness.generate.cache_clear()
    code = main([
        "experiment", "--model", "erdos-renyi", "--n", "8", "--p", "0.5",
        "--epsilon", "0.5", "--trials", "2", "--budget-override", "40",
        "--seed", "4", "--report", str(tmp_path / "r.json"), "--max-failure-rate", "1.0",
    ])
    assert code == 0
    assert len(calls) == 1


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's respark."""
    src = str(Path(harness.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse", "scipy.linalg"])
def test_import_leaves_scipy_stats_out(module, tmp_path):
    # scipy.stats dominates import time and nothing in the package needs it;
    # the package has no sparse code, and NumPy's dense linear algebra serves
    # every instrument
    done = _python(f"import sys, respark, respark.cli; print({module!r} in sys.modules)",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_leaves_the_thread_pool_out(tmp_path):
    # resparsify's helper is a plain threading.Thread; importing
    # concurrent.futures.thread would add about 10 ms to every start
    done = _python("import sys, respark, respark.cli; print('concurrent.futures' in sys.modules)",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_only_experiments_load_scipy(tmp_path):
    # the Clopper-Pearson interval, the package's one SciPy use, imports it
    # on its first call, so importing the package and the other four
    # commands load no scipy module at all
    code = """if True:
        import sys, respark, respark.cli
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print("scipy", loaded())
        for argv in (
            "gen --model erdos-renyi --n 12 --p 0.4 --seed 3 --output g.edges",
            "resistances --graph g.edges",
            "sparsify --input g.edges --epsilon 0.5 --budget-override 40 --output h.sp"
            " --diagnostics d.csv",
            "verify --graph g.edges --sparsifier h.sp --epsilon 0.9",
        ):
            code = respark.cli.main(argv.split())
            print("scipy", argv.split()[0], code in (0, 1), loaded())
    """
    done = _python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("scipy")] == [
        "scipy []", "scipy gen True []", "scipy resistances True []",
        "scipy sparsify True []", "scipy verify True []",
    ]


def test_experiment_csv_format(tmp_path):
    report = tmp_path / "rows.csv"
    code = main([
        "experiment", "--model", "path", "--n", "8",
        "--epsilon", "0.5", "--trials", "2", "--budget-override", "30",
        "--block-size", "7", "--seed", "1", "--report", str(report),
        "--format", "csv", "--max-failure-rate", "1.0",
    ])
    assert code == 0
    header = report.read_text().splitlines()[0]
    assert header.startswith("trial,seed,step,")


def test_experiment_report_is_byte_deterministic(tmp_path):
    args = [
        "experiment", "--model", "erdos-renyi", "--n", "10", "--p", "0.4",
        "--epsilon", "0.5", "--trials", "3", "--budget-override", "50",
        "--block-size", "12", "--seed", "9", "--max-failure-rate", "1.0",
    ]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--report", str(p1)]) == 0
    assert main(args + ["--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_gate_on_failure_rate(tmp_path, capsys):
    # a tiny budget forces drop-heavy runs; demanding a zero failure rate
    # across many trials must trip the gate
    report = tmp_path / "report.json"
    code = main([
        "experiment", "--model", "erdos-renyi", "--n", "12", "--p", "0.5",
        "--epsilon", "0.5", "--trials", "20", "--budget-override", "8",
        "--block-size", "15", "--seed", "2", "--report", str(report),
        "--max-failure-rate", "0.0",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert report.exists()  # the report is still written
    assert "failed=" in out


@pytest.mark.parametrize("rate", ["nan", "-0.1", "1.5"])
def test_max_failure_rate_outside_unit_interval_exits_2(tmp_path, capsys, rate):
    # rejected before the first trial runs: no report is written
    report = tmp_path / "report.json"
    code = main([
        "experiment", "--model", "path", "--n", "6", "--epsilon", "0.5",
        "--trials", "2", "--budget-override", "20", "--report", str(report),
        "--max-failure-rate", rate,
    ])
    assert code == 2
    assert f"error: max failure rate must lie in [0, 1], got {float(rate)}" in (
        capsys.readouterr().err
    )
    assert not report.exists()


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["resistances", "--graph", str(tmp_path / "nope.edges")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_parameters_exit_2(tmp_path, capsys):
    graph = _gen(tmp_path)
    code = main([
        "sparsify", "--input", str(graph), "--epsilon", "1.5",
        "--output", str(tmp_path / "h.sparsifier"),
    ])
    assert code == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_a_negative_generator_seed_exits_2_naming_the_field(tmp_path, capsys, command):
    # refused where the generator spec is made, before a graph is drawn
    out = tmp_path / "out"
    if command == "gen":
        args = ["gen", "--output", str(out)]
    else:
        args = ["experiment", "--epsilon", "0.5", "--trials", "2", "--report", str(out)]
    code = main([*args, "--model", "path", "--n", "6", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: generator seed must be >= 0, got -1\n"
    assert not out.exists()


def test_a_row_against_an_edgeless_graph_is_refused_as_its_edge(tmp_path, capsys):
    # an edge list of only 'n 3' has no edge, so edge id 0 is past the graph
    graph, sparsifier = tmp_path / "empty.edges", tmp_path / "one.sp"
    graph.write_text("n 3\n")
    sparsifier.write_text("# respark sparsifier step=1 N=5 seed=0\n0 1 0.5 0 0 1.0\n")
    message = (f"{sparsifier}:2: need an edge id e < 0 and graph edge e's endpoints in its "
               "order, got '0 1 0.5 0 0 1.0'")
    with pytest.raises(ValueError) as info:
        read_sparsifier(sparsifier, read_edge_list(graph))
    assert str(info.value) == message
    assert main(["verify", "--graph", str(graph), "--sparsifier", str(sparsifier),
                 "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sparsify", "experiment"])
def test_block_size_below_one_exits_2(tmp_path, capsys, command):
    # experiment rejects the block size before its first trial, as sparsify
    # does, instead of reporting every trial as errored
    out = tmp_path / "out"
    if command == "sparsify":
        args = ["sparsify", "--input", str(_gen(tmp_path)), "--output", str(out)]
    else:
        args = ["experiment", "--model", "path", "--n", "6", "--trials", "2",
                "--report", str(out)]
    code = main([*args, "--epsilon", "0.5", "--block-size", "0"])
    assert code == 2
    assert "error: block size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sparsify", "experiment"])
def test_a_fractional_budget_override_exits_2(tmp_path, capsys, command):
    # the flag takes integers only, as StreamConfig does
    out = tmp_path / "out"
    if command == "sparsify":
        args = ["sparsify", "--input", str(_gen(tmp_path)), "--output", str(out)]
    else:
        args = ["experiment", "--model", "path", "--n", "6", "--trials", "2",
                "--report", str(out)]
    with pytest.raises(SystemExit) as info:
        main([*args, "--epsilon", "0.5", "--budget-override", "2.5"])
    assert info.value.code == 2
    assert "argument --budget-override: invalid int value: '2.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [["--budget-override", "100"], []])
@pytest.mark.parametrize("command", ["sparsify", "experiment"])
def test_nan_alpha_exits_2(tmp_path, capsys, command, override):
    # NaN fails no `alpha < 1` test; the budget checks must still reject it
    # before a stream or trial runs
    out = tmp_path / "out"
    if command == "sparsify":
        args = ["sparsify", "--input", str(_gen(tmp_path)), "--output", str(out)]
    else:
        args = ["experiment", "--model", "path", "--n", "6", "--trials", "2",
                "--report", str(out)]
    code = main([*args, "--epsilon", "0.5", "--alpha", "nan", *override])
    assert code == 2
    assert "error: alpha must be >= 1, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "graph, args, message",
    [
        ("er", ["--delta", "1e-310"], "budget N = inf is not below 2**63"),  # ln term inf
        ("er", ["--epsilon", "1e-160"], "budget N = inf is not below 2**63"),  # N overflows
        ("er", ["--epsilon", "1e-200"], "budget N = inf is not below 2**63"),  # eps**2 is 0
        ("er", ["--epsilon", "1e-150"], "is not below 2**63"),  # finite N past int64
        ("er", ["--budget-override", "99999999999999999999"],
         "budget override 99999999999999999999 is outside [1, 2**63)"),
        # the degree sums overflow where the prefix Laplacian is built
        ("big", [], "step 1: weighted degree of vertex 0 is not finite"),
    ],
    ids=["tiny-delta", "n-overflows", "eps-squared-is-0", "n-past-int64", "huge-override",
         "degree-sums-overflow"],
)
def test_extreme_arguments_exit_2_without_a_traceback(tmp_path, graph, args, message):
    # in a fresh interpreter, as a user runs it: the warnings these inputs
    # raise on the way are printed, not turned into errors
    path = _gen(tmp_path) if graph == "er" else tmp_path / "big.edges"
    if graph == "big":
        path.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n")
    argv = ["sparsify", "--input", str(path), "--epsilon", "0.5", *args,
            "--output", str(tmp_path / "h.sp")]
    done = _python(f"import sys, respark.cli; sys.exit(respark.cli.main({argv!r}))", tmp_path)
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert done.returncode == 2, done.stderr
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "h.sp").exists()


def test_resistances_of_overflowing_degrees_exit_2(tmp_path):
    # in a fresh interpreter, so that a NumPy warning would be printed
    path = tmp_path / "big.edges"
    path.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n")
    argv = ["resistances", "--graph", str(path)]
    done = _python(f"import sys, respark.cli; sys.exit(respark.cli.main({argv!r}))", tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "error: weighted degree of vertex 0 is not finite: "
        "its edge weights sum past the largest float"
    ]


def _sparsify_with_failing_draws(tmp_path, monkeypatch, exc):
    from respark import tape

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(tape.RandomTape, "uniforms", fail)
    return main([
        "sparsify", "--input", str(_gen(tmp_path)), "--epsilon", "0.5",
        "--budget-override", "100", "--resistance-mode", "exact",
        "--output", str(tmp_path / "h.sp"),
    ])


def test_a_budget_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # the MemoryError NumPy raises for N draws it cannot allocate, injected:
    # nothing that large is allocated here
    message = "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"
    code = _sparsify_with_failing_draws(tmp_path, monkeypatch, MemoryError(message))
    assert code == 2
    assert capsys.readouterr().err == f"error: step 1: {message}\n"
    assert not (tmp_path / "h.sp").exists()


def test_a_graph_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # the MemoryError NumPy raises for `gen --model complete --n 100000`,
    # injected: nothing that large is allocated here
    from respark import cli

    message = "Unable to allocate 37.3 GiB for an array with shape (4999950000,)"

    def fail(spec):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", fail)
    out = tmp_path / "g.edges"
    assert main(["gen", "--model", "complete", "--n", "100000", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_step_failing_on_a_bug_propagates(tmp_path, monkeypatch):
    with pytest.raises(StreamStepError, match="step 1: synthetic") as info:
        _sparsify_with_failing_draws(tmp_path, monkeypatch, RuntimeError("synthetic"))
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.filterwarnings("ignore:weight spread")
def test_a_gap_below_the_null_tolerance_exits_2_at_the_first_spectral_read(tmp_path, capsys):
    # the path 0-1-2 with weights 1 and 1e-12 is connected, but its 1e-12
    # eigenvalue reads as null: the sparsifier is written, and verify, which
    # reads the range basis, refuses it; the diagnostics read the grounded
    # factors, which this gap does not trouble
    graph = tmp_path / "spread.edges"
    graph.write_text("0 1 1.0\n1 2 1e-12\n", encoding="utf-8")
    out = tmp_path / "h.sp"
    args = ["sparsify", "--input", str(graph), "--epsilon", "0.5", "--budget-override", "50"]
    assert main([*args, "--output", str(out)]) == 0
    capsys.readouterr()
    error = "error: expected exactly one null eigenvalue, found 2\n"
    assert main(["verify", "--graph", str(graph), "--sparsifier", str(out),
                 "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == error
    again, diagnostics = tmp_path / "again.sp", tmp_path / "d.csv"
    assert main([*args, "--output", str(again), "--diagnostics", str(diagnostics)]) == 0
    assert capsys.readouterr().err == ""
    assert again.read_bytes() == out.read_bytes()
    (record,) = read_diagnostics(diagnostics)
    assert record.proj_error_norm >= 0.0 and record.w_norm >= 0.0


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_sparsify_rejects_infinite_weight(tmp_path, capsys):
    graph = tmp_path / "inf.edges"
    graph.write_text("0 1 1.0\n1 2 inf\n")
    code = main([
        "sparsify", "--input", str(graph), "--epsilon", "0.5",
        "--output", str(tmp_path / "h.sparsifier"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row",
    [
        "0 5 1.0 0 0 1.0",  # vertex id out of range for n = 3
        "-1 1 1.0 0 0 1.0",  # negative vertex id
        "1 1 1.0 0 0 1.0",  # self-loop
        "0 1 inf 0 0 1.0",  # non-finite weight
        "0 1 0.0 0 0 1.0",  # zero weight
        "0 1 1.0 0 0 1.5",  # p_tilde above 1
        "0 1 1.0 0 0 0.0",  # p_tilde at 0
        "0 1 1.0 0 0 nan",  # NaN p_tilde
        "0 x 1.0 0 0 1.0",  # unparsable vertex id
    ],
)
def test_verify_rejects_bad_sparsifier_rows(tmp_path, capsys, row):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    sp.write_text(f"# respark sparsifier step=1 N=1 seed=0\n{row}\n")
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "h.sparsifier:2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, where",
    [
        ("0 1 1.0 0 2 1.0\n", "h.sparsifier:2:"),  # copy index j = N
        ("0 1 1.0 0 -1 1.0\n", "h.sparsifier:2:"),  # negative copy index
        ("0 1 1.0 -1 0 1.0\n", "h.sparsifier:2:"),  # negative edge id
        ("0 1 1.0 0 1 1.0\n1 2 1.0 0 1 1.0\n", "h.sparsifier:3:"),  # (e, j) twice
        ("0 1 1.0 0 0 1.0 # note\n", "h.sparsifier:2:"),  # comment after six fields
        ("0 1 1.0 99999999999999999999 0 1.0\n", "h.sparsifier:2:"),  # beyond 64 bits
        ("0 1 1.0 0 0.5 1.0\n", "h.sparsifier:2:"),  # float copy index
        ("1e0 2 1.0 0 0 1.0\n", "h.sparsifier:2:"),  # float vertex id
        # lines out of the writer's layout: one row a line after the header
        ("0 1 1.0 0 0 1.0\n\n0 1 1.0 0 1 1.0\n", "h.sparsifier:3:"),  # blank line
        ("0 1 1.0 0 0 1.0\n \t\n", "h.sparsifier:3:"),  # whitespace only
        ("# note\n0 1 1.0 0 0 1.0\n", "h.sparsifier:2:"),  # comment after line 1
        ("0 1 1.0 0 0 1.0\n\n", "h.sparsifier:3:"),  # blank last line
    ],
)
def test_verify_rejects_rows_breaking_the_copy_contract(tmp_path, capsys, body, where):
    # edge 0 weighs 2.0, so the row '0 1 1.0 0 1 1.0' carries its weight
    # a_e / (N p_tilde) = 2 / (2 * 1.0)
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 2.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    sp.write_text(f"# respark sparsifier step=1 N=2 seed=0\n{body}")
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and where in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["0 1 1.0 0 0 1.0\n{header}\n", "\n{header}\n0 1 1.0 0 0 1.0\n", ""],
    ids=["late-header", "header-on-line-2", "empty"],
)
def test_verify_rejects_a_file_whose_line_1_is_not_the_header(tmp_path, capsys, text):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 2.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    sp.write_text(text.format(header="# respark sparsifier step=1 N=2 seed=0"))
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {sp}: missing sparsifier header comment\n"


@pytest.mark.parametrize(
    "field", ["step=1.5", "N=two", "seed=0x1", "step=+1", "N=1_0", "seed=٣", "N=", "seed=-"]
)
def test_verify_rejects_non_integer_header_fields(tmp_path, capsys, field):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    header = {"step": "1", "N": "2", "seed": "0"}
    key, value = field.split("=")
    header[key] = value
    sp.write_text(
        "# respark sparsifier " + " ".join(f"{k}={v}" for k, v in header.items())
        + "\n0 1 1.0 0 0 1.0\n", encoding="utf-8"
    )
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {sp}: header {key}={value!r} is not an integer\n"


@pytest.mark.parametrize("key", ["step", "N", "seed"])
def test_verify_names_a_header_field_with_more_digits_than_int_reads(tmp_path, capsys, key):
    # past 4,300 digits int() refuses a decimal string; the error names the field
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    header = {"step": "1", "N": "2", "seed": "0", key: "9" * 5000}
    sp.write_text(
        "# respark sparsifier " + " ".join(f"{k}={v}" for k, v in header.items())
        + "\n0 1 0.5 0 0 1.0\n"
    )
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {sp}: header {key}= has 5000 digits, too many to read as an integer\n"


_HEADER_RANGE = "header needs step >= 0 and N in [1, 2**63)"


@pytest.mark.parametrize(
    "fields, message",
    [
        ("", "header needs step= once, got it 0 times"),
        ("step=1 N=5 N=9 seed=0", "header needs N= once, got it 2 times"),
        ("step=1 N=2 seed=0 seed=0", "header needs seed= once, got it 2 times"),
        ("step=-1 N=2 seed=0", f"{_HEADER_RANGE}, got step=-1 N=2"),
        (f"step=1 N={2**63} seed=0", f"{_HEADER_RANGE}, got step=1 N={2**63}"),
    ],
    ids=["bare", "N-twice", "seed-twice", "step=-1", "N=2**63"],
)
def test_verify_rejects_a_header_without_one_of_each_field(tmp_path, capsys, fields, message):
    # each of step, N and seed once, with step >= 0 and N in [1, 2**63);
    # no field is taken as a default (a missing N and N = 0 are under
    # test_verify_rejects_rows_that_contradict_the_graph)
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    sp.write_text(f"# respark sparsifier {fields}\n0 1 0.5 0 0 1.0\n", encoding="utf-8")
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {sp}: {message}\n"


@pytest.mark.parametrize(
    "fields, body, where, message",
    [
        # edge 0 is 0-1 and edge 1 is 1-2, both of weight 1.0
        ("N=2", "0 1 0.5 2 0 1.0\n", "h.sparsifier:2:", "edge id e < 2"),  # e = m
        ("N=2", "1 2 0.5 0 0 1.0\n", "h.sparsifier:2:", "endpoints"),  # edge 1's pair
        ("N=2", "1 0 0.5 0 0 1.0\n", "h.sparsifier:2:", "endpoints"),  # edge 0 reversed
        # out of edge order, the first bad row in the file is named
        ("N=2", "2 1 0.5 1 0 1.0\n1 0 0.5 0 0 1.0\n", "h.sparsifier:2:", "endpoints"),
        # every edge is checked, not only the first
        ("N=2", "0 1 0.5 0 0 1.0\n2 1 0.5 1 0 1.0\n", "h.sparsifier:3:", "endpoints"),
        ("N=2", "0 1 0.5 0 0 1.0\n1 2 1.0 1 0 1.0\n", "h.sparsifier:3:", "a_e / (N * p_tilde)"),
        ("N=2", "0 1 0.5 0 0 1.0\n0 1 1.0 0 1 0.5\n", "h.sparsifier:3:", "e=0 differs from line 2"),
        ("N=2", "0 1 0.5 0 0 1.0\n1 0 0.5 0 1 1.0\n", "h.sparsifier:3:", "e=0 differs from line 2"),
        # out of (e, j) order: edge 0's rows are lines 2 and 4
        ("N=2", "0 1 0.5 0 0 1.0\n1 2 0.5 1 0 1.0\n0 1 1.0 0 1 0.5\n", "h.sparsifier:4:",
         "e=0 j=1 follows line 3"),
        # a header without N is refused before any row is read
        ("", "0 1 0.5 0 0 1.0\n0 1 0.5 0 1 0.5\n", "h.sparsifier: ",
         "header needs N= once, got it 0 times"),
        ("N=2", "0 1 1.0 0 0 1.0\n", "h.sparsifier:2:", "a_e / (N * p_tilde)"),  # 1/(2*1) = 0.5
        ("N=2", "0 1 0.5000000000000001 0 0 1.0\n", "h.sparsifier:2:", "a_e / (N * p_tilde)"),
        # N = 0 admits no copy, and is refused in the header
        ("N=0", "0 1 0.5 0 0 1.0\n", "h.sparsifier: ", "N in [1, 2**63), got step=1 N=0"),
    ],
)
def test_verify_rejects_rows_that_contradict_the_graph(
    tmp_path, capsys, fields, body, where, message
):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    sp.write_text(f"# respark sparsifier step=1 {fields} seed=0\n{body}")
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and where in err and message in err
    assert "Traceback" not in err

