"""End-to-end command line flows through main()."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from respark import harness
from respark.cli import main
from respark.graph import is_connected, read_edge_list
from respark.harness import load_report_json
from respark.sparsify import read_sparsifier
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
    sp = read_sparsifier(out, n=g.n)
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
    # spectral_check and projection_error share the context verify builds
    from respark import cli, verify

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
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(out), "--epsilon", "0.5",
    ])
    assert code == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse", "scipy.linalg"])
def test_import_leaves_scipy_stats_out(module):
    # scipy.stats dominates import time and nothing in the package needs it;
    # scipy.sparse is needed only by cg_resistances, which imports it itself;
    # NumPy's dense linear algebra serves every instrument
    code = f"import sys, respark, respark.cli; print({module!r} in sys.modules)"
    src = str(Path(harness.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


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
        ("0 1 1.0 0 1 1.0\n\n1 2 1.0 0 1 1.0\n", "h.sparsifier:4:"),  # (e, j) twice
        ("0 1 1.0 0 0 1.0 # note\n", "h.sparsifier:2:"),  # comment after six fields
        ("0 1 1.0 99999999999999999999 0 1.0\n", "h.sparsifier:2:"),  # beyond 64 bits
        ("0 1 1.0 0 0.5 1.0\n", "h.sparsifier:2:"),  # float copy index
        ("1e0 2 1.0 0 0 1.0\n", "h.sparsifier:2:"),  # float vertex id
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


@pytest.mark.parametrize("field", ["step=1.5", "N=two", "seed=0x1"])
def test_verify_rejects_non_integer_header_fields(tmp_path, capsys, field):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1 1.0\n1 2 1.0\n")
    sp = tmp_path / "h.sparsifier"
    header = {"step": "1", "N": "2", "seed": "0"}
    key, value = field.split("=")
    header[key] = value
    sp.write_text(
        "# respark sparsifier " + " ".join(f"{k}={v}" for k, v in header.items())
        + "\n0 1 1.0 0 0 1.0\n"
    )
    code = main([
        "verify", "--graph", str(graph), "--sparsifier", str(sp), "--epsilon", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"h.sparsifier: header {key}=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields, body, where, message",
    [
        # edge 0 is 0-1 and edge 1 is 1-2, both of weight 1.0
        ("N=2", "0 1 0.5 2 0 1.0\n", "h.sparsifier:2:", "edge id e < 2"),  # e = m
        ("N=2", "1 2 0.5 0 0 1.0\n", "h.sparsifier:2:", "endpoints"),  # edge 1's pair
        ("N=2", "1 0 0.5 0 0 1.0\n", "h.sparsifier:2:", "endpoints"),  # edge 0 reversed
        ("N=2", "0 1 0.5 0 0 1.0\n0 1 1.0 0 1 0.5\n", "h.sparsifier:3:", "e=0 differs from line 2"),
        ("N=2", "0 1 0.5 0 0 1.0\n1 0 0.5 0 1 1.0\n", "h.sparsifier:3:", "e=0 differs from line 2"),
        # out of (e, j) order: edge 0's rows are lines 2 and 4
        ("N=2", "0 1 0.5 0 0 1.0\n1 2 0.5 1 0 1.0\n0 1 1.0 0 1 0.5\n", "h.sparsifier:4:",
         "e=0 differs from line 2"),
        # without N no weight is implied, so only the one-p_tilde rule applies
        ("", "0 1 0.5 0 0 1.0\n0 1 0.5 0 1 0.5\n", "h.sparsifier:3:",
         "edge e=0 differs from line 2 in u v, weight or p_tilde"),
        ("N=2", "0 1 1.0 0 0 1.0\n", "h.sparsifier:2:", "a_e / (N * p_tilde)"),  # 1/(2*1) = 0.5
        ("N=2", "0 1 0.5000000000000001 0 0 1.0\n", "h.sparsifier:2:", "a_e / (N * p_tilde)"),
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

