"""Smoke runs of the narrative scripts under demos/: each must complete."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# what a demo must print, beyond something
SAYS = {
    # the file read back has the in-memory sparsifier's Laplacian bit for bit
    "streaming_sparsification.py": "laplacians identical = True\n",
}


@pytest.mark.parametrize(
    "name, args",
    [
        ("laplacian_and_resistances.py", []),
        ("streaming_sparsification.py", []),
        ("verification_instruments.py", []),
        ("concentration_experiment.py", ["--trials", "10"]),
    ],
)
def test_demo_runs(name, args, tmp_path, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    # the demos write their files under tempfile's directory
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and SAYS.get(name, "") in out
    # demos clean up what they write there
    assert list(tmp_path.iterdir()) == []
