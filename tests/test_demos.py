"""Every demo script runs to completion in-process."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    # a demo that writes a file writes it into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
