"""Every demo script, and each python block of README.md, runs to completion in-process."""

import math
import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    # a demo that writes a file writes it into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")


def _stated(word: str, value: str) -> bool:
    """Whether a printed value matches the word of its print's comment: "0.4188..." states the
    leading digits, "~1e-9" a value within a factor 2, anything else the value itself."""
    if word.endswith("..."):
        return value.startswith(word[:-3])
    if word.startswith("~"):
        return 0.5 <= float(value) / float(word[1:]) <= 2.0
    return value == word


def test_readme_python_blocks_print_what_their_comments_state(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip() for block in blocks for line in block.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(printed) == 5
    for comment, line in zip(comments, printed):
        # an explanation after " = " is not printed
        words, values = comment.split(" = ")[0].replace(",", " ").split(), line.split()
        assert len(words) == len(values) and all(map(_stated, words, values)), (comment, line)
    # the one explanation: 6.2831853... = 2 pi
    assert comments[2].endswith("= 2 pi") and printed[2].startswith(f"{2.0 * math.pi:.7f}")
