"""The README's Library example runs as written on the README's corpus."""

import re
from pathlib import Path

from tagburst.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    assert main(["simulate", "--out", str(tmp_path / "run"), "--seed", "0",
                 "--t-days", "120"]) == 0
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
