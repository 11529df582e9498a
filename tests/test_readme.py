"""The README's "Library example" and CLI blocks run and do what they say."""

import re
import shlex
from pathlib import Path

from clusterforge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # the block's comment claims f3 == fpoly_recurrence(q, (1,2,1))[-1]
    q, f3 = namespace["q"], namespace["f3"]
    assert f3 == namespace["fpoly_recurrence"](q, (1, 2, 1))[-1]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    commands = [i for i, line in enumerate(lines) if line.startswith("clusterforge ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)  # `family --out` writes a file
    outputs = []
    for i in commands:
        assert main(shlex.split(lines[i])[1:]) == 0, lines[i]
        outputs.append(capsys.readouterr().out)
    # the comment under the first example is its output
    first = commands[0]
    assert lines[first + 1].startswith("# 1 + ")
    assert outputs[0] == lines[first + 1][2:] + "\n"
    assert (tmp_path / "g723.json").exists()
