"""The README's "Library example" block runs and does what it says."""

import re
from pathlib import Path

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
