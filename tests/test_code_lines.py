import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = (1,
             2)
        return """not a docstring"""
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def, the two lines of x, and return
    assert code_lines.code_lines(path) == 6


def test_code_lines_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_module = [int(line.split()[-1]) for line in lines[:-1]]
    assert lines[-1].split()[0] == "total" and int(lines[-1].split()[-1]) == sum(per_module)
    assert any(line.split()[0] == "families.py" for line in lines)
