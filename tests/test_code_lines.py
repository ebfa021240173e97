"""``tools/code_lines.py``: which lines count as code."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves the line code


# A comment line.
def double(x):
    """A function docstring."""
    "a later string statement is code"
    text = """a string literal
that is no docstring"""
    return (x +
            x)


class Empty:
    """Only a docstring."""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blank_comment_and_docstring_lines_do_not_count(code_lines):
    # import, def, the later string, text (2 lines), return (2 lines), class.
    assert code_lines.code_lines(SNIPPET) == 8


def test_a_directory_counts_its_python_files(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["8", "1", "9"]
    assert rows[-1].split()[1] == "total"
