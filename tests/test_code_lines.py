"""The code-line counter of ``tools/code_lines.py``: comments, blank
lines and docstrings do not count; every other line with a token does,
each line of a multi-line string that is not a docstring included."""

import importlib.util
from pathlib import Path

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """Function docstring."""
    # another comment-only line
    text = """a multi-line string
that is not a docstring"""
    """A bare string after the first statement."""

    return (x,
            text)


class C:
    """Class
    docstring."""
    y = 1
'''


def code_lines_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_fixed_snippet():
    # import, def, the string's two lines, the bare string, the return's
    # two lines, class and y.
    assert code_lines_module().code_lines(SNIPPET) == 9


def test_code_lines_of_nothing_but_comments_and_docstrings():
    count = code_lines_module().code_lines
    assert count('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert count("") == 0
