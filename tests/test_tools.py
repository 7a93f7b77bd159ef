"""The line counter under tools/, which ROADMAP.md's line-count table reads."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOLS / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "text, want",
    [
        # the docstrings of a module, a class, a def and an async def
        ('"""A module,\nover two lines."""\nx = 1\n', (3, 1)),
        ('class A:\n    """A class,\n    over two lines."""\n', (3, 1)),
        ('def f():\n    """A def."""\n    return 1\n', (3, 2)),
        ('async def f():\n    """An async def."""\n    return 1\n', (3, 2)),
        ('class A:\n    def f(self):\n        """A method."""\n        return 1\n', (4, 3)),
        # comments and blank lines
        ("# a comment\n\nx = 1  # a comment after code\n\n    \n", (5, 1)),
        # a string that does not open its body is code, on every line
        ('x = 1\ny = """a\nb\n"""\n', (4, 4)),
        ('def f():\n    x = 1\n    """not a\n    docstring"""\n', (4, 4)),
        # a statement over three lines counts three, two on one line one
        ("x = (1 +\n     2 +\n     3)\n", (3, 3)),
        ("x = 1; y = 2\n", (1, 1)),
        ("", (0, 0)),
    ],
)
def test_src_lines_counts_code_lines(src_lines, text, want):
    assert src_lines.count(text) == want
