import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", _ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Every kind of line: docstrings of a module, a class, a function and an async
# function, comments, blank lines, a string that is no docstring, and lines
# that continue a statement.
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import sys  # code with a trailing comment


class Box:
    """Class docstring."""

    size = (
        1,
    )

    async def fetch(self):
        """Async function docstring."""
        return 1

    def text(self):
        """Function docstring
        over two lines.
        """
        # an indented comment
        note = """a string
that is not a docstring"""
        return note + \\
            "continued"
'''


def test_counts_only_code_lines():
    # import, class, size = (, 1,, ), async def, return 1, def text,
    # note = """..., its second line, return note + \\, "continued".
    assert code_lines.code_lines(SNIPPET) == 12


def test_walks_directories_for_python_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines._main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "13\n"
