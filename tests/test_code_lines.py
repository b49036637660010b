"""tools/code_lines.py counts the lines that hold code: not blank lines, comments or
docstrings, but every line of a non-docstring string or expression that spans lines,
and refuses a path that is not a directory."""
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment leaves its line a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is no docstring"""
        return (math.pi,
                text)
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "mod.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split(maxsplit=1) for line in proc.stdout.splitlines()]
    assert rows == [["0", str(tmp_path / "__init__.py")],
                    ["7", str(tmp_path / "mod.py")], ["7", "total"]]


@pytest.mark.parametrize("args", [["/nonexistent"], ["--help"], ["mod.py"], []],
                         ids=["missing", "help", "file", "default-outside-the-repo"])
def test_a_path_that_is_not_a_directory_is_an_error(tmp_path, args):
    # run from a directory that holds no src/roughvol, so the default is missing too
    (tmp_path / "mod.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "is not a directory" in proc.stderr
    assert (args or ["src/roughvol"])[0] in proc.stderr
