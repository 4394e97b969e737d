"""``src_lines.py``, the line-count script, on this checkout's ``src/``."""

from __future__ import annotations

import re
import subprocess
import sys

from tests import src_lines


def test_counts_every_module_of_the_checkout():
    result = subprocess.run([sys.executable, str(src_lines.ROOT / "tests" / "src_lines.py")],
                            capture_output=True, text=True, check=True)
    rows = re.findall(r"^(\S+) +(\d+) physical +(\d+) code$", result.stdout, re.MULTILINE)
    assert len(rows) == len(result.stdout.splitlines())
    *modules, (name, physical, code) = [(m, int(p), int(c)) for m, p, c in rows]
    files = sorted((src_lines.ROOT / "src" / "signed_spectra").glob("*.py"))
    assert name == "total" and [m for m, _, _ in modules] == [f.name for f in files]
    # the physical total is `cat src/signed_spectra/*.py | wc -l`: the newlines of every module
    assert physical == sum(f.read_bytes().count(b"\n") for f in files)
    assert (physical, code) == (sum(p for _, p, _ in modules), sum(c for _, _, c in modules))
    assert all(0 < c <= p for _, p, c in modules)


def test_docstrings_comments_and_blank_lines_are_not_code():
    text = '''"""Module
docstring."""

import os  # a comment
# a comment line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return """a string
that is code"""
'''
    assert src_lines.count(text) == (15, 5)  # import, class, def and the two string lines
