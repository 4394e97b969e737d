"""Physical and code lines of the package, per module and in total.

Usage (from the root of a checkout)::

    python3 tests/src_lines.py [--src DIR]

For each ``*.py`` file of the package directory ``DIR/signed_spectra``
(by default this checkout's ``src/``), in name order, the script prints its
physical lines, as ``wc -l`` counts them, and its code lines: the lines
that hold a token other than a comment, outside every docstring (the
leading string of a module, class or function).  Blank lines therefore
count as physical lines only, and a string that is not a docstring counts
on every line it spans.  The last line is the total of each.  Pytest does
not collect the script, as its name does not match ``test_*.py``;
``test_src_lines.py`` runs it on this checkout.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that put no code on their lines.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (row, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """``(physical, code)`` lines of the Python source ``text``."""
    docstrings = _docstring_starts(ast.parse(text))
    rows: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds signed_spectra/ (default: this checkout's src/)")
    args = parser.parse_args(argv)
    modules = sorted((args.src / "signed_spectra").glob("*.py"))
    if not modules:
        raise SystemExit(f"no signed_spectra/*.py under {args.src}")
    total_physical = total_code = 0
    for path in modules:
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:16} {physical:6} physical {code:6} code")
    print(f"{'total':16} {total_physical:6} physical {total_code:6} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
