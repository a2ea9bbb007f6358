"""Code lines of the bpring package, per module and in total.

A code line is a line that holds some token of code: blank lines, lines that
are only a comment, and the lines of module, class and function docstrings do
not count.  A line with code and a trailing comment counts.  Stdlib only.

Run from the repository root:

    python tests/code_lines.py            # src/bpring
    python tests/code_lines.py some/dir   # any directory of .py files
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
        fh.seek(0)
        tree = ast.parse(fh.read(), str(path))
    lines = set()
    for tok in tokens:
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "bpring"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    if not counts:
        print(f"no .py files in {root}", file=sys.stderr)
        return 2
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
