"""Code lines per module, in total, and each module's longest function.

A code line is a non-blank line that is not a comment: docstrings count,
``#`` lines do not.  A function's length is the code lines from its
``def`` (its first decorator, if any) to its last line, nested functions
included.  The roadmap's size figures are counted this way.

Usage::

    python scripts/code_lines.py [PATH ...]   # default: src/repro

Prints one line per module (code lines, then the longest function and
its length) and the total last.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def is_code(line: str) -> bool:
    text = line.strip()
    return bool(text) and not text.startswith("#")


def code_lines(path: str | Path) -> int:
    return sum(map(is_code, Path(path).read_text().splitlines()))


def functions(path: str | Path) -> list[tuple[str, int]]:
    """``(qualified name, code lines)`` of every function in ``path``,
    methods and nested functions included, in source order."""
    lines = Path(path).read_text().splitlines()
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}{getattr(child, 'name', '')}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = lines[first - 1 : child.end_lineno]
                found.append((name, sum(map(is_code, body))))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{name}.")

    visit(ast.parse("\n".join(lines), str(path)), "")
    return found


def longest(path: str | Path) -> tuple[str, int]:
    """The longest function of ``path`` and its code lines (``("", 0)``
    for a module without one)."""
    return max(functions(path), key=lambda f: f[1], default=("", 0))


def modules(paths: list[str | Path]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [ROOT / "src" / "repro"]
    total = 0
    for path in modules(paths):
        n = code_lines(path)
        name, length = longest(path)
        total += n
        print(f"{n:6d}  {path}  longest: {name or '-'} ({length})")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main()
