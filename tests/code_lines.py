"""The code lines of the Python modules in a directory: the lines that are
not blank, not comments and not docstrings (the string that opens a module,
class or function body).

``python tests/code_lines.py src/thrallkit`` prints the total.
"""

import ast
import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


if __name__ == "__main__":
    print(sum(map(code_lines, sorted(Path(sys.argv[1]).glob("*.py")))))
