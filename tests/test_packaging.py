"""Packaging claims: the README's "no runtime dependencies"."""

import ast
import sys
from pathlib import Path

import grtlab


def test_imports_are_stdlib_or_grtlab():
    # every import in the package names grtlab itself (absolute or
    # relative) or a module of the standard library
    src = Path(grtlab.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "grtlab" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert not outside, f"non-stdlib imports: {outside}"
