"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "naifslab"


def _names(node) -> Counter:
    """Names loaded or read as attributes anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_module_level_function_and_class_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.name for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        # references inside the definition itself (recursion) do not count
        and used[node.name] - _names(node)[node.name] == 0
    ]
    assert unused == []
