"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "naifslab"


def _names(node) -> Counter:
    """Names loaded or read as attributes anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_module_level_function_and_class_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = _exported()
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


def _reads(node) -> Counter:
    """_names, and every string as a name: perfbench traces functions by their names."""
    strings = (n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return _names(node) + Counter(strings)


def test_every_export_has_a_reader():
    # an __init__ export is read outside its own definition by the package,
    # a script, the benchmark or the oracles; tests alone do not keep one
    exported = _exported()
    readers = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "oracles.py"]
    reads, own = Counter(), Counter()
    for path in readers:
        tree = ast.parse(path.read_text())
        reads += _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                own[node.name] += _reads(node)[node.name]
    assert sorted(name for name in exported if reads[name] == own[name]) == []


def _scope_nodes(node):
    """Nodes under node, not descending into nested functions, lambdas or classes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _scope_nodes(child)


def test_no_function_local_name_is_stored_and_never_loaded():
    # a dead store: assigned in a function and read nowhere in it, nested
    # functions included; the throwaway name _ is exempt
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_scope_nodes(fn))
            declared = {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
            stored = {n.id: n.lineno for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            loaded = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            dead += [
                f"{path.name}:{line} {fn.name}: {name}"
                for name, line in stored.items()
                if name != "_" and name not in loaded and name not in declared
            ]
    assert dead == []


# the private names one module may still import from another; a ceiling,
# so that removing one never fails the test.  perfbench traces these four
# by name (spans.THEOREMS_BOUNDARY), so they keep their names until the
# benchmark renames its traces
PRIVATE_IMPORTS = {
    ("theorems", "pressure", "_BowenOrbit"),
    ("theorems", "pressure", "_birkhoff_vector"),
    ("theorems", "pressure", "_solve_separated_weighted"),
    ("theorems", "pressure", "_solve_spanning_weighted"),
}


def test_no_new_private_imports_between_modules():
    found = {
        (path.stem, node.module, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert sorted(found - PRIVATE_IMPORTS) == []


def test_only_the_ball_builder_writes_the_cached_balls():
    # every eps-ball mask comes from _word_balls (tiles of Bowen matrices):
    # an orbit's ball cache is set up empty in __init__, filled by
    # _word_balls alone, and balls only looks it up.  A use of the cache
    # other than a subscript load, an `in` test or .get counts as a write.
    # No orbit holds a dense matrix.
    tree = ast.parse((SRC / "pressure.py").read_text())
    writers, readers = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(_scope_nodes(fn))
        parents = {child: n for n in [fn, *nodes] for child in ast.iter_child_nodes(n)}
        for n in nodes:
            if not (isinstance(n, ast.Attribute) and n.attr == "_balls"):
                continue
            up = parents[n]
            loads = (
                (isinstance(up, ast.Subscript) and up.value is n and isinstance(up.ctx, ast.Load))
                or (isinstance(up, ast.Compare) and all(isinstance(op, (ast.In, ast.NotIn)) for op in up.ops))
                or (isinstance(up, ast.Attribute) and up.attr == "get")
            )
            (readers if loads else writers).add(fn.name)
    assert writers == {"__init__", "_word_balls"}
    assert readers == {"balls"}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    defs = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not {"_matrix", "matrix"} & (attrs | defs)


def test_only_field_turns_library_errors_into_config_errors():
    # in cli.py a library ValueError or OverflowError becomes a config error
    # in _field alone; main's list branch refuses an unknown catalog kind,
    # which no config field holds
    tree = ast.parse((SRC / "cli.py").read_text())

    def catches(n):
        return isinstance(n, ast.ExceptHandler) and n.type is not None and bool({"ValueError", "OverflowError"} & set(_names(n.type)))

    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(_scope_nodes(fn))
        in_list = {
            m
            for n in nodes
            if isinstance(n, ast.If) and "list" in {c.value for c in ast.walk(n.test) if isinstance(c, ast.Constant)}
            for stmt in n.body
            for m in ast.walk(stmt)
        }
        found += [f"{fn.name} list branch" if n in in_list else fn.name for n in nodes if catches(n)]
    assert sorted(found) == ["_field", "main list branch"]
