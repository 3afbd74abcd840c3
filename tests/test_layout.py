"""`src` holds what a command runs: code that only the tests call lives in the tests,
and a private name that nothing calls is gone."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in sorted((ROOT / "src" / "geodrive").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "geobench").glob("*.py"))


def _references(tree):
    """(name, line) of every name, attribute and string literal in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_definition_is_used_outside_itself():
    """Each public function, and each public method or property of a module-level
    class, is referenced by other code in the package or in geobench; geobench's
    ``TRACED`` table names the functions it wraps by string."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    references = [(path, *ref) for path, tree in trees.items() for ref in _references(tree)]
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            owner = node.name + "." if isinstance(node, ast.ClassDef) else ""
            for item in node.body if owner else [node]:
                if (not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or item.name.startswith("_")):
                    continue
                inside = range(item.lineno, item.end_lineno + 1)
                if not any(name == item.name and not (where == path and line in inside)
                           for where, name, line in references):
                    unused.append(f"{path.relative_to(ROOT)}: {owner}{item.name}")
    assert unused == [], "used by no other code in src or geobench:\n" + "\n".join(unused)


def _private_definitions(tree):
    """(name, first line, last line) of each module-level private function, class and
    assigned constant; dunder names are the interpreter's and not counted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_private_definition_is_used():
    """Each module-level private function, class or constant is referenced by code in
    the package or in geobench outside its own definition."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    references = [(path, *ref) for path, tree in trees.items() for ref in _references(tree)]
    orphans = [f"{path.relative_to(ROOT)}: {name}"
               for path, tree in trees.items() for name, first, last in _private_definitions(tree)
               if not any(used == name and not (where == path and first <= line <= last)
                          for where, used, line in references)]
    assert orphans == [], "private names nothing in src or geobench uses:\n" + "\n".join(orphans)


def test_benchmark_spans_name_live_functions():
    """geobench/spans.py wraps each ``TRACED`` name as a function of its geodrive module,
    and ``Tracer.install`` reads attributes such as ``operators._integrate`` from
    ``sys.modules["geodrive.<module>"]``: each of them exists under its name."""
    tree = ast.parse((ROOT / "geobench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    missing = []
    for module, names in traced.items():
        for name in names:
            function = getattr(importlib.import_module(f"geodrive.{module}"), name, None)
            if not (inspect.isfunction(function) and function.__module__ == f"geodrive.{module}"):
                missing.append(f"{module}.{name}")
    read = {(node.value.slice.value, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Constant)
            and str(node.value.slice.value).startswith("geodrive.")}
    assert ("geodrive.operators", "_integrate") in read
    missing += [f"{module}.{name}" for module, name in sorted(read)
                if not hasattr(importlib.import_module(module), name)]
    assert missing == [], "named in geobench/spans.py but not in geodrive:\n" + "\n".join(missing)
