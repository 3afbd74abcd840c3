"""`src` holds what a command runs: code that only the tests call lives in the tests."""

import ast
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
