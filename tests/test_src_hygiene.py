"""Static checks on the library source: no unused imports, no function,
class or method that nothing in the library refers to (code that only tests
call belongs in the tests), and no branch on the lifting outside lifting.py
and the CLI's config routing."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nlrecover"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # re-exports the public API
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {b}" for b in _bound_names(node) if b not in used]
    assert unused == []


def test_every_definition_is_referenced_in_the_library():
    trees = _modules()
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    unreferenced = []
    for name, tree in trees.items():
        # a method counts as used only through an attribute (obj.method)
        methods = {m: f"{node.name}.{m.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   for m in node.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            used = attributes if node in methods else names | attributes
            if node.name not in used:
                unreferenced.append(f"{name}: {methods.get(node, node.name)}")
    assert unreferenced == []


def test_objective_and_solvers_do_not_branch_on_the_lifting():
    # which lifting is in use is the lifting's own decision (LiftingSpec)
    trees = _modules()
    reads = [f"{name}:{node.lineno}: .{node.attr}" for name in ("objective.py", "solvers.py")
             for node in ast.walk(trees[name])
             if isinstance(node, ast.Attribute) and node.attr in ("is_kernel", "kind")]
    assert reads == []
