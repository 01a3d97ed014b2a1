"""Static checks on the library source: no unused imports, no function,
class or method that nothing in the library refers to (code that only tests
call belongs in the tests), and no branch on the lifting outside lifting.py
and the CLI's config routing."""

import ast
import importlib
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


def _outside_bases(cls: ast.ClassDef) -> list[type]:
    """The base classes of cls written as module.Class for a module outside
    the library, such as argparse.ArgumentParser."""
    bases = []
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            try:
                module = importlib.import_module(base.value.id)
            except ImportError:
                continue
            if hasattr(module, base.attr):
                bases.append(getattr(module, base.attr))
    return bases


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
        # a method counts as used only through an attribute (obj.method), or
        # when it overrides a method of a base class from outside the library
        # (argparse.ArgumentParser.error), which that class calls
        methods = {m: f"{node.name}.{m.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   for m in node.body if isinstance(m, ast.FunctionDef)}
        hooks = {m for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for m in node.body if isinstance(m, ast.FunctionDef)
                 and any(hasattr(base, m.name) for base in _outside_bases(node))}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__") \
                    or node in hooks:
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


def _keys_read_from_a_config(tree: ast.AST) -> set:
    """The keys that the code under tree reads from or writes to a whole
    config (a name cfg or sub_cfg): cfg.get(key), cfg.setdefault(key),
    cfg[key], key in cfg, _require(cfg, key, ...) and dict(cfg, key=...). A
    key that is not a string literal shows up as None."""
    def is_config(node):
        return isinstance(node, ast.Name) and node.id in ("cfg", "sub_cfg")

    def literal(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_config(node.value):
            keys.add(literal(node.slice))
        elif isinstance(node, ast.Compare) and is_config(node.comparators[-1]) \
                and isinstance(node.ops[-1], (ast.In, ast.NotIn)):
            keys.add(literal(node.left))
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault") \
                    and is_config(func.value):
                keys.add(literal(node.args[0]))
            elif isinstance(func, ast.Name) and func.id == "_require" and is_config(node.args[0]):
                keys.add(literal(node.args[1]))
            elif isinstance(func, ast.Name) and func.id == "dict" and is_config(node.args[0]):
                keys.update(kw.arg for kw in node.keywords)
    return keys


def _keys_read_by(*roots: str) -> set:
    """The config keys read by the cli.py functions named roots and by every
    cli.py function they reach through a name."""
    functions = {node.name: node for node in _modules()["cli.py"].body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Name) and node.id in functions]
    return set().union(*(_keys_read_from_a_config(functions[name]) for name in reached))


def test_config_allow_lists_match_the_code_that_reads_them():
    # a command's row of top-level keys holds only keys that its runner, the
    # functions the runner reaches, or main read, and every key that cli.py
    # reads is in some row; a lifting kind names only parameters that
    # LiftingSpec holds
    from dataclasses import fields

    from nlrecover.cli import COMMANDS
    from nlrecover.lifting import LiftingSpec

    for name, (run, keys) in COMMANDS.items():
        assert set(keys) - _keys_read_by(run.__name__, "main") == set(), name
    rows = set().union(*(keys for _, keys in COMMANDS.values()))
    assert rows == _keys_read_from_a_config(_modules()["cli.py"])
    params = {f.name for f in fields(LiftingSpec)} - {"kind", "n"}
    named = {p for kind_params in LiftingSpec.PARAMS.values() for p in kind_params}
    assert named == params
