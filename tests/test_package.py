"""The production package imports nothing outside the standard library and
holds no code that only tests use."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablekappa"


def _imported_modules(path: Path) -> list[str]:
    """The top-level name of every absolute import in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for name in _imported_modules(path):
            assert name in sys.stdlib_module_names, (path.name, name)


# every standard-library module the package imports; a one-shot CLI call
# pays for each at start-up, so a new one is added here on purpose
STDLIB_IMPORTS = {
    "__future__", "argparse", "array", "bisect", "dataclasses", "enum", "functools",
    "itertools", "json", "math", "operator", "sys", "threading", "typing",
}


def test_package_imports_only_the_listed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _imported_modules(path):
            assert name in STDLIB_IMPORTS, (path.name, name)


def test_every_imported_name_is_used():
    # no linter checks the package, so import debris left by moving code
    # between modules is caught here; a name listed in __all__ (the
    # re-exports of __init__.py) counts as used
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for top in tree.body:
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
                used.update(ast.literal_eval(top.value))
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, (path.name, unused)


def _references(node: ast.AST) -> set[str]:
    """The names and attributes a node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _private_targets(top: ast.stmt) -> set[str]:
    """The private names (``_name``, not dunders) a top-level assignment binds."""
    if not isinstance(top, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = top.targets if isinstance(top, ast.Assign) else [top.target]
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.startswith("_")
            and not node.id.startswith("__")}


def test_every_top_level_definition_is_used_or_exported():
    # code that only tests use belongs under tests/, not in the package:
    # every top-level function and class, and every private name a
    # top-level assignment binds, must be referenced by another top-level
    # statement of the package, or be listed in __all__
    exported: set[str] = set()
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {top.name}
            else:
                own = _private_targets(top)
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
                exported.update(ast.literal_eval(top.value))
            defined.update(dict.fromkeys(own, path.name))
            # a definition does not count as a use of itself
            used.update(_references(top) - own)
    unused = {name: module for name, module in defined.items()
              if name not in used and name not in exported}
    assert not unused, unused


def test_package_calls_no_builtin_sum():
    # float sum is compensated from Python 3.12 on and plain before, so a
    # value summed with it would depend on the interpreter; math.fsum is
    # exactly rounded on every version
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert not (isinstance(node, ast.Name) and node.id == "sum"), (
                path.name, node.lineno)


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass, or a NamedTuple of fields."""
    return _is_named_tuple(node) or any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        for d in node.decorator_list)


def test_every_slot_and_field_is_read():
    # state that nothing reads is dead: every name a class lists in
    # __slots__, and every field of a dataclass or NamedTuple, must be read
    # as an attribute somewhere in the package (by name, whatever the
    # object, but not off an imported module: math.floor reads no field
    # "floor")
    declared: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not (
                    isinstance(node.value, ast.Name) and node.value.id in modules):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    names = ast.literal_eval(stmt.value)
                elif isinstance(stmt, ast.AnnAssign) and _is_record(node):
                    names = [stmt.target.id]
                else:
                    continue
                declared.update((name, f"{path.name}:{node.name}") for name in names)
    assert declared
    unread = {name: owner for name, owner in declared.items() if name not in read}
    assert not unread, unread
