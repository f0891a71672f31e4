"""What each library module imports: the YAML format stays in `document`, `layercost` only counts, and no import goes unused."""

from __future__ import annotations

import ast
import pathlib

import dnnreuse

SRC = pathlib.Path(dnnreuse.__file__).resolve().parent


def runtime_imports(path: pathlib.Path) -> set:
    """Top-level names of the modules a file imports, anywhere but in an `if TYPE_CHECKING:` block; a relative import is dnnreuse."""
    tree = ast.parse(path.read_text())
    typing_only = {
        id(node)
        for guard in ast.walk(tree)
        if isinstance(guard, ast.If) and ast.unparse(guard.test) == "TYPE_CHECKING"
        for statement in guard.body
        for node in ast.walk(statement)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("dnnreuse" if node.level else node.module.partition(".")[0])
    return names


def test_only_document_imports_yaml_and_layercost_imports_no_library_module_or_math():
    imports = {path.stem: runtime_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert [module for module, names in imports.items() if "yaml" in names] == ["document"]
    assert imports["layercost"].isdisjoint({"dnnreuse", "math"}), imports["layercost"]


def imported_names(tree: ast.Module) -> set:
    """The names a module's import statements bind, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_name_a_module_imports_is_used_in_it():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if left := sorted(imported_names(tree) - used):
            unused[path.stem] = left
    assert unused == {}
