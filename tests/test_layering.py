"""Module layering: each module imports only the layers below it."""

import ast
from pathlib import Path

import atomspa

# lowest first: leakage and spa take the grammar from atoms, and diagram
# takes the add/sub colours from the schedule sched builds
LAYERS = ("field", "atoms", "sched", "leakage", "spa", "diagram", "cli")
PACKAGE = Path(atomspa.__file__).parent


def _imported_modules(path):
    """Names of the atomspa modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # a relative import names its module, or its names are modules
                names = ([f"atomspa.{node.module}"] if node.module else
                         [f"atomspa.{a.name}" for a in node.names])
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            if name == "atomspa" or name.startswith("atomspa."):
                found.add(name.partition(".")[2] or "atomspa")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    for i, name in enumerate(LAYERS):
        imported = _imported_modules(PACKAGE / f"{name}.py")
        assert imported <= set(LAYERS[:i]), (name, sorted(imported))


def test_the_grammar_has_one_owner():
    # the double-and-add grammar is defined in atoms and imported from there
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        taken = {(n.module, a.name) for n in tree.body
                 if isinstance(n, ast.ImportFrom) for a in n.names}
        assert ("recover_scalar" in defined) == (name == "atoms"), name
        if name in ("leakage", "spa", "cli"):
            assert ("atomspa.atoms", "recover_scalar") in taken, name
