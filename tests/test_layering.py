"""Module layering: each module imports only the layers below it, and every
function it defines has a caller inside the package."""

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



# called from outside the package by design: the CLI entry point, and the
# oracles that the acceptance criteria compare the lab against; the public
# API in atomspa.__all__ is exempt too
ENTRY_POINTS = {"cli.main", "field.MulSchedule.evaluate",
                "atoms.reference_k_mul"}


def _functions(node, prefix):
    """(qualified name, name) of every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield qualified, child.name
            yield from _functions(child, qualified)
        else:
            yield from _functions(child, prefix)


def test_every_function_has_a_caller_in_the_package():
    # a function or method that only tests reach is code the lab never runs
    defined, referenced = [], set()
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        defined += _functions(tree, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [qualified for qualified, name in defined
              if not (name.startswith("__") and name.endswith("__"))
              and name not in referenced and qualified not in ENTRY_POINTS
              and qualified.partition(".")[2] not in atomspa.__all__]
    assert not unused, unused
