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


def test_the_address_lines_have_one_walk():
    # the names a cycle puts on the bus address lines are read from its
    # events in leakage.line_walk alone; the power model and the attack take
    # them from there (diagram draws the names, so it reads them itself)
    readers = set()
    for name in ("leakage", "spa"):
        for top in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
            if any(isinstance(n, ast.Attribute)
                   and n.attr in ("src_name", "dst_names")
                   for n in ast.walk(top)):
                readers.add((name, getattr(top, "name", None)))
    assert readers == {("leakage", "line_walk")}


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


# parameters whose defaults no call in the package overrides, by design
UNSET_DEFAULTS = {
    "cli.main.argv": "the console-script entry point calls main() bare",
    "leakage.simulate_trace.workers":
        "acceptance criterion 9 sets it to pin worker-count independence",
}


def _defaults(node, prefix, in_class=False):
    """(qualified parameter name, function name, position or None) of every
    parameter with a default under node; the position counts the arguments
    a call writes, so a method's bound self or cls is not counted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaults(child, f"{prefix}.{child.name}", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            bound = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield (f"{prefix}.{child.name}.{arg.arg}", child.name,
                       i - bound)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{child.name}.{arg.arg}", child.name, None
            yield from _defaults(child, f"{prefix}.{child.name}")
        else:
            yield from _defaults(child, prefix, in_class)


def test_every_default_is_overridden_by_a_call_in_the_package():
    # a parameter that every caller leaves at its default is a knob that
    # changes nothing
    defaults, calls = [], {}
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        defaults += _defaults(tree, name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            # a starred argument or ** mapping may pass any parameter
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(callee, []).append((
                float("inf") if splat else len(node.args),
                {k.arg for k in node.keywords}))
    unset = [qualified for qualified, func, position in defaults
             if qualified not in UNSET_DEFAULTS
             and not any(qualified.rpartition(".")[2] in keywords
                         or None in keywords
                         or position is not None and count > position
                         for count, keywords in calls.get(func, ()))]
    assert not unset, unset
