"""Every public name of the package is used by the program itself, and
no private name crosses a module.

A public top-level function or class of ``src/assph``, or a public
method of such a class, must be used somewhere in ``src`` or ``bench``
outside its own definition; a name only the tests call is surface to
delete, not to keep.  In ``src`` a use is a bare name, an attribute, or
one component of a dotted string such as the ``"evalkit.rank"`` the
benchmark's tracer patches.  In ``bench`` only attributes and dotted
strings count: the benchmark reaches the package through its modules, and
a bare name there is one of the benchmark's own, such as its input
writers.

A helper two modules share is public in ``kernels``, which imports numpy
and the package's errors only, so no module reaches into another's
underscore names.  ``kernels`` holds nothing else: a helper one module
calls lives in that module.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "assph")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _modules(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path) as fh:
                yield path, ast.parse(fh.read(), filename=path)


def public_definitions():
    """(path, qualified name, name, first line, last line) of each
    public top-level function and class and each public method."""
    found = []
    for path, tree in _modules(PACKAGE):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((path, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found.append((path, f"{node.name}.{item.name}", item.name,
                                      item.lineno, item.end_lineno))
    return found


def uses():
    """(path, line) of every use of each name in src and bench."""
    seen = {}
    for directory, bare in ((PACKAGE, True), (os.path.join(ROOT, "bench"), False)):
        for path, tree in _modules(directory):
            for node in ast.walk(tree):
                if bare and isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and DOTTED.fullmatch(node.value)):
                    names = node.value.split(".")
                else:
                    continue
                for name in names:
                    seen.setdefault(name, []).append((path, node.lineno))
    return seen


def test_every_public_name_is_used_by_the_program():
    seen = uses()
    unused = [
        qualified
        for path, qualified, name, first, last in public_definitions()
        if not any(p != path or not first <= line <= last
                   for p, line in seen.get(name, []))
    ]
    assert not unused, f"public names no program code uses: {unused}"


def test_finds_the_definitions():
    names = {qualified for _, qualified, *_ in public_definitions()}
    assert {"cosine_matrix", "CorrelationSet", "CorrelationSet.batch",
            "EvalReport.save_json"} <= names
    assert not any(name.startswith("_") or "._" in name for name in names)


def private_crossings():
    """(file:line, module.name) of each underscore name a package module
    takes from another: ``from .x import _name`` or ``x._name``."""
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    found = []
    for path, tree in _modules(PACKAGE):
        others = modules - {os.path.basename(path)[:-3]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix("assph.")
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, names = node.value.id, [node.attr]
            else:
                continue
            if module in others:
                found += [(f"{os.path.basename(path)}:{node.lineno}", f"{module}.{name}")
                          for name in names if name.startswith("_")]
    return found


def test_no_private_name_crosses_a_module():
    crossings = private_crossings()
    assert not crossings, crossings


def test_each_kernel_is_shared_by_two_modules():
    kernels_path = os.path.join(PACKAGE, "kernels.py")
    users = {}
    for path, tree in _modules(PACKAGE):
        for node in ast.walk(tree):
            if (path != kernels_path and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "kernels"):
                users.setdefault(node.attr, set()).add(os.path.basename(path))
    with open(kernels_path) as fh:
        tree = ast.parse(fh.read(), filename=kernels_path)
    functions = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    alone = {name: sorted(users.get(name, ())) for name in functions
             if len(users.get(name, ())) < 2}
    assert functions and not alone, f"kernels used by fewer than two modules: {alone}"


def test_kernels_imports_numpy_and_errors_only():
    path = os.path.join(PACKAGE, "kernels.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported |= {"." * node.level + name for name in names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported <= {"__future__", "numpy", ".errors"}, imported
