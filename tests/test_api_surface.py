"""Every public name of the package is used by the program itself.

A public top-level function or class of ``src/assph``, or a public
method of such a class, must be used somewhere in ``src`` or ``bench``
outside its own definition; a name only the tests call is surface to
delete, not to keep.  In ``src`` a use is a bare name, an attribute, or
one component of a dotted string such as the ``"evalkit.rank"`` the
benchmark's tracer patches.  In ``bench`` only attributes and dotted
strings count: the benchmark reaches the package through its modules, and
a bare name there is one of the benchmark's own, such as its input
writers.
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
    assert {"cosine_matrix", "CorrelationSet", "CorrelationSet.union",
            "EvalReport.save_json"} <= names
    assert not any(name.startswith("_") or "._" in name for name in names)
