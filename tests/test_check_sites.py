"""Input checks sit where input enters the program, and nowhere below.

Every construction of a DataError or a ConfigError in ``src/assph``,
raised where it is built or built in a lambda or a callable and raised
elsewhere, must sit in a function on ENTRY_POINTS: a reader of a file,
the constructor of an object that checks itself when built, a library
entry point or a CLI handler.  The numeric stages below them receive
arrays the program built from checked inputs and trust them, so a check
there re-checks what already holds; it is code to delete, the way
test_api_surface.py treats a public name no program code uses.
DivergenceError is not restricted: it reports a runtime fault (a
non-finite loss or step, a collapsed embedding) wherever one arises.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "assph")
CHECKS = ("DataError", "ConfigError")

# module.function (module.Class.method) of every function allowed to raise
# a DataError or a ConfigError
ENTRY_POINTS = {
    # readers, and the read and the container codec every file reader shares
    "dataio._read_file", "dataio.Container.unpack",
    "dataio.validate_features", "dataio._read_features", "dataio.load_features",
    "dataio.validate_labels", "dataio._parse_labels",
    "dataio.read_json", "dataio.load_bundle", "hashnet.load_codes",
    # constructors of checked objects
    "config.LossWeights.__post_init__", "config.TrainConfig.__post_init__",
    "config.TrainConfig.from_dict", "config._coerce",
    "config.SynthConfig.__post_init__", "dataio.Split.validate",
    "dataio.DatasetBundle.__post_init__", "dataio.generate_synthetic",
    # library entry points
    "hashnet._check_forward_args", "evalkit._check_codes", "evalkit._check_pair",
    "evalkit.evaluate_direction",
    # the batch-size rule, which needs both a bundle and a config
    "trainer.init_state",
    # CLI handlers
    "cli._resolve_config", "cli._parse_int_list", "cli.cmd_ablate",
}


def check_sites():
    """(file:line, module.function) of each construction of a DataError or
    a ConfigError, and of each raise of the bare class, the function being
    the innermost one around it (a lambda counts as part of it)."""
    sites = []

    def visit(node, scope, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], filename)
                continue
            if isinstance(child, ast.Call):
                built = child.func
            elif isinstance(child, ast.Raise):
                built = child.exc
            else:
                built = None
            if isinstance(built, ast.Name) and built.id in CHECKS:
                sites.append((f"{filename}:{child.lineno}", ".".join(scope)))
            visit(child, scope, filename)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            visit(tree, [name[:-3]], name)
    return sites


def test_checks_sit_at_entry_points():
    below = [f"{where} {function}" for where, function in check_sites()
             if function not in ENTRY_POINTS]
    assert not below, "checks below the entry points:\n" + "\n".join(below)


def test_every_entry_point_holds_a_check():
    # a function that lost its last check leaves the list
    checking = {function for _, function in check_sites()}
    assert not ENTRY_POINTS - checking, sorted(ENTRY_POINTS - checking)


def test_finds_the_sites():
    functions = [function for _, function in check_sites()]
    assert {"config.TrainConfig.__post_init__", "evalkit.evaluate_direction",
            "cli._parse_int_list"} <= set(functions)
    # train_epoch's DivergenceError on a non-finite loss is not a check site
    assert "trainer.train_epoch" not in functions
