"""README.md cites only what exists, it and the package's docstrings and
comments quote no measurement, and its quickstarts run as written.

A repository path the README cites (``tests/...``, ``bench/...`` or
``src/...``) must exist, and each ``::Name`` after a path must be
defined in that file: a top-level function, class or assigned name,
then a method or nested class of the one before it.  A measured figure
(a number of ms, s, MB or bytes per pair) belongs in CHANGES.md, where
the tree it was measured on is named.  The quickstarts run with their
epochs cut to 1, so every flag, path and call they use is exercised.
"""

import ast
import glob
import io
import os
import re
import shlex
import tokenize

import pytest

from assph import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
CITED = re.compile(r"(?<![\w./-])((?:tests|bench|src)/[\w./-]*[\w/])((?:::\w+)*)")
FIGURE = re.compile(r"\d(?:[\d.,]*\d)?\s*(?:ms|s|MB|KB|GB)\b|bytes? per pair|B/pair")
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.M | re.S)


def _read(path=README):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _defined(path: str, names: list) -> bool:
    """Whether names[0] is defined at the top of the Python file and each
    later name in the body of the class before it."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), filename=path).body
    for name in names:
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                found = node
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name for t in node.targets):
                found = node
        if found is None:
            return False
        body = found.body if isinstance(found, ast.ClassDef) else []
    return True


def broken_references(text: str) -> list:
    """The cited paths that do not exist and the ::names not defined."""
    broken = []
    for match in CITED.finditer(text):
        path, names = match.group(1), match.group(2).split("::")[1:]
        full = os.path.join(ROOT, path)
        if not os.path.exists(full) or (names and not _defined(full, names)):
            broken.append(match.group(0))
    return broken


def figures(text: str) -> list:
    return [match.group(0) for match in FIGURE.finditer(text)]


def test_cited_paths_and_names_exist():
    assert not broken_references(_read())


def test_quotes_no_measurement():
    assert not figures(_read())


def prose(source: str) -> list:
    """(line, text) of each docstring and comment of Python source; its
    code, such as a struct format "<4s", is not prose."""
    found = [(tok.start[0], tok.string)
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                found.append((node.body[0].lineno, doc))
    return sorted(found)


def test_source_docs_quote_no_measurement():
    quoted = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "assph", "*.py"))):
        for line, text in prose(_read(path)):
            for match in FIGURE.finditer(text):
                at = line + text.count("\n", 0, match.start())
                quoted.append(f"{os.path.relpath(path, ROOT)}:{at}: {match.group(0)}")
    assert not quoted


def test_prose_is_docstrings_and_comments():
    source = ('"""Took 11 ms."""\n'
              'HEADER = "<4s"  # 2 MB a block\n'
              'def f():\n    """About 1.5 s."""\n    return "3 s"\n')
    assert [figure for _, text in prose(source) for figure in figures(text)] == [
        "11 ms", "2 MB", "1.5 s"]


@pytest.mark.parametrize("text, broken", [
    ("see `tests/test_cli.py::TestTrain::test_rerun_is_byte_identical`", []),
    ("`tests/test_check_sites.py::ENTRY_POINTS` and `bench/tests`.", []),
    ("`tests/test_cli.py::TestTrain::no_such_test`",
     ["tests/test_cli.py::TestTrain::no_such_test"]),
    ("`tests/test_cli.py::test_rerun_is_byte_identical`",
     ["tests/test_cli.py::test_rerun_is_byte_identical"]),
    ("`src/assph/nowhere.py` and bench/gone/", ["src/assph/nowhere.py", "bench/gone/"]),
])
def test_reference_check_finds_what_is_missing(text, broken):
    assert broken_references(text) == broken


@pytest.mark.parametrize("text, found", [
    ("it took 11 ms, then 1.6 s and 208 MB", ["11 ms", "1.6 s", "208 MB"]),
    ("a peak of about 16 bytes per pair, or 9.6 B/pair", ["bytes per pair", "B/pair"]),
    ("2 epochs of 32 bits at 4096 hidden units, NumPy 2.0, MAP@50", []),
])
def test_figure_check(text, found):
    assert figures(text) == found


def _blocks(language: str) -> list:
    return [body for lang, body in BLOCK.findall(_read()) if lang == language]


def quickstart_commands() -> list:
    """The argv of each `assph` command in the README's shell blocks, in
    order, with its epochs cut to 1."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["assph"]:
                if "--epochs" in argv:
                    argv[argv.index("--epochs") + 1] = "1"
                commands.append(argv[1:])
    return commands


def test_cli_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "train", "encode", "encode", "eval", "ablate"]
    for argv in commands:
        assert cli.dispatch(argv) == 0, (argv, capsys.readouterr().err)


def test_library_quickstart_runs(capsys):
    (block,) = _blocks("python")
    source, cut = re.subn(r"\bepochs=\d+", "epochs=1", block)
    assert cut == 1
    exec(compile(source, README, "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
