"""The CLI's outputs and --help are byte-identical to the committed files.

The digests in ``tests/golden/eval_digests.json`` and
``tests/golden/cli_digests.json`` and the text in ``tests/golden/help.txt``
were written by ``tests/golden/regenerate.py``; a mismatch means an
output or a flag changed.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import regenerate  # noqa: E402


def test_eval_outputs_match_golden_digests(capsys):
    with open(regenerate.DIGESTS) as fh:
        want = json.load(fh)["digests"]
    got = regenerate.eval_digests()
    capsys.readouterr()  # the eval summary lines
    changed = regenerate.changed(want, got)
    assert not changed, (f"eval outputs differ from the golden digests: {changed}; "
                         f"if the change is intended, run `{regenerate.REGENERATE}` "
                         f"and name it in CHANGES.md")


def test_cli_outputs_match_golden_digests():
    """build-sim, train, encode and ablate outputs; their float sums depend
    on the BLAS build, its thread count and the CPU, so the digests only
    bind in the environment that recorded them."""
    with open(regenerate.CLI_DIGESTS) as fh:
        want = json.load(fh)
    got = regenerate.pinned_cli_digests()
    if got["environment"] != want["environment"]:
        pytest.skip(f"CLI digests were recorded on {want['environment']}, "
                    f"this environment is {got['environment']}")
    changed = regenerate.changed(want["digests"], got["digests"])
    assert not changed, (f"CLI outputs differ from the golden digests: {changed}; "
                         f"if the change is intended, run `{regenerate.REGENERATE}` "
                         f"and name it in CHANGES.md")


def test_help_matches_golden_text():
    """The --help of assph and of each subcommand, at a fixed width."""
    with open(regenerate.HELP) as fh:
        want = fh.read()
    assert regenerate.help_text() == want, (
        f"--help differs from {regenerate.HELP}; if the change is intended, "
        f"run `{regenerate.REGENERATE}` and name it in CHANGES.md")


def test_block_budget_changes_no_output(tmp_path, monkeypatch, capsys):
    """Every walk kernels.BLOCK_ENTRIES sizes gives the same bytes at a
    small odd budget as at the default: build-sim and train on the CLI
    fixture, eval on the 64-bit eval fixture."""
    from assph import cli, kernels

    bundle = str(tmp_path / "bundle")
    regenerate.write_bundle(bundle)
    codes = regenerate.write_fixture(str(tmp_path), 64)
    runs = []
    for budget in (kernels.BLOCK_ENTRIES, 7):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", budget)
        run = str(tmp_path / f"budget{budget}")
        for argv in (
                ["build-sim", "--bundle", bundle, "--out", os.path.join(run, "sim")],
                ["train", "--bundle", bundle, "--out", os.path.join(run, "train")],
                ["eval", "--query-codes", codes["query_image"],
                 "--db-codes", codes["db_text"], "--query-labels", codes["query_labels"],
                 "--db-labels", codes["db_labels"], "--map-at", regenerate.MAP_AT,
                 "--out", os.path.join(run, "eval")]):
            flags = regenerate.TRAIN_FLAGS if argv[0] != "eval" else []
            assert cli.dispatch(argv + flags) == 0, capsys.readouterr().err
        runs.append(regenerate.tree_digests(run, str(tmp_path)))
    capsys.readouterr()  # the commands' summary lines
    assert {"sim/semantic.assf", "sim/correlations.csv", "train/imgnet.assp",
            "train/history.jsonl", "train/db_text.assb", "eval/report.json"} <= runs[0].keys()
    assert regenerate.changed(runs[0], runs[1]) == []
