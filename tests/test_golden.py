"""The CLI's outputs are byte-identical to the committed digests.

The digests in ``tests/golden/eval_digests.json`` and
``tests/golden/cli_digests.json`` were written by
``tests/golden/regenerate.py``; a mismatch means an output changed.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import regenerate  # noqa: E402


def _changed(want: dict, got: dict) -> list:
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def test_eval_outputs_match_golden_digests(capsys):
    with open(regenerate.DIGESTS) as fh:
        want = json.load(fh)["digests"]
    got = regenerate.eval_digests()
    capsys.readouterr()  # the eval summary lines
    changed = _changed(want, got)
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
    changed = _changed(want["digests"], got["digests"])
    assert not changed, (f"CLI outputs differ from the golden digests: {changed}; "
                         f"if the change is intended, run `{regenerate.REGENERATE}` "
                         f"and name it in CHANGES.md")
