"""``assph eval``'s outputs are byte-identical to the committed digests.

The digests in ``tests/golden/eval_digests.json`` were written by
``tests/golden/regenerate.py``; a mismatch means an output changed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import regenerate  # noqa: E402


def test_eval_outputs_match_golden_digests(capsys):
    with open(regenerate.DIGESTS) as fh:
        want = json.load(fh)["digests"]
    got = regenerate.eval_digests()
    capsys.readouterr()  # the eval summary lines
    changed = sorted(key for key in want.keys() | got.keys()
                     if want.get(key) != got.get(key))
    assert not changed, (f"eval outputs differ from the golden digests: {changed}; "
                         f"if the change is intended, run `{regenerate.REGENERATE}` "
                         f"and name it in CHANGES.md")
