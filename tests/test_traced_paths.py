"""Every attribute the benchmark's tracer patches exists where it looks.

``bench/tracing.py`` wraps each path of ``TRACED`` by reading
``owner.__dict__[attr]``, so a path whose name a refactor moved or
dropped (``corrmine.cosine_matrix`` or ``corrmine.knn_adjacency``, say)
fails a traced benchmark run with a ``KeyError``.  This test reads
``bench/`` only; it patches nothing.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracing  # noqa: E402

PATHS = sorted({path for paths in tracing.TRACED.values() for path in paths})


@pytest.mark.parametrize("path", PATHS)
def test_traced_path_resolves_through_its_owners_dict(path):
    module, *owner_path, attr = path.split(".")
    owner = importlib.import_module(f"assph.{module}")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{path}: no {attr!r} in {owner.__name__}"
    assert callable(owner.__dict__[attr])

