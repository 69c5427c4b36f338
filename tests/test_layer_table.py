"""The benchmark's per-layer table names code that exists.

`benchmark/layers.py` wraps each target by name and skips one the package
lacks, so a renamed function would read 0 calls and 0 s without an error.
"""

import importlib
import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmark", "layers.py")

# deleted from linalg long ago; still listed in the table
STALE = {("linalg", "rank")}


def _layers():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves():
    layers = _layers()
    missing = set()
    for mod_name, attr, *_rest in layers.FUNCTIONS:
        module = importlib.import_module(f"fieldsep.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.add((mod_name, attr))
    assert missing <= STALE, missing - STALE
    for mod_name, cls_name, methods, _layer in layers.METHODS:
        cls = getattr(importlib.import_module(f"fieldsep.{mod_name}"),
                      cls_name)
        for meth in methods:
            assert callable(cls.__dict__.get(meth)), (cls_name, meth)
