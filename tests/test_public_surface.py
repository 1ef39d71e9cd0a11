"""The package's public names and the functions the benchmark traces resolve.

``perfbench/tracing.py`` wraps each ``LAYERS`` entry by name in the module
``teleportlab.<layer>``; a deleted or moved function would otherwise only
show up in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import teleportlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_public_name_resolves():
    missing = [name for name in teleportlab.__all__
               if not hasattr(teleportlab, name)]
    assert missing == []


def test_every_traced_name_lives_in_its_layer():
    misplaced = []
    for layer, funcs in _traced_layers().items():
        module = importlib.import_module(f"teleportlab.{layer}")
        for func in funcs:
            obj = module
            for part in func.split("."):
                obj = getattr(obj, part, None)
            if getattr(obj, "__module__", None) != module.__name__:
                misplaced.append(f"{layer}.{func}")
    assert misplaced == []
