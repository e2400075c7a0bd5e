"""Every library name the benchmark's tracer patches must exist.

bench/layers.py swaps names for timing wrappers by attribute, so a rename
or deletion in the library would only surface when the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_exist():
    layers = load_layers()
    enum = importlib.import_module("distcrit.enumeration")
    names = [(enum, name) for name, _, _ in layers.ENUMERATION]
    names += [(importlib.import_module(f"distcrit.{mod}"), name)
              for mod, name, _, _ in layers.OTHERS]
    names.append((enum, "_pool_worker"))
    missing = [f"{module.__name__}.{name}" for module, name in names
               if not callable(getattr(module, name, None))]
    assert missing == []
