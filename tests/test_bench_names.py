"""Every library name the benchmark's tracer patches must exist, and the
tracer must still count what it was written to count.

bench/layers.py swaps names for timing wrappers by attribute, so a rename
or deletion in the library, or a call that stops passing what a wrapper
reads (k, the second positional argument of _child_states), would only
surface when the benchmark runs.
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


def test_tracer_counts_the_census():
    layers = load_layers()
    run_enumeration = importlib.import_module("distcrit").run_enumeration
    untraced = run_enumeration(7)[0].to_json_dict()
    modules = [importlib.import_module(f"distcrit.{mod}")
               for mod in ("enumeration", "verify", "criticality", "cli")]
    before = {module: dict(vars(module)) for module in modules}
    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = [(module, name) for module, name, _ in tracer._undo]
        assert patched and all(getattr(module, name) is not
                               before[module][name]
                               for module, name in patched)
        traced = run_enumeration(7)[0].to_json_dict()
    finally:
        tracer.uninstall()
    assert traced == untraced
    states = tracer.recs["enumeration.child_states"]
    # 143 parents on 1..6 vertices, their 7,815 candidate subsets and the
    # 995 graphs on 2..7 vertices they accept
    assert (states[layers.CALLS], states[layers.HITS],
            states[layers.ITEMS]) == (143, 7815, 995)
    # every canonical search the census makes goes through the name the
    # tracer wraps, enumeration._search: 65 at n = 7.  A search routed
    # around it would read 0 in the canon.search metrics
    assert tracer.recs["canon.search"][layers.CALLS] == 65
    assert all(getattr(module, name) is before[module][name]
               for module, name in patched)


def test_every_traced_enumeration_name_is_called():
    # A name the tracer wraps but the census no longer calls reads 0 in
    # every per-layer metric built on it.  The two import shims are kept
    # only so that the tracer finds them; the census calls neither.
    shims = {"_is_critical_fast", "_articulation_mask"}
    layers = load_layers()
    run_enumeration = importlib.import_module("distcrit").run_enumeration
    tracer = layers.Tracer()
    tracer.install()
    try:
        run_enumeration(7)
    finally:
        tracer.uninstall()
    uncalled = [name for name, key, _ in layers.ENUMERATION
                if name not in shims and not tracer.recs[key][layers.CALLS]]
    assert uncalled == []
