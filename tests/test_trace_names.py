"""The benchmark's tracer wraps potflow functions by name, so a renamed or
deleted name would break ``perfbench/run.py --trace 1`` at install time."""

import functools
import importlib
import importlib.util
from pathlib import Path

from potflow import surface

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded from its path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = [(mod, attr) for mod, attrs in tracing.SPAN_LAYERS.values()
             for attr in attrs] + list(tracing.COUNTED.values())
    missing = []
    for mod, attr in names:
        owner = importlib.import_module(f"potflow.{mod}")
        try:
            functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{mod}.{attr}")
    assert len(names) > 30 and not missing, missing
    # the tracer reads the hits and misses of this cache
    assert callable(surface.torus_green_constant.cache_info)
