"""The benchmark's tracer binds mplf's functions by module and name; check
that every name it lists still resolves, so a rename cannot silently drop a
layer from the per-module timings."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import functools, importlib, sys
sys.path.insert(0, sys.argv[1])
import tracing
from mplf.netmodel import NetworkModel

def lazy_inverse():
    return isinstance(NetworkModel.__dict__.get("yll_inverse"), functools.cached_property)

assert lazy_inverse(), "NetworkModel.yll_inverse is not a functools.cached_property"
tracing.Tracer().install()
for module, attr in tracing.FUNCTIONS:
    fn = getattr(importlib.import_module("mplf." + module), attr, None)
    assert hasattr(fn, "__wrapped__"), f"mplf.{module}.{attr} is not traced"
assert lazy_inverse(), "the traced yll_inverse is not a functools.cached_property"
"""


def test_tracer_names_resolve():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
