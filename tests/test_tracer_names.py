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


LAYERS = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
import mplf
from mplf.datafiles import bundled_path

tracer = tracing.Tracer()
tracer.install()
tracer.op = 0
network = bundled_path("ieee37_network.json")
model = mplf.network_from_file(network)
inj = mplf.injections_from_file(bundled_path("ieee37_injections_mixed.json"), model)
profile = mplf.zero_load_voltage(model)
mplf.feasible_interval(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
tracer.op = None
names = [span[0] for span in tracer.spans]
parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
assert parents.get("netmodel.assemble") == "netmodel.parse", parents
assert parents.get("netmodel.factor") == "netmodel.assemble", parents
assert "netmodel.yll_inverse" in names, names
"""


def test_reader_and_lazy_inverse_stay_visible_to_the_tracer():
    # The reader still reaches the model through netmodel.assemble_network,
    # and a fresh model's first certificate still builds yll_inverse, so the
    # benchmark's netmodel.assemble and netmodel.yll_inverse layers are seen.
    out = subprocess.run(
        [sys.executable, "-c", LAYERS, str(BENCH)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
