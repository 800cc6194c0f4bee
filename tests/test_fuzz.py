"""Property: any JSON value given to the document parsers yields a result or
an ``MplfError``, never another exception.

Documents are drawn by replacing one node of a bundled document (the whole
document included) with an arbitrary JSON value, so most examples get past
the top-level checks and reach the assembly and index lookups.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import mplf
from mplf.datafiles import bundled_path

NETWORK = json.loads(bundled_path("three_bus_network.json").read_text())
INJECTIONS = json.loads(bundled_path("three_bus_injections.json").read_text())
MODEL = mplf.network_from_json(NETWORK)

# Deterministic, bounded and without an example database on disk.
FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=200)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["a", "ab", "abc", "ca", "sub", "mid", "end"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutated(doc):
    return st.builds(replaced, st.just(doc), st.sampled_from(list(node_paths(doc))), JSON_VALUES)


def parses_or_rejects(parse, doc):
    try:
        parse(doc)
    except mplf.MplfError:
        pass


@FUZZ
@given(mutated(NETWORK))
def test_network_documents(doc):
    parses_or_rejects(mplf.network_from_json, doc)


@FUZZ
@given(mutated(INJECTIONS))
def test_injection_documents(doc):
    parses_or_rejects(lambda d: mplf.injections_from_json(d, MODEL), doc)
