"""Mutated tiling documents through `tilegate verify --json`, in process.

Each document starts as a valid tiling file: the fans of the 5-gon and
the 8-gon, or an altitude-refined 8-gon with T-junctions.  One to three
of its nodes (a key's value or a list item, at any depth) are then
replaced by a value from a fixed list, replaced by a copy of another
node, or deleted.  The list holds what a loader must refuse or bound:
fraction texts outside the grammar, "1/0", texts of 300 and 301 digits,
coefficients within 10**-60 of zero, NaN, 2**64, true, null, [] and {}.

Whatever the document, the command line ends in a verdict (exit 0 or 1,
nothing on stderr) or in one short error line (exit 2): never a
traceback, and never after more than a few seconds.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refined
from tilegate.cli import main
from tilegate.tiling import gen_trivial

VALUES = [
    "1/-2", "0.5", "1e3", " 1", "1/", "/2", "+1", "--1", "1//2", "١", "",
    "1/0",
    "9" * 300, "9" * 301, "1/" + "9" * 300, "-" + "9" * 301,
    "1/1" + "0" * 60, "-1/1" + "0" * 60, "3/1" + "0" * 60,
    float("nan"), 2**64, True, None, [], {},
]


@lru_cache(maxsize=None)
def document(name: str) -> str:
    t = {"fan-5": lambda: gen_trivial(5), "fan-8": lambda: gen_trivial(8),
         "refined-8": lambda: refined(8, 32, 3)}[name]()
    return json.dumps(t.to_obj())


def paths(node, prefix=()):
    # the path of every node below the root, as a tuple of keys and indices
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from paths(child, (*prefix, key))


def at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def documents(draw):
    doc = json.loads(document(draw(st.sampled_from(["fan-5", "fan-8", "refined-8"]))))
    for _ in range(draw(st.integers(1, 3))):
        where = list(paths(doc))
        if not where:
            break
        path = draw(st.sampled_from(where))
        parent, key = at(doc, path[:-1]), path[-1]
        how = draw(st.sampled_from(["value", "copy", "delete"]))
        if how == "delete":
            del parent[key]
        elif how == "copy":
            parent[key] = copy.deepcopy(at(doc, draw(st.sampled_from(where))))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "tiling.json")


@settings(max_examples=150, deadline=None)
@given(doc=documents())
def test_mutated_documents_end_in_a_verdict_or_one_error_line(fuzz_file, doc):
    with open(fuzz_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", fuzz_file, "--json"])
    elapsed = time.perf_counter() - start
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert (code == 2) == bool(text)
    assert text.count("\n") <= 1 and len(text) < 300
    assert "Traceback" not in text
    assert elapsed < 5
