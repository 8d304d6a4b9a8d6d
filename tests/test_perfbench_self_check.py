"""The benchmark's tracer self-check, run with the unit tests.

perfbench/measure.py checks on every traced run that the tracer counts
the same predicate calls below verify(gen_trivial(47)) as its SELF_CHECK
constant.  This test runs that check in-process, reading the tracer and
the constant from perfbench/ without changing them, so a change to how
many orientation, disjointness or angle calls verify makes fails here
and not only in the benchmark.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from tilegate import tiling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure
    import tracer

    return measure, tracer


def test_verify_call_counts_match_the_perfbench_self_check(perfbench):
    measure, tracer = perfbench
    polygon = tiling.gen_trivial(measure.SELF_CHECK_N)
    t = tracer.Tracer()
    t.install()
    try:
        with t.op(-1, "selfcheck"):
            # looked up on the module, where install put the wrapper
            tiling.verify(polygon)
    finally:
        t.uninstall()
    assert tracer.verify_subtree_counts(t) == measure.SELF_CHECK
