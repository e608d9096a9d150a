"""The entry points that the benchmark's span recorder wraps.

``perfbench/spans.py`` resolves every one of them on every benchmark run,
traced or not, so a renamed or deleted entry point fails every run.
"""

import importlib
from pathlib import Path

from frozenrank import harness, randgraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    for target in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
        importlib.import_module(f"frozenrank.{target.module}")
        _, _, fn = spans._resolve(target)
        assert callable(fn), target.name
    # the recorder wraps harness's own global sample_graph too
    assert harness.__dict__["sample_graph"] is randgraph.sample_graph
