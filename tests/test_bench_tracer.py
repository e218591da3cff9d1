"""The benchmark's span tracer still finds every function it wraps.

`perfbench/spans.py` wraps package functions in the namespaces that call them
(`schedgame.exact.greedy_schedule`, ...). A renamed function or a dropped
import there breaks only the slow benchmark run, so this loads the tracer as
it is and runs one op of each traced kind under it.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import schedgame
import schedgame.cli
from schedgame import gen_appendix_example

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(spans):
    for module_name, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(getattr(schedgame, module_name), attr)), (module_name, attr)
    for module_name, cls_name, attr, _, static in spans.METHODS:
        original = getattr(getattr(schedgame, module_name), cls_name).__dict__[attr]
        assert isinstance(original, staticmethod) == static, (cls_name, attr)


def test_traced_ops_record_counts(spans, tmp_path):
    instance = tmp_path / "appendix.json"
    instance.write_text(json.dumps(gen_appendix_example().to_json()))
    out = str(tmp_path / "out")
    tracer = spans.Tracer(schedgame)
    with tracer.installed():
        for op, command in enumerate(["simulate", "verify-bounds", "poa", "spne"]):
            tracer.op = op
            assert schedgame.cli.main([command, "-i", str(instance), "-o", out]) == 0
    assert schedgame.cli.greedy_schedule is schedgame.greedy.greedy_schedule
    # every span each op retains: a traced function called inside a search
    # loop would add one span per call here, and the traced benchmark run
    # rescans every retained span after each op
    per_op = [Counter(span.name for span in tracer.spans if span.op == op) for op in range(4)]
    front = {"cli.main": 1, "model.Instance.from_json": 1}
    assert per_op == [
        # simulate: 5 spans
        {**front, "greedy.greedy_schedule": 1, "model.trace_to_json": 1, "greedy.events_to_json": 1},
        # verify-bounds: 5 spans
        {**front, "greedy.greedy_schedule": 1, "analysis.check_multistage_chain": 1, "analysis.BoundReport.to_json": 1},
        # poa: 9 spans, greedy once plus three heuristic passes
        {
            **front,
            "analysis.price_of_anarchy": 1,
            "greedy.greedy_schedule": 4,
            "exact.optimal_makespan": 1,
            "analysis.PoAReport.to_json": 1,
        },
        # spne: 7 spans, the equilibrium and the greedy trace each rendered once
        {
            **front,
            "equilibrium.spne_solve": 1,
            "greedy.greedy_schedule": 1,
            "model.evaluate_schedule": 1,
            "model.trace_to_json": 2,
        },
    ]
    # two jobs through three stages; the appendix optimum 113 is below greedy's 606/5
    for span in tracer.spans:
        if span.name == "greedy.greedy_schedule":
            assert span.counts == {"decisions": 6, "snapshot_entries": 8}
        if span.name == "analysis.check_multistage_chain":
            assert span.counts == {"rows": 21}
        if span.name == "exact.optimal_makespan":
            assert span.counts["nodes"] > 0
