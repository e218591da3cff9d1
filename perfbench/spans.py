"""Span recorders wrapped around the package's public functions.

`Tracer.installed()` replaces each function in the namespace that calls it
(`schedgame.cli.greedy_schedule`, `schedgame.exact.greedy_schedule`, ...)
with a wrapper that records a span: name, start, end, parent span and op
id, plus the counts the return value carries. The originals are restored on
exit. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name). A function is wrapped in every namespace
# that calls it, so a span's name says which layer did the work.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "greedy_schedule", "greedy.greedy_schedule"),
    ("analysis", "greedy_schedule", "greedy.greedy_schedule"),
    ("exact", "greedy_schedule", "greedy.greedy_schedule"),
    ("equilibrium", "greedy_schedule", "greedy.greedy_schedule"),
    ("cli", "events_to_json", "greedy.events_to_json"),
    ("cli", "trace_to_json", "model.trace_to_json"),
    ("equilibrium", "evaluate_schedule", "model.evaluate_schedule"),
    ("cli", "check_multistage_chain", "analysis.check_multistage_chain"),
    ("cli", "price_of_anarchy", "analysis.price_of_anarchy"),
    ("analysis", "optimal_makespan", "exact.optimal_makespan"),
    ("analysis", "single_stage_optimal", "exact.single_stage_optimal"),
    ("cli", "spne_solve", "equilibrium.spne_solve"),
    ("cli", "gen_random", "generators.gen_random"),
    ("cli", "gen_appendix_example", "generators.gen_appendix_example"),
)
# (module, class, method, span name, is staticmethod)
METHODS = (
    ("model", "Instance", "from_json", "model.Instance.from_json", True),
    ("analysis", "BoundReport", "to_json", "analysis.BoundReport.to_json", False),
    ("analysis", "PoAReport", "to_json", "analysis.PoAReport.to_json", False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, result) -> dict:
    if name == "greedy.greedy_schedule":
        events = result[1]
        return {"decisions": len(events), "snapshot_entries": sum(len(e.loads) for e in events)}
    if name == "analysis.check_multistage_chain":
        return {"rows": len(result.rows)}
    if name.startswith("exact."):
        return {"nodes": result.nodes}
    return {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in FUNCTIONS:
                module = getattr(self.package, module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            for module_name, cls_name, attr, name, static in METHODS:
                cls = getattr(getattr(self.package, module_name), cls_name)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                fn = original.__func__ if static else original
                setattr(cls, attr, staticmethod(self._wrap(name, fn)) if static else self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def child_seconds(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return covered

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def layer_metrics(tracer: Tracer, counted_ops: set[int], traced_ops: int, gen_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Times are per op, averaged over every traced op; counts are totals over
    `counted_ops` (one pass over the corpus), so they repeat exactly.
    `gen_ops` are the op ids of corpus generation; only their generator
    spans count, as `generators.gen_ms` for the whole corpus.
    """
    covered = tracer.child_seconds()
    secs: dict[str, float] = {}
    self_secs: dict[str, float] = {}
    counts: dict[str, int] = {}
    exact_calls = search_free = 0
    exact_secs_counted = 0.0
    greedy_secs_counted = 0.0
    for index, span in enumerate(tracer.spans):
        if span.op in gen_ops:
            if span.name.startswith("generators."):
                secs["generators"] = secs.get("generators", 0.0) + span.seconds
            continue
        secs[span.name] = secs.get(span.name, 0.0) + span.seconds
        self_secs[span.name] = self_secs.get(span.name, 0.0) + span.seconds - covered[index]
        if span.op in counted_ops:
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
            if span.name.startswith("exact."):
                exact_calls += 1
                exact_secs_counted += span.seconds
                search_free += span.counts["nodes"] == 0
            if span.name == "greedy.greedy_schedule":
                greedy_secs_counted += span.seconds

    def per_op_ms(*names: str, table=secs) -> float:
        return 1000 * sum(table.get(name, 0.0) for name in names) / traced_ops

    decisions = counts.get("greedy.greedy_schedule.decisions", 0)
    nodes = counts.get("exact.optimal_makespan.nodes", 0) + counts.get("exact.single_stage_optimal.nodes", 0)
    return {
        "greedy.schedule_ms": per_op_ms("greedy.greedy_schedule"),
        "greedy.decisions": decisions,
        "greedy.us_per_decision": 1e6 * greedy_secs_counted / decisions if decisions else 0.0,
        "greedy.snapshot_entries": counts.get("greedy.greedy_schedule.snapshot_entries", 0),
        "greedy.events_to_json_ms": per_op_ms("greedy.events_to_json"),
        "analysis.chain_ms": per_op_ms("analysis.check_multistage_chain"),
        "analysis.chain_rows": counts.get("analysis.check_multistage_chain.rows", 0),
        "analysis.report_to_json_ms": per_op_ms("analysis.BoundReport.to_json"),
        "analysis.poa_self_ms": per_op_ms("analysis.price_of_anarchy", table=self_secs),
        "model.parse_ms": per_op_ms("model.Instance.from_json"),
        "model.trace_to_json_ms": per_op_ms("model.trace_to_json"),
        "model.evaluate_schedule_ms": per_op_ms("model.evaluate_schedule"),
        "cli.self_ms": per_op_ms("cli.main", table=self_secs),
        "exact.optimal_ms": per_op_ms("exact.optimal_makespan", "exact.single_stage_optimal"),
        "exact.nodes": nodes,
        "exact.nodes_per_s": nodes / exact_secs_counted if exact_secs_counted else 0.0,
        "exact.search_free_ratio": search_free / exact_calls if exact_calls else 0.0,
        "equilibrium.spne_ms": per_op_ms("equilibrium.spne_solve"),
        "equilibrium.spne_self_ms": per_op_ms("equilibrium.spne_solve", table=self_secs),
        "generators.gen_ms": 1000 * secs.get("generators", 0.0),
    }
