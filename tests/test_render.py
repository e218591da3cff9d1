"""`cli._dumps` and the table renderers against `json.dumps(..., indent=2)`, which they replace byte for byte."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schedgame import BoundReport, ScheduleTrace, StageSpec, check_multistage_chain, cli, gen_random
from schedgame.greedy import GreedyLog, events_to_json
from schedgame.model import JSONText, trace_to_json

from helpers import checked_traces, naive_chain, naive_events_json, naive_report_json, naive_trace_json


def reference(value) -> str:
    return json.dumps(value, indent=2)


def plain(value):
    """`value` with each `JSONText` in it replaced by the value it stands for."""
    if isinstance(value, JSONText):
        return json.loads(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


# every code point, lone surrogates included, with the characters JSON escapes drawn often
special = st.sampled_from(
    ['"', "\\", "\u2028", "\u2029", "\ud800", "\udfff", "\x00", "\x1f", "\x7f", "%", "\xe9", "\U0001f600"]
)
texts = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()) | special)
ints = st.integers() | st.integers(-(10**1000), 10**1000)
scalars = texts | ints | st.booleans() | st.none()
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
    ),
    max_leaves=40,
)

CELLS = {
    "str": texts,
    "int": ints,
    "bool": st.booleans(),
    "none": st.none(),
    "strs": st.lists(texts, max_size=4),
    "tree": trees,
}


@st.composite
def row_lists(draw):
    """Rows of one shape that change key order, keys or cell types partway through."""
    keys = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(sorted(CELLS))) for _ in keys]

    def row(keys, kinds):
        return {key: draw(CELLS[kind]) for key, kind in zip(keys, kinds)}

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        change = draw(st.sampled_from(["none", "none", "reorder", "rekey", "retype", "int-bool", "not-dict"]))
        row_keys, row_kinds = list(keys), list(kinds)
        if change == "reorder":
            order = draw(st.permutations(range(len(keys))))
            row_keys, row_kinds = [keys[i] for i in order], [kinds[i] for i in order]
        elif change == "rekey":
            i = draw(st.integers(0, len(keys) - 1))
            new = draw(texts.filter(lambda k: k not in keys))
            row_keys[i] = new
        elif change == "retype":
            i = draw(st.integers(0, len(keys) - 1))
            row_kinds[i] = draw(st.sampled_from(sorted(CELLS)))
        elif change == "not-dict":
            rows.append(draw(trees))
            continue
        made = row(row_keys, row_kinds)
        if change == "int-bool":
            # a bool where the first row has an int, or an int where it has a bool
            for key, kind in zip(keys, kinds):
                if kind == "int":
                    made[key] = draw(st.booleans())
                elif kind == "bool":
                    made[key] = draw(st.integers(0, 1))
        rows.append(made)
    return rows


class TestDifferential:
    @settings(max_examples=200)
    @given(trees)
    def test_trees(self, value):
        assert cli._dumps(value) == reference(value)

    @settings(max_examples=200)
    @given(row_lists(), st.integers(0, 3))
    @example([{"job": 0, "holds": True}, {"job": True, "holds": 1}], 0)
    @example([{"a%s": "%d", "%": "%%"}, {"a%s": "%(x)s", "%": "%"}], 1)
    def test_row_lists(self, rows, depth):
        value = rows
        for _ in range(depth):
            value = {"rows": value, "n": len(rows)}
        assert cli._dumps(value) == reference(value)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            (),
            [[]],
            [{}],
            [{}, {"a": 1}],
            [{"a": 1}, {}],
            [{"a": 1}, {"a": 2}, ["a"], {"a": 3}],
            ["a", 1, "b"],
            ["a", ["b"], None],
            [{"a": [{"b": 1}, {"b": 2}]}, {"a": [{"b": 3}]}],
            {"deep": [[{"x": "y"}], [{"x": 1}]]},
            {"big": 10**4000, "neg": -(10**4000), "zero": 0},
        ],
        ids=repr,
    )
    def test_edge_shapes(self, value):
        assert cli._dumps(value) == reference(value)

    @settings(max_examples=100)
    @given(trees, trees)
    def test_json_text_splices_at_any_depth(self, inner, outer):
        # as a dict value, a list item among strings, and a cell of same-shaped rows
        text = JSONText(reference(inner))
        for value in ({"a": text, "b": outer}, ["a", text, "b"], [{"a": 1, "b": text}, {"a": 2, "b": text}, outer]):
            assert cli._dumps(value) == reference(plain(value))

    def test_int_too_long_for_str_raises_like_json(self):
        value = [{"a": 10**5000}]
        with pytest.raises(ValueError):
            reference(value)
        with pytest.raises(ValueError):
            cli._dumps(value)


class TestRefusals:
    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            F(1, 3),
            {"a": 0.0},
            [1, 2.0],
            [{"a": 1}, {"a": F(1, 2)}],
            [{"a": F(1, 2)}],
            ["a", b"b"],
            {"a": {1, 2}},
            {1: "a"},
            {None: "a"},
            {("a",): "a"},
            {True: "a"},
            [{1: "a"}],
            [{"a": 1}, {1: "a"}],
        ],
        ids=repr,
    )
    def test_type_error(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)


def random_plan(data, instance):
    plan = []
    for spec in instance.stages:
        counts: dict[int, int] = {}
        stage = [None] * instance.n
        for j in data.draw(st.permutations(range(instance.n))):
            machine = data.draw(st.integers(0, spec.machines - 1))
            stage[j] = [machine, counts.get(machine, 0)]
            counts[machine] = counts.get(machine, 0) + 1
        plan.append(stage)
    return plan


class TestTableRenderers:
    """Each table renderer's text is `json.dumps(oracle, indent=2)` for its naive dict oracle.

    The traces are greedy play, replays of random plans (whose machines wait
    for a late job while an earlier one is queued) and hand-built traces
    whose `scale` is the lcm of random times, not the instance's time grid.
    """

    @settings(max_examples=150, deadline=None)
    @given(checked_traces(), st.integers(0, 100))
    def test_text_equals_the_oracle_dump(self, case, precision):
        inst, trace = case
        assert trace_to_json(trace, precision) == reference(naive_trace_json(trace, precision))
        log = GreedyLog(trace, inst.stages)
        assert events_to_json(log, precision) == reference(naive_events_json(list(log), precision))
        rows, params = naive_chain(inst, trace)
        oracle = naive_report_json("stage-chain", None, rows, params, None, precision)
        assert check_multistage_chain(inst, trace).to_json(precision) == reference(oracle)


class TestMemoScope:
    """Each distinct tick renders once per call and column kind, never from an earlier call's text."""

    GRID = (((0, 0, 0, 3), (1, 3, 4, 6)), ((1, 0, 0, 6), (0, 6, 6, 9)))
    STAGES = (StageSpec(2, F(1)), StageSpec(2, F(3, 2)))

    def test_same_ticks_on_other_scales_and_precisions(self):
        # back to back, the same tick ints: on another scale they are other times
        for scale, precision in [(1, 6), (2, 6), (3, 6), (2, 0), (7, 100), (3, 2)]:
            trace = ScheduleTrace(scale, self.GRID, 9)
            assert trace_to_json(trace, precision) == reference(naive_trace_json(trace, precision))
            log = GreedyLog(trace, self.STAGES)
            assert events_to_json(log, precision) == reference(naive_events_json(list(log), precision))
            report = BoundReport("test", 0, (("a", 3, 6), ("b", 6, 3), ("c", 9, 9)), scale, {})
            rows = [(label, F(lhs, scale), F(rhs, scale)) for label, lhs, rhs in report.grid]
            assert report.to_json(precision) == reference(naive_report_json("test", 0, rows, {}, None, precision))


class TestCliPayloads:
    """Every JSON payload the CLI writes, at every precision, equals the json module's text."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 3), st.integers(0, 100), st.data())
    def test_payloads_at_every_precision(self, seed, n, k, precision, data):
        instance = gen_random(n, k, seed=seed)
        seen = []

        def checked(payload):
            text = real(payload)
            # a trace spliced in at depth 1 (simulate, spne) must read as if nested
            assert text == reference(plain(payload))
            seen.append(payload)
            return text

        real = cli._dumps
        with tempfile.TemporaryDirectory() as tmp:
            path, plan = Path(tmp) / "instance.json", Path(tmp) / "plan.json"
            path.write_text(json.dumps(instance.to_json()))
            plan.write_text(json.dumps(random_plan(data, instance)))
            argvs = [
                ["simulate"],
                ["simulate", "--plan", str(plan)],
                ["verify-bounds"],
                ["verify-bounds", "--plan", str(plan)],
                ["verify-bounds", "--with-opt"],
                ["poa"],
                ["optimal", "--emit-witness", "-"],
            ]
            if n <= 3 or k <= 2:
                argvs.append(["spne"])
            with mock.patch.object(cli, "_dumps", checked), contextlib.redirect_stdout(io.StringIO()) as out:
                for argv in argvs:
                    assert cli.main([*argv, "-i", str(path), "--precision", str(precision)]) in (0, 1)
        assert len(seen) == len(argvs)
        assert "events" in seen[0] and seen[0]["events"]
        assert out.getvalue()
