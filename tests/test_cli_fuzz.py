"""Fuzz every subcommand with generated and malformed instances, plans and limits.

Each call must return exit code 0, 1 or 2 and print no traceback. In process,
an exception escaping `main` is the traceback a shell would print, so the
call itself must not raise. Every trace a call prints must pass
`validate_trace`. Instances stay at n <= 4, k <= 3, m <= 3 and no limit string
raises a solver cap, so each call is quick.
"""

import contextlib
import csv
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schedgame import Instance, ScheduleTrace, StageRecord, gen_appendix_example, gen_random, validate_trace
from schedgame.cli import FAMILIES, main

# JSON values a field may hold instead of what the schema asks for
JUNK = st.one_of(
    st.sampled_from(
        [None, True, False, 0, -1, 2, 10**6 + 1, 10**99, 2.5, float("inf"), float("nan"),
         "", "0", "-1", "1/0", "abc", "1e999999", "1/3", " 7 ", "1e-99", "٣", "\ud800"]
    ),
    st.text(max_size=6),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["size", "machines", "speed", "0"]), st.integers(-1, 3), max_size=2),
)
# text that is not the JSON asked for, or not JSON at all
JUNK_TEXT = st.one_of(
    st.sampled_from(
        ["", "{", "[]", "{}", "null", "{not json", "[" * 100_000, '{"a":' * 100_000, "1" * 5000, "﻿{}"]
    ),
    st.text(max_size=20),
    JUNK.map(json.dumps),
)


@st.composite
def instance_texts(draw):
    """Instance JSON: valid, with one field swapped for junk or dropped, or junk text."""
    kind = draw(st.sampled_from(["valid", "field", "entry", "drop", "text"]))
    if kind == "text":
        return draw(JUNK_TEXT)
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    data = gen_random(n, k, seed=draw(st.integers(0, 10**6))).to_json()
    if kind == "valid":
        return json.dumps(data)
    if kind == "field":
        owner = draw(st.sampled_from([data, *data["stages"], *data["jobs"]]))
        owner[draw(st.sampled_from([*owner, "extra"]))] = draw(JUNK)
    elif kind == "entry":
        entries = data[draw(st.sampled_from(["stages", "jobs"]))]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(JUNK)
    else:
        owner = draw(st.sampled_from([data, *data["stages"], *data["jobs"]]))
        del owner[draw(st.sampled_from(sorted(owner)))]
    return json.dumps(data)


def parse_instance(text):
    try:
        return Instance.from_json(json.loads(text))
    except (ValueError, RecursionError):
        return None


@st.composite
def plan_texts(draw, instance):
    """Plan JSON: a random complete plan for `instance`, a plan-shaped list, or junk."""
    kind = draw(st.sampled_from(["valid", "shape", "text"]))
    if kind == "valid" and instance is not None:
        plan = []
        for spec in instance.stages:
            machine = draw(st.lists(st.integers(0, spec.machines - 1), min_size=instance.n, max_size=instance.n))
            stage, queued = [None] * instance.n, [0] * spec.machines
            for j in draw(st.permutations(range(instance.n))):
                stage[j] = [machine[j], queued[machine[j]]]
                queued[machine[j]] += 1
            plan.append(stage)
        return json.dumps(plan)
    if kind == "shape":
        # near-pairs: a float, bool or numeric-string item, or a third item
        item = st.one_of(st.integers(-1, 3), st.sampled_from([0.0, 0.9, 1.5, True, False, "0", "1", " 2"]))
        entry = st.one_of(
            st.lists(st.integers(-1, 3), min_size=2, max_size=2),
            st.lists(item, min_size=2, max_size=2),
            st.lists(st.integers(-1, 3), min_size=3, max_size=3),
            JUNK,
        )
        return json.dumps(draw(st.lists(st.lists(entry, max_size=5), max_size=4)))
    return draw(JUNK_TEXT)


LIMIT_KEYS = ["max_jobs", "max_jobs_multistage", "max_stages", "max_machines", "node_budget", "bogus", "time_budget"]
limit_texts = st.lists(
    st.one_of(
        # every valid value is at most a default cap, so no call can outgrow the test
        st.builds("{}={}".format, st.sampled_from(LIMIT_KEYS), st.integers(-1, 3)),
        st.builds("{}={}".format, st.sampled_from(LIMIT_KEYS), st.sampled_from(["", "x", "1.5", "nan", "1e3", " 2 "])),
        st.just("node_budget=20000"),
        st.sampled_from(["novalue", "=", "=1", " ", "max_jobs=1=2"]),
    ),
    max_size=3,
).map(",".join)


def maybe(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def generate_calls(draw):
    argv = ["generate", "--family", draw(st.sampled_from([*FAMILIES, "nope"]))]
    small = st.sampled_from(["-1", "0", "1", "2", "3", "x", str(10**9)])
    for flag in ("--m", "--k", "--bottleneck", "--m-max", "--n", "--seed"):
        argv += maybe(draw, flag, small)
    argv += maybe(draw, "--s", st.sampled_from(["1/2", "0", "-1", "x", "1e999999"]))
    argv += maybe(draw, "--others", st.sampled_from(["1,1", "", "a", "1,-1", "2"]))
    argv += maybe(draw, "--fast-speed", st.sampled_from(["1e6", "0", "x"]))
    argv += maybe(draw, "--machine-range", st.sampled_from(["1:3", "3:1", "a:b", "1", "0:2", "2:2"]))
    for flag in ("--speed-range", "--size-range"):
        argv += maybe(draw, flag, st.sampled_from(
            ["1/2:3:2", "3:1/2:2", "a", "1:2:0", "1:2:x", "0:0:1", "1:1:1", "1:6:1000000000000", "4/3:5/3:7"]
        ))
    argv += maybe(draw, "--precision", st.just("3"))
    return argv, {}


@st.composite
def sweep_calls(draw):
    family = draw(st.sampled_from(FAMILIES))
    argv = ["sweep", "--family", family]
    params = {
        "random": ["seed=0..1", "n=1,3", "k=1..2", "n=", "seed=a..b", "k=0"],
        "single-stage-worst": ["m=1..3", "m=0", "s=1/2,1", "s=x"],
        "multi-stage-worst": ["k=2", "m_max=1..2", "bottleneck=0,1", "others=1", "others=1:x", "fast_speed=1e3"],
        "appendix": ["seed=0"],
    }[family] + ["bogus=1", "novalue"]
    for spec in draw(st.lists(st.sampled_from(params), max_size=3, unique=True)):
        argv += ["--param", spec]
    ops = draw(st.lists(st.sampled_from(["greedy", "poa", "verify-bounds", "spne", "nope", ""]), max_size=3))
    argv += maybe(draw, "--ops", st.just(",".join(ops)))
    argv += maybe(draw, "--limits", limit_texts)
    argv += maybe(draw, "--precision", st.just("3"))
    return argv, {}


@st.composite
def instance_calls(draw):
    command = draw(st.sampled_from(["simulate", "optimal", "spne", "poa", "verify-bounds"]))
    text = draw(instance_texts())
    files = {"instance": text}
    argv = [command, "-i", "instance"]
    argv += maybe(draw, "--precision", st.sampled_from(["0", "3", "100", "101", "-1", "x"]))
    if command in ("simulate", "verify-bounds") and draw(st.booleans()):
        files["plan"] = draw(plan_texts(parse_instance(text)))
        argv += ["--plan", draw(st.sampled_from(["plan", "missing"]))]
    if command != "simulate":
        argv += maybe(draw, "--limits", limit_texts)
    if command in ("simulate", "spne"):
        argv += maybe(draw, "--format", st.sampled_from(["json", "csv", "xml"]))
    if command == "spne" and draw(st.booleans()):
        argv.append("--no-defer")
    if command == "optimal":
        argv += maybe(draw, "--emit-witness", st.sampled_from(["-", "witness"]))
    if command == "verify-bounds" and draw(st.booleans()):
        argv.append("--with-opt")
    return argv, files


def trace_from_rows(rows, makespan=None):
    """The trace that rendered `rows` (dicts of a trace record's cells, as text or ints)."""
    records: dict[int, list] = {}
    for row in rows:
        times = (F(row["release"]), F(row["start"]), F(row["completion"]))
        record = StageRecord(int(row["stage"]), int(row["machine"]), *times)
        records.setdefault(int(row["job"]), []).append(record)
    table = [records[j] for j in sorted(records)]
    ends = [row[-1].completion for row in table]
    return ScheduleTrace.from_records(table, F(makespan) if makespan is not None else max(ends))


def emitted_traces(argv, out):
    command = argv[0]
    if command == "simulate" and "csv" in argv:
        return [trace_from_rows(csv.DictReader(io.StringIO(out)))]
    if command == "simulate":
        payload = json.loads(out)["trace"]
        return [trace_from_rows(payload["records"], payload["makespan"])]
    if command == "spne" and "csv" not in argv:
        payload = json.loads(out)
        return [trace_from_rows(payload[key]["records"], payload[key]["makespan"])
                for key in ("equilibrium_trace", "greedy_trace")]
    return []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


APPENDIX = json.dumps(gen_appendix_example().to_json())


@settings(max_examples=250)
@given(st.one_of(instance_calls(), generate_calls(), sweep_calls()))
# each of these raised out of `main` before: a RecursionError from the JSON
# decoder, a KeyError from a dict plan entry, an OverflowError from Infinity
@example(call=(["simulate", "-i", "instance"], {"instance": "[" * 100_000}))
@example(call=(["simulate", "-i", "instance", "--plan", "plan"], {"instance": APPENDIX, "plan": '{"a":' * 100_000}))
@example(call=(["verify-bounds", "-i", "instance", "--plan", "plan"], {"instance": APPENDIX, "plan": "[[{}]]"}))
@example(call=(["simulate", "-i", "instance", "--plan", "plan"], {"instance": APPENDIX, "plan": "[[[Infinity, 0]]]"}))
def test_cli_fuzz(workdir, call):
    argv, files = call
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8", errors="surrogatepass")
    argv = [str(workdir / a) if a in ("instance", "plan", "missing", "witness") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        instance = Instance.from_json(json.loads(files["instance"])) if "instance" in files else None
        for trace in emitted_traces(argv, out.getvalue()):
            assert validate_trace(instance, trace) == [], argv
