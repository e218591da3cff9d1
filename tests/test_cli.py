import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import schedgame
from schedgame import Instance, gen_appendix_example, gen_random
from schedgame import cli
from schedgame.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance.to_json()))
    return str(path)


class TestGenerate:
    def test_appendix_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "--family", "appendix"])
        assert code == 0
        assert Instance.from_json(json.loads(out)) == gen_appendix_example()

    def test_all_families_round_trip(self, capsys):
        argvs = [
            ["generate", "--family", "single-stage-worst", "--m", "3", "--s", "1/2"],
            ["generate", "--family", "multi-stage-worst", "--k", "3", "--bottleneck", "1",
             "--m-max", "3", "--others", "1,1", "--fast-speed", "1e6"],
            ["generate", "--family", "appendix"],
            ["generate", "--family", "random", "--n", "4", "--k", "2", "--seed", "11"],
        ]
        for argv in argvs:
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            parsed = Instance.from_json(json.loads(out))
            assert Instance.from_json(parsed.to_json()) == parsed

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, ["generate", "--family", "single-stage-worst"])
        assert code == 2
        assert "needs parameter" in err

    def test_output_is_byte_identical_to_golden(self, capsys, tmp_path):
        argv = ["generate", "--family", "random", "--n", "10", "--k", "3", "--machine-range", "3:5", "--seed", "5"]
        assert run_cli(capsys, argv) == (0, (GOLDEN / "random_wide.json").read_text(), "")
        out = tmp_path / "appendix.json"
        assert run_cli(capsys, ["generate", "--family", "appendix", "-o", str(out)]) == (0, "", "")
        assert out.read_text() == (GOLDEN / "appendix.json").read_text()

    def test_huge_max_denominator_is_quick(self, capsys):
        code, out, err = run_cli(
            capsys, ["generate", "--family", "random", "--n", "1", "--k", "1", "--size-range", "1:6:1000000000000"]
        )
        assert (code, err) == (0, "")
        assert 1 <= Instance.from_json(json.loads(out)).jobs[0].size <= 6

    def test_range_without_a_numerator(self, capsys):
        argv = ["generate", "--family", "random", "--n", "1", "--k", "1", "--size-range", "4/3:5/3:7"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "no numerator available for denominator 1 in [4/3, 5/3]" in err


class TestSimulate:
    def test_pipe_appendix_greedy(self, capsys, monkeypatch, tmp_path):
        _, gen_out, _ = run_cli(capsys, ["generate", "--family", "appendix"])
        code, out, _ = run_cli(capsys, ["simulate"], stdin=gen_out, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"]["makespan"] == "606/5"
        assert payload["trace"]["makespan_decimal"] == "121.2"
        finals = {
            (row["job"], row["stage"]): row["completion"] for row in payload["trace"]["records"]
        }
        assert finals[(0, 2)] == "606/5" and finals[(1, 2)] == "106/5"
        assert payload["events"][0]["machine"] == 0

    def test_csv_output(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, _ = run_cli(capsys, ["simulate", "-i", path, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("job,stage,machine,release,start,completion")
        assert len(lines) == 1 + 2 * 3

    def test_csv_does_not_render_the_decision_log(self, capsys, monkeypatch, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        argv = ["simulate", "-i", path, "--format", "csv"]
        expected = run_cli(capsys, argv)

        def refuse(*args):
            raise AssertionError("the CSV output has no decision log to render")

        monkeypatch.setattr("schedgame.cli.events_to_json", refuse)
        assert run_cli(capsys, argv) == expected
        assert expected[0] == 0

    # entries that are not two ints: a float, a bool, a numeric string, a third item, a dict
    @pytest.mark.parametrize("entry", [[0.9, 0], [False, "1"], [0, "1"], [0, 0, 7], {}], ids=repr)
    @pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
    def test_plan_entries_must_be_int_pairs(self, capsys, tmp_path, command, entry):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([[[0, 0], entry], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]))
        code, out, err = run_cli(capsys, [command, "-i", str(GOLDEN / "appendix.json"), "--plan", str(plan)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert f"stage 0, job 1: plan entry {entry!r} is not a (machine, position) pair of ints" in err

    def test_empty_jobs_is_a_parse_error(self, capsys, monkeypatch):
        bad = '{"stages":[{"machines":1,"speed":"1"}],"jobs":[]}'
        code, _, err = run_cli(capsys, ["simulate"], stdin=bad, monkeypatch=monkeypatch)
        assert code == 2
        assert "at least one job" in err

    @pytest.mark.parametrize(
        "jobs",
        [
            pytest.param('{"size":%s}' % size, id=size)
            for size in ['"1e5000"', '"1e-5000"', '"1e999999999"', '"1/' + "3" * 200 + '"', "1" + "0" * 5000]
        ]
        # every size is within the digit cap, but the time grid's lcm has 4809 digits
        + [pytest.param(",".join('{"size":"1/%d"}' % (10**97 + 2 * i + 1) for i in range(50)), id="wide-grid")],
    )
    def test_extreme_numbers_are_input_errors(self, capsys, monkeypatch, jobs):
        raw = '{"stages":[{"machines":1,"speed":"1"}],"jobs":[%s]}' % jobs
        code, out, err = run_cli(capsys, ["simulate"], stdin=raw, monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err and out == ""

    def test_invalid_json(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["simulate"], stdin="{not json", monkeypatch=monkeypatch)
        assert code == 2
        assert "invalid instance JSON" in err


class TestOptimal:
    def test_witness_replays_to_same_makespan(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        witness = str(tmp_path / "witness.json")
        code, out, _ = run_cli(capsys, ["optimal", "-i", path, "--emit-witness", witness])
        assert code == 0
        assert json.loads(out)["makespan"] == "113"
        code, out, _ = run_cli(capsys, ["simulate", "-i", path, "--plan", witness])
        assert code == 0
        assert json.loads(out)["trace"]["makespan"] == "113"

    def test_refusal_exit_code(self, capsys, tmp_path):
        inst = Instance.from_sizes([10, 1, 1, 1, 1, 1, 1], [(1, 1), (2, 5)])
        path = write_instance(tmp_path, inst)
        code, _, err = run_cli(capsys, ["optimal", "-i", path])
        assert code == 1
        assert "refused" in err

    def test_machine_cap_is_for_pipelines_only(self, capsys, tmp_path):
        # one stage of 4 machines is a partition of the sizes: searched, not refused
        path = write_instance(tmp_path, Instance.from_sizes([5, 5, 4, 4, 3, 3, 3], [(4, 1)]))
        code, out, _ = run_cli(capsys, ["optimal", "-i", path])
        assert code == 0
        assert json.loads(out)["makespan"] == "8"
        assert json.loads(out)["status"] == "exact"
        pipeline = write_instance(tmp_path, Instance.from_sizes([5, 5, 4, 4, 3, 3], [(4, 1), (1, 2)]), "k2.json")
        code, _, err = run_cli(capsys, ["optimal", "-i", pipeline])
        assert code == 1
        assert "4 machines in a stage exceeds the cap of 3" in err

    def test_limit_overrides(self, capsys, tmp_path):
        inst = Instance.from_sizes([10, 1, 1, 1, 1, 1, 1], [(1, 1), (2, 5)])
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(capsys, ["optimal", "-i", path, "--limits", "max_jobs_multistage=7"])
        assert code == 0
        assert json.loads(out)["status"] == "exact"

    def test_bad_limit_key(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, _, err = run_cli(capsys, ["optimal", "-i", path, "--limits", "jobs=2"])
        assert code == 2
        assert "unknown limit" in err

    def test_repeated_limit_key(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, err = run_cli(capsys, ["optimal", "-i", path, "--limits", "node_budget=1,node_budget=2"])
        assert code == 2
        assert out == ""
        assert err.strip() == "error: limit node_budget given twice"

    @pytest.mark.parametrize("limits", ["time_budget=nan", "node_budget=-5", "max_jobs=0", "node_budget=1.5"])
    def test_rejected_limit_values(self, capsys, tmp_path, limits):
        path = write_instance(tmp_path, gen_appendix_example())
        code, _, err = run_cli(capsys, ["optimal", "-i", path, "--limits", limits])
        assert code == 2
        assert err.startswith("error:")


class TestSpne:
    def test_json_comparison(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, _ = run_cli(capsys, ["spne", "-i", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["greedy_is_spne_outcome"] is False
        assert payload["comparison"][0]["equilibrium_final"] == "113"
        assert payload["comparison"][0]["greedy_final"] == "606/5"
        assert payload["action_model"]["defer_is_reconstruction"] is True

    def test_no_defer_matches_greedy(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, _ = run_cli(capsys, ["spne", "-i", path, "--no-defer"])
        assert code == 0
        assert json.loads(out)["greedy_is_spne_outcome"] is True

    def test_csv_table(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, _ = run_cli(capsys, ["spne", "-i", path, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "policy,job,size,release_0,completion_0,release_1,completion_1,release_2,completion_2"
        assert "equilibrium,0,10,0,11,11,13,13,113" in lines
        assert "greedy,0,10,0,10,10,12,12,606/5" in lines


class TestPoa:
    def test_worst_family_ratio(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["generate", "--family", "single-stage-worst", "--m", "4"])
        code, out, _ = run_cli(capsys, ["poa"], stdin=gen_out, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == "7/4"
        assert payload["opt_status"] == "exact"
        assert payload["family"].startswith("single-stage-worst")

    def test_family_is_escaped(self, capsys, tmp_path):
        family = "\u00e9\"\\\n "
        inst = Instance.from_sizes([3, 1, 2], [(2, 1), (1, 2)], family=family)
        code, out, _ = run_cli(capsys, ["poa", "-i", write_instance(tmp_path, inst)])
        assert code == 0
        assert '"family": "\\u00e9\\"\\\\\\n "' in out
        assert json.loads(out)["family"] == family
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_degraded_report_on_refusal(self, capsys, tmp_path):
        inst = Instance.from_sizes([10, 1, 1, 1, 1, 1, 1], [(1, 1), (2, 5)])
        path = write_instance(tmp_path, inst)
        code, out, _ = run_cli(capsys, ["poa", "-i", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["opt_status"] == "refused"
        assert payload["ratio_is_exact"] is False
        assert payload["t_opt"] is None


class TestVerifyBounds:
    def test_greedy_trace_passes(self, capsys, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, _ = run_cli(capsys, ["verify-bounds", "-i", path, "--with-opt"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["params"]["offsets"] == ["0", "10", "13", "113"]

    def test_violating_plan_exits_one(self, capsys, tmp_path):
        inst = Instance.from_sizes([1, 10], [(1, 1)])
        path = write_instance(tmp_path, inst)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps([[[0, 1], [0, 0]]]))  # big job first
        code, out, _ = run_cli(capsys, ["verify-bounds", "-i", path, "--plan", str(plan_path)])
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert any(not row["holds"] for row in payload["rows"])

    @pytest.mark.parametrize("limits", ["bogus=1", "node_budget=0"])
    def test_limits_are_parsed_without_with_opt(self, capsys, tmp_path, limits):
        path = write_instance(tmp_path, gen_appendix_example())
        code, out, err = run_cli(capsys, ["verify-bounds", "-i", path, "--limits", limits])
        assert code == 2
        assert err.startswith("error:") and "limit" in err
        assert "Traceback" not in err and out == ""


    @pytest.mark.parametrize(
        "argv, expected, code",
        [
            (["-i", "appendix.json"], "verify_bounds_appendix.json", 0),
            (["-i", "appendix.json", "--with-opt"], "verify_bounds_appendix_with_opt.json", 0),
            (
                ["-i", "appendix.json", "--plan", "appendix_big_job_first_plan.json"],
                "verify_bounds_appendix_big_job_first.json",
                1,
            ),
        ],
    )
    def test_output_is_byte_identical_to_golden(self, capsys, argv, expected, code):
        # the big-job-first plan serves job 0 before job 1 at the slow last stage
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        assert run_cli(capsys, ["verify-bounds", *argv]) == (code, (GOLDEN / expected).read_text(), "")


class TestJsonOutput:
    @pytest.mark.parametrize(
        "command, expected",
        [
            ("simulate", "simulate_appendix.json"),
            # 5/5/3 machines: three decisions tie at a nonzero load, 8 records wait
            ("simulate", "simulate_random_wide.json"),
            ("poa", "poa_appendix.json"),
            ("spne", "spne_appendix.json"),
            ("simulate", "simulate_random_wide.csv"),
            ("spne", "spne_appendix.csv"),
            # 4 nodes, exact makespan 113, witness on stdout
            ("optimal", "optimal_appendix.json"),
        ],
    )
    def test_output_is_byte_identical_to_golden(self, capsys, command, expected):
        # each golden is named after its command and its input instance; a .csv one is --format csv
        golden = GOLDEN / expected
        argv = [command, "-i", str(GOLDEN / golden.with_suffix(".json").name.removeprefix(f"{command}_"))]
        if golden.suffix == ".csv":
            argv += ["--format", "csv"]
        if command == "optimal":
            argv += ["--emit-witness", "-"]
        assert run_cli(capsys, argv) == (0, golden.read_text(), "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "appendix"],
            ["simulate", "-i", "appendix.json"],
            ["optimal", "-i", "appendix.json", "--emit-witness", "-"],
            ["spne", "-i", "appendix.json"],
            ["poa", "-i", "appendix.json"],
            ["verify-bounds", "-i", "appendix.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_is_canonical_json(self, capsys, argv):
        # every JSON writer must print exactly what the json module prints with a two-space indent
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_witness_file_is_canonical_json(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        argv = ["optimal", "-i", str(GOLDEN / "appendix.json"), "--emit-witness", str(witness)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and "witness" not in json.loads(out)
        text = witness.read_text()
        assert text == json.dumps(json.loads(text), indent=2)


class TestSweep:
    def test_golden_csv(self, capsys):
        argv = ["sweep", "--family", "random", "--param", "seed=0..7", "--param", "n=2,4,7",
                "--param", "k=1..3", "--ops", "greedy,poa,verify-bounds"]
        assert run_cli(capsys, argv) == (0, (GOLDEN / "sweep_random_verify_bounds.csv").read_text(), "")

    def test_worst_family_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--family", "single-stage-worst", "--param", "m=2..8", "--ops", "greedy,poa,verify-bounds"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,m,t_equ,t_opt,opt_status,ratio,ceiling,min_slack,status"
        assert len(lines) == 8
        for m, line in zip(range(2, 9), lines[1:]):
            cells = line.split(",")
            assert cells[1] == str(m)
            assert F(cells[5]) == 2 - F(1, m)
            assert cells[8] == "ok"

    def test_rows_are_deterministic(self, capsys):
        argv = ["sweep", "--family", "random", "--param", "seed=0..4", "--param", "n=2,4",
                "--param", "k=2", "--ops", "greedy,poa"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_random_sweep_no_ceiling_violations(self, capsys):
        import csv as csv_mod

        code, out, _ = run_cli(
            capsys,
            ["sweep", "--family", "random", "--param", "seed=0..199", "--param", "n=5",
             "--param", "k=2", "--ops", "greedy,poa,verify-bounds"],
        )
        assert code == 0
        rows = list(csv_mod.DictReader(io.StringIO(out)))
        assert len(rows) == 200
        for row in rows:
            assert row["status"] == "ok"
            assert F(row["ratio"]) <= F(row["ceiling"])
            assert F(row["min_slack"]) >= 0

    def test_empty_grid_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--family", "random", "--param", "seed=", "--ops", "greedy"])
        assert code == 2
        assert "empty value list" in err

    @pytest.mark.parametrize("spec", ["seed=a..b", "seed=0..x", "n=1/2..3"])
    def test_bad_range_is_an_error(self, capsys, spec):
        code, out, err = run_cli(capsys, ["sweep", "--family", "random", "--param", spec, "--ops", "greedy"])
        assert code == 2
        assert err.startswith("error:") and "must be an integer" in err
        assert "Traceback" not in err and out == ""

    def test_empty_ops_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--family", "appendix", "--ops", ""])
        assert code == 2
        assert "at least one operation" in err

    def test_unknown_op_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--family", "appendix", "--ops", "optimal"])
        assert code == 2
        assert "unknown op 'optimal'" in err

    def test_refusals_recorded_per_row(self, capsys):
        import csv as csv_mod

        code, out, _ = run_cli(
            capsys,
            ["sweep", "--family", "multi-stage-worst", "--param", "k=3", "--param", "bottleneck=1",
             "--param", "m_max=3,4", "--param", "others=1:1", "--ops", "greedy,poa"],
        )
        assert code == 0
        rows = list(csv_mod.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        # oversized families still produce rows, with the bound-based ratio
        for row in rows:
            assert row["status"] == "ok"
            assert row["opt_status"] == "refused"
            assert F(row["ratio"]) > 1


# `schedgame.cli.main(argv)` in a process whose address space is capped, so
# that a sweep which tries to build its grid fails fast instead of exhausting
# the host's memory
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from schedgame.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv):
    src = str(Path(schedgame.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True, text=True, timeout=60, env=env
    )
    return done.returncode, done.stdout, done.stderr


class TestSweepCap:
    def test_huge_range_is_refused_before_it_is_built(self):
        argv = ["sweep", "--family", "random", "--param", "n=1", "--param", "k=1",
                "--param", "seed=0..100000000000", "--ops", "greedy"]
        code, out, err = run_capped(argv)
        assert (code, out) == (2, "")
        assert err == f"error: parameter seed has more than {cli.MAX_SWEEP_POINTS} values (sweep cap)\n"

    def test_ranges_count_together(self):
        argv = ["sweep", "--family", "random", "--param", f"seed=1..{cli.MAX_SWEEP_POINTS},0..0", "--ops", "greedy"]
        code, out, err = run_capped(argv)
        assert (code, out) == (2, "")
        assert "parameter seed has more than" in err

    def test_grid_product_is_refused_before_it_is_built(self):
        argv = ["sweep", "--family", "random", "--param", "n=1..100000", "--param", "k=1..100000", "--ops", "greedy"]
        code, out, err = run_capped(argv)
        assert (code, out) == (2, "")
        assert err == f"error: sweep grid has {10**10} points (cap {cli.MAX_SWEEP_POINTS})\n"


class TestOneGridPerInstance:
    @pytest.mark.parametrize(
        "command, grids",
        [
            (["simulate"], 1),
            (["verify-bounds"], 1),
            (["spne"], 1),
            # greedy's grid, then one per reordered instance of the solver's three heuristic passes
            (["poa"], 4),
        ],
        ids=["simulate", "verify-bounds", "spne", "poa"],
    )
    @pytest.mark.parametrize(
        "instance",
        [gen_appendix_example(), gen_random(4, 1, (2, 2), seed=3), gen_random(4, 2, seed=8)],
        ids=["appendix", "one-stage", "two-stage"],
    )
    def test_grids_per_op(self, capsys, monkeypatch, tmp_path, command, grids, instance):
        path = write_instance(tmp_path, instance)
        calls = []
        build = schedgame.model.time_grid
        # counted in every namespace that holds it, so that an import of it elsewhere is counted too
        for module in (schedgame.model, schedgame.greedy, schedgame.exact, schedgame.equilibrium):
            if hasattr(module, "time_grid"):
                monkeypatch.setattr(module, "time_grid", lambda *args: calls.append(args) or build(*args))
        assert run_cli(capsys, [*command, "-i", path])[0] == 0
        assert len(calls) == grids

    def test_only_the_model_builds_grids(self):
        for module in (schedgame.greedy, schedgame.exact, schedgame.equilibrium, schedgame.analysis):
            assert not hasattr(module, "time_grid"), module


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_family(self, capsys):
        assert main(["generate", "--family", "nope"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "poa"])
    @pytest.mark.parametrize("precision", ["5000", str(10**8), "-1"])
    def test_precision_out_of_range(self, capsys, monkeypatch, command, precision):
        raw = json.dumps(gen_appendix_example().to_json())
        code, out, err = run_cli(capsys, [command, "--precision", precision], stdin=raw, monkeypatch=monkeypatch)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err and out == ""


    @pytest.mark.parametrize(
        "argv",
        [["generate", "--family", "appendix"], ["sweep", "--family", "appendix", "--ops", "greedy"]],
        ids=["generate", "sweep"],
    )
    def test_precision_only_where_something_is_rendered(self, capsys, argv):
        code, out, err = run_cli(capsys, [*argv, "--precision", "3"])
        assert code == 2
        assert "unrecognized arguments: --precision 3" in err
        assert "Traceback" not in err and out == ""


class TestParserReuse:
    def test_reused_parser_matches_fresh_parser(self, capsys, monkeypatch, tmp_path):
        path = write_instance(tmp_path, gen_appendix_example())
        calls = [
            ["spne", "-i", path, "--no-defer"],
            ["spne", "-i", path],
            ["simulate", "--bogus"],
            ["verify-bounds", "-i", path, "--precision", "3"],
            ["poa", "-i", path, "--precision", "101"],
            ["simulate", "-i", path, "--format", "csv"],
            ["poa", "-i", path],
        ]
        reused = [run_cli(capsys, argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser on every call
        fresh = [run_cli(capsys, argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0, 0]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, ["generate", "--family", "appendix"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


class TestInputCaps:
    @pytest.mark.parametrize(
        "raw",
        [
            '{"stages":[{"machines":1000000000,"speed":"1"}],"jobs":[{"size":"1"}]}',
            '{"stages":[{"machines":%d,"speed":"1"}],"jobs":[{"size":"1"}]}' % 10**99,
            '{"stages":[%s],"jobs":[{"size":"1"}]}' % ",".join(['{"machines":1,"speed":"1"}'] * 1001),
        ],
        ids=["machines-1e9", "machines-1e99", "stages-1001"],
    )
    def test_oversized_instance_is_an_input_error(self, capsys, monkeypatch, raw):
        code, out, err = run_cli(capsys, ["simulate"], stdin=raw, monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error: invalid instance:") and "cap" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "single-stage-worst", "--m", "1001"],
            ["--family", "single-stage-worst", "--m", str(10**9)],
            ["--family", "multi-stage-worst", "--k", str(10**9), "--m-max", "3"],
            ["--family", "random", "--n", str(10**6 + 1), "--k", "1"],
            ["--family", "random", "--n", "1", "--k", "1001"],
            ["--family", "random", "--n", "1", "--k", "1", "--machine-range", f"1:{10**9}", "--seed", "3"],
        ],
        ids=["worst-m1001", "worst-m1e9", "multi-k1e9", "random-n", "random-k", "random-machines"],
    )
    def test_oversized_family_is_refused_before_it_is_built(self, capsys, argv):
        code, out, err = run_cli(capsys, ["generate", *argv])
        assert code == 2
        assert err.startswith("error: invalid parameters for family") and "cap" in err
        assert out == ""
