"""Command-line interface: instance I/O, simulation, solving, and sweeps.

Exit codes: 0 all requested checks passed; 1 a check failed or the solver
refused; 2 malformed input or arguments.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from .analysis import (
    AnalysisError,
    check_multistage_chain,
    price_of_anarchy,
)
from .equilibrium import ActionModel, spne_solve
from .exact import (
    DEFAULT_LIMITS,
    LimitsExceeded,
    SearchLimits,
    optimal_makespan,
)
from .generators import (
    gen_appendix_example,
    gen_multistage_worst,
    gen_random,
    gen_single_stage_worst,
)
from .greedy import events_to_json, greedy_schedule
from .model import (
    MAX_SCALAR_DIGITS,
    Instance,
    ModelError,
    ScheduleTrace,
    _csv,
    _dumps,
    evaluate_schedule,
    format_decimal,
    format_scalar,
    format_ticks,
    parse_scalar,
    trace_to_csv,
    trace_to_json,
)

FAMILIES = ("single-stage-worst", "multi-stage-worst", "appendix", "random")


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read_instance(path: str | None) -> Instance:
    try:
        if path is None or path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        return Instance.from_json(json.loads(raw))
    except OSError as exc:
        raise CliError(f"cannot read instance: {exc}") from exc
    except ModelError as exc:
        raise CliError(f"invalid instance: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or a too-long int literal
        raise CliError(f"invalid instance JSON: {exc}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_limits(spec: str | None) -> SearchLimits:
    if not spec:
        return DEFAULT_LIMITS
    fields = DEFAULT_LIMITS.__dict__
    values: dict = {}
    for part in spec.split(","):
        if not part.strip():
            continue
        try:
            key, raw = part.split("=", 1)
        except ValueError:
            raise CliError(f"limit overrides look like key=value, got {part!r}") from None
        key = key.strip()
        if key not in fields:
            raise CliError(f"unknown limit {key!r}; known: {', '.join(fields)}")
        if key in values:
            raise CliError(f"limit {key} given twice")
        try:
            values[key] = int(raw.strip())
        except ValueError as exc:
            raise CliError(f"bad value for limit {key}: {raw!r}") from exc
        if values[key] < 1:
            raise CliError(f"limit {key} must be >= 1, got {raw.strip()!r}")
    return SearchLimits(**{**DEFAULT_LIMITS.__dict__, **values})


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"{what} must be an integer, got {raw!r}") from exc


def _parse_scalar_arg(raw: str, what: str) -> Fraction:
    try:
        return parse_scalar(raw)
    except ModelError as exc:
        raise CliError(f"{what}: {exc}") from exc


def _parse_rational_range(raw: str, what: str) -> tuple[Fraction, Fraction, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise CliError(f"{what} must look like lo:hi:max_denominator, got {raw!r}")
    return (
        _parse_scalar_arg(parts[0], what),
        _parse_scalar_arg(parts[1], what),
        _parse_int(parts[2], f"{what} max denominator"),
    )


def _build_family_instance(family: str, params: dict) -> Instance:
    try:
        if family == "single-stage-worst":
            return gen_single_stage_worst(params["m"], params.get("s", Fraction(1)))
        if family == "multi-stage-worst":
            return gen_multistage_worst(
                params["k"],
                params.get("bottleneck", 0),
                params["m_max"],
                # lazy, so an oversized k is refused by the generator before it is built
                params.get("others", itertools.repeat(1, params["k"] - 1)),
                params.get("fast_speed", Fraction(10**6)),
            )
        if family == "appendix":
            return gen_appendix_example()
        if family == "random":
            return gen_random(
                params["n"],
                params["k"],
                params.get("machine_range", (1, 3)),
                params.get("speed_range", (Fraction(1, 2), Fraction(3), 2)),
                params.get("size_range", (Fraction(1), Fraction(6), 3)),
                params.get("seed", 0),
            )
    except KeyError as exc:
        raise CliError(f"family {family} needs parameter {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise CliError(f"invalid parameters for family {family}: {exc}") from exc
    raise CliError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


def _cmd_generate(args: argparse.Namespace) -> int:
    params: dict = {}
    if args.m is not None:
        params["m"] = args.m
    if args.s is not None:
        params["s"] = _parse_scalar_arg(args.s, "--s")
    if args.k is not None:
        params["k"] = args.k
    if args.bottleneck is not None:
        params["bottleneck"] = args.bottleneck
    if args.m_max is not None:
        params["m_max"] = args.m_max
    if args.others is not None:
        params["others"] = tuple(_parse_int(x, "--others entry") for x in args.others.split(",") if x)
    if args.fast_speed is not None:
        params["fast_speed"] = _parse_scalar_arg(args.fast_speed, "--fast-speed")
    if args.n is not None:
        params["n"] = args.n
    if args.seed is not None:
        params["seed"] = args.seed
    if args.machine_range is not None:
        lo, _, hi = args.machine_range.partition(":")
        params["machine_range"] = (_parse_int(lo, "--machine-range"), _parse_int(hi, "--machine-range"))
    if args.speed_range is not None:
        params["speed_range"] = _parse_rational_range(args.speed_range, "--speed-range")
    if args.size_range is not None:
        params["size_range"] = _parse_rational_range(args.size_range, "--size-range")
    instance = _build_family_instance(args.family, params)
    _write_output(_dumps(instance.to_json()), args.output)
    return 0


def _replay_plan(instance: Instance, path: str) -> ScheduleTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return evaluate_schedule(instance, json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot replay plan: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    if args.plan is not None:
        trace, log = _replay_plan(instance, args.plan), None
    else:
        trace, log = greedy_schedule(instance)
    if args.format == "csv":
        _write_output(trace_to_csv(trace, args.precision), args.output)
    else:
        payload = {"policy": "plan" if args.plan else "greedy", "trace": trace_to_json(trace, args.precision)}
        if log is not None:
            payload["events"] = events_to_json(log, args.precision)
        _write_output(_dumps(payload), args.output)
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    limits = _parse_limits(args.limits)
    try:
        result = optimal_makespan(instance, limits)
    except LimitsExceeded as exc:
        raise CliError(f"solver refused: {exc}", code=1) from exc
    payload = {
        "makespan": format_scalar(result.makespan),
        "makespan_decimal": format_decimal(result.makespan, args.precision),
        "status": result.status,
        "lower_bound": format_scalar(result.lower_bound),
        "nodes": result.nodes,
    }
    if args.emit_witness == "-":
        payload["witness"] = result.plan
    elif args.emit_witness is not None:
        _write_output(_dumps(result.plan), args.emit_witness)
    _write_output(_dumps(payload), args.output)
    return 0


def _cmd_spne(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    model = ActionModel(allow_defer=args.defer)
    limits = _parse_limits(args.limits)
    try:
        result = spne_solve(instance, model, limits)
    except LimitsExceeded as exc:
        raise CliError(f"solver refused: {exc}", code=1) from exc
    if args.format == "csv":
        _write_output(_spne_csv(instance, result), args.output)
        return 0
    payload = {
        "action_model": {"allow_defer": model.allow_defer, "defer_is_reconstruction": True},
        "greedy_is_spne_outcome": result.greedy_is_spne_outcome,
        "equilibrium_trace": trace_to_json(result.trace, args.precision),
        "greedy_trace": trace_to_json(result.greedy_trace, args.precision),
        "comparison": [
            {
                "job": j,
                "equilibrium_final": format_scalar(result.final_completions[j]),
                "greedy_final": format_scalar(result.greedy_final_completions[j]),
                "delta": format_scalar(result.deltas[j]),
                "delta_decimal": format_decimal(result.deltas[j], args.precision),
            }
            for j in range(instance.n)
        ],
    }
    _write_output(_dumps(payload), args.output)
    return 0


def _spne_csv(instance: Instance, result) -> str:
    header = ["policy", "job", "size"]
    for i in range(instance.k):
        header += [f"release_{i}", f"completion_{i}"]
    rows = []
    for label, trace in (("equilibrium", result.trace), ("greedy", result.greedy_trace)):
        for j in range(instance.n):
            row: list[str | int] = [label, j, format_scalar(instance.jobs[j].size)]
            for _, release, _, completion in trace.grid[j]:
                row += [format_ticks(release, trace.scale), format_ticks(completion, trace.scale)]
            rows.append(row)
    return _csv(header, rows)


def _cmd_poa(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    limits = _parse_limits(args.limits)
    report = price_of_anarchy(instance, limits)
    _write_output(_dumps(report.to_json(args.precision)), args.output)
    return 1 if report.ratio_is_exact and report.ratio > report.ceiling else 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    limits = _parse_limits(args.limits)
    if args.plan is not None:
        trace, greedy = _replay_plan(instance, args.plan), None
    else:
        trace = greedy = greedy_schedule(instance)[0]
    opt = None
    if args.with_opt:
        try:
            result = optimal_makespan(instance, limits, greedy=greedy)
            if result.status == "exact":
                opt = result.makespan
        except LimitsExceeded:
            pass
    try:
        report = check_multistage_chain(instance, trace, opt)
    except AnalysisError as exc:
        raise CliError(str(exc)) from exc
    _write_output(_dumps(report.to_json(args.precision)), args.output)
    return 0 if report.holds else 1


# Most points a sweep grid may have. Its values and points are counted before
# any is built, so a range such as seed=0..10**11 is refused up front.
MAX_SWEEP_POINTS = 10**5


def _expand_sweep_values(raw: str, name: str) -> list[str]:
    values: list[str] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, _, hi = part.partition("..")
            start, end = _parse_int(lo, f"{name} range start"), _parse_int(hi, f"{name} range end")
            if len(values) + end - start + 1 > MAX_SWEEP_POINTS:
                raise CliError(f"parameter {name} has more than {MAX_SWEEP_POINTS} values (sweep cap)")
            values.extend(str(v) for v in range(start, end + 1))
        else:
            values.append(part)
    return values


_SWEEP_PARAM_TYPES = {
    "m": "int",
    "k": "int",
    "bottleneck": "int",
    "m_max": "int",
    "n": "int",
    "seed": "int",
    "s": "scalar",
    "fast_speed": "scalar",
    "others": "intlist",
}

SWEEP_BASE_FIELDS = ("family", "t_equ", "t_opt", "opt_status", "ratio", "ceiling", "min_slack", "status")


def _cmd_sweep(args: argparse.Namespace) -> int:
    ops = [op.strip() for op in args.ops.split(",") if op.strip()]
    known_ops = {"greedy", "poa", "verify-bounds", "spne"}
    if not ops:
        raise CliError("sweep needs at least one operation in --ops")
    for op in ops:
        if op not in known_ops:
            raise CliError(f"unknown op {op!r}; known: {', '.join(sorted(known_ops))}")
    grid_params: dict[str, list] = {}
    for spec in args.param or []:
        try:
            name, raw = spec.split("=", 1)
        except ValueError:
            raise CliError(f"--param entries look like name=v1,v2, got {spec!r}") from None
        name = name.strip()
        kind = _SWEEP_PARAM_TYPES.get(name)
        if kind is None:
            raise CliError(f"unknown sweep parameter {name!r}")
        values = _expand_sweep_values(raw, name)
        if not values:
            raise CliError(f"parameter {name} has an empty value list")
        if kind == "int":
            grid_params[name] = [_parse_int(v, name) for v in values]
        elif kind == "scalar":
            grid_params[name] = [_parse_scalar_arg(v, name) for v in values]
        else:
            grid_params[name] = [tuple(_parse_int(x, name) for x in v.split(":")) for v in values]
    points = math.prod(map(len, grid_params.values()))
    if points > MAX_SWEEP_POINTS:
        raise CliError(f"sweep grid has {points} points (cap {MAX_SWEEP_POINTS})")
    limits = _parse_limits(args.limits)
    names = sorted(grid_params)
    rows: list[list[str]] = []
    combos: list[dict] = [{}]
    for name in names:
        combos = [dict(c, **{name: v}) for c in combos for v in grid_params[name]]
    for combo in combos:
        row_params = {
            name: format_scalar(v) if isinstance(v, Fraction) else
            (":".join(str(x) for x in v) if isinstance(v, tuple) else str(v))
            for name, v in combo.items()
        }
        t_equ = t_opt = opt_status = ratio = ceiling = min_slack = ""
        status = "ok"
        try:
            instance = _build_family_instance(args.family, dict(combo))
            trace, _ = greedy_schedule(instance)
            t_equ = format_scalar(trace.makespan)
            if "poa" in ops:
                report = price_of_anarchy(instance, limits, greedy=trace)
                opt_status = report.opt_status
                t_opt = format_scalar(report.t_opt) if report.t_opt is not None else format_scalar(
                    report.opt_lower_bound
                )
                ratio = format_scalar(report.ratio)
                ceiling = format_scalar(report.ceiling)
            if "verify-bounds" in ops:
                chain = check_multistage_chain(instance, trace)
                min_slack = format_scalar(chain.min_slack)
                if not chain.holds:
                    status = "bound-violation"
            if "spne" in ops:
                spne_solve(instance, ActionModel(), limits)
        except (CliError, LimitsExceeded, ModelError, AnalysisError, ValueError) as exc:
            status = f"refused: {exc}"
        rows.append(
            [args.family]
            + [row_params.get(name, "") for name in names]
            + [t_equ, t_opt, opt_status, ratio, ceiling, min_slack, status]
        )
    _write_output(_csv(["family"] + names + list(SWEEP_BASE_FIELDS[1:]), rows), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedgame",
        description="Multi-stage machine scheduling games: greedy simulation, exact optima, "
        "equilibrium solving, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        # a command that reads an instance renders its times, so it takes --precision
        if with_input:
            p.add_argument("--input", "-i", default=None, help="instance JSON file (default: stdin)")
        p.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
        if with_input:
            p.add_argument("--precision", type=int, default=6, help=f"decimal digits, 0..{MAX_SCALAR_DIGITS}")

    p = sub.add_parser("generate", help="emit an instance from a named family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--s", default=None, help="machine speed, exact (e.g. 1/2)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--bottleneck", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--others", default=None, help="comma-separated machine counts for non-bottleneck stages")
    p.add_argument("--fast-speed", dest="fast_speed", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--machine-range", default=None, help="lo:hi")
    p.add_argument("--speed-range", default=None, help="lo:hi:max_denominator")
    p.add_argument("--size-range", default=None, help="lo:hi:max_denominator")
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="run greedy play (or replay a plan) and emit the trace")
    p.add_argument("--plan", default=None, help="replay this plan JSON instead of greedy play")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimal", help="exact optimal makespan (refuses oversized instances)")
    p.add_argument("--limits", default=None, help="overrides, e.g. max_jobs=6,node_budget=100000")
    p.add_argument("--emit-witness", default=None, help="write the optimal plan JSON here ('-' inlines it)")
    add_common(p)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("spne", help="backward-induction equilibrium vs greedy play")
    p.add_argument("--defer", action=argparse.BooleanOptionalAction, default=True,
                   help="allow tied jobs to yield decision priority")
    p.add_argument("--limits", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_spne)

    p = sub.add_parser("poa", help="price-of-anarchy report against the exact optimum")
    p.add_argument("--limits", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_poa)

    p = sub.add_parser("verify-bounds", help="check the stage-chain bounds on a trace")
    p.add_argument("--plan", default=None, help="verify this plan's trace instead of greedy play")
    p.add_argument("--with-opt", action="store_true", help="also compare against the exact optimum")
    p.add_argument("--limits", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("sweep", help="run a family across a parameter grid, emit CSV")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--param", action="append", default=None,
                   help="grid values, e.g. --param m=2..8 --param s=1,1/2 (repeatable)")
    p.add_argument("--ops", default="greedy,poa", help="comma list: greedy,poa,verify-bounds,spne")
    p.add_argument("--limits", default=None)
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if "precision" in args and not 0 <= args.precision <= MAX_SCALAR_DIGITS:
            parser.error(f"argument --precision: must lie in 0..{MAX_SCALAR_DIGITS}, got {args.precision}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0
    except (ModelError, AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
