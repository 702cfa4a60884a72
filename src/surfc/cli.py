"""Command-line interface.

Subcommands: profile | chip | map | schedule | oracle | sweep | compare.
``map`` prints the mapping of ``harness.place``, the stages that
``schedule`` runs in ``harness.compile_once`` before its scheduler call.
Exit codes: 0 ok, 1 usage error, 2 validation failure, 3 infeasible input.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bench import BENCHMARKS
from .chip import ChipModel, ChipSpec, check_chip_kind, config_dims, derive_layout
from .circuits import build_dag
from .errors import BudgetExceededError, CircuitError, InfeasibleError, QasmError, SurfcError
from .harness import (
    CUTS,
    MAPPINGS,
    SCHEDULERS,
    RunConfig,
    config_from_mapping,
    compare,
    load_circuit,
    parse_config_file,
    parse_random_params,
    place,
    run_full,
    sweep,
)
from .profiler import para_finding

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_INFEASIBLE = 0, 1, 2, 3


def _argument_type(parse):
    """An argparse ``type`` that reports ``parse``'s InfeasibleError as a usage error."""
    def checked(text: str):
        try:
            return parse(text)
        except InfeasibleError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


_random_params = _argument_type(parse_random_params)
_chip_kind = _argument_type(check_chip_kind)


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--qasm", help="OpenQASM 2 file")
    src.add_argument("--bench", choices=sorted(BENCHMARKS), help="regenerated benchmark")
    src.add_argument("--random", metavar="N,DEPTH,PAR", type=_random_params,
                     help="seeded random circuit with exact depth/parallelism")
    p.add_argument("--seed", type=int, default=0)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    _add_circuit_args(p)
    p.add_argument("--model", choices=["dd", "ls"], default="dd")
    p.add_argument("--chip", default="min", type=_chip_kind,
                   help="min | 4x | sufficient | <m1>x<m2>")
    p.add_argument("-d", "--distance", type=int, default=3)
    p.add_argument("--scheduler", default="ecmas", choices=SCHEDULERS)
    p.add_argument("--mapping", default="ecmas", choices=MAPPINGS)
    p.add_argument("--cuts", default="ecmas", choices=CUTS)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--out", help="write the primary artifact here instead of stdout")


def _circuit_source(args) -> dict:
    """The ``RunConfig`` fields that name the circuit given on the command line."""
    if args.qasm:
        return {"qasm_path": args.qasm, "seed": args.seed}
    if args.bench:
        return {"benchmark": args.bench, "seed": args.seed}
    return {"random_params": args.random, "seed": args.seed}


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        model=ChipModel(args.model),
        chip=args.chip,
        d=args.distance,
        scheduler=args.scheduler,
        mapping=args.mapping,
        cuts=args.cuts,
        trials=args.trials,
        **_circuit_source(args),
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_profile(args) -> int:
    circuit = load_circuit(RunConfig(**_circuit_source(args)))
    layers = para_finding(build_dag(circuit))
    _emit(json.dumps({
        "alpha": layers.alpha, "g": circuit.g, "pm_estimate": layers.pm,
    }), getattr(args, "out", None))
    return EXIT_OK


def cmd_chip(args) -> int:
    model = ChipModel(args.model)
    dims = config_dims(args.chip, args.qubits, args.distance, model, pm=args.pm)
    layout = derive_layout(ChipSpec(model, dims[0], dims[1], args.distance), args.qubits)
    _emit(json.dumps(layout.describe(), indent=2), args.out)
    return EXIT_OK


def cmd_map(args) -> int:
    config = _config_from_args(args)
    _layers, _layout, mapping = place(config, load_circuit(config))
    _emit(json.dumps(mapping.to_json_dict(), indent=2), args.out)
    return EXIT_OK


def cmd_schedule(args) -> int:
    config = _config_from_args(args)
    report, schedule = run_full(config)
    payload = {"report": report.to_json_dict(), "schedule": schedule.to_json_dict()}
    # no indent: json's C encoder handles only unindented output, and a
    # schedule has an action per gate and a cell per route step
    _emit(json.dumps(payload), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import OracleBudget, optimal_pm  # exhaustive search: loaded only here

    budget = OracleBudget(max_gates=args.max_gates, max_qubits=args.max_qubits)
    circuit = load_circuit(RunConfig(**_circuit_source(args)))
    value = optimal_pm(build_dag(circuit), circuit.n, budget)
    _emit(json.dumps({"pm_optimal": value}), getattr(args, "out", None))
    return EXIT_OK


def cmd_sweep(args) -> int:
    configs = []
    for path in args.config:
        with open(path, "r", encoding="utf-8") as fh:
            configs.append(config_from_mapping(parse_config_file(fh.read())))
    _rows, text = sweep(configs, workers=args.workers)
    _emit(text, args.out)
    return EXIT_OK


def _load_report(path: str) -> dict:
    """A run report: a JSON object with a numeric ``delta``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise InfeasibleError(f"report {path}: invalid JSON ({exc})") from None
    if not isinstance(report, dict) or type(report.get("delta")) not in (int, float):
        raise InfeasibleError(f"report {path}: expected a JSON object with a numeric delta")
    return report


def cmd_compare(args) -> int:
    pct = compare(_load_report(args.report_a), _load_report(args.report_b))
    _emit(json.dumps({"reduction_percent": round(pct, 1)}), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfc",
                                     description="surface-code mapping and scheduling compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="alpha, gate count, parallelism estimate")
    _add_circuit_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("chip", help="describe a chip layout")
    p.add_argument("action", choices=["describe"])
    p.add_argument("--model", choices=["dd", "ls"], default="dd")
    p.add_argument("--chip", default="min", type=_chip_kind)
    p.add_argument("-d", "--distance", type=int, default=3)
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.add_argument("--pm", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chip)

    p = sub.add_parser("map", help="emit the mapping that schedule starts from",
                       description="Print each qubit's array cell and initial cut: the "
                       "mapping that schedule starts from. With --scheduler resu the cut is "
                       "null, since resu picks the cuts of each bipartite layer prefix while "
                       "it schedules. A lattice-surgery mapping that leaves two interacting "
                       "qubits with no ancilla path between them is rejected with exit code 3, "
                       "as schedule rejects it.")
    _add_run_args(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("schedule", help="full compile: report plus encoded schedule")
    _add_run_args(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("oracle", help="exhaustive reference queries (tiny inputs only)")
    _add_circuit_args(p)
    p.add_argument("query", choices=["pm"])
    p.add_argument("--max-gates", type=int, default=8)
    p.add_argument("--max-qubits", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="run configs from key=value files, emit CSV")
    p.add_argument("config", nargs="+", help="config files (key = value lines)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="cycle reduction percentage between two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (QasmError, CircuitError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleError, BudgetExceededError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SurfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
