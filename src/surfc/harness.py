"""End-to-end pipeline: configuration, runs, sweeps, comparisons.

A run is parse/generate -> profile -> layout -> map -> (adjust, cuts) ->
(repair) -> stranded-pair check -> schedule -> validate: ``place`` runs the
stages before scheduling (``surfc map`` prints its mapping), ``compile_once``
adds the scheduler call and ``run_full`` validates and wraps the result in a
``RunReport``, raising on an invalid schedule.  Sweeps fan runs out over a
worker pool (rows are independent) and emit one CSV row per run, including
the compile-time ratio against the minimum-viable chip row of the same
(label, model, scheduler, seed).  The pool's modules (``concurrent.futures``,
``multiprocessing``) load only when a sweep asks for ``workers > 1``, so a
compile never pays their import.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields

from . import bench
from .chip import ChipModel, ChipSpec, check_chip_kind, config_dims, derive_layout
from .circuits import GateDag, LogicalCircuit, build_comm_graph, build_dag
from .errors import InfeasibleError, SurfcError
from .generate import gen_random_circuit
from .placement import (
    ArrayShape,
    TileMapping,
    adjust_bandwidth,
    baseline_cuts,
    baseline_mapping,
    establish_mapping,
    init_cut_types,
    repair_mapping,
    stranded_pairs,
)
from .profiler import para_finding
from .qasm import parse_qasm
from .scheduler import (
    EncodedSchedule,
    require_capacity,
    schedule_limited,
    schedule_sufficient,
    validate,
)

SCHEDULERS = ("ecmas", "resu", "circuit-order", "time-first", "channel-first")
MAPPINGS = ("ecmas", "snake", "random")
CUTS = ("ecmas", "random", "maxcut")


@dataclass(frozen=True)
class RunConfig:
    qasm_path: str | None = None
    benchmark: str | None = None
    random_params: tuple[int, int, int] | None = None  # n, depth, parallelism
    model: ChipModel = ChipModel.DOUBLE_DEFECT
    chip: str = "min"          # min | 4x | sufficient | <m1>x<m2>
    d: int = 3
    scheduler: str = "ecmas"
    mapping: str = "ecmas"
    cuts: str = "ecmas"
    seed: int = 0
    trials: int = 16
    label: str = ""

    def __post_init__(self):
        if self.scheduler not in SCHEDULERS:
            raise InfeasibleError(f"unknown scheduler {self.scheduler!r}")
        if self.mapping not in MAPPINGS:
            raise InfeasibleError(f"unknown mapping kind {self.mapping!r}")
        if self.cuts not in CUTS:
            raise InfeasibleError(f"unknown cut kind {self.cuts!r}")
        check_chip_kind(self.chip)
        if self.model is ChipModel.LATTICE_SURGERY and self.cuts != "ecmas":
            raise InfeasibleError("cut-type options only apply to the double-defect model")
        sources = [self.qasm_path, self.benchmark, self.random_params]
        if sum(s is not None for s in sources) != 1:
            raise InfeasibleError("exactly one circuit source must be given")


@dataclass
class RunReport:
    label: str
    n: int
    alpha: int
    g: int
    pm_estimate: int
    model: str
    chip: str
    chip_dims: tuple[int, int]
    bandwidth: int
    capacity: int
    delta: int
    compile_seconds: float
    valid: bool
    scheduler: str
    mapping: str
    cuts: str
    seed: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


CSV_FIELDS = [f.name for f in fields(RunReport)] + ["time_ratio"]


def load_circuit(config: RunConfig) -> LogicalCircuit:
    if config.qasm_path is not None:
        with open(config.qasm_path, "r", encoding="utf-8") as fh:
            return parse_qasm(fh.read())
    if config.benchmark is not None:
        return bench.benchmark(config.benchmark)
    n, depth, parallelism = config.random_params
    return gen_random_circuit(n, depth, parallelism, config.seed)


def place(config: RunConfig, circuit: LogicalCircuit, dag: GateDag | None = None):
    """Every stage before scheduling; returns (layers, layout, mapping).
    ``dag`` is ``build_dag(circuit)``, built here when not given.

    Every compile maps onto the uniform layout of ``derive_layout``; for
    ``resu`` its capacity must first cover the layering width.  Double-defect
    limited-resource compiles then re-deal its channel width by traffic
    (``adjust_bandwidth``) and get cut types, which the mapping carries
    (``resu`` picks its cuts while it schedules).  The ``ecmas`` mapping gets
    one ``repair_mapping`` pass against the final layout.  A lattice-surgery
    pair that no fabric path joins can never be routed, so a mapping of any
    kind that strands one is rejected here with an InfeasibleError."""
    comm = build_comm_graph(circuit)
    if dag is None:
        dag = build_dag(circuit)
    layers = para_finding(dag)
    dims = config_dims(config.chip, circuit.n, config.d, config.model, pm=layers.pm)
    spec = ChipSpec(config.model, dims[0], dims[1], config.d)
    if circuit.n == 0:  # empty cuts: the double-defect scheduler needs an assignment
        return layers, derive_layout(spec, 0), TileMapping(ArrayShape(0, 0), {}, {})
    sufficient = config.scheduler == "resu"
    dd_limited = config.model is ChipModel.DOUBLE_DEFECT and not sufficient
    layout = derive_layout(spec, circuit.n)
    if sufficient:
        require_capacity(layout, layers.pm)
    shape = ArrayShape(layout.array_r, layout.array_c)
    if config.mapping == "ecmas":
        mapping = establish_mapping(comm, shape, trials=config.trials,
                                    seed=config.seed, layout=layout)
    else:
        mapping = baseline_mapping(config.mapping, circuit.n, shape, seed=config.seed)
    if dd_limited:
        layout = adjust_bandwidth(layout, mapping, circuit)
        if config.cuts == "ecmas":
            mapping = mapping.with_cuts(init_cut_types(circuit, dag=dag))
        else:
            mapping = mapping.with_cuts(baseline_cuts(config.cuts, comm, seed=config.seed))
    if config.mapping == "ecmas":
        mapping = repair_mapping(mapping, comm, layout)
    stranded = stranded_pairs(mapping, comm, layout)
    if stranded:
        a, b = stranded[0]
        raise InfeasibleError(
            f"the {config.mapping} mapping strands {len(stranded)} interacting pair(s): "
            f"no ancilla path joins qubits {a} and {b} on this chip"
        )
    return layers, layout, mapping


def compile_once(config: RunConfig, circuit: LogicalCircuit):
    """``place`` plus one scheduler call; returns (schedule, layers).  The
    schedule holds the layout and mapping it was built on.  Both share one
    dependency DAG."""
    dag = build_dag(circuit)
    layers, layout, mapping = place(config, circuit, dag=dag)
    if config.scheduler == "resu":
        return schedule_sufficient(layers, layout, mapping, circuit), layers
    schedule = schedule_limited(circuit, layout, mapping, strategy=config.scheduler, dag=dag)
    return schedule, layers


def _report_label(config: RunConfig) -> str:
    """The config's label, else a name for its circuit source."""
    return config.label or (config.benchmark or config.qasm_path or
                            f"random{config.random_params}")


def run_full(config: RunConfig) -> tuple[RunReport, EncodedSchedule]:
    """Compile once, validate, and return the report with the schedule."""
    circuit = load_circuit(config)
    t0 = time.monotonic()
    schedule, layers = compile_once(config, circuit)
    seconds = time.monotonic() - t0
    layout = schedule.layout
    violations = validate(schedule, circuit)
    if violations:
        raise SurfcError(
            f"schedule failed validation ({len(violations)} violations): "
            + "; ".join(violations[:5])
        )
    if schedule.delta < layers.alpha:
        raise SurfcError(f"delta {schedule.delta} below critical path {layers.alpha}")
    report = RunReport(
        label=_report_label(config),
        n=circuit.n,
        alpha=layers.alpha,
        g=circuit.g,
        pm_estimate=layers.pm,
        model=config.model.value,
        chip=config.chip,
        chip_dims=(layout.m1, layout.m2),
        bandwidth=layout.bandwidth,
        capacity=layout.capacity,
        delta=schedule.delta,
        compile_seconds=seconds,
        valid=True,
        scheduler=config.scheduler,
        mapping=config.mapping,
        cuts=config.cuts,
        seed=config.seed,
    )
    return report, schedule


def run(config: RunConfig) -> RunReport:
    return run_full(config)[0]


def _run_one(config: RunConfig) -> tuple[RunConfig, RunReport | None, str]:
    try:
        return (config, run(config), "")
    except SurfcError as exc:
        return (config, None, str(exc))


def sweep(configs: list[RunConfig], workers: int = 1) -> tuple[list[dict], str]:
    """Run every config (partial failures recorded per row); returns
    (rows, csv_text).  Rows carry the compile-time ratio against the
    minimum-chip row of the same (label, model, scheduler, seed)."""
    if workers < 1:
        raise InfeasibleError(f"worker count {workers} must be >= 1")
    results: list[tuple[RunConfig, RunReport | None, str]] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, configs))
    else:
        results = [_run_one(c) for c in configs]
    min_time: dict[tuple, float] = {}
    for config, report, _err in results:
        if report and config.chip == "min":
            key = (report.label, report.model, report.scheduler, report.seed)
            min_time[key] = report.compile_seconds
    rows: list[dict] = []
    for config, report, err in results:
        if report is None:
            rows.append({"label": _report_label(config), "model": config.model.value,
                         "chip": config.chip, "scheduler": config.scheduler,
                         "mapping": config.mapping, "cuts": config.cuts, "seed": config.seed,
                         "valid": False, "error": err})
            continue
        row = report.to_json_dict()
        key = (report.label, report.model, report.scheduler, report.seed)
        base = min_time.get(key)
        row["time_ratio"] = (
            round(report.compile_seconds / base, 3) if base else ""
        )
        rows.append(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS + ["error"], extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return rows, buf.getvalue()


def compare(report_a: RunReport | dict, report_b: RunReport | dict) -> float:
    """Cycle reduction of B against A as a percentage: (dA - dB) / dA * 100."""
    a = report_a.to_json_dict() if isinstance(report_a, RunReport) else report_a
    b = report_b.to_json_dict() if isinstance(report_b, RunReport) else report_b
    for key in ("label", "chip_dims", "model"):
        if tuple(map(str, _as_tuple(a.get(key)))) != tuple(map(str, _as_tuple(b.get(key)))):
            raise InfeasibleError(f"reports disagree on {key}: {a.get(key)} vs {b.get(key)}")
    da, db = a["delta"], b["delta"]
    if da == 0:
        return 0.0
    return (da - db) / da * 100.0


def _as_tuple(v):
    return tuple(v) if isinstance(v, (list, tuple)) else (v,)


def parse_config_file(text: str) -> dict[str, str]:
    """Key/value config: one ``key = value`` per line, ``#`` comments.  Values
    stay the text written; ``config_from_mapping`` reads the integer keys.
    Keys mirror CLI flags."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InfeasibleError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def parse_random_params(text: str) -> tuple[int, int, int]:
    """``N,DEPTH,PAR`` as three integers, for ``gen_random_circuit``."""
    try:
        n, depth, par = (int(x) for x in text.split(","))
    except ValueError:
        raise InfeasibleError(f"random {text!r}: expected N,DEPTH,PAR") from None
    return (n, depth, par)


def config_from_mapping(data: dict) -> RunConfig:
    """A ``RunConfig`` from config keys: ``d``, ``seed`` and ``trials`` are
    integers (or their text), every other value is read as text."""
    kwargs: dict = {}
    text_keys = {"qasm": "qasm_path", "benchmark": "benchmark", "chip": "chip",
                 "scheduler": "scheduler", "mapping": "mapping", "cuts": "cuts", "label": "label"}
    for key, value in data.items():
        if key == "model":
            try:
                kwargs["model"] = ChipModel(value)
            except ValueError:
                raise InfeasibleError(f"model {value!r}: expected dd or ls") from None
        elif key in ("d", "seed", "trials"):
            try:
                kwargs[key] = value if type(value) is int else int(str(value))
            except ValueError:
                raise InfeasibleError(f"{key} {value!r}: expected an integer") from None
        elif key == "random":
            kwargs["random_params"] = parse_random_params(str(value))
        elif key in text_keys:
            kwargs[text_keys[key]] = str(value)
        else:
            raise InfeasibleError(f"unknown config key {key!r}")
    return RunConfig(**kwargs)
