#!/usr/bin/env python3
"""Compile benchmark for surfc.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map49 --seed 0 --seconds 30 --trace 0

One closed-loop client compiles the workload's rows one at a time, each with
``harness.run_full`` on the OpenQASM text written during set-up, in passes
until ``--seconds`` runs out (at least one pass).  Every compile's output is
checked.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` each pass runs the rows once
untraced and once traced, and the object carries the per-layer metrics.  The
per-compile table, the delta fingerprint and the run environment go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, the spans of a traced
run to ``perfbench/out/<workload>-seed<seed>-spans.jsonl``.

End-to-end times are scaled to reference speed (see ``reference.py``); the
result file also keeps the raw wall-clock figures.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up runs in one fresh interpreter per hash seed; the last one also
# compiles the cheapest row, whose delta must match this process's.
HASH_SEEDS = ("1", "2", "77")
# The measuring process always runs under this hash seed: string hashing sets
# the iteration order of the router's sets, and with it how much work a
# compile does (not its delta), by up to a fifth on the lattice-surgery rows.
MEASURE_HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "gates_per_s": "gates/s",
    "compile_s.p50": "s",
    "compile_s.max": "s",
    "delta_sum": "cycles",
    "delta_over_alpha": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> spans whose self time it sums
SPAN_METRICS = {
    "qasm.parse_qasm_s": ("qasm.parse_qasm",),
    "circuits.build_dag_s": ("circuits.build_dag",),
    "circuits.build_comm_graph_s": ("circuits.build_comm_graph",),
    "profiler.para_finding_s": ("profiler.para_finding",),
    "chip.layout_s": ("chip.config_dims", "chip.derive_layout"),
    "placement.establish_mapping_s": ("placement.establish_mapping",),
    "placement.baseline_mapping_s": ("placement.baseline_mapping",),
    "placement.repair_mapping_s": ("placement.repair_mapping",),
    "placement.cuts_s": ("placement.init_cut_types",),
    "placement.adjust_bandwidth_s": ("placement.adjust_bandwidth",),
    "scheduler.schedule_limited_s": ("scheduler.schedule_limited",),
    "scheduler.schedule_sufficient_s": ("scheduler.schedule_sufficient",),
    "scheduler.validate_s": ("scheduler.validate",),
    "router.find_path_s": ("router.find_path",),
    "router.route_batch_s": ("router.route_batch_guaranteed",),
    "harness.self_s": ("harness.run_full",),
}
# stages whose growth between a workload's two circuit sizes is reported
EXP_METRICS = ("profiler.para_finding_s", "placement.adjust_bandwidth_s",
               "scheduler.schedule_limited_s", "scheduler.validate_s")
COUNT_METRICS = ("circuits.dag_edges", "placement.mapping_cost", "scheduler.actions.braid",
                 "scheduler.actions.bell", "scheduler.actions.direct",
                 "scheduler.actions.modify", "router.route_nodes")

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{f"{name}.exp": "log2" for name in EXP_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "router.find_path.calls": "count",
    "router.find_path.miss_frac": "fraction",
    "router.route_batch.calls": "count",
    "trace.overhead_frac": "fraction",
}


class Compile:
    """One row of the workload and everything measured about it."""

    def __init__(self, row, qasm_path: Path, circuit):
        self.row = row
        self.qasm_path = qasm_path
        self.circuit = circuit  # the generated circuit, for the output checks
        self.samples: list[tuple[float, float]] = []  # (wall seconds, scale to reference speed)
        self.traced_seconds: list[float] = []
        self.alpha: int | None = None
        self.delta: int | None = None
        self.counts: dict[str, int] = {}
        self.causes: list[str] = []

    def wall_s(self) -> float:
        return statistics.median(s for s, _ in self.samples)

    def scaled_s(self) -> float:
        return statistics.median(s * k for s, k in self.samples)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("map49", "deep100", "resu49"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_child(args) -> int:
    """Set-up in this fresh interpreter: import surfc, generate the circuits,
    write their QASM.  Prints the time and this interpreter's reference speed,
    then optionally the check row's delta."""
    t0 = perf_counter()
    import surfc
    import workloads
    directory = Path(args.setup_child)
    rows, _ = workloads.prepare(args.workload, args.seed, directory)
    setup_s = perf_counter() - t0
    probe = reference.SpeedProbe()
    probe.tick()
    out = {"setup_s": setup_s, "scale": probe.scale()}
    if args.check:
        row = rows[workloads.check_row(rows)]
        try:
            report, _ = surfc.harness.run_full(row.config(directory / f"{row.circuit.name}.qasm"))
            out["check_delta"] = report.delta
        except Exception as exc:  # reported as the check row's failure
            out["check_delta"] = f"run_full raised {type(exc).__name__}: {exc}"
    print(json.dumps(out))
    return 0


def run_setup_children(args, work: Path) -> tuple[list[tuple[float, float]], int | str]:
    """(setup seconds, scale) per fresh interpreter, and the check row's delta
    or the error it raised."""
    samples, check_delta = [], None
    for i, hash_seed in enumerate(HASH_SEEDS):
        directory = work / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-child", str(directory)]
        if i == len(HASH_SEEDS) - 1:
            cmd.append("--check")
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["scale"]))
        check_delta = result.get("check_delta", check_delta)
    return samples, check_delta


def check_first(c: Compile, report, schedule) -> None:
    """Check a compile's first output and read its counts.  Only these figures
    are kept, so the heap does not grow with the pass."""
    import checks
    c.alpha, c.delta = report.alpha, schedule.delta
    c.causes += checks.check_compile(c.row, c.circuit, report.alpha, report.pm_estimate, schedule)
    c.counts = checks.output_counts(c.circuit, schedule)


def one_pass(compiles: list[Compile], tracer, pass_no: int,
             probe: reference.SpeedProbe | None = None) -> list[tuple[Compile, float, float]]:
    """Compile every row that has not failed once; returns (compile, wall
    seconds, start time).  The probe, if given, ticks before each compile."""
    from surfc import harness
    timed = []
    for i, c in enumerate(compiles):
        if c.causes:
            continue
        config = c.row.config(c.qasm_path)
        if probe is not None:
            probe.tick()
        gc.collect()
        t0 = perf_counter()
        try:
            if tracer is None:
                report, schedule = harness.run_full(config)
            else:
                tracer.request = f"p{pass_no}/r{i}"
                report, schedule = tracer.run_full(config)
        except Exception as exc:  # a compile that raises is counted as failed; the run goes on
            c.causes.append(f"{'traced ' if tracer else ''}run_full raised {type(exc).__name__}: {exc}")
            continue
        elapsed = perf_counter() - t0
        if c.delta is None:
            check_first(c, report, schedule)
        elif schedule.delta != c.delta:
            c.causes.append(f"delta {schedule.delta} on a {'traced' if tracer else 'repeat'} "
                            f"run, {c.delta} on the first")
        del report, schedule
        timed.append((c, elapsed, t0))
    return timed


def measure(compiles: list[Compile], seconds: float, tracer) -> tuple[int, reference.SpeedProbe]:
    """Passes over all rows until the next one would overrun ``seconds``.
    Untraced compiles are interleaved with the reference kernel and scaled by
    its mean time around each compile."""
    deadline = perf_counter() + seconds
    probe = reference.SpeedProbe()
    timed = []
    pass_times: list[float] = []
    while True:
        t0 = perf_counter()
        timed += one_pass(compiles, None, len(pass_times), probe)
        if tracer is not None:
            for c, elapsed, _ in one_pass(compiles, tracer, len(pass_times)):
                c.traced_seconds.append(elapsed)
        pass_times.append(perf_counter() - t0)
        if perf_counter() + pass_times[-1] > deadline:
            break
    probe.tick()
    for c, elapsed, t0 in timed:
        c.samples.append((elapsed, probe.scale(t0, t0 + elapsed)))
    return len(pass_times), probe


def end_to_end(ok: list[Compile], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics scaled to reference speed, the same timings in wall seconds)."""
    groups: dict[str, list[Compile]] = defaultdict(list)
    for c in ok:
        groups[c.row.group].append(c)
    g = sum(cs[0].row.circuit.g for cs in groups.values())
    ratios = [c.delta / c.alpha for c in ok]

    def timings(per_compile, setup_s) -> dict:
        group_s = [statistics.median(per_compile(c) for c in cs) for cs in groups.values()]
        return {
            "setup_s": statistics.median(setup_s),
            "gates_per_s": g / sum(group_s) if ok else 0.0,
            "compile_s.p50": statistics.median(group_s) if ok else 0.0,
            "compile_s.max": max(group_s, default=0.0),
        }

    scaled = timings(Compile.scaled_s, [s * k for s, k in setup])
    scaled.update({
        "delta_sum": float(sum(c.delta for c in ok)),
        "delta_over_alpha": math.exp(statistics.fmean(map(math.log, ratios))) if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return scaled, timings(Compile.wall_s, [s for s, _ in setup])


def per_layer(ok: list[Compile], compiles: list[Compile], tracer) -> dict[str, float]:
    """Per-layer metrics from the spans (wall seconds) and the output counts."""
    summary = tracer.summary()
    index = {id(c): i for i, c in enumerate(compiles)}
    passes = sorted({r.split("/")[0] for r in summary})

    def row_self(c: Compile, spans) -> float:
        i = index[id(c)]
        return statistics.median(sum(summary[f"{p}/r{i}"][s][0] for s in spans) for p in passes)

    out: dict[str, float] = {}
    for name, spans in SPAN_METRICS.items():
        out[name] = sum(row_self(c, spans) for c in ok)
    sizes = sorted({c.row.circuit.g for c in ok})
    for name in EXP_METRICS:
        out[f"{name}.exp"] = 0.0
        if len(sizes) > 1:
            small = sum(row_self(c, SPAN_METRICS[name]) for c in ok if c.row.circuit.g == sizes[0])
            large = sum(row_self(c, SPAN_METRICS[name]) for c in ok if c.row.circuit.g == sizes[-1])
            if small > 0 and large > 0:
                out[f"{name}.exp"] = math.log2(large / small)
    for name in COUNT_METRICS:
        out[name] = float(sum(c.counts[name] for c in ok))
    first = [summary[f"{passes[0]}/r{index[id(c)]}"] for c in ok]
    calls = sum(s["router.find_path"][1] for s in first)
    misses = sum(s["router.find_path"][2] for s in first)
    out["router.find_path.calls"] = float(calls)
    out["router.find_path.miss_frac"] = misses / calls if calls else 0.0
    out["router.route_batch.calls"] = float(sum(s["router.route_batch_guaranteed"][1] for s in first))
    untraced = sum(c.wall_s() for c in ok)
    traced = sum(statistics.median(c.traced_seconds) for c in ok)
    out["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    return out


def digest(workload: str, rows: list[dict]) -> str:
    """Fingerprint of every compile's delta, to show a speed-only change kept them."""
    keys = sorted([workload, r["label"], r["model"], r["chip"], r["delta"]] for r in rows)
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "surfc" / "__init__.py").is_file():
        print(f"perfbench: no surfc sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_child:
        sys.path.insert(0, str(ROOT / "src"))
        return setup_child(args)
    if os.environ.get("PYTHONHASHSEED") != MEASURE_HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": MEASURE_HASH_SEED})
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / tag
    setup, check_delta = run_setup_children(args, work)

    import checks
    import workloads
    from tracing import Tracer

    rows, circuits = workloads.prepare(args.workload, args.seed, work)
    compiles = [Compile(row, work / f"{row.circuit.name}.qasm", circuits[row.circuit.name])
                for row in rows]
    for c in compiles:
        c.causes += checks.check_parse(c.circuit, c.qasm_path.read_text(encoding="utf-8"))

    tracer = Tracer() if args.trace else None
    passes, probe = measure(compiles, args.seconds, tracer)

    check = compiles[workloads.check_row(rows)]
    if check.delta is not None and check.delta != check_delta:
        check.causes.append(f"under PYTHONHASHSEED={HASH_SEEDS[-1]} another interpreter gave "
                            f"delta {check_delta!r}, this one {check.delta}")

    ok = [c for c in compiles if not c.causes]
    metrics, wall = end_to_end(ok, setup)
    if tracer is not None:
        metrics.update(per_layer(ok, compiles, tracer))
    units = {**END_TO_END, **PER_LAYER}
    reported = PER_LAYER if tracer else END_TO_END

    table = [{
        "workload": args.workload, "label": c.row.label, "model": c.row.model.value,
        "chip": c.row.chip, "g": c.row.circuit.g, "alpha": c.alpha, "delta": c.delta,
        "mapping_cost": c.counts.get("placement.mapping_cost"),
        "seconds": c.wall_s() if c.samples else None,
        "scaled_seconds": c.scaled_s() if c.samples else None,
        "samples": c.samples,
        "traced_seconds": statistics.median(c.traced_seconds) if c.traced_seconds else None,
        "failed": "; ".join(c.causes),
    } for c in compiles]
    failed = sum(1 for c in compiles if c.causes)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "attempted": len(compiles), "failed": failed,
        "failed_frac": failed / len(compiles),
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
                "check_hash_seed": HASH_SEEDS[-1], "reference_s": reference.REFERENCE_S},
        "setup_samples": setup,
        "digest": digest(args.workload, table),
        "rows": table,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_metrics": wall,
        "kernel_samples": probe.samples,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{tag}-spans.jsonl")

    for r in table:
        secs = f"{r['seconds']:.3f}s wall" if r["seconds"] is not None else "-"
        print(f"{r['label']:<22} {r['model']:<3} {r['chip']:<10} g={r['g']:<5} alpha={r['alpha']} "
              f"delta={r['delta']} cost={r['mapping_cost']} {secs}"
              + (f"  FAILED: {r['failed']}" if r["failed"] else ""))
    print(f"passes={passes} failed={failed}/{len(compiles)} failed_frac={result['failed_frac']:.6g} "
          f"digest={result['digest']}")
    for k, v in metrics.items():
        extra = f"  ({wall[k]:.6g} wall)" if k in wall else ""
        print(f"{k} = {v:.6g} {units[k]}{extra}")
    # the last line carries only the metrics of the requested kind
    print(json.dumps({"correct": failed == 0, "attempted": len(compiles), "failed": failed,
                      "metrics": {k: result["metrics"][k] for k in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
