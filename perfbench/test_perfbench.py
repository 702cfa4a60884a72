"""Tests of the compile benchmark itself: run with ``python -m pytest perfbench``."""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from surfc import harness  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402


def _cheapest(tmp_path: Path) -> run.Compile:
    rows, circuits = workloads.prepare("resu49", 0, tmp_path)
    row = rows[workloads.check_row(rows)]
    return run.Compile(row, tmp_path / f"{row.circuit.name}.qasm", circuits[row.circuit.name])


def test_dropped_action_counts_as_failed(tmp_path):
    c = _cheapest(tmp_path)
    report, schedule = harness.run_full(c.row.config(c.qasm_path))
    cycles = [list(acts) for acts in schedule.cycles]
    next(acts for acts in cycles if acts).pop()
    run.check_first(c, report, dataclasses.replace(schedule, cycles=cycles))
    assert c.causes and c.causes[0].startswith("validate:")
    assert run.one_pass([c], None, 0) == []


def test_correct_compile_passes_checks(tmp_path):
    c = _cheapest(tmp_path)
    probe = reference.SpeedProbe()
    assert [x for x, _, _ in run.one_pass([c], None, 0, probe)] == [c]
    assert c.causes == [] and len(probe.samples) == reference.BURST
    assert c.counts["scheduler.actions.braid"] == c.row.circuit.g


def test_parse_check_detects_a_changed_gate(tmp_path):
    import checks
    c = _cheapest(tmp_path)
    text = c.qasm_path.read_text()
    assert checks.check_parse(c.circuit, text) == []
    lines = text.splitlines()
    lines[-1] = "cx q[0],q[1];" if lines[-1] != "cx q[0],q[1];" else "cx q[1],q[0];"
    assert checks.check_parse(c.circuit, "\n".join(lines))


def test_traced_run_matches_untraced_and_restores_functions(tmp_path):
    c = _cheapest(tmp_path)
    original = harness.parse_qasm
    tracer = Tracer()
    run.one_pass([c], None, 0)
    assert run.one_pass([c], tracer, 0)
    assert c.causes == []
    assert harness.parse_qasm is original
    summary = tracer.summary()["p0/r0"]
    assert summary[ROOT_SPAN][1] == 1
    assert summary["router.route_batch_guaranteed"][1] == c.row.circuit.depth
    assert all(entry[0] >= 0 for entry in summary.values())


def test_same_seed_same_inputs(tmp_path):
    workloads.prepare("map49", 3, tmp_path / "a")
    workloads.prepare("map49", 3, tmp_path / "b")
    workloads.prepare("map49", 4, tmp_path / "c")
    a = sorted(p.read_text() for p in (tmp_path / "a").iterdir())
    assert a == sorted(p.read_text() for p in (tmp_path / "b").iterdir())
    assert a != sorted(p.read_text() for p in (tmp_path / "c").iterdir())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
