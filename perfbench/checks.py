"""Output checks and per-compile statistics of the compile benchmark.

Every check is independent of the harness's own validation: a compile counts
as failed here even if a later change stops ``run_full`` from checking.
"""
from __future__ import annotations

from collections import Counter

from surfc import LogicalCircuit, build_comm_graph, build_dag, mapping_cost, parse_qasm, validate
from surfc.scheduler import ActionKind, EncodedSchedule

from workloads import Row


def check_parse(generated: LogicalCircuit, text: str) -> list[str]:
    """The program must read back exactly the gate list that was generated."""
    parsed = parse_qasm(text)
    if parsed.n != generated.n:
        return [f"parsed {parsed.n} qubits, generated {generated.n}"]
    got = [(g.control, g.target) for g in parsed.gates]
    want = [(g.control, g.target) for g in generated.gates]
    if got != want:
        return [f"parsed gate list differs from the generated one ({len(got)} vs {len(want)} gates)"]
    return []


def check_compile(row: Row, circuit: LogicalCircuit, alpha: int, pm: int,
                  schedule: EncodedSchedule) -> list[str]:
    """Causes of failure for one compile; empty when its output is correct.

    ``alpha`` and ``pm`` are the values the program reported; the generator
    guarantees ``alpha == depth`` and ``pm == parallelism``.
    """
    causes = []
    violations = validate(schedule, circuit, schedule.layout, schedule.mapping)
    if violations:
        causes.append(f"validate: {len(violations)} violations, first: {violations[0]}")
    if schedule.delta < alpha:
        causes.append(f"delta {schedule.delta} < alpha {alpha}")
    if alpha != row.circuit.depth:
        causes.append(f"alpha {alpha} != generated depth {row.circuit.depth}")
    if pm != row.circuit.par:
        causes.append(f"pm {pm} != generated parallelism {row.circuit.par}")
    return causes


def output_counts(circuit: LogicalCircuit, schedule: EncodedSchedule) -> dict[str, int]:
    """Counts read from the input and the output: dependency-DAG edges,
    operations per action kind (a three-cycle DIRECT or MODIFY counts once),
    route nodes of committed gates, and the final mapping's communication
    cost."""
    kinds = Counter(a.kind for acts in schedule.cycles for a in acts if a.phase in (None, 1))
    route_nodes = sum(len(a.route.nodes) for acts in schedule.cycles for a in acts
                      if a.route is not None and a.phase in (None, 1))
    counts = {"circuits.dag_edges": sum(len(c) for c in build_dag(circuit).children)}
    counts.update({f"scheduler.actions.{k.value}": kinds.get(k, 0) for k in ActionKind})
    counts["router.route_nodes"] = route_nodes
    counts["placement.mapping_cost"] = mapping_cost(schedule.mapping, build_comm_graph(circuit))
    return counts
