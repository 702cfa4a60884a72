"""Workloads of the compile benchmark.

A workload is a fixed list of compiles.  Each compile ("row") is one
configuration of the pipeline applied to one random circuit from
``gen_random_circuit``; the circuit seeds are derived from the benchmark's
``--seed``, so the same seed always yields the same inputs.  The program only
ever sees the OpenQASM 2 text written here.

Rows of one model on circuits of one size form a group (``Row.group``); a
group pools chips and circuits.  Timing metrics take each group's median, so
one circuit that happens to compile slowly does not decide the workload's
figure; the per-compile table and the traced run still show every compile.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from surfc import ChipModel, LogicalCircuit, RunConfig, dims_for_avg_bandwidth, gen_random_circuit

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY
D = 3  # code distance of every row


@dataclass(frozen=True)
class Circuit:
    n: int
    depth: int
    par: int
    seed: int

    @property
    def name(self) -> str:
        return f"q{self.n}d{self.depth}p{self.par}s{self.seed}"

    @property
    def g(self) -> int:
        return self.depth * self.par

    def generate(self) -> LogicalCircuit:
        return gen_random_circuit(self.n, self.depth, self.par, self.seed)


@dataclass(frozen=True)
class Row:
    setting: str          # model and chip, e.g. "ls-b2"
    circuit: Circuit
    model: ChipModel
    chip: str
    options: tuple[tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.circuit.name}/{self.setting}"

    @property
    def group(self) -> str:
        return f"{self.model.value}-g{self.circuit.g}"

    def config(self, qasm_path: Path) -> RunConfig:
        return RunConfig(qasm_path=str(qasm_path), model=self.model, chip=self.chip,
                         d=D, seed=self.circuit.seed, label=self.label, **dict(self.options))


def _circuits(n: int, depths: tuple[int, ...], par: int, seed: int, per_depth: int) -> list[Circuit]:
    return [Circuit(n, depth, par, seed * per_depth + i)
            for depth in depths for i in range(per_depth)]


def _square(n: int, model: ChipModel, b_avg: int) -> str:
    side, _ = dims_for_avg_bandwidth(n, D, model, b_avg)
    return f"{side}x{side}"


def map49(seed: int) -> list[Row]:
    """The acceptance suite's criterion-8 instance (g=1050): default pipeline,
    trials=4, both models at average bandwidth 1 and 2."""
    return [Row(f"{model.value}-b{b}", c, model, _square(49, model, b), (("trials", 4),))
            for c in _circuits(49, (50,), 21, seed, 3)
            for model in (DD, LS) for b in (1, 2)]


def deep100(seed: int) -> list[Row]:
    """Snake mapping, so ``establish_mapping`` is bypassed and the stages that
    grow faster than the gate count do the work; two sizes expose the growth."""
    chip = _square(100, DD, 1)
    return [Row("dd-b1", c, DD, chip, (("mapping", "snake"),))
            for c in _circuits(100, (100, 200), 20, seed, 1)]


def resu49(seed: int) -> list[Row]:
    """Sufficient chips and the ``resu`` scheduler: the only rows that run
    ``schedule_sufficient`` and the batch router."""
    return [Row(model.value, c, model, "sufficient", (("mapping", "snake"), ("scheduler", "resu")))
            for c in _circuits(49, (50,), 4, seed, 32)
            for model in (DD, LS)]


WORKLOADS = {"map49": map49, "deep100": deep100, "resu49": resu49}


def qasm_text(circ: LogicalCircuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circ.n}];"]
    lines += [f"cx q[{g.control}],q[{g.target}];" for g in circ.gates]
    return "\n".join(lines) + "\n"


def prepare(workload: str, seed: int, directory: Path) -> tuple[list[Row], dict[str, LogicalCircuit]]:
    """Build the workload's rows, generate its circuits and write their QASM
    files into ``directory`` (one ``<circuit name>.qasm`` per circuit)."""
    rows = WORKLOADS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    circuits: dict[str, LogicalCircuit] = {}
    for row in rows:
        if row.circuit.name not in circuits:
            circ = row.circuit.generate()
            (directory / f"{row.circuit.name}.qasm").write_text(qasm_text(circ), encoding="utf-8")
            circuits[row.circuit.name] = circ
    return rows, circuits


def check_row(rows: list[Row]) -> int:
    """Index of the cheapest row: the smallest circuit, double defect first."""
    return min(range(len(rows)), key=lambda i: (rows[i].circuit.g, rows[i].model is not DD, i))
