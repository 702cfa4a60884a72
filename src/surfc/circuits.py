"""Logical CNOT circuits and their two derived graph views.

A circuit is an ordered list of CNOT gates over ``n`` logical qubits.  Two
derived structures drive everything downstream:

* the gate dependency DAG (immediate predecessors only), whose critical-path
  length ``alpha`` lower-bounds any schedule, and
* the qubit communication graph, whose edge weights count CNOTs per pair.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CircuitError


@dataclass(frozen=True)
class CnotGate:
    gid: int
    control: int
    target: int

    @property
    def qubits(self) -> tuple[int, int]:
        return (self.control, self.target)


@dataclass(frozen=True)
class LogicalCircuit:
    n: int
    gates: tuple[CnotGate, ...]

    def __post_init__(self):
        for i, g in enumerate(self.gates):
            if g.gid != i:
                raise CircuitError(f"gate ids must be dense 0..g-1, found {g.gid} at {i}")
            if g.control == g.target:
                raise CircuitError(f"gate {g.gid}: control equals target ({g.control})")
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise CircuitError(f"gate {g.gid}: qubit {q} out of range [0, {self.n})")

    @property
    def g(self) -> int:
        return len(self.gates)

    def to_json(self) -> str:
        """Canonical dump used by golden tests: {n, gates: [[id, control, target], ...]}."""
        payload = {"n": self.n, "gates": [[g.gid, g.control, g.target] for g in self.gates]}
        return json.dumps(payload, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "LogicalCircuit":
        payload = json.loads(text)
        gates = tuple(CnotGate(gid, c, t) for gid, c, t in payload["gates"])
        return LogicalCircuit(payload["n"], gates)


def circuit(n: int, pairs: list[tuple[int, int]]) -> LogicalCircuit:
    """Build a circuit from (control, target) pairs, assigning dense gate ids."""
    return LogicalCircuit(n, tuple(CnotGate(i, c, t) for i, (c, t) in enumerate(pairs)))


@dataclass(frozen=True)
class GateDag:
    """Immediate-dependency DAG: edge (u, v) iff u and v share a qubit and u is the
    last gate touching that qubit before v.  Transitive edges are omitted; they add
    nothing and would break the front-gate / layer-bound recurrences."""

    n_gates: int
    parents: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    alpha: int
    depth_from_source: tuple[int, ...] = field(repr=False)  # longest path ending at gate, >= 1
    depth_to_sink: tuple[int, ...] = field(repr=False)      # longest path starting at gate, >= 1

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n_gates) for v in self.children[u]]

    def descendant_counts(self) -> list[int]:
        """Number of transitive descendants of each gate (excluding itself)."""
        counts = [0] * self.n_gates
        # reverse topological order: children before parents; bitmask per gate
        order = sorted(range(self.n_gates), key=lambda v: -self.depth_from_source[v])
        desc = [0] * self.n_gates
        for v in order:
            mask = 0
            for c in self.children[v]:
                mask |= desc[c] | (1 << c)
            desc[v] = mask
            counts[v] = bin(mask).count("1")
        return counts


def build_dag(circ: LogicalCircuit) -> GateDag:
    """Immediate-predecessor DAG of a circuit, with critical-path depths."""
    g = circ.g
    parents: list[list[int]] = [[] for _ in range(g)]
    children: list[list[int]] = [[] for _ in range(g)]
    last_on_qubit: dict[int, int] = {}
    for gate in circ.gates:
        preds = set()
        for q in gate.qubits:
            if q in last_on_qubit:
                preds.add(last_on_qubit[q])
        for p in sorted(preds):
            parents[gate.gid].append(p)
            children[p].append(gate.gid)
        for q in gate.qubits:
            last_on_qubit[q] = gate.gid
    down = [0] * g
    for v in range(g):  # program order is a topological order
        down[v] = 1 + max((down[p] for p in parents[v]), default=0)
    up = [0] * g
    for v in reversed(range(g)):
        up[v] = 1 + max((up[c] for c in children[v]), default=0)
    alpha = max(down, default=0)
    return GateDag(
        n_gates=g,
        parents=tuple(tuple(p) for p in parents),
        children=tuple(tuple(c) for c in children),
        alpha=alpha,
        depth_from_source=tuple(down),
        depth_to_sink=tuple(up),
    )


@dataclass(frozen=True)
class CommGraph:
    """Undirected qubit interaction graph; weight = CNOT multiplicity per pair."""

    n: int
    weights: dict[tuple[int, int], int]  # key (min_q, max_q)

    def weight(self, a: int, b: int) -> int:
        return self.weights.get((min(a, b), max(a, b)), 0)

    def edges(self) -> list[tuple[int, int, int]]:
        return [(a, b, w) for (a, b), w in sorted(self.weights.items())]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per qubit, its ``(neighbor, weight)`` pairs sorted by neighbor;
        built once on first use."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (a, b), w in self.weights.items():
            rows[a].append((b, w))
            rows[b].append((a, w))
        return tuple(tuple(sorted(row)) for row in rows)

    def neighbors(self, q: int) -> list[int]:
        return [u for u, _w in self.adjacency[q]]

    def total_weight(self) -> int:
        return sum(self.weights.values())

    def is_bipartite(self) -> bool:
        return two_coloring(self.n, set(self.weights)) is not None


def build_comm_graph(circ: LogicalCircuit) -> CommGraph:
    weights: dict[tuple[int, int], int] = {}
    for gate in circ.gates:
        key = (min(gate.qubits), max(gate.qubits))
        weights[key] = weights.get(key, 0) + 1
    return CommGraph(circ.n, weights)


def two_coloring(n: int, edges: set[tuple[int, int]]) -> dict[int, int] | None:
    """BFS 2-coloring of the graph over vertices 0..n-1 restricted to vertices with
    edges; returns {vertex: 0|1} or None if an odd cycle exists.  Deterministic:
    components are rooted at their lowest vertex, which gets color 0."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    color: dict[int, int] = {}
    for root in sorted(adj):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color
