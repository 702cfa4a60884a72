"""Logical CNOT circuits and their two derived graph views.

A circuit is an ordered list of CNOT gates over ``n`` logical qubits.  Two
derived structures drive everything downstream:

* the gate dependency DAG (immediate predecessors only), whose critical-path
  length ``alpha`` lower-bounds any schedule, and
* the qubit communication graph, whose edge weights count CNOTs per pair.

A gate is a named tuple ``(gid, control, target)``: it unpacks as one and
compares equal to the plain tuple, so the passes over a circuit read their
gates with C-level unpacking instead of attribute lookups.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import CircuitError


class CnotGate(NamedTuple):
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
        n = self.n
        for i, (gid, c, t) in enumerate(self.gates):
            if gid != i:
                raise CircuitError(f"gate ids must be dense 0..g-1, found {gid} at {i}")
            if c == t:
                raise CircuitError(f"gate {gid}: control equals target ({c})")
            if not (0 <= c < n and 0 <= t < n):
                q = t if 0 <= c < n else c
                raise CircuitError(f"gate {gid}: qubit {q} out of range [0, {n})")

    @property
    def g(self) -> int:
        return len(self.gates)


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
        # reversed program order visits children before parents; bitmask per
        # gate, dropped once its lowest parent, its last reader, has read it
        desc = [0] * self.n_gates
        parents = self.parents
        for v in reversed(range(self.n_gates)):
            mask = 0
            for c in self.children[v]:
                mask |= desc[c] | (1 << c)
                if parents[c][0] == v:
                    desc[c] = 0
            desc[v] = mask
            counts[v] = mask.bit_count()
        return counts


def build_dag(circ: LogicalCircuit) -> GateDag:
    """Immediate-predecessor DAG of a circuit, with critical-path depths.

    A gate's parents are the last gates on its two qubits, in ascending
    order (one parent when both are the same gate); each gate joins its
    parents' child lists in program order."""
    g = circ.g
    parents: list[tuple[int, ...]] = [()] * g
    children: list[list[int]] = [[] for _ in range(g)]
    down = [1] * g  # program order is a topological order
    last = [-1] * circ.n  # each qubit's last gate so far, -1 before its first
    for v, c, t in circ.gates:
        a, b = last[c], last[t]
        last[c] = last[t] = v
        if a < 0:
            if b >= 0:
                parents[v] = (b,)
                children[b].append(v)
                down[v] = down[b] + 1
        elif b < 0 or a == b:
            parents[v] = (a,)
            children[a].append(v)
            down[v] = down[a] + 1
        else:
            parents[v] = (a, b) if a < b else (b, a)
            children[a].append(v)
            children[b].append(v)
            da, db = down[a], down[b]
            down[v] = (da if da > db else db) + 1
    up = [1] * g
    for v in reversed(range(g)):  # a gate's children all come after it
        depth = up[v] + 1
        for p in parents[v]:
            if up[p] < depth:
                up[p] = depth
    return GateDag(
        n_gates=g,
        parents=tuple(parents),
        children=tuple(map(tuple, children)),
        alpha=max(down, default=0),
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


def build_comm_graph(circ: LogicalCircuit) -> CommGraph:
    """Weights keyed by ``(min, max)`` pair, in order of each pair's first gate."""
    pairs = Counter((c, t) if c < t else (t, c) for _, c, t in circ.gates)
    return CommGraph(circ.n, dict(pairs))


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
