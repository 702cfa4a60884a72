"""Parallelism profiling: minimum-length layering and the width estimate.

Every gate carries a feasible layer window [low, high] derived from its
longest ancestor/descendant chains.  The builder repeatedly takes the gate
with the tightest window, drops it into the least-loaded feasible layer, and
tightens the windows of its relatives.  The result is a precedence-feasible
layering of exactly ``alpha`` layers; its widest layer is the circuit
parallelism estimate ``pm``.

The tightest gate comes off a binary heap keyed ``(high - low, gate id)``
with lazy deletion: a window change pushes the gate's new key and leaves the
old entry in place.  This is exact because a window only ever narrows, so a
gate's key only falls: the entry with its current key sorts before all of its
stale ones.  The first entry popped for a gate is therefore current and the
minimum over all unplaced gates; the gate is placed then, and every later
entry for it is skipped.  The layer is found by a scan over the window.  The
cost is O((g + window updates) log g) for the heap plus the length of the
scanned windows.

When every gate's initial window is one layer, as every
``gen_random_circuit`` circuit's is, the heap would give each gate that one
layer, so the layering is read off ``low`` and no heap is built.  Every key
is then ``(0, id)``, and placing a gate moves no window: ``low`` is the
longest path from a source, so each child's ``low`` already exceeds the
gate's layer, and ``high`` is ``alpha + 1`` less the longest path to a sink,
so each parent's ``high`` is already below it.

Tie-breaking (lowest gate id, then earliest layer) is fixed here so that runs
are reproducible; any choice yields a valid minimum-length layering.

``bipartite_prefix`` reads a layering as a stream of communication edges and
takes the longest run of layers whose edges still two-color; cut-type
initialisation runs it over the ASAP layering, ``resu`` over this one.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .circuits import GateDag, LogicalCircuit, two_coloring


@dataclass(frozen=True)
class LayerSchedule:
    layers: tuple[tuple[int, ...], ...]  # gate ids, per layer, sorted
    layer_of: tuple[int, ...]            # gate id -> 0-based layer index

    @property
    def alpha(self) -> int:
        return len(self.layers)

    @property
    def pm(self) -> int:
        """Max layer width: the parallelism estimate."""
        return max((len(layer) for layer in self.layers), default=0)

    @classmethod
    def of(cls, layer_of: list[int], alpha: int) -> "LayerSchedule":
        """The layering that puts gate ``v`` in 0-based layer ``layer_of[v]``."""
        layers = [[] for _ in range(alpha)]
        for v, layer in enumerate(layer_of):
            layers[layer].append(v)
        return cls(tuple(map(tuple, layers)), tuple(layer_of))


def para_finding(dag: GateDag) -> LayerSchedule:
    g = dag.n_gates
    alpha = dag.alpha
    if g == 0:
        return LayerSchedule((), ())
    children, parents = dag.children, dag.parents
    low = list(dag.depth_from_source)
    high = [alpha - d + 1 for d in dag.depth_to_sink]
    if low == high:  # every window is one layer: each gate's layer is fixed
        return LayerSchedule.of([layer - 1 for layer in low], alpha)
    loads = [0] * (alpha + 1)  # 1-indexed by layer
    done = [False] * g
    heap = [(high[v] - low[v], v) for v in range(g)]
    heapify(heap)

    def raise_low(v: int, floor: int) -> None:
        stack = [(v, floor)]
        while stack:
            v, floor = stack.pop()
            if low[v] >= floor:
                continue
            low[v] = floor
            if done[v]:
                raise AssertionError("window update crossed an assigned gate")
            heappush(heap, (high[v] - floor, v))
            stack.extend((c, floor + 1) for c in children[v])

    def drop_high(v: int, ceil: int) -> None:
        stack = [(v, ceil)]
        while stack:
            v, ceil = stack.pop()
            if high[v] <= ceil:
                continue
            high[v] = ceil
            heappush(heap, (ceil - low[v], v))
            stack.extend((p, ceil - 1) for p in parents[v])

    for _ in range(g):
        gate = heappop(heap)[1]
        while done[gate]:
            gate = heappop(heap)[1]
        # min keeps the first of equal loads: ties go to the earliest layer
        layer = min(range(low[gate], high[gate] + 1), key=loads.__getitem__)
        done[gate] = True
        loads[layer] += 1
        low[gate] = high[gate] = layer
        for c in children[gate]:
            raise_low(c, layer + 1)
        for p in parents[gate]:
            drop_high(p, layer - 1)

    # a placed gate's window is its layer
    return LayerSchedule.of([layer - 1 for layer in low], alpha)


def bipartite_prefix(
    layers: LayerSchedule,
    start: int,
    circuit: LogicalCircuit,
) -> tuple[dict[int, int], int]:
    """Grow a communication sub-graph one layer at a time from ``start`` while
    it stays bipartite.  Returns (two-coloring, first unconsumed layer index).
    Any two adjacent layers have maximum degree two per qubit and cannot close
    an odd ring, so at least two layers are always consumed when available.

    Each edge is tested as it arrives, on a union-find that keeps every
    qubit's parity against its root: an edge closes an odd ring exactly when
    its two ends share a root at the same parity.  The edges of the layers
    consumed are then colored once, by ``two_coloring``."""
    root = list(range(circuit.n))
    parity = [0] * circuit.n  # against root[q], and once q is a root, 0

    def find(q: int) -> tuple[int, int]:
        """q's root and q's parity against it; compresses the path."""
        path = []
        while root[q] != q:
            path.append(q)
            q = root[q]
        odd = 0
        for p in reversed(path):  # nearest the root first
            odd ^= parity[p]
            parity[p] = odd
            root[p] = q
        return q, odd

    def join(a: int, b: int) -> bool:
        """Add the edge a-b; False, adding nothing, if it closes an odd ring."""
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            return pa != pb
        root[ra] = rb
        parity[ra] = pa ^ pb ^ 1  # a and b at opposite parities
        return True

    gates = circuit.gates
    edges: set[tuple[int, int]] = set()
    end = start
    while end < layers.alpha:
        pairs = [gates[gid][1:] for gid in layers.layers[end]]
        if not all(join(a, b) for a, b in pairs):
            break
        edges.update((min(a, b), max(a, b)) for a, b in pairs)
        end += 1
    if end == start:  # a single layer is a matching, always bipartite
        raise AssertionError("bipartite prefix consumed no layers")
    assert end - start >= 2 or end == layers.alpha, "two adjacent layers must be consumable"
    coloring = two_coloring(circuit.n, edges)
    assert coloring is not None
    return coloring, end
