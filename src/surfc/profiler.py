"""Parallelism profiling: minimum-length layering and the width estimate.

Every gate carries a feasible layer window [low, high] derived from its
longest ancestor/descendant chains.  The builder repeatedly takes the gate
with the tightest window, drops it into the least-loaded feasible layer, and
tightens the windows of its relatives.  The result is a precedence-feasible
layering of exactly ``alpha`` layers; its widest layer is the circuit
parallelism estimate ``pm``.

Tie-breaking (lowest gate id, then earliest layer) is fixed here so that runs
are reproducible; any choice yields a valid minimum-length layering.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import GateDag
from .errors import CircuitError


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


def slack_tiebreak(
    candidates: set[int],
    low: dict[int, int],
    high: dict[int, int],
    loads: list[int],
) -> tuple[int, int]:
    """Pick (gate, layer): smallest high-low slack, ties to the lowest gate id;
    then the least-loaded layer in [low, high], ties to the earliest layer.
    ``loads`` is 1-indexed by layer."""
    if not candidates:
        raise CircuitError("no candidate gates to schedule")
    gate = min(candidates, key=lambda v: (high[v] - low[v], v))
    layer = min(range(low[gate], high[gate] + 1), key=lambda L: (loads[L], L))
    return gate, layer


def para_finding(dag: GateDag) -> LayerSchedule:
    g = dag.n_gates
    alpha = dag.alpha
    if g == 0:
        return LayerSchedule((), ())
    low = {v: dag.depth_from_source[v] for v in range(g)}
    high = {v: alpha - dag.depth_to_sink[v] + 1 for v in range(g)}
    loads = [0] * (alpha + 1)
    assigned: dict[int, int] = {}
    unscheduled = set(range(g))

    def raise_low(v: int, floor: int) -> None:
        stack = [(v, floor)]
        while stack:
            v, floor = stack.pop()
            if low[v] >= floor:
                continue
            low[v] = floor
            if v in assigned:
                raise AssertionError("window update crossed an assigned gate")
            stack.extend((c, floor + 1) for c in dag.children[v])

    def drop_high(v: int, ceil: int) -> None:
        stack = [(v, ceil)]
        while stack:
            v, ceil = stack.pop()
            if high[v] <= ceil:
                continue
            high[v] = ceil
            stack.extend((p, ceil - 1) for p in dag.parents[v])

    while unscheduled:
        gate, layer = slack_tiebreak(unscheduled, low, high, loads)
        unscheduled.remove(gate)
        assigned[gate] = layer
        loads[layer] += 1
        low[gate] = high[gate] = layer
        for c in dag.children[gate]:
            raise_low(c, layer + 1)
        for p in dag.parents[gate]:
            drop_high(p, layer - 1)

    layers = [[] for _ in range(alpha)]
    for v, layer in assigned.items():
        layers[layer - 1].append(v)
    return LayerSchedule(
        layers=tuple(tuple(sorted(layer)) for layer in layers),
        layer_of=tuple(assigned[v] - 1 for v in range(g)),
    )
