"""Synthetic circuit generators.

``gen_random_circuit`` builds circuits with a known-optimal layering: it lays
down ``parallelism`` disjoint gate chains ("rails"), one gate per rail per
layer, so every gate sits on a maximal dependency chain.  The minimum-length
layering is then unique, its length is exactly ``depth`` and its widest layer
is exactly ``parallelism`` — which makes these circuits usable as ground truth
for the profiler.
"""
from __future__ import annotations

import random

from .circuits import LogicalCircuit, circuit
from .errors import InfeasibleError


def gen_random_circuit(n: int, depth: int, parallelism: int, seed: int) -> LogicalCircuit:
    """Seeded random circuit of exactly ``depth`` layers of ``parallelism`` gates.

    Each layer keeps one ascending list of its free qubits, all n minus the
    rails' carried qubits, and every pick pops a ``randrange`` index from it.
    The list stays the ascending list of qubits not yet used in the layer, so
    each ``randrange`` sees the same length and picks the same qubit as a list
    rebuilt per gate would: the ``rng`` call sequence, and with it the circuit
    of each seed, does not depend on how the list is kept.  A layer costs one
    O(n) list build plus one pop per pick, not an O(n) rebuild per gate."""
    if depth < 1 or parallelism < 1:
        raise InfeasibleError("depth and parallelism must be >= 1")
    if 2 * parallelism > n:
        raise InfeasibleError(
            f"need 2*parallelism <= n qubits, got parallelism={parallelism}, n={n}"
        )
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    carries: list[int] = []
    for layer in range(depth):
        carried = set(carries)
        free = [q for q in range(n) if q not in carried]
        new_carries: list[int] = []
        for rail in range(parallelism):
            u = free.pop(rng.randrange(len(free))) if layer == 0 else carries[rail]
            v = free.pop(rng.randrange(len(free)))
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
            new_carries.append(u if rng.random() < 0.5 else v)
        carries = new_carries
    return circuit(n, pairs)

