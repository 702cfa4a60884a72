"""The exhaustive reference of ``surfc oracle``: the true optimal layering
width of a tiny circuit (``optimal_pm``), by exhaustive assignment.

It is budget-guarded: an input beyond its ``OracleBudget`` is refused with a
``BudgetExceededError`` rather than answered approximately.  The budget also
carries the grid and route limits of the tests' exhaustive cycle and
routability oracle, which lives with the tests (``tests/reference_oracle.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import GateDag
from .errors import BudgetExceededError


@dataclass(frozen=True)
class OracleBudget:
    max_gates: int = 8
    max_qubits: int = 6
    max_grid: tuple[int, int] = (3, 3)
    max_routes_per_pair: int = 20000

    def check_circuit(self, g: int, n: int) -> None:
        if g > self.max_gates or n > self.max_qubits:
            raise BudgetExceededError(
                f"instance (g={g}, n={n}) exceeds oracle budget "
                f"(g<={self.max_gates}, n<={self.max_qubits})"
            )

    def check_grid(self, rows: int, cols: int) -> None:
        if rows > self.max_grid[0] or cols > self.max_grid[1]:
            raise BudgetExceededError(
                f"grid {rows}x{cols} exceeds oracle budget {self.max_grid}"
            )


DEFAULT_BUDGET = OracleBudget()


def optimal_pm(dag: GateDag, n: int, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """True circuit parallelism of the ``n``-qubit circuit of ``dag``: minimum
    over all minimum-length layerings of the widest layer, by exhaustive
    assignment."""
    budget.check_circuit(dag.n_gates, n)
    g = dag.n_gates
    if g == 0:
        return 0
    alpha = dag.alpha
    order = sorted(range(g), key=lambda v: (dag.depth_from_source[v], v))
    high = [alpha - dag.depth_to_sink[v] + 1 for v in range(g)]
    layer = [0] * g
    loads = [0] * (alpha + 1)
    best = g  # trivially achievable width bound

    def dfs(idx: int, width: int) -> None:
        nonlocal best
        if width >= best:
            return
        if idx == len(order):
            best = width
            return
        v = order[idx]
        lo = 1 + max((layer[p] for p in dag.parents[v]), default=0)
        for L in range(lo, high[v] + 1):
            layer[v] = L
            loads[L] += 1
            dfs(idx + 1, max(width, loads[L]))
            loads[L] -= 1
        layer[v] = 0

    dfs(0, 0)
    return best
