import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_schedule, random_tiny_circuit, uniform_dd_layout, uniform_ls_layout
from reference_oracle import optimal_cycles, routing_feasible
from surfc.chip import ChipModel
from surfc.circuits import build_comm_graph, build_dag, circuit
from surfc.errors import BudgetExceededError
from surfc.oracle import OracleBudget, optimal_pm
from surfc.placement import (
    ArrayShape,
    CutType,
    TileMapping,
    baseline_mapping,
    establish_mapping,
    init_cut_types,
)
from surfc.profiler import para_finding
from surfc.scheduler import LIMITED, schedule_limited, schedule_sufficient

DD = ChipModel.DOUBLE_DEFECT


class TestOptimalPm:
    def test_independent_gates(self):
        c = circuit(10, [(2 * i, 2 * i + 1) for i in range(5)])
        assert optimal_pm(build_dag(c), c.n, OracleBudget(max_qubits=10)) == 5

    def test_chain(self):
        c = circuit(2, [(0, 1)] * 5)
        assert optimal_pm(build_dag(c), c.n) == 1

    def test_two_disjoint_chains_pair_up(self):
        c = circuit(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        assert optimal_pm(build_dag(c), c.n) == 2

    def test_budget_refusal(self):
        c = circuit(2, [(0, 1)] * 9)
        with pytest.raises(BudgetExceededError):
            optimal_pm(build_dag(c), c.n, OracleBudget(max_gates=8))

    def test_never_above_estimate(self, rng):
        for _ in range(30):
            c = random_tiny_circuit(rng, max_n=6, max_g=7)
            dag = build_dag(c)
            assert optimal_pm(dag, c.n) <= para_finding(dag).pm


def _snake_setup(c, rows=2, cols=3):
    layout = uniform_dd_layout(rows, cols)
    mapping = baseline_mapping("snake", c.n, ArrayShape(rows, cols))
    cuts = init_cut_types(c)
    return layout, mapping.with_cuts(cuts), cuts


class TestOptimalCycles:
    def test_single_cnot_opposite(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _snake_setup(c, 1, 2)
        assert optimal_cycles(c, layout, mapping) == 1

    def test_single_cnot_same_cut(self):
        c = circuit(2, [(0, 1)])
        layout = uniform_dd_layout(1, 2)
        cuts = {0: CutType.X, 1: CutType.X}
        mapping = baseline_mapping("snake", 2, ArrayShape(1, 2)).with_cuts(cuts)
        assert optimal_cycles(c, layout, mapping) == 3

    def test_five_independent_gates_one_cycle(self):
        # the motivation example shape: independent gates, bound witnessed by
        # the heuristic schedule, floor alpha = 1
        c = circuit(10, [(2 * i, 2 * i + 1) for i in range(5)])
        layout = uniform_dd_layout(3, 4, bandwidth=5)
        mapping = baseline_mapping("snake", 10, ArrayShape(3, 4))
        cuts = init_cut_types(c)
        mapping = mapping.with_cuts(cuts)
        sched = schedule_limited(c, layout, mapping)
        assert sched.delta == 1
        budget = OracleBudget(max_gates=8, max_qubits=10, max_grid=(3, 4))
        assert optimal_cycles(c, layout, mapping, budget, upper_bound=1) == 1

    def test_oracle_never_beaten_by_heuristics(self):
        budget = OracleBudget()
        for trial in range(30):
            rng = random.Random(4000 + trial)
            c = random_tiny_circuit(rng)
            layout, mapping, cuts = _snake_setup(c)
            sched = schedule_limited(c, layout, mapping)
            opt = optimal_cycles(c, layout, mapping, budget)
            assert opt <= sched.delta
            assert opt >= build_dag(c).alpha

    def test_deterministic(self):
        c = circuit(3, [(0, 1), (1, 2), (0, 2)])
        layout, mapping, cuts = _snake_setup(c, 1, 3)
        a = optimal_cycles(c, layout, mapping)
        b = optimal_cycles(c, layout, mapping)
        assert a == b

    def test_budget_refusal(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _snake_setup(c, 1, 2)
        with pytest.raises(BudgetExceededError):
            optimal_cycles(c, layout, mapping, OracleBudget(max_gates=0))


class TestRoutingFeasible:
    def test_empty(self):
        assert routing_feasible(uniform_dd_layout(2, 2), [])

    def test_lattice_surgery_one_tile_route(self):
        # every tile but the one between the operands is blocked
        layout = uniform_ls_layout(1, 2)
        grid = {(r, c) for r in range(layout.grid_rows) for c in range(layout.grid_cols)}
        assert routing_feasible(layout, [((1, 1), (1, 3))], frozenset(grid - {(1, 2)}))

    def test_any_three_pairs_on_three_by_three(self):
        # exhaustive form of the chip-capacity base case: every placement of
        # three independent pairs on a bandwidth-1 3x3 grid is routable
        layout = uniform_dd_layout(3, 3)
        tiles = [(r, c) for r in range(3) for c in range(3)]

        def matchings(items, k):
            if k == 0:
                yield []
                return
            a = items[0]
            for i in range(1, len(items)):
                for m in matchings(items[1:i] + items[i + 1:], k - 1):
                    yield [(a, items[i])] + m

        checked = 0
        for six in itertools.combinations(tiles, 6):
            for pairs in matchings(list(six), 3):
                assert routing_feasible(layout, pairs)
                checked += 1
        assert checked == 1260

    def test_four_pair_ring_infeasible(self):
        # frozen instance found by exhaustive search: a ring of crossing pairs
        # that saturates the separating channels, so a fourth gate cannot fit
        layout = uniform_dd_layout(3, 3)
        ring = [((0, 0), (1, 1)), ((0, 1), (2, 0)), ((0, 2), (1, 0)), ((1, 2), (2, 1))]
        assert not routing_feasible(layout, ring)

    def test_budget_refusal(self):
        layout = uniform_dd_layout(4, 4)
        with pytest.raises(BudgetExceededError):
            routing_feasible(layout, [((0, 0), (3, 3))])


class TestReSuAgainstOracle:
    def test_smoke_approximation(self):
        for trial in range(20):
            rng = random.Random(8800 + trial)
            c = random_tiny_circuit(rng)
            layout = uniform_dd_layout(2, 3)
            mapping = baseline_mapping("snake", c.n, ArrayShape(2, 3))
            layers = para_finding(build_dag(c))
            sched = schedule_sufficient(layers, layout, mapping, c)
            mapping2 = sched.mapping
            check_schedule(sched, c, layout, mapping2)
            opt = optimal_cycles(c, layout, mapping2)
            assert sched.delta <= -(-5 * opt // 2)


class TestLimitedAgainstOracle:
    """Every limited-resource strategy against the exact optimum, on both
    models.  The worst ratios seen on these 30 circuits are recorded below; a
    strategy that gets worse against the optimum fails here."""

    WORST_RATIO = {
        ("dd", "ecmas"): 11 / 7,
        ("dd", "circuit-order"): 11 / 7,
        ("dd", "time-first"): 11 / 7,
        ("dd", "channel-first"): 9 / 8,
        ("ls", "ecmas"): 1.0,
        ("ls", "circuit-order"): 1.0,
        ("ls", "time-first"): 1.0,
        ("ls", "channel-first"): 1.0,
    }

    @pytest.mark.parametrize("model", ["dd", "ls"])
    def test_every_strategy_validates_and_respects_optimum(self, model):
        worst = dict.fromkeys(LIMITED, 0.0)
        for trial in range(30):
            c = random_tiny_circuit(random.Random(6100 + trial))
            mapping = baseline_mapping("snake", c.n, ArrayShape(2, 3))
            if model == "dd":
                layout = uniform_dd_layout(2, 3)
                mapping = mapping.with_cuts(init_cut_types(c))
            else:
                layout = uniform_ls_layout(2, 3)
            opt = optimal_cycles(c, layout, mapping)
            assert opt >= build_dag(c).alpha
            for strategy in LIMITED:
                sched = schedule_limited(c, layout, mapping, strategy=strategy)
                check_schedule(sched, c, layout, mapping)
                assert opt <= sched.delta, (trial, strategy)
                worst[strategy] = max(worst[strategy], sched.delta / opt)
        for strategy, ratio in worst.items():
            assert ratio <= self.WORST_RATIO[(model, strategy)] + 1e-9, (strategy, ratio)

    # the worst ratios the derandomized sweep below meets: 12/8 and 9/7, both
    # on 3x3 at bandwidth 1
    SWEEP_WORST_RATIO = {
        ("dd", "ecmas"): 3 / 2,
        ("dd", "circuit-order"): 3 / 2,
        ("dd", "time-first"): 3 / 2,
        ("dd", "channel-first"): 9 / 7,
        ("ls", "ecmas"): 1.0,
        ("ls", "circuit-order"): 1.0,
        ("ls", "time-first"): 1.0,
        ("ls", "channel-first"): 1.0,
    }

    # (model, rows, cols, bandwidth or gap): every array the oracle's budget
    # admits; lattice surgery only at gap 1 and up to 2x3, where the route
    # enumeration stays within budget
    @pytest.mark.parametrize("model, rows, cols, width", [
        *(("dd", r, c, w) for r, c in ((2, 2), (2, 3), (3, 3)) for w in (1, 2)),
        ("ls", 2, 2, 1), ("ls", 2, 3, 1)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sweep_of_arrays_mappings_and_bandwidths(self, model, rows, cols, width, data):
        if model == "dd":
            layout = uniform_dd_layout(rows, cols, bandwidth=width)
        else:
            layout = uniform_ls_layout(rows, cols, gap=width)
        c, mapping = data.draw(_circuit_and_mapping(layout))
        if model == "dd":
            mapping = mapping.with_cuts(init_cut_types(c))
        opt = optimal_cycles(c, layout, mapping)
        assert opt >= build_dag(c).alpha
        for strategy in LIMITED:
            sched = schedule_limited(c, layout, mapping, strategy=strategy)
            check_schedule(sched, c, layout, mapping)
            assert opt <= sched.delta, strategy
            assert sched.delta / opt <= self.SWEEP_WORST_RATIO[(model, strategy)] + 1e-9, strategy


@st.composite
def _circuit_and_mapping(draw, layout):
    """A circuit of at most 5 qubits and 6 gates, and its snake, random or
    ``ecmas`` mapping on the array of ``layout``, with no cuts."""
    shape = ArrayShape(layout.array_r, layout.array_c)
    n = draw(st.integers(2, min(5, shape.rows * shape.cols)))
    # a second operand other than the first: b in 0..n-2, moved past a
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                          min_size=1, max_size=6))
    c = circuit(n, [(a, b + (b >= a)) for a, b in pairs])
    kind = draw(st.sampled_from(("snake", "random", "ecmas")))
    seed = draw(st.integers(0, 3))
    if kind == "ecmas":
        return c, establish_mapping(build_comm_graph(c), shape, trials=4, seed=seed, layout=layout)
    return c, baseline_mapping(kind, n, shape, seed=seed)
