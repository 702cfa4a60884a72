import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfc import profiler
from surfc.bench import BENCHMARKS
from surfc.circuits import GateDag, build_dag, circuit, two_coloring
from surfc.errors import CircuitError
from surfc.generate import gen_random_circuit
from surfc.oracle import OracleBudget, optimal_pm
from surfc.profiler import LayerSchedule, bipartite_prefix, para_finding


# Reference layering: the O(g^2) scan that takes a min over every unscheduled
# gate at each step.  The heap in surfc.profiler must reproduce it exactly.
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


def reference_para_finding(dag: GateDag) -> LayerSchedule:
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


def _layering_is_valid(layers, dag):
    assert layers.alpha == dag.alpha
    seen = set()
    for layer in layers.layers:
        seen.update(layer)
    assert seen == set(range(dag.n_gates))
    pos = layers.layer_of
    for u, v in dag.edges:
        assert pos[u] < pos[v]


class TestParaFinding:
    def test_chain(self):
        c = circuit(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        layers = para_finding(build_dag(c))
        assert layers.layers == ((0,), (1,), (2,), (3,))
        assert layers.pm == 1

    def test_independent_gates_one_layer(self):
        c = circuit(10, [(2 * i, 2 * i + 1) for i in range(5)])
        layers = para_finding(build_dag(c))
        assert layers.alpha == 1
        assert layers.pm == 5

    def test_matches_oracle_on_random_dags(self, rng):
        budget = OracleBudget(max_gates=10, max_qubits=8)
        for trial in range(40):
            n = rng.randint(3, 8)
            pairs = []
            for _ in range(rng.randint(1, 7)):
                a, b = rng.sample(range(n), 2)
                pairs.append((a, b))
            c = circuit(n, pairs)
            dag = build_dag(c)
            layers = para_finding(dag)
            _layering_is_valid(layers, dag)
            assert layers.pm >= optimal_pm(dag, c.n, budget)

    def test_seeded_random_dag_equals_oracle(self):
        c = circuit(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (5, 6), (3, 4)])
        dag = build_dag(c)
        layers = para_finding(dag)
        assert layers.pm == optimal_pm(dag, c.n, OracleBudget(max_gates=10, max_qubits=8))

    def test_empty_dag(self):
        layers = para_finding(build_dag(circuit(2, [])))
        assert layers.alpha == 0 and layers.pm == 0

    def test_disjoint_equal_chains_exact(self):
        # union of k disjoint equal-length chains: estimate is exactly k
        for k in (2, 3, 4):
            pairs = []
            for chain in range(k):
                a, b = 2 * chain, 2 * chain + 1
                pairs.extend([(a, b)] * 4)
            c = circuit(2 * k, pairs)
            layers = para_finding(build_dag(c))
            assert layers.alpha == 4
            assert layers.pm == k


class TestSlackTiebreak:
    def test_forced_gate_first(self):
        low = {0: 1, 1: 1}
        high = {0: 1, 1: 3}
        gate, layer = slack_tiebreak({0, 1}, low, high, [0, 0, 0, 0])
        assert gate == 0 and layer == 1

    def test_least_loaded_layer(self):
        low, high = {7: 1}, {7: 3}
        loads = [0, 2, 0, 1]
        gate, layer = slack_tiebreak({7}, low, high, loads)
        assert (gate, layer) == (7, 2)

    def test_documented_tie_break(self):
        low = {0: 1, 1: 1}
        high = {0: 2, 1: 2}
        gate, layer = slack_tiebreak({0, 1}, low, high, [0, 1, 1])
        assert (gate, layer) == (0, 1)

    def test_empty_candidates_error(self):
        with pytest.raises(CircuitError):
            slack_tiebreak(set(), {}, {}, [0])


def _slack_circuit(seed: int):
    """Random pairs: most circuits mix one-layer windows with wider ones."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    return circuit(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 60))])


def _generated_circuit(seed: int):
    """A ``gen_random_circuit`` circuit: every window is one layer."""
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    return gen_random_circuit(n, rng.randint(1, 30), rng.randint(1, n // 2), seed)


def _window_kinds(dag: GateDag) -> tuple[int, int]:
    """Gates whose initial window [low, high] is one layer, and the others."""
    one = sum(low == dag.alpha + 1 - up
              for low, up in zip(dag.depth_from_source, dag.depth_to_sink))
    return one, dag.n_gates - one


class TestAgainstReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_heap_equals_scan(self, seed):
        dag = build_dag(_slack_circuit(seed))
        assert para_finding(dag) == reference_para_finding(dag)

    @given(st.one_of(
        st.integers(0, 2**32 - 1).map(_generated_circuit),
        st.sampled_from(sorted(BENCHMARKS)).map(lambda name: BENCHMARKS[name]()),
    ))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generated_and_bench_circuits(self, c):
        dag = build_dag(c)
        assert para_finding(dag) == reference_para_finding(dag)

    def test_both_kinds_of_window_occur(self):
        """The inputs above reach both the heap (a window wider than one
        layer) and the early return (every window one layer)."""
        slack = [_window_kinds(build_dag(_slack_circuit(seed))) for seed in range(40)]
        assert sum(one > 0 and wider > 0 for one, wider in slack) >= 10
        for seed in range(40):
            assert _window_kinds(build_dag(_generated_circuit(seed)))[1] == 0
        kinds = {name: _window_kinds(build_dag(make())) for name, make in BENCHMARKS.items()}
        assert kinds["swap_test_n25"][0] > 0 and kinds["swap_test_n25"][1] > 0
        assert kinds["qft_10"][1] == 0

    def test_all_one_layer_builds_no_heap(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(profiler, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("heapify", "heappop", "heappush"):
            monkeypatch.setattr(profiler, name, spy(name))
        for seed in range(5):
            dag = build_dag(gen_random_circuit(30, 20, 10, seed=seed))
            assert para_finding(dag) == reference_para_finding(dag)
        assert calls == []
        para_finding(build_dag(BENCHMARKS["swap_test_n25"]()))  # has wider windows
        assert "heappop" in calls


# (n, depth, par) rows of gen_random_circuit, seeds 0-2, up to g=4000.
LAYERING_CORPUS = [
    (9, 10, 1), (9, 40, 4), (25, 20, 3), (25, 80, 12),
    (49, 50, 4), (49, 50, 21), (100, 40, 20), (100, 100, 40),
]
# sha256 over repr(layer_of) of every LAYERING_CORPUS circuit, then of every
# surfc.bench circuit by name, recorded with reference_para_finding.
GOLDEN_LAYERING_DIGEST = "991219a1ffa2233047345fe5de23e33b8d886fc836da04db1b2ec55174cbd450"


class TestGoldenLayering:
    def test_digest(self):
        circuits = [
            gen_random_circuit(n, depth, par, seed=seed)
            for n, depth, par in LAYERING_CORPUS
            for seed in range(3)
        ]
        circuits += [BENCHMARKS[name]() for name in sorted(BENCHMARKS)]
        digest = hashlib.sha256()
        for c in circuits:
            digest.update(repr(para_finding(build_dag(c)).layer_of).encode())
        assert len(circuits) == 33
        assert max(c.g for c in circuits) == 4000
        assert digest.hexdigest() == GOLDEN_LAYERING_DIGEST


class TestProfilerInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pigeonhole_lower_bound(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        pairs = []
        for _ in range(rng.randint(1, 16)):
            a, b = rng.sample(range(n), 2)
            pairs.append((a, b))
        c = circuit(n, pairs)
        dag = build_dag(c)
        layers = para_finding(dag)
        _layering_is_valid(layers, dag)
        assert layers.pm >= -(-c.g // dag.alpha)

    def test_never_beats_optimum_small(self):
        budget = OracleBudget(max_gates=10, max_qubits=8)
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = rng.randint(1, 10)
            pairs = []
            for _ in range(g):
                a, b = rng.sample(range(n), 2)
                pairs.append((a, b))
            dag = build_dag(circuit(n, pairs))
            assert para_finding(dag).pm >= optimal_pm(dag, n, budget)

    def test_generated_circuits_estimate_exact(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(4, 10)
            depth = rng.randint(1, 6)
            par = rng.randint(1, n // 2)
            c = gen_random_circuit(n, depth, par, seed=seed)
            layers = para_finding(build_dag(c))
            assert layers.pm == par
            assert layers.alpha == depth


def _recoloring_prefix(layers: LayerSchedule, start: int, circ) -> tuple[dict[int, int], int]:
    """``bipartite_prefix`` as it was: the whole prefix re-colored by
    ``two_coloring`` after each added layer."""
    edges: set[tuple[int, int]] = set()
    coloring: dict[int, int] = {}
    end = start
    while end < layers.alpha:
        trial = set(edges)
        for gid in layers.layers[end]:
            a, b = circ.gates[gid].qubits
            trial.add((min(a, b), max(a, b)))
        colors = two_coloring(circ.n, trial)
        if colors is None:
            break
        coloring, edges = colors, trial
        end += 1
    if end == start:
        raise AssertionError("bipartite prefix consumed no layers")
    assert end - start >= 2 or end == layers.alpha, "two adjacent layers must be consumable"
    return coloring, end


def _prefix_outcome(prefix, layers, start, circ):
    try:
        return prefix(layers, start, circ)
    except AssertionError:
        return "AssertionError"


def _assert_same_prefixes(layers: LayerSchedule, circ) -> list:
    """Every start of ``layers``: the union-find prefix against the
    re-coloring one; returns the outcomes."""
    outcomes = []
    for start in range(layers.alpha):
        want = _prefix_outcome(_recoloring_prefix, layers, start, circ)
        assert _prefix_outcome(bipartite_prefix, layers, start, circ) == want
        outcomes.append(want)
    return outcomes


class TestBipartitePrefixAgainstRecoloring:
    """The parity union-find stops at the layer where re-coloring the whole
    prefix first fails, and returns the same coloring, or raises the same
    ``AssertionError``."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_layerings(self, seed):
        # gates dealt to layers at random: a layer may hold a triangle, or
        # a path that the next layer closes into an odd ring
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        c = circuit(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 24))])
        alpha = rng.randint(1, c.g)
        layer_of = [rng.randrange(alpha) for _ in range(c.g)]
        layer_of[:alpha] = rng.sample(range(alpha), alpha)  # no layer empty
        _assert_same_prefixes(LayerSchedule.of(layer_of, alpha), c)

    def test_bench_circuits_and_their_layerings(self):
        outcomes = []
        circuits = [make() for make in BENCHMARKS.values()]
        circuits += [gen_random_circuit(12, 8, 4, seed=seed) for seed in range(5)]
        for c in circuits:
            dag = build_dag(c)
            asap = LayerSchedule.of([d - 1 for d in dag.depth_from_source], dag.alpha)
            for layers in (para_finding(dag), asap):
                outcomes += _assert_same_prefixes(layers, c)
        ends = [o[1] for o in outcomes if o != "AssertionError"]
        assert len(outcomes) > 300 and len(set(ends)) >= 10

