import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfc.circuits import (
    CnotGate,
    LogicalCircuit,
    build_comm_graph,
    build_dag,
    circuit,
    two_coloring,
)
from surfc.errors import CircuitError, QasmError
from surfc.qasm import parse_qasm


class TestParseQasm:
    def test_single_gate_retention(self):
        prog = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        c = parse_qasm(prog)
        assert c.n == 2
        assert [(g.control, g.target) for g in c.gates] == [(0, 1)]

    def test_ghz_chain_counts(self):
        lines = ["qreg q[23];", "h q[0];"]
        lines += [f"cx q[{i}],q[{i+1}];" for i in range(22)]
        c = parse_qasm("\n".join(lines))
        dag = build_dag(c)
        assert (c.n, c.g, dag.alpha) == (23, 22, 22)

    def test_bv_fan_in(self):
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[10];", "creg c[10];"]
        lines += [f"cx q[{i}],q[9];" for i in range(5)]
        lines += ["measure q[0] -> c[0];"]
        c = parse_qasm("\n".join(lines))
        dag = build_dag(c)
        assert (c.g, dag.alpha) == (5, 5)

    def test_drops_barriers_measures_single_qubit_gates(self):
        prog = """
        qreg q[3];
        rz(pi/2) q[0];
        barrier q[0], q[1];
        cx q[1], q[2];
        measure q[0] -> c[0];
        reset q[1];
        """
        c = parse_qasm(prog)
        assert [(g.control, g.target) for g in c.gates] == [(1, 2)]

    def test_gate_definition_inlined(self):
        prog = """
        qreg q[4];
        gate entangle a, b { h a; cx a, b; }
        entangle q[0], q[2];
        entangle q[1], q[3];
        """
        c = parse_qasm(prog)
        assert [(g.control, g.target) for g in c.gates] == [(0, 2), (1, 3)]

    def test_nested_gate_definition(self):
        prog = """
        qreg q[3];
        gate pair a, b { cx a, b; }
        gate chain a, b, c { pair a, b; pair b, c; }
        chain q[0], q[1], q[2];
        """
        c = parse_qasm(prog)
        assert [(g.control, g.target) for g in c.gates] == [(0, 1), (1, 2)]

    def test_malformed_statement_reports_line(self):
        with pytest.raises(QasmError) as err:
            parse_qasm("qreg q[2];\ncx q[0] q[1];\n")
        assert "line 2" in str(err.value)

    def test_equal_operands_rejected(self):
        with pytest.raises(CircuitError):
            parse_qasm("qreg q[2];\ncx q[1],q[1];\n")

    def test_index_out_of_range(self):
        with pytest.raises(CircuitError):
            parse_qasm("qreg q[2];\ncx q[0],q[5];\n")

    def test_unknown_two_qubit_gate_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2];\nswap q[0],q[1];\n")

    def test_missing_qreg(self):
        with pytest.raises(QasmError):
            parse_qasm("cx q[0],q[1];")


class TestCircuitTypes:
    def test_invariants_enforced(self):
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(0, 0, 0),))
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(0, 0, 3),))
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(5, 0, 1),))

    def test_json_round_trip(self):
        c = circuit(3, [(0, 1), (1, 2), (0, 2)])
        payload = json.loads(c.to_json())
        assert payload == {"n": 3, "gates": [[0, 0, 1], [1, 1, 2], [2, 0, 2]]}
        assert LogicalCircuit.from_json(c.to_json()) == c


class TestBuildDag:
    def test_shared_target_forces_chain(self):
        c = circuit(6, [(i, 5) for i in range(5)])
        dag = build_dag(c)
        assert dag.alpha == 5
        assert all(dag.parents[v] == ((v - 1,) if v else ()) for v in range(5))

    def test_disjoint_gates_isolated(self):
        c = circuit(10, [(2 * i, 2 * i + 1) for i in range(5)])
        dag = build_dag(c)
        assert dag.alpha == 1
        assert dag.edges == []

    def test_immediate_predecessors_only(self):
        # q0 used by gates 0, 1, 2 in a row: 0->1->2 chain, no 0->2 edge
        c = circuit(4, [(0, 1), (0, 2), (0, 3)])
        dag = build_dag(c)
        assert (0, 1) in dag.edges and (1, 2) in dag.edges
        assert (0, 2) not in dag.edges

    def test_diamond_structure(self):
        # gate 0 on (0,1); gates 1,2 on (0,2) and (1,3); gate 3 on (2,3)
        c = circuit(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        dag = build_dag(c)
        assert set(dag.edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert dag.alpha == 3


class TestCommGraph:
    def test_multiplicity_accumulates(self):
        c = circuit(2, [(0, 1), (1, 0), (0, 1)])
        comm = build_comm_graph(c)
        assert comm.edges() == [(0, 1, 3)]

    def test_ghz_chain_is_path(self):
        c = circuit(23, [(i, i + 1) for i in range(22)])
        comm = build_comm_graph(c)
        assert all(w == 1 for _, _, w in comm.edges())
        assert len(comm.edges()) == 22
        assert comm.is_bipartite()

    def test_total_weight_equals_gate_count(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            pairs = []
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(range(n), 2)
                pairs.append((a, b))
            c = circuit(n, pairs)
            assert build_comm_graph(c).total_weight() == c.g

    def test_adjacency_matches_weights(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 9)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 15))]
            comm = build_comm_graph(circuit(n, pairs))
            adj = comm.adjacency
            assert len(adj) == n
            for q, row in enumerate(adj):
                assert [u for u, _ in row] == sorted({u for u, _ in row})
                assert comm.neighbors(q) == [u for u, _ in row]
                for u, w in row:
                    assert w == comm.weight(q, u) > 0
                    assert (q, w) in adj[u]
            assert sum(w for row in adj for _, w in row) == 2 * comm.total_weight()

    def test_adjacency_isolated_and_empty(self):
        comm = build_comm_graph(circuit(4, [(2, 0), (0, 2)]))
        assert comm.adjacency == (((2, 2),), (), ((0, 2),), ())
        assert build_comm_graph(circuit(0, [])).adjacency == ()


def _random_circuits():
    return st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            min_size=1,
            max_size=14,
        ).map(lambda pairs: circuit(n, pairs))
    )


class TestDagProperties:
    @given(_random_circuits())
    @settings(max_examples=120, deadline=None)
    def test_replaying_by_depth_respects_dependencies(self, c):
        dag = build_dag(c)
        position = {}
        order = sorted(range(c.g), key=lambda v: (dag.depth_from_source[v], v))
        for pos, v in enumerate(order):
            position[v] = pos
        for u, v in dag.edges:
            assert position[u] < position[v]

    @given(_random_circuits())
    @settings(max_examples=120, deadline=None)
    def test_alpha_bounds(self, c):
        dag = build_dag(c)
        per_qubit = [0] * c.n
        for g in c.gates:
            for q in g.qubits:
                per_qubit[q] += 1
        assert dag.alpha >= max(per_qubit)
        # independent recomputation of the longest path
        memo = {}
        def longest(v):
            if v not in memo:
                memo[v] = 1 + max((longest(p) for p in dag.parents[v]), default=0)
            return memo[v]
        assert dag.alpha == max(longest(v) for v in range(c.g))

    @given(_random_circuits())
    @settings(max_examples=80, deadline=None)
    def test_edges_exactly_immediate_shares(self, c):
        dag = build_dag(c)
        expected = set()
        for q in range(c.n):
            touching = [g.gid for g in c.gates if q in g.qubits]
            expected.update(zip(touching, touching[1:]))
        assert set(dag.edges) == expected


class TestTwoColoring:
    def test_odd_cycle_rejected(self):
        assert two_coloring(3, {(0, 1), (1, 2), (0, 2)}) is None

    def test_path_colored(self):
        colors = two_coloring(4, {(0, 1), (1, 2), (2, 3)})
        assert colors is not None
        assert colors[0] == 0  # deterministic root color
        assert all(colors[a] != colors[b] for a, b in [(0, 1), (1, 2), (2, 3)])
