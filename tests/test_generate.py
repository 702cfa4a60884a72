import hashlib
import random

import pytest
from sat_gadget import CLAUSE_QUBITS, gen_3sat_gadget

from surfc.circuits import build_comm_graph, build_dag
from surfc.errors import CircuitError, InfeasibleError
from surfc.generate import gen_random_circuit
from surfc.oracle import OracleBudget, optimal_pm
from surfc.profiler import para_finding


# sha256 over repr((n, depth, par, seed, pairs)) of each generated circuit,
# recorded before the generator kept one free list per layer: depth 1 runs
# only layer 0, par = n // 2 empties the free list, (400, 30, 100) is the
# scale of the generator's benchmark inputs
GOLDEN_GENERATOR_DIGEST = "236017ac4ee96c5c6892e28b9884e559a3d96258f39993868ad036aa3c330e53"
GENERATOR_GRID = [(n, depth, par) for n in (2, 7, 16) for depth in (1, 4)
                  for par in sorted({1, n // 4 or 1, n // 2})] + [(400, 30, 100), (400, 1, 200)]


class TestGenRandomCircuit:
    def test_generator_digest(self):
        digest = hashlib.sha256()
        for n, depth, par in GENERATOR_GRID:
            for seed in range(4):
                pairs = [g.qubits for g in gen_random_circuit(n, depth, par, seed).gates]
                digest.update(repr((n, depth, par, seed, pairs)).encode())
        assert digest.hexdigest() == GOLDEN_GENERATOR_DIGEST

    def test_parallelism_one_is_a_chain(self):
        c = gen_random_circuit(4, 3, 1, seed=7)
        dag = build_dag(c)
        assert c.g == 3
        assert dag.alpha == 3
        assert all(len(dag.children[v]) <= 1 for v in range(c.g))

    def test_big_instance_bounds(self):
        c = gen_random_circuit(49, 50, 21, seed=3)
        dag = build_dag(c)
        assert 50 <= c.g <= 1050
        assert dag.alpha == 50
        assert para_finding(dag).pm == 21

    def test_deterministic_per_seed(self):
        a = gen_random_circuit(10, 6, 3, seed=11)
        b = gen_random_circuit(10, 6, 3, seed=11)
        other = gen_random_circuit(10, 6, 3, seed=12)
        assert a == b
        assert a != other

    def test_exact_depth_and_parallelism_against_oracle(self):
        # 100 seeded instances within the oracle budget
        budget = OracleBudget(max_gates=15, max_qubits=8)
        rng = random.Random(99)
        for trial in range(100):
            n = rng.randint(2, 8)
            depth = rng.randint(1, 5)
            par = rng.randint(1, min(3, n // 2))
            c = gen_random_circuit(n, depth, par, seed=trial)
            dag = build_dag(c)
            assert dag.alpha == depth
            assert optimal_pm(dag, c.n, budget) == par

    def test_small_oracle_example(self):
        c = gen_random_circuit(6, 2, 3, seed=1)
        dag = build_dag(c)
        assert dag.alpha == 2
        assert optimal_pm(dag, c.n, OracleBudget()) == 3

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleError):
            gen_random_circuit(5, 4, 3, seed=0)  # 2*3 > 5
        with pytest.raises(InfeasibleError):
            gen_random_circuit(4, 0, 1, seed=0)


def _clause_gadget_dag(clause):
    """The clause gadget's gate count and DAG edges, each gate relabelled by
    its position among the gadget's gates: equal results witness isomorphic
    gadgets under the order-preserving relabelling."""
    c = gen_3sat_gadget([clause])
    position = {g.gid: i for i, g in enumerate(g for g in c.gates if max(g.qubits) < CLAUSE_QUBITS)}
    edges = sorted((position[u], position[v]) for u, v in build_dag(c).edges
                   if u in position and v in position)
    return len(position), edges


class TestGen3Sat:
    def test_empty_formula(self):
        c = gen_3sat_gadget([])
        assert c.n == 0 and c.g == 0

    def test_single_clause_structure(self):
        c = gen_3sat_gadget([[1, -2, 3]])
        # 8 clause qubits + 3 ideal literals + ideal T/F + 3 spacers
        assert c.n == CLAUSE_QUBITS + 3 + 2 + 3
        clause_gates = [g for g in c.gates if max(g.qubits) < CLAUSE_QUBITS]
        assert len(clause_gates) == 12
        q_t, q_f = 6, 7
        # positive literals talk to q_T, negated ones to q_F
        lit_targets = [g.target for g in clause_gates if g.control in (0, 1, 2)
                       and g.target in (q_t, q_f)]
        assert lit_targets == [q_t, q_f, q_t]
        # each literal round contains the T-F coupling gate
        assert sum(1 for g in clause_gates if (g.control, g.target) == (q_t, q_f)) == 3

    def test_shared_literal_consistency_gadget(self):
        c = gen_3sat_gadget([[1, -2, 3], [1, 2, -4]])
        comm = build_comm_graph(c)
        # variable 1 appears in both clauses: both literal slots must couple to
        # the same ideal-literal qubit
        ideal_first = CLAUSE_QUBITS * 2
        slot_a = 0              # clause 0, slot 0
        slot_b = CLAUSE_QUBITS  # clause 1, slot 0
        assert comm.weight(slot_a, ideal_first) >= 1
        assert comm.weight(slot_b, ideal_first) >= 1
        # the two clause gadgets are structurally identical DAGs
        g1 = _clause_gadget_dag([1, -2, 3])
        assert g1 == _clause_gadget_dag([1, 2, -4])
        assert g1[0] == 12 and len(g1[1]) == 14

    def test_malformed_clause(self):
        with pytest.raises(CircuitError):
            gen_3sat_gadget([[1, 2]])
        with pytest.raises(CircuitError):
            gen_3sat_gadget([[1, 0, 2]])

    def test_ideal_pair_chain_present(self):
        clauses = [[1, 2, 3], [-1, -2, -3], [1, -3, 2]]
        c = gen_3sat_gadget(clauses)
        comm = build_comm_graph(c)
        ideal_t = CLAUSE_QUBITS * 3 + 3
        ideal_f = ideal_t + 1
        assert comm.weight(ideal_t, ideal_f) == len(clauses)
