"""The 3-SAT gadget circuit of the tests.

``gen_3sat_gadget`` emits the clause/consistency gadget circuit used to
stress cut-type initialization; placeholder ("black") gates are realized as
CNOTs onto dedicated spacer qubits because only their timing structure
matters.
"""
from __future__ import annotations

from surfc.circuits import LogicalCircuit, circuit
from surfc.errors import CircuitError

CLAUSE_QUBITS = 8  # three literal qubits, their ancillas, and the T/F pair
CLAUSE_PAD = 10    # keep-busy padding: clause gadgets fit within 10 cycles


def gen_3sat_gadget(clauses: list[list[int]]) -> LogicalCircuit:
    """Circuit for a 3-SAT formula given as clauses of nonzero signed variable ids
    (positive = plain literal, negative = negated).  Structure only; the output is
    meant to exercise schedulers, not to decide satisfiability."""
    for cl in clauses:
        if len(cl) != 3 or any(v == 0 for v in cl):
            raise CircuitError(f"clause must hold exactly 3 nonzero literals: {cl}")
    if not clauses:
        return circuit(0, [])
    m = len(clauses)
    variables = sorted({abs(v) for cl in clauses for v in cl})
    ideal = {v: CLAUSE_QUBITS * m + i for i, v in enumerate(variables)}
    ideal_t = CLAUSE_QUBITS * m + len(variables)
    ideal_f = ideal_t + 1
    spacer = {v: ideal_f + 1 + i for i, v in enumerate(variables)}
    n = ideal_f + 1 + len(variables)

    pairs: list[tuple[int, int]] = []

    def clause_base(i: int) -> int:
        return CLAUSE_QUBITS * i

    # Clause gadgets, mutually disjoint so they run in parallel.  Per literal
    # slot: the literal qubit talks to q_T (positive) or q_F (negated), then
    # q_T talks to q_F, then the other two literal qubits ping their ancillas.
    for i, cl in enumerate(clauses):
        base = clause_base(i)
        lit = [base, base + 1, base + 2]
        anc = [base + 3, base + 4, base + 5]
        q_t, q_f = base + 6, base + 7
        for slot in range(3):
            pairs.append((lit[slot], q_t if cl[slot] > 0 else q_f))
            pairs.append((q_t, q_f))
            for other in range(3):
                if other != slot:
                    pairs.append((lit[other], anc[other]))

    # Keep-busy chains on the ideal literals while clause gadgets execute.
    for v in variables:
        for _ in range(CLAUSE_PAD):
            pairs.append((ideal[v], spacer[v]))

    # Consistency: every occurrence of a variable ties its literal qubit to the
    # variable's ideal qubit; padding keeps all ideal-qubit chains equally long.
    for v in variables:
        occurrences = [
            (i, slot)
            for i, cl in enumerate(clauses)
            for slot in range(3)
            if abs(cl[slot]) == v
        ]
        for i, slot in occurrences:
            pairs.append((clause_base(i) + slot, ideal[v]))
        for _ in range(m - len(occurrences)):
            pairs.append((ideal[v], spacer[v]))

    # Ideal T/F pair: a length-m chain forcing their cut types apart.
    for _ in range(m):
        pairs.append((ideal_t, ideal_f))

    return circuit(n, pairs)
