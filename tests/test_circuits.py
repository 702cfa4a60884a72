import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfc import qasm
from surfc.bench import BENCHMARKS
from surfc.circuits import (
    CnotGate,
    CommGraph,
    GateDag,
    LogicalCircuit,
    build_comm_graph,
    build_dag,
    circuit,
    two_coloring,
)
from surfc.errors import CircuitError, QasmError
from surfc.generate import gen_random_circuit
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

    def test_gate_applying_itself_rejected(self):
        with pytest.raises(QasmError, match="gate g applies itself") as err:
            parse_qasm("qreg q[2];\ngate g a {\n  g a;\n}\ng q[0];\n")
        assert err.value.line == 3

    def test_gate_applying_a_later_gate_rejected(self):
        prog = "qreg q[2];\ngate a x, y { b x, y; }\ngate b x, y { a x, y; }\na q[0], q[1];\n"
        with pytest.raises(QasmError, match="gate a applies b, defined after it") as err:
            parse_qasm(prog)
        assert err.value.line == 2
        # a one-operand name not defined before its gate is dropped
        assert parse_qasm("qreg q[2];\ngate a x { b x; }\ngate b x { a x; }\nb q[0];\n").g == 0

    def test_body_sees_the_definitions_before_its_gate(self):
        lines = ["qreg q[2];", "gate g0 a, b { cx a, b; }"]
        lines += [f"gate g{i} a, b {{ g{i - 1} b, a; }}" for i in range(1, 600)]
        lines += ["g599 q[0], q[1];", "g1 q[0], q[1];"]
        # 599 operand swaps, then 1
        assert [g.qubits for g in parse_qasm("\n".join(lines)).gates] == [(1, 0), (1, 0)]
        # a name defined again, after its use, is an error on its own line
        lines.insert(-1, "gate g0 a, b { cx b, a; }")
        with pytest.raises(QasmError, match="gate g0 is already defined") as err:
            parse_qasm("\n".join(lines))
        assert err.value.line == 603

    def test_second_definition_rejected(self):
        prog = "qreg q[2];\ngate g a,b { cx a,b; } gate g a,b { cx b,a; } g q[0],q[1];\n"
        with pytest.raises(QasmError, match="line 2: gate g is already defined") as err:
            parse_qasm(prog)
        assert err.value.line == 2


class TestOneQubitOperands:
    """A single-qubit gate is dropped only once its operand is checked, as a
    ``cx`` operand is, and so is one that an ``if`` guards; its parameters
    may nest parentheses; a ``//`` or ``;`` inside a quoted name is no
    comment and ends no statement.  Block errors and gate applications keep
    their class, message and line; a dropped keyword in a gate body is
    dropped as at top level; a gate is told from ``if`` by its name.  A gate
    header lists identifiers only, and a statement that starts with ``qreg``
    or ``creg`` is a declaration, so a malformed one is an error."""

    @pytest.mark.parametrize("text, error, message", [
        ("qreg q[2];\nh q[7];\ncx q[0],q[1];", CircuitError,
         "line 2: qubit index 7 out of range [0, 2)"),
        ("qreg q[2];\nh r[0];\ncx q[0],q[1];", QasmError, "line 2: unknown register 'r'"),
        ("qreg q[2];\nrz(pi) q[0]];\ncx q[0],q[1];", QasmError,
         "line 2: malformed operand 'q[0]]'"),
        ("qreg q[2];\nh r;\ncx q[0],q[1];", QasmError,
         "line 2: whole-register operand 'r' not supported here"),
        ("qreg q[2];\ngate g a { h b; }\ng q[0];", QasmError,
         "line 2: whole-register operand 'b' not supported here"),
        ("qreg q[2];\ngate g a {\n  h q[2];\n}\ng q[0];", CircuitError,
         "line 3: qubit index 2 out of range [0, 2)"),
        ("qreg q[2];\ncreg c[2];\nif (c==1) x q[7];", CircuitError,
         "line 3: qubit index 7 out of range [0, 2)"),
        ("qreg q[2];\ncreg c[2];\nif (c==1) rz(-(pi/2)) r[0];", QasmError,
         "line 3: unknown register 'r'"),
        ("qreg q[2];\ncreg c[2];\nif (c==1) cx q[0],q[1];", QasmError,
         "line 3: unsupported multi-qubit gate 'if'"),
        ("qreg q[2];\nif x q[0];", QasmError, "line 2: malformed statement: 'if x q[0]'"),
        ('include "x;y;\nqreg q[2];\ncx q[0],q[1];', QasmError,
         "line 1: unterminated statement: 'include \"x;y;\\nqreg q[2];\\ncx q[0],q[1];'"),
        ("qreg q[2];\n\n\ncx q[0],q[1]", QasmError, "line 4: unterminated statement: 'cx q[0],q[1]'"),
        ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n\nh q[0]", QasmError,
         "line 5: unterminated statement: 'h q[0]'"),
        ("qreg q[2];\ncx q[0],q[1];\n}", QasmError, "line 3: unmatched '}'"),
        ("qreg q[2];\n\ngate 2g a {\n}", QasmError, "line 3: malformed block header: 'gate 2g a'"),
        ("qreg q[2];\nif (c==1) {\n}", QasmError, "line 2: malformed block header: 'if (c==1)'"),
        ("qreg q[2];\ngate g a {\n  gate k b {\n}\n}", QasmError,
         "line 3: nested blocks are not supported"),
        ("qreg q[2];\ngate g a {\n  h a;\ncx q[0],q[1];", QasmError,
         "line 2: gate g body never closed"),
        ("qreg q[2];\ngate g a {\n  h a;\n  h b }\ng q[0];", QasmError,
         "line 4: whole-register operand 'b' not supported here"),
        ("qreg q[2];\ngate g a, b { cx a, b; }\ng q[0];", QasmError,
         "line 3: gate g expects 2 operands, got 1"),
        ("qreg q[2];\ngate g a, 3 { }\ng q[0], q[1];", QasmError,
         "line 2: malformed block header: 'gate g a, 3'"),
        ("qreg q[2];\ngate g(t, 2) a { }\ng(1, 2) q[0];", QasmError,
         "line 2: malformed block header: 'gate g(t, 2) a'"),
        ("gate g a, b\n  [x] {\n  cx a, b;\n}", QasmError,
         "line 1: malformed block header: 'gate g a, b\\n  [x]'"),
        ("qreg q[2];\nqreg q;\ncx q[0],q[1];", QasmError, "line 2: malformed declaration: 'qreg q'"),
        ("qreg q[2];\ncreg c;\ncx q[0],q[1];", QasmError, "line 2: malformed declaration: 'creg c'"),
        ("qreg q[2];\nqreg r[2];\ncx q[0],q[1];", QasmError,
         "line 2: multiple qreg declarations are not supported"),
    ])
    def test_rejected(self, text, error, message):
        with pytest.raises(error) as err:
            parse_qasm(text)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("text", [
        "qreg q[2];\nh q[1];\ncx q[0],q[1];",
        "qreg q[2];\nh q;\ncx q[0],q[1];",
        "qreg q[2];\ngate g a { h a; }\ng q[1];\ncx q[0],q[1];",
        "qreg q[2];\ngate g a, b { h a; cx a, b; rz(pi) b; }\nh q[0];\ng q[0], q[1];",
        "qreg q[2];\nu1(sin(pi)) q[0];\nrz(-(pi/2)) q[1];\nu3(pi/2,cos(0),0) q;\ncx q[0],q[1];",
        "qreg q[2];\ngate g(t) a, b { rz(-(t/2)) a; cx a, b; u3(pi/2,cos(0),0) b; }\ng(sin(pi)) q[0], q[1];",
        "qreg q[2];\ncreg c[2];\nif (c==1) x q[0];\nif(c==0) rz(-(pi/2)) q;\ncx q[0],q[1];",
        "qreg q[2];\ncreg c[2];\ncx q[0],q[1];\nif (c==1) measure q[0] -> c[0];",
        "qreg q[2];\nopaque g a;\nopaque k(t) a, b;\ncx q[0],q[1];",
        'include "a//b.inc";\nqreg q[2];\ncx q[0],q[1];',
        'include "x;y";\nqreg q[2];\ncx q[0],q[1];',
        'include "a//b.inc"; // a "quoted" comment; with a ;\nqreg q[2];\ncx q[0],q[1];',
        "qreg q[2];\ngate iffy a { h a; }\niffy q[0];\ncx q[0],q[1];",
        "qreg q[2];\ngate g a, b { h a }\ng q[0], q[1];\ncx q[0],q[1];",
        "qreg q[2];\ngate g a, b { barrier a, b; cx a, b; }\ng q[0], q[1];",
        "qreg q[2];\ngate g a, b { measure a -> c[0]; reset b; cx a, b; }\ng q[0], q[1];",
        "qreg q[2];\ngate g ( t , u ) a ,\n b { cx a, b; }\ng(1, 2) q[0], q[1];",
    ])
    def test_accepted(self, text):
        assert [g.qubits for g in parse_qasm(text).gates] == [(0, 1)]

    def test_unterminated_quote_is_linear(self):
        # the statement pattern is unrolled: no nested backtracking on a
        # long tail that never closes its quote or its statement
        for tail in ('"' + "a" * 20000, '"a" ' * 10000, ('"a" x' * 10000) + '"'):
            with pytest.raises(QasmError, match="unterminated statement"):
                parse_qasm("qreg q[2];\ninclude " + tail)


def _statement_loop(text):
    """The circuit the statement reader alone gives, with no flat path."""
    return qasm._Parser().parse(text)


def _outcome(parse, text):
    """The gate list a parse gives, or the class and message of its error."""
    try:
        return [g.qubits for g in parse(text).gates]
    except (QasmError, CircuitError) as exc:
        return type(exc), str(exc)


# whitespace, newlines and comments that may sit between the tokens of a statement
_GAP = st.sampled_from(["", " ", "  ", "\n", "\t", " \n\t ", " // note\n"])


@st.composite
def _cx_statement(draw):
    gap = lambda: draw(_GAP)  # noqa: E731
    name = draw(st.sampled_from(["cx", "CX"]))
    after_name = draw(st.sampled_from(["", " ", "\n", "\t", " // note\n "]))
    regs = [draw(st.sampled_from(["q", "q", "q", "r"])) for _ in range(2)]
    idx = [draw(st.integers(0, 5)) for _ in range(2)]
    (a, b), (i, j) = regs, idx
    return (f"{name}{after_name}{a}{gap()}[{gap()}{i}{gap()}]{gap()},{gap()}"
            f"{b}{gap()}[{gap()}{j}{gap()}]{gap()};")


_OTHER_STATEMENTS = st.sampled_from([
    "h q[0];", "rz(pi/4)\nq[1];", "barrier q[0], q[1];", "creg c[2];",
    "gate pair a, b { h a; cx a, b; }", "pair q[0], q[2];", "pair q[1],q[1];",
    "measure q[0] -> c[0];", "// only a comment",
])


@st.composite
def _programs(draw):
    body = draw(st.lists(st.one_of(_cx_statement(), _cx_statement(), _OTHER_STATEMENTS),
                         max_size=8))
    qreg = f"qreg {draw(st.sampled_from(['q', 'q', 'r']))}[{draw(st.integers(1, 5))}];"
    body.insert(draw(st.integers(0, len(body))), qreg)  # a cx may come before it
    seps = [draw(st.sampled_from(["\n", " ", "\n\n", " // c\n"])) for _ in body]
    return "OPENQASM 2.0;\n" + "".join(s + sep for s, sep in zip(body, seps))


def _benchmark_qasm(n, pairs):
    """A circuit as the benchmark writes it: a header, then one cx a line."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"cx q[{c}],q[{t}];" for c, t in pairs]
    return "\n".join(lines) + "\n"


# one statement or text each that no flat program holds
_FLAWS = [
    "// a comment", "h q[0];", "barrier q[0], q[1];", "creg c[2];", "qreg r[2];",
    "gate g a, b { cx a, b; }", "cx r[0], q[1];", "cx q[0], r[1];", "cx q[0], q[99];",
    "cx q[1], q[1];", "cX q[0], q[1];", "cx q[0] q[1];", "OPENQASM 2.0;",
]


@st.composite
def _flat_programs(draw):
    """``(text, flawed)``: a header and plain cx statements on the declared
    register, in range and distinct, with whitespace between tokens; a
    flawed program also holds one of ``_FLAWS``, a cx before its ``qreg``,
    or trailing text with no ``;``."""
    gap = lambda: draw(st.sampled_from(["", " ", "\n", "\t", " \r\n "]))  # noqa: E731
    space = lambda: draw(st.sampled_from([" ", "\n", "\t", "  "]))  # noqa: E731
    n = draw(st.integers(0, 6))
    reg = draw(st.sampled_from(["q", "q1", "cx"]))
    head = [f"OPENQASM{space()}2.0{gap()};"] if draw(st.booleans()) else []
    head += [f'include{gap()}"qelib1.inc"{gap()};'] * draw(st.integers(0, 2))
    head.append(f"qreg{space()}{reg}{gap()}[{gap()}{n}{gap()}]{gap()};")
    body = []
    for _ in range(draw(st.integers(0, 8)) if n >= 2 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        body.append(f"{draw(st.sampled_from(['cx', 'CX']))}{space()}{reg}{gap()}[{gap()}{i}"
                    f"{gap()}]{gap()},{gap()}{reg}{gap()}[{gap()}{j}{gap()}]{gap()};")
    flaw = draw(st.sampled_from([None] * 6 + ["early cx", "no ;"] + _FLAWS))
    if flaw == "early cx":
        head.insert(draw(st.integers(0, len(head) - 1)), f"cx {reg}[0], {reg}[1];")
    elif flaw == "no ;":
        body.append(draw(st.sampled_from([f"cx {reg}[0], {reg}[1]", "x", "}"])))
    elif flaw is not None:
        body.insert(draw(st.integers(0, len(body))), flaw.replace("q[", f"{reg}["))
    stmts = head + body
    seps = [draw(st.sampled_from(["\n", "", " ", "\r\n"])) for _ in stmts]
    return "".join(s + sep for s, sep in zip(stmts, seps)), flaw is not None


class TestFlatReader:
    """A flat program's gate list comes from one match and one split; every
    program parses as the statement reader, ``qasm._Parser``, alone parses it."""

    @given(_programs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_as_statement_loop(self, text):
        assert _outcome(parse_qasm, text) == _outcome(_statement_loop, text)

    @pytest.mark.parametrize("text", [
        "qreg q[3];\ncx q[0],q[1];\nCX q [ 2 ] ,\n q[0] ;",
        "qreg q[3];\ncx q[0], // split\n  q[2];",
        "cx q[0],q[1];\nqreg q[2];",
        "qreg q[2];\ncx r[0],q[1];",
        "qreg q[2];\ncx q[0],q[5];",
        "qreg q[2];\ncx q[1],q[1];",
        "qreg q[2];\ncxq[0],q[1];",
        "qreg q[2];\ncx q[0],q[1],;",
        "qreg q[3];\ngate cx a, b { h a; }\ncx q[0],q[2];",
        "qreg q[3];\ngate g a, b { cx a, b; cx b, a; }\ng q[2], q[0];",
    ])
    def test_fixed_programs(self, text):
        assert _outcome(parse_qasm, text) == _outcome(_statement_loop, text)

    def test_plain_cx_needs_no_statement_reader(self, monkeypatch):
        def reader(*args):
            raise AssertionError("statement reader taken")
        monkeypatch.setattr(qasm._Parser, "_statement", reader)
        c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\nCX q[2], q[0];\n")
        assert [g.qubits for g in c.gates] == [(0, 1), (2, 0)]

    @given(_flat_programs())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_flat_programs(self, program):
        text, flawed = program
        assert _outcome(parse_qasm, text) == _outcome(_statement_loop, text)
        assert (qasm._flat_circuit(text) is None) == flawed

    @pytest.mark.parametrize("text, flat", [
        ("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[1],q[2]", False),  # no ;
        ("qreg q[3];\ncx q[0],q[1];\ncx q[1],q[2];\n// done\n", False),
        ("qreg q[3];\ncx q[0],q[1]; // first\ncx q[1],q[2];", False),
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nCX q[2],q[0];\ncx q[0],q[1];', True),
        ("qreg q[3];\nCX q[2],q[0];\ncX q[0],q[1];", False),
        ("qreg q[3];\ncx q[0],q[1];\nqreg r[2];\ncx q[1],q[2];", False),
        ("qreg q[3];\nqreg q[3];\ncx q[0],q[1];", False),
        ("qreg q[3];\ncx q[0],q[1];\ncx q[2],q[3];", False),
        ("qreg q[3];\ncx q[0],q[1];\ncx q[2],q[2];", False),
        ("OPENQASM 2.0;\ncx q[0],q[1];\nqreg q[3];\ncx q[1],q[2];", False),
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n', True),  # empty body
        ("qreg q[0];", True),
        ('include "a//b.inc";\nqreg q[2];\ncx q[0],q[1];', False),  # a comment in the name
        ('include "x;y";\nqreg q[2];\ncx q[0],q[1];', False),
        ("OPENQASM 2.0;\n", False),
    ])
    def test_fixed_flat_programs(self, text, flat):
        assert _outcome(parse_qasm, text) == _outcome(_statement_loop, text)
        assert (qasm._flat_circuit(text) is not None) == flat

    def test_flat_program_needs_no_statement_loop(self, monkeypatch):
        rng = random.Random(3)
        pairs = [tuple(rng.sample(range(50), 2)) for _ in range(400)]
        text = _benchmark_qasm(50, pairs)
        want = _statement_loop(text)

        def loop(*args):
            raise AssertionError("statement loop taken")
        monkeypatch.setattr(qasm, "_statements", loop)
        monkeypatch.setattr(qasm._Parser, "_statement", loop)
        c = parse_qasm(text)
        assert c == want
        assert [g.qubits for g in c.gates] == pairs


class TestCircuitTypes:
    def test_invariants_enforced(self):
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(0, 0, 0),))
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(0, 0, 3),))
        with pytest.raises(CircuitError):
            LogicalCircuit(2, (CnotGate(5, 0, 1),))

    def test_gate_is_a_tuple(self):
        gate = CnotGate(3, 1, 2)
        assert gate == (3, 1, 2) and hash(gate) == hash((3, 1, 2))
        gid, control, target = gate
        assert (gid, control, target, gate.qubits) == (3, 1, 2, (1, 2))
        assert circuit(3, [(1, 2)]).gates == ((0, 1, 2),)

    @given(st.integers(0, 4), st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 5),
                                                 st.integers(-1, 5)), max_size=4))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_first_error_as_per_gate_checks(self, n, rows):
        """The one-pass check raises the error that checking each gate's
        id, then its operands, then each qubit's range raises first."""
        def per_gate(gates):
            for i, g in enumerate(gates):
                if g.gid != i:
                    raise CircuitError(f"gate ids must be dense 0..g-1, found {g.gid} at {i}")
                if g.control == g.target:
                    raise CircuitError(f"gate {g.gid}: control equals target ({g.control})")
                for q in g.qubits:
                    if not 0 <= q < n:
                        raise CircuitError(f"gate {g.gid}: qubit {q} out of range [0, {n})")

        gates = tuple(CnotGate(*row) for row in rows)
        outcomes = []
        for check in (lambda: LogicalCircuit(n, gates), lambda: per_gate(gates)):
            try:
                check()
                outcomes.append(None)
            except CircuitError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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


def _set_and_sort_dag(circ):
    """Reference builder: each gate's parents are the sorted set of the last
    gates on its qubits; depths by ``max`` over generators."""
    g = circ.g
    parents = [[] for _ in range(g)]
    children = [[] for _ in range(g)]
    last_on_qubit = {}
    for gate in circ.gates:
        preds = set()
        for q in gate.qubits:
            if q in last_on_qubit:
                preds.add(last_on_qubit[q])
        for p in sorted(preds):
            parents[gate.gid].append(p)
            children[p].append(gate.gid)
        for q in gate.qubits:
            last_on_qubit[q] = gate.gid
    down = [0] * g
    for v in range(g):
        down[v] = 1 + max((down[p] for p in parents[v]), default=0)
    up = [0] * g
    for v in reversed(range(g)):
        up[v] = 1 + max((up[c] for c in children[v]), default=0)
    return GateDag(g, tuple(map(tuple, parents)), tuple(map(tuple, children)),
                   max(down, default=0), tuple(down), tuple(up))


@st.composite
def _circuits_with_repeats(draw):
    """Random circuits on a subset of their qubits, so that some qubits may
    carry no gate, in which a gate often repeats or reverses the pair before
    it; one-gate and empty circuits included."""
    n = draw(st.integers(2, 8))
    used = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    pairs = []
    for _ in range(draw(st.integers(0, 30))):
        how = draw(st.sampled_from(["new", "new", "same", "reversed"]))
        if pairs and how == "same":
            pairs.append(pairs[-1])
        elif pairs and how == "reversed":
            pairs.append(pairs[-1][::-1])
        else:
            pairs.append(tuple(draw(st.permutations(used))[:2]))
    return circuit(n, pairs)


class TestBuildDagAgainstSetAndSort:
    @given(_circuits_with_repeats())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_dag(self, c):
        dag, ref = build_dag(c), _set_and_sort_dag(c)
        for f in dataclasses.fields(GateDag):
            assert getattr(dag, f.name) == getattr(ref, f.name), f.name

    @pytest.mark.parametrize("pairs", [[], [(0, 1)], [(0, 1), (0, 1)], [(0, 1), (1, 0)],
                                       [(2, 3), (0, 1), (1, 2), (2, 1), (3, 0)]])
    def test_fixed_circuits(self, pairs):
        c = circuit(4, pairs)
        assert build_dag(c) == _set_and_sort_dag(c)


def _dict_comm_graph(circ):
    """``build_comm_graph`` over a dict of counts, each pair normalised by
    ``min`` and ``max``."""
    weights = {}
    for gate in circ.gates:
        key = (min(gate.qubits), max(gate.qubits))
        weights[key] = weights.get(key, 0) + 1
    return CommGraph(circ.n, weights)


class TestCommGraphAgainstDict:
    """``build_comm_graph`` over a ``Counter`` gives what its dict-based
    form gives, down to the order of the weights."""

    @given(_circuits_with_repeats())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_circuits(self, c):
        comm, ref = build_comm_graph(c), _dict_comm_graph(c)
        assert type(comm.weights) is dict
        assert list(comm.weights.items()) == list(ref.weights.items())

    def test_fixed_circuits(self):
        # qubits 1 and 4 idle; gate 1 repeats gate 0 and gate 2 reverses it,
        # so each has the one parent before it; gates 4 and 5 join two chains
        c = circuit(6, [(0, 2), (0, 2), (2, 0), (3, 5), (5, 2), (3, 0)])
        assert build_dag(c).parents == ((), (0,), (1,), (), (2, 3), (2, 3))
        assert list(build_comm_graph(c).weights.items()) == [((0, 2), 3), ((3, 5), 1),
                                                             ((2, 5), 1), ((0, 3), 1)]
        circuits = [c, circuit(3, []), circuit(5, [(4, 3)])]
        circuits += [make() for make in BENCHMARKS.values()]
        circuits += [gen_random_circuit(30, 20, 10, seed=seed) for seed in range(3)]
        for c in circuits:
            assert list(build_comm_graph(c).weights.items()) == list(_dict_comm_graph(c).weights.items())


def _all_masks_descendant_counts(dag: GateDag) -> list[int]:
    """Descendant counts from a reversed sweep that keeps every gate's mask."""
    desc = [0] * dag.n_gates
    for v in reversed(range(dag.n_gates)):
        for c in dag.children[v]:
            desc[v] |= desc[c] | (1 << c)
    return [mask.bit_count() for mask in desc]


class TestDescendantCounts:
    """Dropping a child's mask after its lowest parent reads it leaves every
    count as the sweep that keeps all masks gives it."""

    @given(_circuits_with_repeats())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_circuits(self, c):
        dag = build_dag(c)
        assert dag.descendant_counts() == _all_masks_descendant_counts(dag)

    def test_bench_and_generated_circuits(self):
        circuits = [make() for make in BENCHMARKS.values()]
        circuits += [gen_random_circuit(20, 30, 6, seed=seed) for seed in range(4)]
        for c in circuits:
            dag = build_dag(c)
            assert dag.descendant_counts() == _all_masks_descendant_counts(dag)


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
        assert two_coloring(comm.n, set(comm.weights)) is not None

    def test_total_weight_equals_gate_count(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            pairs = []
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(range(n), 2)
                pairs.append((a, b))
            c = circuit(n, pairs)
            assert sum(build_comm_graph(c).weights.values()) == c.g

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
                for u, w in row:
                    assert w == comm.weight(q, u) > 0
                    assert (q, w) in adj[u]
            assert sum(w for row in adj for _, w in row) == 2 * sum(comm.weights.values())

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
