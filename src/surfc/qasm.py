"""Minimal OpenQASM 2 reader that keeps only CNOT structure.

Supported subset: one ``qreg``, optional ``creg``/``barrier``/``measure``/
``reset``/``opaque`` (dropped), single-qubit gate applications (dropped once
their operand is checked), ``cx`` statements, and ``gate`` definitions whose
bodies are inlined when applied so that nested ``cx`` gates are recovered.  A
single-qubit gate's operand is checked as a ``cx`` operand is, with the same
errors: an indexed one must name the declared register, in range; a bare name
must be the register itself or, in a gate body, one of the gate's formals.
Parameters may nest parentheses.  ``if (c==v) <statement>`` is dropped as its
statement alone is, unless it guards a multi-qubit gate.  As in OpenQASM 2, a
body applies only gates defined before its own gate: one that applies its own
gate, or a gate defined after it on two or more operands, is a parse error,
and so is a second definition of a name.  ``include`` lines are tolerated and
skipped; included files are never read.  A ``//`` or ``;`` inside a
double-quoted name, such as an include's file name, neither starts a comment
nor ends the statement.  A top-level statement whose first word is ``qreg``
or ``creg`` is a declaration, and a gate header's parameters and formals are
identifiers.  Anything else is a parse error with a line number.

A flat program is an optional ``OPENQASM 2.0;``, any ``include "<file>";``
lines and one ``qreg``, then only ``cx``/``CX`` statements between two
indexed qubits of that register, with whitespace and newlines anywhere
between tokens.  One regex matches the header; one search rejects a
program in which some ``;`` after the ``qreg`` is followed by anything but
``cx``/``CX`` or the end, so a mixed program costs one scan, not a split;
one more regex splits the rest at every cx statement.  When nothing but
whitespace lies between statements and every pair is in range and distinct,
the index pairs are the gate list.
Anything else, a comment, a ``gate`` block, any other statement, a wrong
register, an index out of range, equal operands or trailing text, sends the
whole program down the statement loop below, which reads it as if no flat
path existed.

In the statement loop, one method reads every statement: at top level, in a
gate body, or the statement that ``if (c==v)`` guards.  Only a top-level
statement may be ``OPENQASM``, ``include``, ``qreg`` or ``creg``; elsewhere
these names are gates.  A statement whose first word is ``barrier``,
``measure``, ``reset`` or ``opaque`` is dropped, with no operand check, in a
gate body as at top level; a guarded one is dropped when its name is one of
them.  Any other guarded statement must name one operand, which is checked
as a single-qubit gate's is: a guarded gate is never inlined, and a guarded
``if`` is read as a gate.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import eq

from .circuits import CnotGate, LogicalCircuit
from .errors import CircuitError, QasmError

# a statement, whose double-quoted names may hold ``;``, ``{`` or ``}``;
# unrolled, so an unterminated tail costs linear time
_STATEMENT_RE = re.compile(r'[^;{}"]*(?:"[^"\n]*"[^;{}"]*)*[;{}]')
_QUOTED_OR_COMMENT_RE = re.compile(r'"[^"]*"|//')
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
# a qreg or creg declaration: ``q`` or ``c``, the name and the size
_REG_RE = re.compile(rf"^([qc])reg\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_OPERAND_RE = re.compile(rf"^({_ID})(?:\s*\[\s*(\d+)\s*\])?$")
# the last ``)`` closes the parameters, which may nest; operands hold none
_APPLY_RE = re.compile(rf"^({_ID})\s*(\(.*\))?\s*(.*)$", re.S)
# an ``if (creg==value)`` condition, before the statement it guards
_IF_RE = re.compile(r"^if\s*\([^)]*\)\s*")
# a gate header: its name, then lists of identifiers, of parameters (checked
# and dropped) and of formals
_IDS = rf"(?:{_ID}(?:\s*,\s*{_ID})*)?"
_GATE_DECL_RE = re.compile(rf"^gate\s+({_ID})\s*(?:\(\s*{_IDS}\s*\))?\s*({_IDS})$")

_DROPPED_KEYWORDS = ("barrier", "measure", "reset", "opaque")

# a flat program's header; the register's name and size are its groups
_FLAT_HEAD_RE = re.compile(
    rf'\s*(?:OPENQASM\s+2\.0\s*;\s*)?(?:include\s*"[\w.\-]*"\s*;\s*)*'
    rf"qreg\s+({_ID})\s*\[\s*(\d+)\s*\]\s*;"
)
# a statement after the qreg that is not a cx: the program is not flat
_NOT_CX_NEXT_RE = re.compile(r";\s*(?!(?:cx|CX)\s)\S")


def _flat_circuit(text: str) -> LogicalCircuit | None:
    """The circuit of a flat program, or None when ``text`` is not one."""
    head = _FLAT_HEAD_RE.match(text)
    if head is None or _NOT_CX_NEXT_RE.search(text, head.end() - 1):
        return None
    reg, n = head[1], int(head[2])
    operand = rf"{reg}\s*\[\s*(\d+)\s*\]"
    # [gap, control, target, gap, ..., gap]: split, unlike a fullmatch of the
    # repeated statement, keeps no backtracking frame per statement
    parts = re.split(rf"(?:cx|CX)\s+{operand}\s*,\s*{operand}\s*;", text[head.end():])
    if "".join(parts[::3]).strip():
        return None
    controls, targets = list(map(int, parts[1::3])), list(map(int, parts[2::3]))
    if max(chain(controls, targets), default=-1) >= n or any(map(eq, controls, targets)):
        return None
    # tuple.__new__ builds each gate in C; calling CnotGate runs its Python __new__
    gates = map(tuple.__new__, repeat(CnotGate), zip(count(), controls, targets))
    return LogicalCircuit(n, tuple(gates))


@dataclass
class _GateDef:
    name: str
    args: list[str]
    body: list[tuple[int, str]]  # (line, statement text)
    seq: int  # definitions made before this one: all its body may apply


def _strip_comments(text: str) -> str:
    out_lines = []
    for line in text.splitlines():
        idx = line.find("//")
        if idx > 0 and '"' in line[:idx]:  # the first ``//`` outside quotes
            idx = next((m.start() for m in _QUOTED_OR_COMMENT_RE.finditer(line) if m[0] == "//"), -1)
        out_lines.append(line if idx < 0 else line[:idx])
    return "\n".join(out_lines)


def _statements(text: str):
    """Yield (line_number, statement, terminator) honoring ; { } terminators."""
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        m = _STATEMENT_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip():  # at the line of its first non-blank character
                line += rest.count("\n", 0, len(rest) - len(rest.lstrip()))
                raise QasmError(f"unterminated statement: {rest.strip()[:40]!r}", line)
            return
        chunk = m.group(0)
        stmt, term = chunk[:-1].strip(), chunk[-1]
        stmt_line = line + text.count("\n", pos, pos + len(chunk) - len(chunk.lstrip()))
        line += chunk.count("\n")
        pos = m.end()
        if stmt or term in "{}":
            yield stmt_line, stmt, term


class _Parser:
    def __init__(self):
        self.reg: str | None = None
        self.n = 0
        self.defs: dict[str, _GateDef] = {}
        self.n_defs = 0
        self.pairs: list[tuple[int, int]] = []

    def parse(self, text: str) -> LogicalCircuit:
        stream = _statements(_strip_comments(text))
        for line, stmt, term in stream:
            if term == "{":
                self._parse_gate_def(line, stmt, stream)
                continue
            if term == "}":
                raise QasmError("unmatched '}'", line)
            self._statement(line, stmt, {})
        if self.reg is None:
            raise QasmError("no qreg declared")
        gates = tuple(CnotGate(i, c, t) for i, (c, t) in enumerate(self.pairs))
        return LogicalCircuit(self.n, gates)

    def _parse_gate_def(self, line: int, header: str, stream) -> None:
        m = _GATE_DECL_RE.match(header)
        if not m:
            raise QasmError(f"malformed block header: {header!r}", line)
        name = m[1]
        body: list[tuple[int, str]] = []
        for bline, stmt, term in stream:
            if term == "}":
                if stmt:
                    body.append((bline, stmt))
                break
            if term == "{":
                raise QasmError("nested blocks are not supported", bline)
            body.append((bline, stmt))
        else:
            raise QasmError(f"gate {name} body never closed", line)
        if name in self.defs:
            raise QasmError(f"gate {name} is already defined", line)
        self.defs[name] = _GateDef(name, re.findall(_ID, m[2]), body, self.n_defs)
        self.n_defs += 1

    def _statement(self, line: int, stmt: str, binding: dict[str, int],
                   within: _GateDef | None = None, guard: str | None = None) -> None:
        """Read a statement at top level, in the body of ``within``, or the one
        that the ``if`` statement ``guard`` guards."""
        if within is None and guard is None:
            if stmt.startswith(("OPENQASM", "include")):
                return
            if stmt.split(None, 1)[0] in ("qreg", "creg"):
                m = _REG_RE.match(stmt)
                if not m:
                    raise QasmError(f"malformed declaration: {stmt!r}", line)
                if m[1] == "q":
                    if self.reg is not None:
                        raise QasmError("multiple qreg declarations are not supported", line)
                    self.reg, self.n = m[2], int(m[3])
                return
        m = _APPLY_RE.match(stmt)
        if not m:
            raise QasmError(f"malformed statement: {guard or stmt!r}", line)
        name = m[1]
        if name in _DROPPED_KEYWORDS and (guard or stmt.split(None, 1)[0] == name):
            return
        if name == "if" and guard is None:
            cond = _IF_RE.match(stmt)
            self._statement(line, stmt[cond.end():] if cond else "", binding, within, stmt)
            return
        operands = [o.strip() for o in m[3].split(",") if o.strip()]
        # a guarded statement is never a cx or an inlined gate: one operand or an error
        if guard is None:
            if name in ("cx", "CX"):
                if len(operands) != 2:
                    raise QasmError(f"cx expects 2 operands, got {len(operands)}", line)
                c = self._resolve(line, operands[0], binding)
                t = self._resolve(line, operands[1], binding)
                if c == t:
                    raise CircuitError(f"line {line}: cx with equal operands q[{c}]")
                self.pairs.append((c, t))
                return
            # in the body of ``within``, only a definition made before it
            gdef = self.defs.get(name)
            if gdef is not None and (within is None or gdef.seq < within.seq):
                if len(operands) != len(gdef.args):
                    raise QasmError(
                        f"gate {name} expects {len(gdef.args)} operands, got {len(operands)}", line
                    )
                inner = {
                    formal: self._resolve(line, actual, binding)
                    for formal, actual in zip(gdef.args, operands)
                }
                for bline, bstmt in gdef.body:
                    self._statement(bline, bstmt, inner, gdef)
                return
            if within is not None and (name == within.name or len(operands) > 1 and name in self.defs):
                what = "itself" if name == within.name else f"{name}, defined after it"
                raise QasmError(f"gate {within.name} applies {what}", line)
        if len(operands) == 1:
            # single-qubit gate: executed in software / locally, not modeled
            if operands[0] != self.reg:
                self._resolve(line, operands[0], binding)
            return
        raise QasmError(f"unsupported multi-qubit gate {'if' if guard else name!r}", line)

    def _resolve(self, line: int, operand: str, binding: dict[str, int]) -> int:
        m = _OPERAND_RE.match(operand)
        if not m:
            raise QasmError(f"malformed operand {operand!r}", line)
        name, idx = m.group(1), m.group(2)
        if idx is None:
            if name in binding:
                return binding[name]
            raise QasmError(f"whole-register operand {name!r} not supported here", line)
        if name != self.reg:
            raise QasmError(f"unknown register {name!r}", line)
        q = int(idx)
        if not 0 <= q < self.n:
            raise CircuitError(f"line {line}: qubit index {q} out of range [0, {self.n})")
        return q


def parse_qasm(text: str) -> LogicalCircuit:
    """Parse an OpenQASM-2 program, retaining only its cx gates in program order."""
    flat = _flat_circuit(text)
    return _Parser().parse(text) if flat is None else flat
