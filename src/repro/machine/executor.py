"""Functional RTL executor.

Interprets lowered (and possibly rescheduled) RTL, producing:

* the program's observable results (return value, output, final memory) —
  used by tests to prove that HLI-guided scheduling preserves semantics;
* a dynamic instruction trace consumed by the timing models
  (:mod:`repro.machine.pipeline`, :mod:`repro.machine.superscalar`).

The machine is 32-bit MIPS-like: byte-addressed memory, C-style
truncating integer division, wrap-around 32-bit integer arithmetic.
External functions (printf, getchar, sqrt, malloc, ...) are serviced by
built-in handlers so SPEC-shaped workloads run without an OS.

Each function is decoded once per run, on its first call, into a list of
uniform 6-tuples ``(kind, aux, dst, a, b, sid)``: ``kind`` is a small int
(the ``_K_*`` codes), register operands are slots of a per-frame ``list``
register file whose template pre-places every immediate in a constant
slot (so each operand read is ``regs[i]``), branch targets are
instruction indices, ALU operations are bound to one function per opcode
and float-ness, and ``sid`` is the instruction's id in the program-wide
static table of the :class:`Trace`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from ..backend.rtl import Insn, Opcode, Reg, RTLFunction, RTLProgram
from ..obs import metrics, trace


class ExecutionError(Exception):
    """Raised on runtime faults (bad opcode, step-limit, missing function)."""


class _ExitProgram(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


@dataclass
class TraceEvent:
    """One executed instruction, with its resolved memory address (if any)."""

    insn: Insn
    addr: Optional[int] = None


#: ``Trace.addrs`` entry of a LOAD/STORE event whose address is ``None``
NO_ADDR = -(1 << 63)


def has_addr(insn: Insn) -> bool:
    """Whether the trace keeps an address for each execution of ``insn``."""
    return insn.op is Opcode.LOAD or insn.op is Opcode.STORE


class Trace:
    """A compact dynamic trace.

    * ``insns`` — the program-wide static instruction table;
    * ``ids`` — one static id per executed instruction (``array('I')``);
    * ``addrs`` — one address per executed LOAD/STORE (``array('q')``),
      :data:`NO_ADDR` standing for ``None``.

    ``len(trace)`` is the dynamic instruction count.  Iterating yields a
    :class:`TraceEvent` per executed instruction, built lazily; only
    LOAD/STORE events carry an address.
    """

    __slots__ = ("insns", "ids", "addrs")

    def __init__(self) -> None:
        self.insns: list[Insn] = []
        self.ids = array("I")
        self.addrs = array("q")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[TraceEvent]:
        insns = self.insns
        with_addr = [has_addr(i) for i in insns]
        addrs = iter(self.addrs)
        for sid in self.ids:
            if with_addr[sid]:
                a = next(addrs)
                yield TraceEvent(insns[sid], None if a == NO_ADDR else a)
            else:
                yield TraceEvent(insns[sid])

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> Trace:
        """Pack ``events`` (a ``Trace`` is returned as it is)."""
        if isinstance(events, Trace):
            return events
        out = cls()
        index: dict[int, int] = {}
        for ev in events:
            insn = ev.insn
            sid = index.get(id(insn))
            if sid is None:
                sid = index[id(insn)] = len(out.insns)
                out.insns.append(insn)
            out.ids.append(sid)
            if has_addr(insn):
                out.addrs.append(NO_ADDR if ev.addr is None else ev.addr)
        return out

    def register_slots(self) -> tuple[list[tuple[int, ...]], list[Optional[int]], int]:
        """Per static instruction, its source-register slots (in
        ``Insn.src_regs()`` order) and its destination slot (``None`` if
        it writes none), dense over the registers the table names; plus
        the number of slots."""
        slots: dict[int, int] = {}
        srcs: list[tuple[int, ...]] = []
        dsts: list[Optional[int]] = []
        for insn in self.insns:
            srcs.append(tuple(slots.setdefault(r.rid, len(slots)) for r in insn.src_regs()))
            d = insn.dst
            dsts.append(None if d is None else slots.setdefault(d.rid, len(slots)))
        return srcs, dsts, len(slots)


@dataclass
class ExecResult:
    """Observable outcome of one program run."""

    ret: object = None
    output: list[str] = field(default_factory=list)
    steps: int = 0
    trace: Trace = field(default_factory=Trace)
    memory: dict[int, object] = field(default_factory=dict)


def _s32(v: int) -> int:
    """Wrap to signed 32-bit."""
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _cdiv(a: int, b: int) -> int:
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _cmod(a: int, b: int) -> int:
    return a - _cdiv(a, b) * b


#: integer semantics of each ALU opcode (also the float semantics of
#: every opcode missing from ``_ALU_FLOAT``)
_ALU_INT: dict[Opcode, Callable] = {
    Opcode.ADD: lambda a, b: _s32(int(a + b)),
    Opcode.SUB: lambda a, b: _s32(int(a - b)),
    Opcode.MUL: lambda a, b: _s32(int(a * b)),
    Opcode.DIV: lambda a, b: _s32(_cdiv(int(a), int(b))),
    Opcode.MOD: lambda a, b: _s32(_cmod(int(a), int(b))),
    Opcode.NEG: lambda a: _s32(-int(a)),
    Opcode.NOT: lambda a: _s32(~int(a)),
    Opcode.AND: lambda a, b: _s32(int(a) & int(b)),
    Opcode.OR: lambda a, b: _s32(int(a) | int(b)),
    Opcode.XOR: lambda a, b: _s32(int(a) ^ int(b)),
    Opcode.SHL: lambda a, b: _s32(int(a) << (int(b) & 31)),
    Opcode.SHR: lambda a, b: _s32(int(a) >> (int(b) & 31)),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.SNE: lambda a, b: 1 if a != b else 0,
    Opcode.CVT_IF: lambda a: float(a),
    Opcode.CVT_FI: lambda a: _s32(int(a)),
}

_ALU_FLOAT: dict[Opcode, Callable] = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: a / b if b != 0 else math.inf,
    Opcode.NEG: lambda a: -a,
}

_UNARY = {Opcode.NEG, Opcode.NOT, Opcode.CVT_IF, Opcode.CVT_FI}
#: integer opcodes checked for a zero divisor, with the word their error uses
_BY_ZERO = {Opcode.DIV: "division", Opcode.MOD: "modulo"}

# Decoded kind codes, numbered in the order the executor loop tests them.
_K_ALU2 = 0  # regs[dst] = aux(regs[a], regs[b])
_K_LOAD = 1  # regs[dst] = memory.get(regs[a], aux)
_K_MOVE = 2  # regs[dst] = regs[a]  (MOVE, LI, LA)
_K_SKIP = 3  # LABEL, NOP: a step, not an executed instruction
_K_STORE = 4  # memory[regs[a]] = regs[b]
_K_BNEZ = 5  # if regs[a] != 0: pc = dst
_K_BEQZ = 6  # if regs[a] == 0: pc = dst
_K_J = 7  # pc = dst
_K_ALU1 = 8  # regs[dst] = aux(regs[a])
_K_CALL = 9  # regs[dst] = call aux(*regs[a...])
_K_RET = 10  # return regs[dst]
_K_IDIV = 11  # aux = (fn, message): integer DIV/MOD, raises when regs[b] == 0
_K_FAIL = 12  # raises ExecutionError(aux) when executed


@dataclass
class _Decoded:
    """One function in the executor's pre-decoded form."""

    name: str
    code: list[tuple]
    template: list
    param_slots: list[int]


def _decode(fn: RTLFunction, base: int, layout: dict[str, tuple[int, int]]) -> _Decoded:
    """Decode ``fn``; its instruction ``i`` gets static id ``base + i``."""
    template: list = []
    reg_slots: dict[int, int] = {}
    const_slots: dict[tuple, int] = {}

    def reg(r: Reg) -> int:
        s = reg_slots.get(r.rid)
        if s is None:
            s = reg_slots[r.rid] = len(template)
            template.append(0)  # a register never written reads 0
        return s

    def const(v: object) -> int:
        key = (type(v), repr(v))  # repr keeps -0.0 apart from 0.0
        s = const_slots.get(key)
        if s is None:
            s = const_slots[key] = len(template)
            template.append(v)
        return s

    def operand(x: object) -> int:
        return reg(x) if isinstance(x, Reg) else const(x)

    labels = fn.labels()
    code: list[tuple] = []
    for idx, insn in enumerate(fn.insns):
        sid = base + idx
        op = insn.op
        if op is Opcode.LABEL or op is Opcode.NOP:
            row: tuple = (_K_SKIP, None, None, None, None, sid)
        elif op is Opcode.LI:
            row = (_K_MOVE, None, reg(insn.dst), const(insn.imm), None, sid)
        elif op is Opcode.MOVE:
            row = (_K_MOVE, None, reg(insn.dst), operand(insn.srcs[0]), None, sid)
        elif op is Opcode.LA:
            where = layout.get(insn.symbol)
            if where is None:
                row = (_K_FAIL, f"unknown symbol '{insn.symbol}'", None, None, None, sid)
            else:
                row = (_K_MOVE, None, reg(insn.dst), const(where[0]), None, sid)
        elif op is Opcode.LOAD:
            default = 0.0 if insn.is_float else 0
            row = (_K_LOAD, default, reg(insn.dst), operand(insn.mem.addr), None, sid)
        elif op is Opcode.STORE:
            row = (_K_STORE, None, None, operand(insn.mem.addr), operand(insn.srcs[0]), sid)
        elif op is Opcode.J:
            row = (_K_J, None, labels[insn.label], None, None, sid)
        elif op is Opcode.BEQZ or op is Opcode.BNEZ:
            kind = _K_BEQZ if op is Opcode.BEQZ else _K_BNEZ
            row = (kind, None, labels[insn.label], operand(insn.srcs[0]), None, sid)
        elif op is Opcode.CALL:
            dst = None if insn.dst is None else reg(insn.dst)
            args = tuple(operand(s) for s in insn.srcs)
            row = (_K_CALL, insn.callee, dst, args, None, sid)
        elif op is Opcode.RET:
            ret = None if fn.ret_reg is None else reg(fn.ret_reg)
            row = (_K_RET, None, ret, None, None, sid)
        elif op in _ALU_INT:
            table = _ALU_FLOAT if insn.is_float and op in _ALU_FLOAT else _ALU_INT
            f = table[op]
            a = operand(insn.srcs[0])
            b = None
            if op not in _UNARY:  # a missing second operand reads None
                b = operand(insn.srcs[1]) if len(insn.srcs) > 1 else const(None)
            if b is None:
                row = (_K_ALU1, f, reg(insn.dst), a, None, sid)
            elif table is _ALU_INT and op in _BY_ZERO:
                msg = f"integer {_BY_ZERO[op]} by zero at line {insn.line}"
                row = (_K_IDIV, (f, msg), reg(insn.dst), a, b, sid)
            else:
                row = (_K_ALU2, f, reg(insn.dst), a, b, sid)
        else:  # pragma: no cover
            row = (_K_FAIL, f"unhandled opcode {op}", None, None, None, sid)
        code.append(row)
    params = [reg(r) for r in fn.param_regs]
    return _Decoded(fn.name, code, template, params)


class Executor:
    """Interpret an RTL program."""

    def __init__(
        self,
        program: RTLProgram,
        input_text: str = "",
        max_steps: int = 50_000_000,
        collect_trace: bool = True,
    ) -> None:
        self.program = program
        self.memory: dict[int, object] = dict(program.init_data)
        self.input = input_text
        self.input_pos = 0
        self.max_steps = max_steps
        self.collect_trace = collect_trace
        self.steps = 0
        #: steps spent on LABEL/NOP, which are not executed instructions
        self.skipped = 0
        self.trace = Trace()
        self.output: list[str] = []
        self._heap_next = 0x4000000
        self._rand_state = 12345
        self._decoded: dict[str, _Decoded] = {}

    # -- public API --------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> ExecResult:
        """Execute ``entry`` with integer/float arguments."""
        ret = None
        with trace.span("machine.execute", entry=entry):
            try:
                ret = self._call(entry, tuple(args))
            except _ExitProgram as e:
                ret = e.code
        if metrics.is_enabled():
            metrics.add("machine.dynamic_insns", self.steps - self.skipped)
            metrics.add("machine.steps", self.steps)
        return ExecResult(
            ret=ret,
            output=self.output,
            steps=self.steps,
            trace=self.trace,
            memory=self.memory,
        )

    # -- function invocation --------------------------------------------------

    def _call(self, name: str, args: tuple) -> object:
        handler = _EXTERNALS.get(name)
        if handler is not None:
            return handler(self, args)
        decoded = self._decoded.get(name)
        if decoded is None:
            fn = self.program.functions.get(name)
            if fn is None:
                raise ExecutionError(f"call to unknown function '{name}'")
            static = self.trace.insns
            decoded = _decode(fn, len(static), self.program.globals_layout)
            static.extend(fn.insns)
            self._decoded[name] = decoded
        return self._run_function(decoded, args)

    def _run_function(self, fn: _Decoded, args: tuple) -> object:
        regs = fn.template.copy()
        for slot, val in zip(fn.param_slots, args):
            regs[slot] = val
        code = fn.code
        n = len(code)
        mem = self.memory
        collect = self.collect_trace
        ids_append = self.trace.ids.append
        addrs_append = self.trace.addrs.append
        max_steps = self.max_steps
        # the step counters live in locals and are written back before
        # every call, return and raise
        steps = self.steps
        skipped = self.skipped
        pc = 0
        while pc < n:
            steps += 1
            if steps > max_steps:
                self.steps, self.skipped = steps, skipped
                raise ExecutionError(f"step limit exceeded in {fn.name}")
            kind, aux, dst, a, b, sid = code[pc]
            pc += 1
            if kind == _K_ALU2:
                regs[dst] = aux(regs[a], regs[b])
            elif kind == _K_LOAD:
                addr = regs[a]
                regs[dst] = mem.get(addr, aux)
                if collect:
                    addrs_append(addr)
            elif kind == _K_MOVE:
                regs[dst] = regs[a]
            elif kind == _K_SKIP:
                skipped += 1
                continue
            elif kind == _K_STORE:
                addr = regs[a]
                mem[addr] = regs[b]
                if collect:
                    addrs_append(addr)
            elif kind == _K_BNEZ:
                if regs[a] != 0:
                    pc = dst
            elif kind == _K_BEQZ:
                if regs[a] == 0:
                    pc = dst
            elif kind == _K_J:
                pc = dst
            elif kind == _K_ALU1:
                regs[dst] = aux(regs[a])
            elif kind == _K_CALL:
                if collect:
                    ids_append(sid)
                self.steps, self.skipped = steps, skipped
                result = self._call(aux, tuple([regs[s] for s in a]))
                steps, skipped = self.steps, self.skipped
                if dst is not None:
                    regs[dst] = result
                continue
            elif kind == _K_RET:
                if collect:
                    ids_append(sid)
                self.steps, self.skipped = steps, skipped
                return 0 if dst is None else regs[dst]
            elif kind == _K_IDIV:
                if regs[b] == 0:
                    self.steps, self.skipped = steps, skipped
                    raise ExecutionError(aux[1])
                regs[dst] = aux[0](regs[a], regs[b])
            else:  # _K_FAIL
                self.steps, self.skipped = steps, skipped
                raise ExecutionError(aux)
            if collect:
                ids_append(sid)
        self.steps, self.skipped = steps, skipped
        return 0

    # -- externals ----------------------------------------------------------------

    def _getchar(self) -> int:
        if self.input_pos >= len(self.input):
            return -1
        c = ord(self.input[self.input_pos])
        self.input_pos += 1
        return c

    def _malloc(self, size: int) -> int:
        addr = self._heap_next
        self._heap_next += max(8, (int(size) + 7) // 8 * 8)
        return addr

    def _rand(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state


def _ext_printf(ex: Executor, args: tuple) -> int:
    fmt = args[0] if args else ""
    try:
        rendered = str(fmt) % tuple(args[1:]) if args[1:] else str(fmt)
    except (TypeError, ValueError):
        rendered = " ".join(str(a) for a in args)
    ex.output.append(rendered)
    return len(rendered)


_EXTERNALS = {
    "printf": _ext_printf,
    "putchar": lambda ex, a: (ex.output.append(chr(int(a[0]) & 0xFF)), int(a[0]))[1],
    "getchar": lambda ex, a: ex._getchar(),
    "exit": lambda ex, a: (_ for _ in ()).throw(_ExitProgram(int(a[0]) if a else 0)),
    "malloc": lambda ex, a: ex._malloc(int(a[0])),
    "free": lambda ex, a: 0,
    "rand": lambda ex, a: ex._rand(),
    "abs": lambda ex, a: abs(int(a[0])),
    "sqrt": lambda ex, a: math.sqrt(abs(float(a[0]))),
    "fabs": lambda ex, a: abs(float(a[0])),
    "sin": lambda ex, a: math.sin(float(a[0])),
    "cos": lambda ex, a: math.cos(float(a[0])),
    "exp": lambda ex, a: math.exp(min(float(a[0]), 700.0)),
    "log": lambda ex, a: math.log(abs(float(a[0])) + 1e-300),
    "pow": lambda ex, a: math.pow(float(a[0]), float(a[1])),
}


def execute(
    program: RTLProgram,
    entry: str = "main",
    args: tuple = (),
    input_text: str = "",
    collect_trace: bool = True,
    max_steps: int = 50_000_000,
) -> ExecResult:
    """Run ``program`` from ``entry`` and return the observable result."""
    ex = Executor(
        program, input_text=input_text, max_steps=max_steps, collect_trace=collect_trace
    )
    return ex.run(entry, args)
