"""Hypothesis properties of the timing models.

Traces are generated straight-line (each instruction runs once) or
looped (a body's instruction objects repeat, as a loop executes them),
over a small register pool, with LOAD/STORE addresses drawn from a few
words (``None`` included, as a hand-built trace may carry).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, compile_source
from repro.backend.ddg import DDGMode
from repro.backend.rtl import Insn, MemRef, Opcode, new_reg
from repro.difftest.gen import GenConfig, generate
from repro.machine import latencies
from repro.machine.executor import TraceEvent, execute
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Config, R10000Model

INT_REGS = [new_reg() for _ in range(5)]
FLOAT_REGS = [new_reg(is_float=True) for _ in range(3)]
ADDRS = (None, 0, 4, 8, 64)

_ints = st.sampled_from(INT_REGS)
_floats = st.sampled_from(FLOAT_REGS)
_int_alu = st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.SLT, Opcode.SHL])
_float_alu = st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.DIV])


def _insn_strategy() -> st.SearchStrategy:
    return st.one_of(
        st.builds(lambda d: Insn(Opcode.LI, dst=d, imm=1), _ints),
        st.builds(lambda op, d, a, b: Insn(op, dst=d, srcs=(a, b)), _int_alu, _ints, _ints, _ints),
        st.builds(
            lambda op, d, a, b: Insn(op, dst=d, srcs=(a, b), is_float=True),
            _float_alu, _floats, _floats, _floats,
        ),
        st.builds(lambda d, a: Insn(Opcode.CVT_IF, dst=d, srcs=(a,)), _floats, _ints),
        st.builds(
            lambda d, a: Insn(Opcode.LOAD, dst=d, mem=MemRef(addr=a), is_float=d.is_float),
            st.one_of(_ints, _floats), _ints,
        ),
        st.builds(
            lambda v, a: Insn(Opcode.STORE, srcs=(v,), mem=MemRef(addr=a, is_store=True)),
            st.one_of(_ints, _floats), _ints,
        ),
        st.builds(lambda a: Insn(Opcode.BEQZ, srcs=(a,), label="L"), _ints),
        st.just(Insn(Opcode.J, label="L")),
        st.builds(lambda d, a: Insn(Opcode.CALL, dst=d, srcs=(a,), callee="f"), _ints, _ints),
        st.just(Insn(Opcode.LABEL, label="L")),
    )


def _event(insn: Insn, addr: object) -> TraceEvent:
    is_mem = insn.op is Opcode.LOAD or insn.op is Opcode.STORE
    return TraceEvent(insn, addr if is_mem else None)


@st.composite
def traces(draw) -> list[TraceEvent]:
    body = draw(st.lists(_insn_strategy(), min_size=1, max_size=24))
    trips = draw(st.sampled_from([1, 1, 2, 5, 17]))  # 1 is straight-line
    addrs = st.sampled_from(ADDRS)
    return [_event(insn, draw(addrs)) for _ in range(trips) for insn in body]


def _instructions(trace: list[TraceEvent]) -> int:
    return sum(ev.insn.op is not Opcode.LABEL for ev in trace)


@settings(max_examples=150, deadline=None)
@given(traces())
def test_r4600_cycles_at_least_instructions(trace):
    t = R4600Model().time(trace)
    assert t.instructions == _instructions(trace)
    assert t.cycles >= t.instructions


@settings(max_examples=150, deadline=None)
@given(traces(), st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 4, 32]))
def test_r10000_cycles_at_least_instructions_over_width(trace, width, window):
    t = R10000Model(R10000Config(width=width, window=window)).time(trace)
    assert t.instructions == _instructions(trace)
    assert t.cycles >= t.instructions / width


_TABLES = {
    "R4600_INT": latencies.R4600_INT,
    "R4600_FLOAT": latencies.R4600_FLOAT,
    "R10000_INT": latencies.R10000_INT,
    "R10000_FLOAT": latencies.R10000_FLOAT,
}


@settings(max_examples=150, deadline=None)
@given(
    traces(),
    st.sampled_from(sorted(_TABLES)),
    st.data(),
    st.integers(1, 40),
)
def test_cycles_never_decrease_when_a_latency_grows(trace, table_name, data, growth):
    table = _TABLES[table_name]
    op = data.draw(st.sampled_from(sorted(table, key=lambda o: o.value)))
    before = (R4600Model().time(trace).cycles, R10000Model().time(trace).cycles)
    old = table[op]
    table[op] = old + growth
    try:
        after = (R4600Model().time(trace).cycles, R10000Model().time(trace).cycles)
    finally:
        table[op] = old
    assert after[0] >= before[0]
    assert after[1] >= before[1]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 100_000))
def test_gcc_and_combined_schedules_agree(seed):
    source = generate(seed, GenConfig.small())
    runs = []
    for mode in (DDGMode.GCC, DDGMode.COMBINED):
        comp = compile_source(source, f"prop{seed}.c", CompileOptions(mode=mode))
        runs.append(execute(comp.rtl))
    gcc, combined = runs
    assert gcc.memory == combined.memory
    assert len(gcc.trace) == len(combined.trace)
    assert (gcc.ret, gcc.output) == (combined.ret, combined.output)
