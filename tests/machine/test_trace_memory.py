"""Memory gate on the dynamic trace.

``execute()`` keeps one static id per executed instruction and one
address per executed LOAD/STORE, so a trace costs at most a few bytes
per dynamic instruction.  The gate runs one loop program at two trip
counts under ``tracemalloc`` and bounds what the result holds per extra
dynamic instruction: 4.7 B on Python 3.11.  The trace it replaced, one
``TraceEvent`` object per executed instruction, measured 98 B per
instruction on this gate and ~200 B of resident memory per instruction
in perfbench's ``sim-table2`` (``machine.rss_growth_mb``, 183 MB on
``102.swim``).
"""

from __future__ import annotations

import tracemalloc

from repro import CompileOptions, compile_source
from repro.machine.executor import execute

BYTES_PER_INSN = 32

SRC = """int a[64];
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < %d; i++) {
        a[i & 63] = i;
        s = s + a[(i * 7) & 63];
    }
    return s;
}
"""


def _held_by_result(trips: int) -> tuple[int, int]:
    """Bytes the result of one run still holds, and its instruction count."""
    comp = compile_source(SRC % trips, "loop.c", CompileOptions())
    tracemalloc.start()
    try:
        res = execute(comp.rtl)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, len(res.trace)


def test_trace_bytes_per_dynamic_instruction():
    small_bytes, small_insns = _held_by_result(2_000)
    big_bytes, big_insns = _held_by_result(10_000)
    assert big_insns > small_insns
    per_insn = (big_bytes - small_bytes) / (big_insns - small_insns)
    assert per_insn <= BYTES_PER_INSN, f"{per_insn:.1f} B per dynamic instruction"
