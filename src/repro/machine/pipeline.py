"""R4600-like in-order pipeline timing model.

The MIPS R4600 is a single-issue, five-stage, in-order pipeline with
interlocked load-use delays.  The model charges:

* one issue slot per instruction (IPC <= 1);
* operand interlocks: an instruction stalls until every source register
  is ready (register results become ready ``latency`` cycles after
  issue);
* a one-cycle taken-branch bubble.

This is exactly the machine behaviour that makes *basic-block
scheduling* profitable: hoisting a load away from its use hides the
load-use slot, which is where the paper's R4600 speedups come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..backend.rtl import Opcode
from ..obs import metrics, trace
from .executor import NO_ADDR, Trace, TraceEvent, has_addr
from .latencies import r4600_latency

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}


@dataclass
class TimingResult:
    """Outcome of timing one dynamic trace."""

    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class R4600Model:
    """Single-issue in-order timing over a dynamic trace.

    Pass a :class:`~repro.machine.memory.MemoryHierarchy` to add
    cache-miss stalls; the default flat memory isolates the scheduling
    effect the paper measures.
    """

    name = "R4600"

    def __init__(self, branch_penalty: int = 1, cache=None) -> None:
        self.branch_penalty = branch_penalty
        self.cache = cache

    def time(self, events: Union[Trace, Iterable[TraceEvent]]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(Trace.from_events(events))
        if metrics.is_enabled():
            metrics.add("machine.cycles.r4600", result.cycles)
            metrics.add("machine.insns.r4600", result.instructions)
        return result

    def _table(self, tr: Trace) -> tuple[list, int]:
        """Per static instruction: ``None`` for a LABEL, else ``(source
        slots, destination slot, latency, cycles added after issue, mem)``
        where ``mem`` is 0 when no address is read, 1 when the address is
        only consumed, 2 when the cache charges it.  Plus the slot count."""
        srcs, dsts, nslots = tr.register_slots()
        cache = self.cache
        table: list = []
        for sid, insn in enumerate(tr.insns):
            op = insn.op
            if op is Opcode.LABEL:
                table.append(None)
                continue
            # a call drains the pipeline
            post = self.branch_penalty if op in _BRANCHES else 1 if op is Opcode.CALL else 0
            mem = 0
            if cache is not None and has_addr(insn):
                mem = 2 if insn.mem is not None else 1
            table.append((srcs[sid], dsts[sid], r4600_latency(insn), post, mem))
        return table, nslots

    def _time(self, tr: Trace) -> TimingResult:
        table, nslots = self._table(tr)
        ready = [0] * nslots
        clock = 0
        labels = 0
        cache = self.cache
        if cache is not None:
            cache.reset()
        addrs = iter(tr.addrs)
        for sid in tr.ids:
            entry = table[sid]
            if entry is None:
                labels += 1
                continue
            srcs, dst, lat, post, mem = entry
            issue = clock + 1
            for s in srcs:
                t = ready[s]
                if t > issue:
                    issue = t
            if mem:
                addr = next(addrs)
                if mem == 2 and addr != NO_ADDR:
                    extra = cache.penalty(addr)
                    if dst is None:
                        issue += extra  # a missing store occupies the bus
                    else:
                        lat += extra
            if dst is not None:
                ready[dst] = issue + lat
            clock = issue + post
        return TimingResult(cycles=clock, instructions=len(tr.ids) - labels)
