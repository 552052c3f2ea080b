"""R10000-like 4-issue out-of-order timing model.

Models the features the paper invokes to explain why the R10000 rewards
HLI-guided scheduling more than the R4600 (Section 4.3):

* 4-wide in-order *fetch* into a reorder window (so the compile-time
  instruction order still matters: it decides when an instruction enters
  the window);
* out-of-order issue within the window once operands are ready;
* a load/store queue in which **a load is not issued to memory until all
  preceding stores in the queue have resolved addresses**, and a load
  that hits a preceding store to the same address waits for (and
  forwards from) that store's data;
* in-order retirement bounded by the window size.

The model times a dynamic trace with actual memory addresses (from the
functional executor), so store-to-load conflicts are exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from ..backend.rtl import Opcode
from ..obs import metrics, trace
from .executor import NO_ADDR, Trace, TraceEvent, has_addr
from .latencies import r10000_latency
from .pipeline import TimingResult

_BRANCHES = {Opcode.J, Opcode.BEQZ, Opcode.BNEZ}

# per-instruction kinds of the timing table
_OTHER, _LOAD_Q, _STORE, _CALL, _BRANCH = range(5)


@dataclass
class R10000Config:
    width: int = 4
    window: int = 32
    branch_penalty: int = 2
    store_queue: bool = True


class R10000Model:
    """Windowed out-of-order timing over a dynamic trace."""

    name = "R10000"

    def __init__(self, config: R10000Config | None = None, cache=None) -> None:
        self.config = config or R10000Config()
        #: optional MemoryHierarchy adding cache-miss penalties
        self.cache = cache

    def time(self, events: Union[Trace, Iterable[TraceEvent]]) -> TimingResult:
        with trace.span("machine.time", machine=self.name):
            result = self._time(Trace.from_events(events))
        if metrics.is_enabled():
            metrics.add("machine.cycles.r10000", result.cycles)
            metrics.add("machine.insns.r10000", result.instructions)
        return result

    def _table(self, tr: Trace) -> tuple[list, int]:
        """Per static instruction: ``None`` for a LABEL, else ``(source
        slots, destination slot, latency, kind, mem)`` where ``kind`` is
        one of ``_OTHER``/``_LOAD_Q`` (a load behind the store queue)/
        ``_STORE``/``_CALL``/``_BRANCH`` and ``mem`` is 0 when the event
        has no address, 1 when it has one, 2 when the cache charges it.
        Plus the slot count."""
        srcs, dsts, nslots = tr.register_slots()
        cache = self.cache
        store_queue = self.config.store_queue
        table: list = []
        for sid, insn in enumerate(tr.insns):
            op = insn.op
            if op is Opcode.LABEL:
                table.append(None)
                continue
            if op is Opcode.LOAD and store_queue:
                kind = _LOAD_Q
            elif op is Opcode.STORE:
                kind = _STORE
            elif op is Opcode.CALL:
                kind = _CALL
            elif op in _BRANCHES:
                kind = _BRANCH
            else:
                kind = _OTHER
            mem = 0
            if has_addr(insn):
                mem = 2 if cache is not None and insn.mem is not None else 1
            table.append((srcs[sid], dsts[sid], r10000_latency(insn), kind, mem))
        return table, nslots

    def _time(self, tr: Trace) -> TimingResult:
        cfg = self.config
        width, wsize, branch_penalty = cfg.width, cfg.window, cfg.branch_penalty
        cache = self.cache
        if cache is not None:
            cache.reset()
        table, nslots = self._table(tr)
        ready = [0] * nslots
        #: completion cycles of the instructions currently in the window
        window: deque[int] = deque()
        #: pending stores in the window: (addr, addr_ready, data_ready)
        stores: deque[tuple[int, int, int]] = deque()
        fetch_cycle = 0
        fetched_this_cycle = 0
        clock_last_retire = 0
        labels = 0
        addrs = iter(tr.addrs)
        for sid in tr.ids:
            entry = table[sid]
            if entry is None:
                labels += 1
                continue
            srcs, dst, lat, kind, mem = entry
            # ---- fetch: 4-wide, in-order, window-limited -------------------
            if fetched_this_cycle >= width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            if len(window) >= wsize:
                # stall fetch until the oldest instruction retires
                oldest = window.popleft()
                if oldest > fetch_cycle:
                    fetch_cycle = oldest
                    fetched_this_cycle = 0
            fetched_this_cycle += 1

            # ---- issue ------------------------------------------------------
            issue = fetch_cycle + 1
            for s in srcs:
                t = ready[s]
                if t > issue:
                    issue = t
            if mem:
                addr = next(addrs)
                if mem == 2 and addr != NO_ADDR:
                    lat += cache.penalty(addr)

            if kind == _LOAD_Q:
                # The load waits until all preceding stores have resolved
                # addresses; a same-address store additionally forwards data.
                for s_addr, s_aready, s_dready in stores:
                    if s_aready > issue:
                        issue = s_aready
                    if s_addr == addr and addr != NO_ADDR and s_dready > issue:
                        issue = s_dready
            complete = issue + lat
            if kind == _STORE:
                stores.append((addr if addr != NO_ADDR else -1, issue, issue + 1))
                if len(stores) > wsize:
                    stores.popleft()
            elif kind == _CALL:
                # Serialize at call boundaries (the real machine drains the
                # store queue and mispredicts returns often enough).
                stores.clear()
                if clock_last_retire > issue:
                    issue = clock_last_retire
                complete = issue + lat
            elif kind == _BRANCH:
                complete = issue + branch_penalty

            if dst is not None:
                ready[dst] = complete
            # retire tracking: in-order retirement means completion order
            # can't regress below the previous retire cycle.
            if complete < clock_last_retire:
                complete = clock_last_retire
            clock_last_retire = complete
            window.append(complete)
            # age out stores whose data is long done
            if stores and stores[0][2] <= fetch_cycle - wsize:
                stores.popleft()
        return TimingResult(cycles=clock_last_retire, instructions=len(tr.ids) - labels)
