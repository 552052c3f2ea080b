"""The benchmark's four workloads.

Each workload is one client in a closed loop in this process: no worker
pool, ``repro.obs`` left off.  A workload runs whole *rounds* until at
least the requested seconds have passed (``cold-compile``: one pass
over its sets; ``warm-edit``: one request; ``sim-table2``: one draw;
``link-wp``: one pass), or exactly ``rounds`` rounds when a traced run
replays an untraced one.  Only the op calls are timed; the correctness
checks run between them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.backend.ddg import DDGMode
from repro.bench import registry
from repro.driver import timing
from repro.driver.compile import Compilation, CompileOptions, compile_source
from repro.driver.passes import PassContext, build_pipeline, make_manager
from repro.driver.session import CompilationSession, SessionStats
from repro.driver.wpa import compile_whole_program
from repro.hli.sizes import size_report
from repro.machine.executor import execute
from repro.workloads.suite import by_name

import common
from tracing import Tracer

_perf = time.perf_counter


class SetupError(Exception):
    """Inputs drifted from their pinned manifests or golden digests."""


@dataclass
class Measure:
    """What one measured phase produced."""

    #: per-op latency, seconds
    op_s: list[float] = field(default_factory=list)
    #: workload-defined work units completed by the ops
    work: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: memory-dependence tests kept by GCC's analysis and by combined
    gcc_yes: int = 0
    combined_yes: int = 0
    #: facts the per-layer report uses
    facts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.op_s)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def timed(self, fn, *args, **kwargs):
        t0 = _perf()
        out = fn(*args, **kwargs)
        self.op_s.append(_perf() - t0)
        return out


def _verify_sets(names, golden: dict) -> dict[str, str]:
    """Re-materialise ``names`` and check them against the registry's
    pinned manifests and the golden digests; returns the set digests."""
    registry.materialize.cache_clear()
    digests = {}
    for name in names:
        registry.materialize(name)
        problems = registry.verify_manifest(name)
        digests[name] = registry.set_digest(name)
        if digests[name] != golden["set_digests"][name]:
            problems.append(f"{name}: digest differs from golden.json")
        if problems:
            raise SetupError("; ".join(problems[:5]))
    return digests


def fn_deps(comp: Compilation) -> dict[str, list[int]]:
    """Per-function DepStats of one compilation."""
    return {f: common.dep_tuple(s) for f, s in comp.dep_stats.items()}


def _table1(m: "Measure", comp: Compilation, source: str) -> None:
    """Accumulate the paper's Table 1 size (HLI bytes, code lines)."""
    rep = size_report(comp.hli, source)
    m.facts["hli_bytes"] = m.facts.get("hli_bytes", 0) + rep.hli_bytes
    m.facts["code_lines"] = m.facts.get("code_lines", 0) + rep.code_lines


class Workload:
    name = ""
    sets: tuple[str, ...] = ()
    #: what ``Measure.work`` counts
    work_unit = ""
    #: what one op is
    op_unit = ""

    def __init__(
        self, golden: dict, seed: int, workdir: Path, limit: Optional[int] = None
    ) -> None:
        self.golden = golden
        self.seed = seed
        self.workdir = workdir
        #: programs taken from each set; ``None`` (the benchmark) takes all,
        #: the benchmark's own tests take a few
        self.limit = limit
        self.digests: dict[str, str] = {}

    def _programs(self, set_name: str) -> list:
        return list(registry.materialize(set_name))[: self.limit]

    def setup(self) -> Measure:
        """Materialise and verify the inputs (repeatable); returns the
        setup's own checks."""
        self.digests = _verify_sets(self.sets, self.golden)
        return Measure()

    def measure(
        self, seconds: float, rounds: Optional[int] = None, tracer: Optional[Tracer] = None
    ) -> Measure:
        m = Measure()
        rng = random.Random(self.seed)
        start = _perf()
        while (m.rounds < rounds) if rounds is not None else (
            m.rounds == 0 or _perf() - start < seconds
        ):
            self.round(m, rng, tracer)
            m.rounds += 1
        return m

    def round(self, m: Measure, rng: random.Random, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    @staticmethod
    def _op(tracer: Optional[Tracer]):
        """The root span of one op in a traced run; nothing otherwise."""
        return tracer.op() if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# cold-compile
# ---------------------------------------------------------------------------

def traced_compile(source: str, filename: str, opts: CompileOptions, tracer: Tracer) -> Compilation:
    """``compile_source`` with every pass action wrapped in a span: the
    pipeline from ``build_pipeline`` run under ``make_manager``."""
    passes = tracer.wrap_passes(build_pipeline(opts))
    ctx = PassContext(comp=Compilation(source=source, filename=filename, options=opts), opts=opts)
    ctx.comp.pipeline_stats = make_manager(passes).run(ctx)
    return ctx.comp


class ColdCompile(Workload):
    """Every program of corpus-v1 and suite-v1: uncached ``compile_source``
    in gcc and combined modes, then once through a fresh disk session."""

    name = "cold-compile"
    sets = common.COMPILE_SETS
    work_unit = "source lines compiled (summed over the three paths)"
    op_unit = "one program through all three paths"

    def setup(self) -> Measure:
        m = super().setup()
        self.programs = [
            (s, p.name, p.units[0][0], p.source, common.source_lines(p.units))
            for s in self.sets
            for p in self._programs(s)
        ]
        return m

    def round(self, m, rng, tracer):
        order = list(self.programs)
        rng.shuffle(order)
        per_prog = {name: 0.0 for _s, name, *_ in order}
        combined: dict[str, dict] = {}
        uncached_s = {DDGMode.GCC: 0.0, DDGMode.COMBINED: 0.0}
        for mode in (DDGMode.GCC, DDGMode.COMBINED):
            opts = CompileOptions(mode=mode)
            for set_name, name, fname, src, _lines in order:
                with self._op(tracer):
                    t0 = _perf()
                    if tracer is None:
                        comp = compile_source(src, fname, opts)
                    else:
                        comp = traced_compile(src, fname, opts, tracer)
                    dt = _perf() - t0
                per_prog[name] += dt
                uncached_s[mode] += dt
                got = common.dep_tuple(comp.total_dep_stats())
                want = self.golden["depstats"][set_name][name][mode.value]
                m.check(got == want, f"{name}/{mode.value}: DepStats {got} != golden {want}")
                if mode is DDGMode.COMBINED:
                    combined[name] = fn_deps(comp)
                    m.gcc_yes += got[1]
                    m.combined_yes += got[3]
                    if tracer is not None:
                        _table1(m, comp, src)
        cache = self.workdir / f"cold-{m.rounds}"
        shutil.rmtree(cache, ignore_errors=True)
        session = CompilationSession(cache_dir=cache)
        session_s = 0.0
        lines = 0
        for _set, name, fname, src, n_lines in order:
            with self._op(tracer):
                t0 = _perf()
                comp = session.compile(src, fname, CompileOptions())
                dt = _perf() - t0
            per_prog[name] += dt
            session_s += dt
            lines += n_lines
            m.check(comp.cache_state == "cold", f"{name}: fresh session state {comp.cache_state}")
            m.check(
                fn_deps(comp) == combined[name],
                f"{name}: cold-session DepStats differ from uncached compile_source",
            )
        shutil.rmtree(cache, ignore_errors=True)
        # an op is one program through all three paths
        m.op_s.extend(per_prog.values())
        m.work += 3 * lines
        f = m.facts
        for mode, t in uncached_s.items():
            f[f"uncached_{mode.value}_s"] = f.get(f"uncached_{mode.value}_s", 0.0) + t
        f["session_s"] = f.get("session_s", 0.0) + session_s
        f["lines"] = f.get("lines", 0) + lines


# ---------------------------------------------------------------------------
# warm-edit
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^(?:int|void|double|char)\s*\**\s*(\w+)\s*\([^;{]*\)\s*\{")
_CALL_RE = re.compile(r"\b(\w+)\s*\(")


def function_headers(source: str) -> dict[str, int]:
    """Function name -> index of its header line (``... name(...) {``)."""
    return {
        m.group(1): i
        for i, line in enumerate(source.split("\n"))
        if (m := _HEADER_RE.match(line))
    }


def invalidated_by_edit(source: str, fn: str) -> set[str]:
    """``fn`` plus every function that can reach it through calls: the
    set an edit to ``fn`` must re-run (its fingerprint and its callers')."""
    lines = source.split("\n")
    heads = sorted((i, name) for name, i in function_headers(source).items())
    calls: dict[str, set[str]] = {}
    for k, (i, name) in enumerate(heads):
        end = heads[k + 1][0] if k + 1 < len(heads) else len(lines)
        body = "\n".join(lines[i:end])
        body = body[body.index("{") + 1:]
        calls[name] = set(_CALL_RE.findall(body)) & set(function_headers(source))
    hit = {fn}
    grew = True
    while grew:
        grew = False
        for caller, callees in calls.items():
            if caller not in hit and callees & hit:
                hit.add(caller)
                grew = True
    return hit


def insert_local(source: str, fn: str, tag: str) -> str:
    """Declare a new unused local at the head of ``fn``'s body, on the
    header line, so no other line moves."""
    lines = source.split("\n")
    i = function_headers(source)[fn]
    lines[i] = f"{lines[i]} int {tag};"
    return "\n".join(lines)


_STAT_FIELDS = [f.name for f in dataclasses.fields(SessionStats)]


def _stats(session: CompilationSession) -> dict[str, int]:
    return {k: getattr(session.stats, k) for k in _STAT_FIELDS}


@dataclass
class _Stream:
    """Mutable state of one warm-edit request stream."""

    cache: Path
    session: CompilationSession
    sources: dict[str, str]
    #: memory-dependence DepStats of every program's latest compilation
    deps: dict[str, list[int]]
    edits: dict[str, int] = field(default_factory=dict)
    #: per-function DepStats of each program's latest response
    last: dict[str, dict] = field(default_factory=dict)
    hit_s: dict[str, list[float]] = field(default_factory=lambda: {"memory": [], "disk": []})
    edit_s: list[float] = field(default_factory=list)
    edit_be_misses: int = 0
    edit_stores: int = 0
    #: SessionStats delta of every request, in order
    deltas: list[tuple] = field(default_factory=list)
    hit_queue: list = field(default_factory=list)
    edit_queue: list = field(default_factory=list)


class WarmEdit(Workload):
    """A fresh session over a disk cache pre-filled with corpus-v1 serves
    a seeded stream: 3/4 re-requests of a program, 1/4 line-preserving
    edits that accumulate per program.

    One request in every block of four, at a seeded position, is an
    edit.  Re-requests and edits each walk their own seeded permutation
    of the corpus, so a run samples the programs evenly."""

    name = "warm-edit"
    sets = ("corpus-v1",)
    work_unit = "requests served"
    op_unit = "one request"
    BLOCK = 4

    def setup(self) -> Measure:
        m = super().setup()
        self.programs = self._programs("corpus-v1")
        self.prefill = self.workdir / "prefill"
        shutil.rmtree(self.prefill, ignore_errors=True)
        session = CompilationSession(cache_dir=self.prefill)
        self.base = {}
        for p in self.programs:
            comp = session.compile(p.source, p.units[0][0], CompileOptions())
            got = common.dep_tuple(comp.total_dep_stats())
            want = self.golden["depstats"]["corpus-v1"][p.name]["combined"]
            m.check(got == want, f"prefill {p.name}: DepStats {got} != golden {want}")
            self.base[p.name] = got
        return m

    def _next(self, queue: list, rng: random.Random):
        if not queue:
            queue.extend(self.programs)
            rng.shuffle(queue)
        return queue.pop()

    def round(self, m, rng, tracer):
        st = self._stream
        if m.rounds % self.BLOCK == 0:
            self._edit_at = rng.randrange(self.BLOCK)
        edit = m.rounds % self.BLOCK == self._edit_at
        prog = self._next(st.edit_queue if edit else st.hit_queue, rng)
        fname = prog.units[0][0]
        src = st.sources[prog.name]
        if edit:
            fn = rng.choice(sorted(function_headers(src)))
            k = st.edits.get(prog.name, 0)
            st.edits[prog.name] = k + 1
            expect = invalidated_by_edit(src, fn)
            src = st.sources[prog.name] = insert_local(src, fn, f"pb_edit{k}")
        before = _stats(st.session)
        with self._op(tracer):
            comp = m.timed(st.session.compile, src, fname, CompileOptions())
        dt = m.op_s[-1]
        delta = {k: v - before[k] for k, v in _stats(st.session).items()}
        st.deltas.append(tuple(delta.values()))
        n_fns = len(comp.rtl.functions)
        m.work += 1
        if edit:
            n = len(expect)
            m.check(
                comp.cache_state == ("incremental" if n < n_fns else "cold")
                and delta["misses"] == 1
                and delta["fn_misses"] == n
                and delta["be_misses"] == n
                and delta["be_stores"] == n
                and delta["fn_stores"] == n
                and delta["stores"] == 1
                and delta["be_hits_memory"] + delta["be_hits_disk"] == n_fns - n,
                f"{prog.name}: edit of {fn} expected {n} re-run fns, got {delta}",
            )
            st.edit_s.append(dt)
            st.edit_be_misses += delta["be_misses"]
            st.edit_stores += delta["stores"] + delta["fn_stores"] + delta["be_stores"]
        else:
            tier = comp.cache_state
            m.check(
                tier in st.hit_s
                and delta[f"hits_{tier}"] == 1
                and delta["misses"] == 0
                and delta["be_hits_memory"] + delta["be_hits_disk"] == n_fns
                and delta["stores"] + delta["fn_stores"] + delta["be_stores"] == 0,
                f"{prog.name}: re-request served as {tier} with {delta}",
            )
            st.hit_s.setdefault(tier, []).append(dt)
        got = st.last[prog.name] = fn_deps(comp)
        st.deps[prog.name] = [sum(col) for col in zip(*got.values())]
        if tracer is not None:
            _table1(m, comp, src)

    def measure(self, seconds, rounds=None, tracer=None):
        cache = self.workdir / f"stream-{tracer is not None}"
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(self.prefill, cache)
        st = self._stream = _Stream(
            cache=cache,
            session=CompilationSession(cache_dir=cache),
            sources={p.name: p.source for p in self.programs},
            deps=dict(self.base),
        )
        m = super().measure(seconds, rounds, tracer)
        # each edited program's final DepStats against a plain compile
        uncached_s = []
        for p in self.programs:
            if p.name in st.edits:
                t0 = _perf()
                ref = compile_source(st.sources[p.name], p.units[0][0], CompileOptions())
                uncached_s.append(_perf() - t0)
                m.check(
                    fn_deps(ref) == st.last[p.name],
                    f"{p.name}: final DepStats differ from compile_source",
                )
        for dep in st.deps.values():
            m.gcc_yes += dep[1]
            m.combined_yes += dep[3]
        m.facts.update(
            hit_memory_s=st.hit_s["memory"],
            hit_disk_s=st.hit_s["disk"],
            edit_s=st.edit_s,
            edited_uncached_s=uncached_s,
            session_stats=_stats(st.session),
            request_deltas=st.deltas,
            edits=len(st.edit_s),
            edit_be_misses=st.edit_be_misses,
            edit_stores=st.edit_stores,
            requests=m.rounds,
        )
        shutil.rmtree(cache, ignore_errors=True)
        return m


# ---------------------------------------------------------------------------
# sim-table2
# ---------------------------------------------------------------------------


#: (machine, mode) of every run of one ``time_benchmark`` call, in its order
RUN_KEYS = ("r4600/gcc", "r4600/combined", "r10000/gcc", "r10000/combined")


@contextlib.contextmanager
def recording_runs(runs: list):
    """Append ``(ret, output, executed instructions)`` of every ``execute``
    that ``driver.timing`` makes to ``runs`` until exit, so the outputs
    ``BenchTiming`` drops can be checked too."""
    original = timing.execute

    def recorded(*args, **kwargs):
        res = original(*args, **kwargs)
        runs.append((res.ret, res.output, len(res.trace)))
        return res

    timing.execute = recorded
    try:
        yield runs
    finally:
        timing.execute = original


class SimTable2(Workload):
    """The paper's Table 2 measurement, ``driver.timing.time_benchmark``,
    over swim, tomcatv and a seeded integer program of suite-v1."""

    name = "sim-table2"
    sets = (common.SIM_SET,)
    work_unit = "dynamic instructions executed"
    op_unit = "one time_benchmark call: compile + execute + time for both machines and both modes"
    ALWAYS = ("102.swim", "101.tomcatv")

    def setup(self) -> Measure:
        m = super().setup()
        ints = sorted(p.name for p in registry.materialize(self.sets[0]) if p.profile == "int")
        pick = random.Random(self.seed).choice(ints)
        # the tests' small draw: the first ``limit`` integer programs
        names = ints[: self.limit] if self.limit else (*self.ALWAYS, pick)
        self.draw = [by_name(n) for n in names]
        return m

    def round(self, m, rng, tracer):
        session = CompilationSession()
        with recording_runs([]) as runs:
            # a fixed row order, each row after a full collection, so no
            # row's time depends on the garbage of the one before
            for spec in self.draw:
                gc.collect()
                runs.clear()
                with self._op(tracer):
                    bench = m.timed(timing.time_benchmark, spec, session)
                self._check(m, spec, bench, runs)

    def _check(self, m: Measure, spec, bench: timing.BenchTiming, runs: list) -> None:
        gold = self.golden["sim"][spec.name]
        if len(runs) != len(RUN_KEYS):
            m.check(False, f"{spec.name}: {len(runs)} executions, expected {len(RUN_KEYS)}")
            return
        cycles = {
            "r4600/gcc": bench.cycles_r4600_gcc,
            "r4600/combined": bench.cycles_r4600_hli,
            "r10000/gcc": bench.cycles_r10000_gcc,
            "r10000/combined": bench.cycles_r10000_hli,
        }
        f = m.facts
        for key, (ret, output, insns) in zip(RUN_KEYS, runs):
            m.check(
                ret == gold["ret"] and common.output_digest(output) == gold["output_sha"],
                f"{spec.name} {key}: result differs from the reference interpreter",
            )
            got = [insns, cycles[key]]
            m.check(
                got == gold["runs"][key],
                f"{spec.name} {key}: (insns, cycles) {got} != golden {gold['runs'][key]}",
            )
            m.work += insns
            machine = key.split("/")[0]
            f[f"{machine}_insns"] = f.get(f"{machine}_insns", 0) + insns
        m.check(
            (bench.ret_gcc, bench.ret_hli, bench.dynamic_insns)
            == (gold["ret"], gold["ret"], gold["runs"]["r10000/combined"][0]),
            f"{spec.name}: BenchTiming rets and insns differ from golden",
        )
        dep = common.dep_tuple(bench.stats)
        want = self.golden["depstats"]["suite-v1"][spec.name]["combined"]
        m.check(dep == want, f"{spec.name}: DepStats {dep} != golden {want}")
        m.gcc_yes += dep[1]
        m.combined_yes += dep[3]
        f["trace_events"] = f.get("trace_events", 0) + sum(n for *_, n in runs)
        f.setdefault("speedup_r4600", []).append(bench.speedup_r4600)
        f.setdefault("speedup_r10000", []).append(bench.speedup_r10000)


# ---------------------------------------------------------------------------
# link-wp
# ---------------------------------------------------------------------------


class LinkWP(Workload):
    """``compile_whole_program(units, whole_program=True)`` with its
    serial defaults over every program of gen-multiunit-v1."""

    name = "link-wp"
    sets = (common.LINK_SET,)
    work_unit = "whole programs linked and compiled"
    op_unit = "one whole-program link + compile"

    def setup(self) -> Measure:
        m = super().setup()
        self.programs = self._programs(self.sets[0])
        return m

    def round(self, m, rng, tracer):
        order = list(self.programs)
        rng.shuffle(order)
        call_dep = 0
        for prog in order:
            with self._op(tracer):
                res = m.timed(compile_whole_program, list(prog.units), whole_program=True)
            gold = self.golden["link"][prog.name]
            run = execute(res.image, collect_trace=False)
            m.check(
                run.ret == gold["ret"] and common.output_digest(run.output) == gold["output_sha"],
                f"{prog.name}: image result differs from the per-file baseline",
            )
            dep = common.dep_tuple(res.total_dep_stats())
            m.check(dep == gold["wp"], f"{prog.name}: DepStats {dep} != golden {gold['wp']}")
            m.gcc_yes += dep[1]
            m.combined_yes += dep[3]
            call_dep += dep[5]
            if tracer is not None:
                for fname, src in prog.units:
                    _table1(m, res.units[fname], src)
            m.work += 1
        m.facts["call_dep_wp"] = call_dep

    def perfile_call_dep(self, m: Measure) -> int:
        """Per-file baseline call-ordering edges, compiled and checked
        against the golden table (traced runs report it)."""
        total = 0
        for prog in self.programs:
            got = compile_whole_program(list(prog.units), whole_program=False)
            n = got.total_dep_stats().call_dep
            want = self.golden["link"][prog.name]["call_dep_perfile"]
            m.check(n == want, f"{prog.name}: per-file call edges {n} != golden {want}")
            total += n
        return total


WORKLOADS = {w.name: w for w in (ColdCompile, WarmEdit, SimTable2, LinkWP)}
