"""End-to-end benchmark of the HLI reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0

Workloads: ``cold-compile``, ``warm-edit``, ``sim-table2``, ``link-wp``
(see ``perfbench/README.md``).  A human-readable report goes to stdout,
and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured untraced.  With ``--trace 1`` the run
measures untraced, then replays the same ops with spans around every
layer's public calls, and reports the per-layer metrics, the
unattributed remainder, and the tracing overhead; the spans are written
to ``.perfbench-out/`` at the end.

Exits non-zero without a result when the program's sources are missing
or the inputs drifted from their pinned manifests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: imports of the program count in ``setup_s``
_IMPORT_T0 = time.perf_counter()
try:
    import common
    from repro.bench.stats import geomean
except ImportError as exc:
    sys.exit(f"perfbench: the program's sources are missing under {ROOT / 'src'} ({exc})")

WORKLOAD_NAMES = ("cold-compile", "warm-edit", "sim-table2", "link-wp")

#: setup repetitions per run (setup_s is their median); warm-edit's
#: setup compiles all of corpus-v1 into a disk cache, so it repeats less
SETUP_REPEATS = {"cold-compile": 3, "warm-edit": 2, "sim-table2": 3, "link-wp": 3}

#: per-layer time metrics: name -> span names whose self time they sum
SELF_TIME = {
    "frontend.parse_check_s": ("pass.parse", "frontend.parse_and_check"),
    "analysis.build_hli_s": ("pass.hli-build", "analysis.build_hli"),
    "hli.query_build_s": ("hli.query",),
    "backend.lower_s": ("pass.lower", "backend.lower"),
    "backend.map_s": ("pass.map", "backend.map"),
    "backend.schedule_s": ("pass.schedule", "backend.schedule"),
    "binfmt.encode_s": ("binfmt.encode",),
    "binfmt.decode_s": ("binfmt.decode",),
    "session.self_s": ("session.compile",),
    "machine.execute_s": ("machine.execute",),
    "machine.r4600_s": ("machine.r4600",),
    "machine.r10000_s": ("machine.r10000",),
    "linker.analyze_unit_s": ("linker.analyze_unit",),
    "linker.link_units_s": ("linker.link_units", "linker.link_image"),
}

LAYERS = ("frontend", "analysis", "hli", "backend", "binfmt", "session", "machine", "linker")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ms(vals) -> float:
    return common.median(vals) * 1e3 if vals else 0.0


def end_to_end(m, setup_s: float) -> tuple[dict, list[str]]:
    tail, label = common.tail(m.op_s)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(common.peak_rss_mb(), "MB"),
        "work_per_s": _metric(m.work / m.wall, "1/s"),
        "op_ms_p50": _metric(_ms(m.op_s), "ms"),
        "op_ms_tail": _metric(tail * 1e3, "ms"),
        "edge_reduction_pct": _metric(100.0 * (1 - m.combined_yes / m.gcc_yes), "%"),
    }
    return metrics, [f"op_ms_tail is {label} of {len(m.op_s)} ops"]


def per_layer(m0, m1, tracer, rss_growth: float, perfile: int) -> tuple[dict, list[str]]:
    """Per-layer metrics: span times from the traced replay ``m1``;
    latencies, ratios and speedups from the untraced run ``m0``.  A layer
    the workload does not exercise reads 0."""
    f0, f1 = m0.facts, m1.facts
    selfs = tracer.self_times()
    layer_self = tracer.layer_self_times()
    out: dict[str, dict] = {}
    notes: list[str] = []
    for name, spans in SELF_TIME.items():
        out[name] = _metric(sum(selfs.get(s, 0.0) for s in spans), "s")
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = _metric(layer_self.get(layer, 0.0), "s")

    parse_s = out["frontend.parse_check_s"]["value"]
    out["frontend.lines_per_s"] = _metric(_ratio(tracer.counts["frontend.lines"], parse_s), "lines/s")
    out["hli.bytes_per_line"] = _metric(
        _ratio(f1.get("hli_bytes", 0), f1.get("code_lines", 0)), "B/line"
    )
    out["backend.ddg_edges_gcc"] = _metric(m1.gcc_yes, "count")
    out["backend.ddg_edges_combined"] = _metric(m1.combined_yes, "count")
    out["binfmt.encoded_bytes"] = _metric(tracer.counts["binfmt.encoded_bytes"], "count")

    # cold-compile
    lines, session_s = f0.get("lines", 0), f0.get("session_s", 0)
    unc_gcc, unc_comb = f0.get("uncached_gcc_s", 0), f0.get("uncached_combined_s", 0)
    out["driver.uncached_lines_per_s"] = _metric(_ratio(2 * lines, unc_gcc + unc_comb), "lines/s")
    out["session.cold_lines_per_s"] = _metric(_ratio(lines, session_s), "lines/s")
    out["session.cold_overhead"] = _metric(_ratio(session_s, unc_comb), "ratio")

    # warm-edit
    mem, disk, edit = (f0.get(k, []) for k in ("hit_memory_s", "hit_disk_s", "edit_s"))
    out["session.memory_hit_ms"] = _metric(_ms(mem), "ms")
    out["session.disk_hit_ms"] = _metric(_ms(disk), "ms")
    for key, vals in (("session.hit_ms", mem + disk), ("session.edit_ms", edit)):
        tail, label = common.tail(vals) if vals else (0.0, "none")
        out[f"{key}_p50"] = _metric(_ms(vals), "ms")
        out[f"{key}_tail"] = _metric(tail * 1e3, "ms")
        notes.append(f"{key}_tail is {label} of {len(vals)} samples")
    out["session.edit_overhead"] = _metric(
        _ratio(_ms(edit), _ms(f0.get("edited_uncached_s"))), "ratio"
    )
    st = f0.get("session_stats") or {}
    requests, edits = f0.get("requests", 0), f0.get("edits", 0)
    out["session.manifest_hit_ratio"] = _metric(
        _ratio(st.get("hits_memory", 0) + st.get("hits_disk", 0), requests), "ratio"
    )
    out["session.be_hit_ratio"] = _metric(
        _ratio(st.get("be_hits_memory", 0) + st.get("be_hits_disk", 0),
               sum(st.get(k, 0) for k in ("be_hits_memory", "be_hits_disk", "be_misses"))),
        "ratio",
    )
    out["session.decodes_per_request"] = _metric(
        _ratio(sum(st.get(k, 0) for k in ("fe_decodes", "be_decodes", "frontend_decodes")), requests),
        "count",
    )
    out["session.fns_rerun_per_edit"] = _metric(_ratio(f0.get("edit_be_misses", 0), edits), "count")
    out["session.stores_per_edit"] = _metric(_ratio(f0.get("edit_stores", 0), edits), "count")

    # sim-table2
    insns = f1.get("trace_events", 0)
    for key, n in (("execute", insns), ("r4600", f1.get("r4600_insns", 0)),
                   ("r10000", f1.get("r10000_insns", 0))):
        out[f"machine.{key}_minsn_per_s"] = _metric(
            _ratio(n / 1e6, out[f"machine.{key}_s"]["value"]), "Minsn/s"
        )
    out["machine.trace_events"] = _metric(insns, "count")
    out["machine.rss_growth_mb"] = _metric(rss_growth if insns else 0.0, "MB")
    compile_s = tracer.totals("session.compile")[0] if insns else 0.0
    out["machine.compile_share"] = _metric(_ratio(compile_s, m1.wall), "ratio")
    for machine in ("r4600", "r10000"):
        sp = f0.get(f"speedup_{machine}")
        out[f"machine.speedup_{machine}_geomean"] = _metric(geomean(sp) if sp else 0.0, "ratio")

    # link-wp
    wp = f1.get("call_dep_wp", 0)
    out["linker.phase2_compile_s"] = _metric(tracer.totals("wpa.phase2_compile")[0], "s")
    out["linker.call_dep_edges_wp"] = _metric(wp, "count")
    out["linker.call_dep_edges_perfile"] = _metric(perfile, "count")
    out["linker.wp_call_edge_reduction_pct"] = _metric(100.0 * _ratio(perfile - wp, perfile), "%")

    # coverage and cost of the trace itself
    wall, top = m1.wall, tracer.top_level_time()
    out["trace.unattributed_s"] = _metric(wall - top, "s")
    out["trace.unattributed_share"] = _metric(_ratio(wall - top, wall), "ratio")
    out["trace.overhead_pct"] = _metric(100.0 * (wall / m0.wall - 1), "%")
    out["trace.spans"] = _metric(len(tracer.spans), "count")
    return out, notes


def determinism(m0, m1) -> None:
    """The deterministic outcomes must repeat exactly between the
    untraced run and its traced replay; a mismatch is a failed op."""
    f0, f1 = m0.facts, m1.facts
    pairs = [
        ("DDG edge counts", (m0.gcc_yes, m0.combined_yes), (m1.gcc_yes, m1.combined_yes)),
        ("work done", m0.work, m1.work),
    ]
    for key in ("speedup_r4600", "speedup_r10000", "call_dep_wp", "session_stats", "request_deltas"):
        if key in f0:
            pairs.append((key, f0[key], f1.get(key)))
    for what, a, b in pairs:
        m1.check(a == b, f"determinism: {what} differs between untraced and traced runs")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    golden: Optional[dict] = None,
    limit: Optional[int] = None,
    import_s: float = 0.0,
) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines.

    ``golden`` and ``limit`` exist for the benchmark's own tests (a
    perturbed reference table, a few programs per set).  Raises
    ``workloads.SetupError`` when the inputs drifted."""
    import workloads
    from tracing import Tracer, instrument

    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    golden = golden if golden is not None else common.load_golden()
    try:
        wl = workloads.WORKLOADS[workload](golden, seed, workdir, limit=limit)
        setup_times, checks = [], []
        for _ in range(SETUP_REPEATS[workload]):
            t = time.perf_counter()
            checks.append(wl.setup())
            setup_times.append(time.perf_counter() - t)
        rss0 = common.peak_rss_mb()
        m = wl.measure(seconds)
        rss_growth = common.peak_rss_mb() - rss0
        checks.append(m)
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                traced = wl.measure(seconds, rounds=m.rounds, tracer=tracer)
            checks.append(traced)
            determinism(m, traced)
            perfile = wl.perfile_call_dep(traced) if isinstance(wl, workloads.LinkWP) else 0
            metrics, notes = per_layer(m, traced, tracer, rss_growth, perfile)
            tracer.dump(ROOT / ".perfbench-out" / f"trace-{workload}-{seed}.json")
        else:
            setup_s = import_s + common.median(setup_times)
            metrics, notes = end_to_end(m, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
        f"commit {common.git_commit()}",
        *(f"set {name} {digest}" for name, digest in wl.digests.items()),
        f"op: {wl.op_unit}; work: {wl.work_unit}",
        f"rounds {m.rounds}  ops {len(m.op_s)}  timed {m.wall:.3f} s  setup runs "
        + " ".join(f"{t:.3f}" for t in setup_times)
        + f" s  imports {import_s:.3f} s",
        *notes,
        *(f"  {name:38s} {v['value']:>16.6g} {v['unit']}" for name, v in metrics.items()),
        f"checks {attempted}  failed {failed}  failed_op_ratio {failed / attempted:.6g}",
        *(f"FAILED: {msg}" for c in checks for msg in c.failures),
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import workloads

    import_s = time.perf_counter() - _IMPORT_T0
    try:
        result, lines = run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
        )
    except workloads.SetupError as exc:
        return _fail(f"input drift: {exc}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
