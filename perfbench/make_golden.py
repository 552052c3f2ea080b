"""Regenerate ``golden.json``: the pinned reference values every
benchmark op is checked against.

Run from the repository root::

    python3 perfbench/make_golden.py

It records, for the commit it runs on:

* the digest of every workload set the benchmark uses;
* per-program ``DepStats`` of an uncached ``compile_source`` in ``gcc``
  and ``combined`` modes (``corpus-v1`` and ``suite-v1``);
* per ``suite-v1`` program, the front-end reference interpreter's
  return value and output digest, and the dynamic-instruction count and
  cycles of every (machine, mode) pair of the Table 2 measurement;
* per ``gen-multiunit-v1`` program, the per-file baseline image's
  return value and output digest and the call-ordering edges kept by
  the per-file and the whole-program compiles.

The generator refuses to write a table in which the compiled programs
disagree with the interpreter or the whole-program image disagrees
with the per-file baseline.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.backend.ddg import DDGMode  # noqa: E402
from repro.bench import registry  # noqa: E402
from repro.driver.compile import CompileOptions, compile_source  # noqa: E402
from repro.driver.wpa import compile_whole_program  # noqa: E402
from repro.frontend import parse_and_check  # noqa: E402
from repro.frontend.interp import interpret  # noqa: E402
from repro.machine.executor import execute  # noqa: E402
from repro.workloads.suite import by_name  # noqa: E402

import common  # noqa: E402


def _depstats() -> dict:
    out: dict = {}
    for set_name in common.COMPILE_SETS:
        rows = out[set_name] = {}
        for prog in registry.materialize(set_name):
            fname, src = prog.units[0]
            rows[prog.name] = {
                mode.value: common.dep_tuple(
                    compile_source(src, fname, CompileOptions(mode=mode)).total_dep_stats()
                )
                for mode in (DDGMode.GCC, DDGMode.COMBINED)
            }
    return out


def _sim() -> dict:
    out: dict = {}
    for prog in registry.materialize(common.SIM_SET):
        spec = by_name(prog.name)
        program, _ = parse_and_check(spec.source, spec.name)
        ref = interpret(program, spec.entry, input_text=spec.input_text, max_steps=10**9)
        row = {"ret": ref.ret, "output_sha": common.output_digest(ref.output), "runs": {}}
        for machine, lat, model in common.machines():
            for mode in (DDGMode.GCC, DDGMode.COMBINED):
                comp = compile_source(
                    spec.source, spec.name, CompileOptions(mode=mode, latency=lat)
                )
                res = execute(comp.rtl, spec.entry, input_text=spec.input_text)
                if res.ret != ref.ret or res.output != ref.output:
                    raise SystemExit(f"{spec.name} {machine}/{mode.value}: differs from interpreter")
                timing = model.time(res.trace)
                row["runs"][f"{machine}/{mode.value}"] = [timing.instructions, timing.cycles]
        out[prog.name] = row
        print(f"sim {prog.name}", flush=True)
    return out


def _link() -> dict:
    out: dict = {}
    for prog in registry.materialize(common.LINK_SET):
        units = list(prog.units)
        pf = compile_whole_program(units, whole_program=False)
        wp = compile_whole_program(units, whole_program=True)
        pf_run = execute(pf.image)
        wp_run = execute(wp.image)
        if (pf_run.ret, pf_run.output) != (wp_run.ret, wp_run.output):
            raise SystemExit(f"{prog.name}: whole-program image differs from per-file")
        out[prog.name] = {
            "ret": pf_run.ret,
            "output_sha": common.output_digest(pf_run.output),
            "call_dep_perfile": pf.total_dep_stats().call_dep,
            "wp": common.dep_tuple(wp.total_dep_stats()),
        }
    return out


def main() -> None:
    golden = {
        "set_digests": {s: registry.set_digest(s) for s in common.ALL_SETS},
        "depstats": _depstats(),
        "link": _link(),
        "sim": _sim(),
    }
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
