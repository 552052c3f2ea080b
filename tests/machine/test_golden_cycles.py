"""Golden cycle table: the simulator's exact outcomes, pinned.

For every ``suite-v1`` program, each of the four Table-2 runs (R4600 and
R10000, each with a ``gcc`` and a ``combined`` schedule tuned with that
machine's latency table, as :func:`repro.driver.timing.time_benchmark`
compiles them) pins the return value, the sha256 of the output, the
dynamic instruction count and the cycles.  Seeded ``repro.difftest``
programs (small preset) cover control flow beyond the suite, and two
programs timed with the modelled cache hierarchies cover the
cache-penalty path of both timing models.

Every number must match exactly.  Regenerate the table only for a change
that is meant to move a number::

    PYTHONPATH=src python tests/machine/test_golden_cycles.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.backend.ddg import DDGMode
from repro.difftest.gen import GenConfig, generate
from repro.driver.compile import CompileOptions
from repro.driver.session import CompilationSession
from repro.machine.executor import execute
from repro.machine.latencies import r4600_latency, r10000_latency
from repro.machine.memory import r4600_hierarchy, r10000_hierarchy
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Model
from repro.workloads.suite import BENCHMARKS, by_name

GOLDEN_PATH = Path(__file__).with_name("golden_cycles.json")

#: seeds of the pinned difftest programs (small preset)
DIFFTEST_SEEDS = tuple(range(24))
#: programs timed with r4600_hierarchy() / r10000_hierarchy()
HIERARCHY_PROGRAMS = ("101.tomcatv", "wc")

MACHINES = (
    ("r4600", r4600_latency, R4600Model, r4600_hierarchy),
    ("r10000", r10000_latency, R10000Model, r10000_hierarchy),
)
MODES = (DDGMode.GCC, DDGMode.COMBINED)


def _digest(output: list[str]) -> str:
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()


def measure(session, source: str, filename: str, entry: str = "main",
            input_text: str = "", hierarchy: bool = False) -> dict:
    """``{"<machine>/<mode>": {...}}`` for the four Table-2 runs of one
    program; with ``hierarchy`` each model also carries its machine's
    modelled caches and the row pins their miss statistics."""
    rows = {}
    for mach, lat, model_cls, make_hier in MACHINES:
        for mode in MODES:
            comp = session.compile(source, filename, CompileOptions(mode=mode, latency=lat))
            res = execute(comp.rtl, entry, input_text=input_text)
            row = {
                "ret": res.ret,
                "output_sha256": _digest(res.output),
                "insns": len(res.trace),
            }
            if hierarchy:
                hier = make_hier()
                row["cycles"] = model_cls(cache=hier).time(res.trace).cycles
                row["cache"] = hier.stats()
            else:
                row["cycles"] = model_cls().time(res.trace).cycles
            rows[f"{mach}/{mode.value}"] = row
    return rows


def _difftest_source(seed: int) -> str:
    return generate(seed, GenConfig.small())


def build_table() -> dict:
    session = CompilationSession()
    return {
        "suite": {
            b.name: measure(session, b.source, b.name, b.entry, b.input_text)
            for b in BENCHMARKS
        },
        "difftest": {
            str(seed): measure(session, _difftest_source(seed), f"fuzz{seed}.c")
            for seed in DIFFTEST_SEEDS
        },
        "hierarchy": {
            name: measure(
                session, by_name(name).source, name, by_name(name).entry,
                by_name(name).input_text, hierarchy=True,
            )
            for name in HIERARCHY_PROGRAMS
        },
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(scope="module")
def session():
    return CompilationSession()


def test_table_covers_every_pinned_program():
    assert sorted(GOLDEN["suite"]) == sorted(b.name for b in BENCHMARKS)
    assert sorted(GOLDEN["difftest"], key=int) == [str(s) for s in DIFFTEST_SEEDS]
    assert sorted(GOLDEN["hierarchy"]) == sorted(HIERARCHY_PROGRAMS)


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_suite_program(session, name):
    b = by_name(name)
    assert measure(session, b.source, b.name, b.entry, b.input_text) == GOLDEN["suite"][name]


@pytest.mark.parametrize("seed", DIFFTEST_SEEDS)
def test_difftest_program(session, seed):
    got = measure(session, _difftest_source(seed), f"fuzz{seed}.c")
    assert got == GOLDEN["difftest"][str(seed)]


@pytest.mark.parametrize("name", HIERARCHY_PROGRAMS)
def test_cache_hierarchy_program(session, name):
    b = by_name(name)
    got = measure(session, b.source, b.name, b.entry, b.input_text, hierarchy=True)
    assert got == GOLDEN["hierarchy"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(json.dumps(build_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
