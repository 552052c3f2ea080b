"""The benchmark's own tests: every workload at a tiny size, the
correctness checks failing on a perturbed golden table, determinism,
the traced run's per-layer report, and the command's exit codes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIZES = {"cold-compile": 2, "warm-edit": 3, "sim-table2": 1, "link-wp": 2}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def golden():
    return common.load_golden()


def _run(name, golden, trace=False, seed=3):
    return run.run(name, seed, 0.01, trace, golden=golden, limit=SIZES[name])


@pytest.mark.parametrize("name", sorted(SIZES))
def test_workload_runs_clean_and_reports_every_end_to_end_metric(name, golden):
    result, lines = _run(name, golden)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] > 0 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SIZES))
def test_traced_run_reports_every_per_layer_metric(name, golden):
    result, lines = _run(name, golden, trace=True)
    assert result["correct"], "\n".join(lines)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    metrics = result["metrics"]
    assert metrics["trace.spans"]["value"] > 0
    assert 0 <= metrics["trace.unattributed_share"]["value"] < 0.5


def _first_int_program():
    return sorted(
        p.name for p in workloads.registry.materialize("suite-v1") if p.profile == "int"
    )[0]


def test_perturbed_cycle_count_is_a_failed_op(golden):
    bad = copy.deepcopy(golden)
    name = _first_int_program()
    bad["sim"][name]["runs"]["r10000/combined"][1] += 1
    result, lines = _run("sim-table2", bad)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("r10000/combined" in line and line.startswith("FAILED") for line in lines)


def test_perturbed_program_output_fails_every_run(golden):
    bad = copy.deepcopy(golden)
    name = _first_int_program()
    bad["sim"][name]["output_sha"] = "0" * 64
    result, lines = _run("sim-table2", bad)
    assert result["failed"] == len(workloads.RUN_KEYS)
    assert all("reference interpreter" in line for line in lines if line.startswith("FAILED"))


def test_perturbed_depstats_field_is_a_failed_op(golden):
    bad = copy.deepcopy(golden)
    name = workloads.registry.materialize("corpus-v1")[0].name
    bad["depstats"]["corpus-v1"][name]["gcc"][common.DEP_FIELDS.index("gcc_yes")] += 1
    result, lines = _run("cold-compile", bad)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(f"{name}/gcc" in line for line in lines if line.startswith("FAILED"))


def test_every_setup_repeat_counts_its_checks(golden):
    bad = copy.deepcopy(golden)
    name = workloads.registry.materialize("corpus-v1")[0].name
    bad["depstats"]["corpus-v1"][name]["combined"][0] += 1
    result, lines = _run("warm-edit", bad)
    assert result["failed"] == run.SETUP_REPEATS["warm-edit"]
    assert all(f"prefill {name}" in line for line in lines if line.startswith("FAILED"))


def test_perturbed_link_result_is_a_failed_op(golden):
    bad = copy.deepcopy(golden)
    name = workloads.registry.materialize("gen-multiunit-v1")[0].name
    bad["link"][name]["ret"] += 1
    result, _ = _run("link-wp", bad)
    assert result["failed"] == 1


def test_deterministic_outcomes_repeat_exactly(golden, tmp_path):
    wl_a = workloads.WarmEdit(golden, 5, tmp_path / "a", limit=SIZES["warm-edit"])
    wl_b = workloads.WarmEdit(golden, 5, tmp_path / "b", limit=SIZES["warm-edit"])
    wl_a.setup()
    wl_b.setup()
    a = wl_a.measure(0, rounds=12)
    b = wl_b.measure(0, rounds=12)
    assert a.facts["request_deltas"] == b.facts["request_deltas"]
    assert a.facts["session_stats"] == b.facts["session_stats"]
    assert (a.gcc_yes, a.combined_yes) == (b.gcc_yes, b.combined_yes)
    assert a.facts["edits"] == 3


def test_determinism_mismatch_is_a_failed_op():
    a, b = workloads.Measure(), workloads.Measure()
    a.facts["speedup_r4600"] = [1.01]
    b.facts["speedup_r4600"] = [1.02]
    run.determinism(a, b)
    assert b.failed == 1


def test_edit_helpers_preserve_lines_and_find_callers():
    src = "int g;\nint f0(int a) {\n    return a;\n}\nint main() {\n    return f0(g);\n}\n"
    assert workloads.function_headers(src) == {"f0": 1, "main": 4}
    edited = workloads.insert_local(src, "f0", "pb_edit0")
    assert edited.count("\n") == src.count("\n")
    assert "int f0(int a) { int pb_edit0;" in edited
    assert workloads.function_headers(edited) == {"f0": 1, "main": 4}
    assert workloads.invalidated_by_edit(edited, "f0") == {"f0", "main"}
    assert workloads.invalidated_by_edit(edited, "main") == {"main"}


def test_tail_picks_highest_percentile_with_ten_beyond():
    vals = list(range(1, 201))
    value, label = common.tail(vals)
    assert label == "p95" and 190 <= value <= 191
    assert common.tail([1.0, 2.0, 3.0]) == (3.0, "max")
    assert common.tail(list(range(100)))[1] == "p90"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link-wp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
