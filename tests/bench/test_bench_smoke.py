"""Quick-mode smoke coverage for every ``benchmarks/bench_*.py`` entry
point (the ``bench`` marker lane: ``pytest -m bench tests/bench``).

Two families:

* the standalone harnesses (``bench_pipeline``, ``bench_incremental``,
  ``bench_wpa``, ``bench_serve``) are imported and driven through their
  ``main()`` with the smallest argument set — one repeat, one seed,
  ``--quick`` — asserting a zero exit and a well-formed JSON artifact;
* the pytest-benchmark suites are exercised through a subprocess pytest
  with one cheap selection each and ``--benchmark-disable``, so the
  timing loop collapses to a single call (guarded on the plugin being
  installed).

These run only in the ``bench`` lane, not in the default tier-1 sweep —
the point is that a refactor cannot silently break a harness that CI
only runs nightly.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _json_at(path: Path) -> dict:
    assert path.exists(), f"{path} not written"
    return json.loads(path.read_text())


class TestStandaloneHarnesses:
    def test_bench_pipeline(self, tmp_path):
        out = tmp_path / "pipeline.json"
        assert _load("bench_pipeline").main(
            ["--out", str(out), "--repeats", "1"]
        ) == 0
        doc = _json_at(out)
        assert len(doc["benchmarks"]) > 0
        assert doc["total_compile_seconds"] >= 0
        assert "compile_summary" in doc["benchmarks"][0]

    def test_bench_incremental(self, tmp_path):
        out = tmp_path / "incremental.json"
        assert _load("bench_incremental").main(
            ["--out", str(out), "--repeats", "1"]
        ) == 0
        doc = _json_at(out)
        assert [s["functions"] for s in doc["sizes"]] == [1, 4, 16]
        for s in doc["sizes"]:
            assert s["warm_incremental_summary"]["count"] == 1

    def test_bench_wpa(self, tmp_path):
        out = tmp_path / "wpa.json"
        assert _load("bench_wpa").main(
            ["--out", str(out), "--seeds", "1", "--repeats", "1"]
        ) == 0
        doc = _json_at(out)
        assert doc["workloads"]
        assert doc["total_call_dep_wp"] <= doc["total_call_dep_pf"]

    def test_bench_serve(self, tmp_path):
        out = tmp_path / "serve.json"
        assert _load("bench_serve").main(["--quick", "--out", str(out)]) == 0
        doc = _json_at(out)
        assert doc["failures"] == []
        assert doc["daemon_exit_code"] == 0

    def test_decode_path_gates(self, tmp_path):
        # one-iteration decode-v1 run through the real CLI, gated
        # against the committed ceiling baselines
        from repro.bench.cli import main as bench_main

        out = tmp_path / "decode.json"
        rc = bench_main([
            "--set", "quick-v1", "--paths", "decode",
            "--iterations", "1", "--warmup", "0", "--quiet",
            "--gate", str(REPO_ROOT / "benchmarks/baselines/decode-v1.json"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = _json_at(out)
        assert doc["facts"]["decode.roundtrip_ok"] == 1.0
        assert doc["facts"]["decode.blob_bytes"] > 0


    def test_sim_path_gates(self, tmp_path):
        # one-iteration sim-v1 run through the real CLI, gated against
        # the committed throughput floors
        from repro.bench.cli import main as bench_main

        out = tmp_path / "sim.json"
        rc = bench_main([
            "--set", "quick-v1", "--paths", "sim",
            "--iterations", "1", "--warmup", "0", "--quiet",
            "--gate", str(REPO_ROOT / "benchmarks/baselines/sim-v1.json"),
            "--out", str(out),
        ])
        assert rc == 0
        assert _json_at(out)["facts"]["sim.results_match"] == 1.0


_PYTEST_SELECTIONS = {
    "bench_ablations.py": "test_merge_rules_shrink_hli and tomcatv",
    "bench_cache_sensitivity.py": "test_cache_adds_stalls_r4600",
    "bench_cse_refmod.py": "test_fig4_semantics_identical",
    "bench_hli_overhead.py": "test_binary_decode_cost",
    "bench_speedups.py": "test_speedup_row and wc",
    "bench_swp_mii.py": "test_mii_headroom and tomcatv",
    "bench_table1.py": "test_table1_row and wc",
    "bench_table2.py": "test_table2_row and wc",
    "bench_unroll_maint.py": "test_fig6_unroll_maintenance_clones_items",
}


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_benchmark") is None,
    reason="pytest-benchmark not installed",
)
@pytest.mark.parametrize("filename", sorted(_PYTEST_SELECTIONS))
def test_pytest_benchmark_file_smokes(filename):
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            str(BENCH_DIR / filename),
            "-k", _PYTEST_SELECTIONS[filename],
            "-m", "bench",
            "--benchmark-disable",
            "--no-header", "-q", "-x",
            "-p", "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{filename}:\n{proc.stdout}\n{proc.stderr}"
