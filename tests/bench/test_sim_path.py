"""The ``sim`` path of ``repro-bench``: per-layer simulator throughput."""

from __future__ import annotations

from repro.bench.runner import run_set


def test_sim_path_reports_each_layer_and_matches():
    report = run_set("quick-v1", iterations=1, warmup=0, paths=("sim",))
    assert report.facts["sim.results_match"] == 1.0
    assert sorted(report.metrics("sim")) == [
        "execute_minsn_per_s", "r10000_minsn_per_s", "r4600_minsn_per_s",
    ]
    for metric in report.metrics("sim"):
        rows = report.rows("sim", metric)
        # every single-unit program of quick-v1, one observation each
        assert len(rows) == report.facts["programs"] - 1
        assert all(v > 0 for row in rows for v in row.values)
