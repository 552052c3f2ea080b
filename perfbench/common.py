"""Shared helpers: set names, golden-table access, summary statistics
(on top of the program's own ``repro.bench.stats``)."""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.bench.stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: single-unit sets the compile workloads draw from
COMPILE_SETS = ("corpus-v1", "suite-v1")
SIM_SET = "suite-v1"
LINK_SET = "gen-multiunit-v1"
ALL_SETS = ("corpus-v1", "suite-v1", "gen-multiunit-v1")

#: DepStats fields, in the order the golden table stores them
DEP_FIELDS = ("total_tests", "gcc_yes", "hli_yes", "combined_yes", "call_tests", "call_dep")

#: percentiles the tail rule picks from, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def dep_tuple(stats) -> list[int]:
    return [getattr(stats, f) for f in DEP_FIELDS]


def output_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def machines():
    """(name, latency table, timing model) for the paper's two machines."""
    from repro.machine.latencies import r4600_latency, r10000_latency
    from repro.machine.pipeline import R4600Model
    from repro.machine.superscalar import R10000Model

    return (
        ("r4600", r4600_latency, R4600Model()),
        ("r10000", r10000_latency, R10000Model()),
    )


def load_golden(path: Optional[Path] = None) -> dict:
    return json.loads((path or HERE / "golden.json").read_text())


def source_lines(units: Iterable[tuple[str, str]]) -> int:
    return sum(src.count("\n") + (not src.endswith("\n")) for _, src in units)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(vals: Sequence[float]) -> float:
    return percentile(vals, 50.0)


def tail(vals: Sequence[float]) -> tuple[float, str]:
    """The highest candidate percentile with at least ten samples beyond
    it, or the maximum when there are too few samples for any.  Returns
    the value and its label (``p95``, ``max``, ...)."""
    s = sorted(vals)
    for p in TAIL_CANDIDATES:
        if round(len(s) * (100.0 - p) / 100.0, 6) >= 10:
            return percentile(s, p), f"p{p:g}"
    return s[-1], "max"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
