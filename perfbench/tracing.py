"""In-memory span recorder for the traced run.

Spans are recorded here, in the benchmark's own code, around calls into
each layer's public functions; the program under test is not modified.
:func:`instrument` swaps a wrapper in for each instrumented function
for the duration of a ``with`` block and restores the originals on
exit, so untraced runs execute the program exactly as shipped.

A span is ``[id, name, layer, start, end, parent, request]``.  Every
span of one benchmark op shares the op's request id.  A layer's *self*
time is its spans' durations minus the part their child spans cover;
the *unattributed* remainder is the timed wall time minus the top-level
spans (the direct children of the op roots).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

_perf = time.perf_counter

#: (module, attribute path, span name, layer); an attribute path with a
#: dot patches a class attribute.  Modules import these names at load
#: time, so each call site's module is patched where it looks them up.
INSTRUMENTED = (
    ("repro.frontend", "parse_and_check", "frontend.parse_and_check", "frontend"),
    ("repro.driver.passes", "parse_and_check", "frontend.parse_and_check", "frontend"),
    ("repro.driver.wpa", "parse_and_check", "frontend.parse_and_check", "frontend"),
    ("repro.driver.passes", "build_hli", "analysis.build_hli", "analysis"),
    ("repro.analysis.builder", "HLIBuilder.__init__", "analysis.build_hli", "analysis"),
    ("repro.analysis.builder", "HLIBuilder.build_unit", "analysis.build_hli", "analysis"),
    ("repro.driver.passes", "HLIQuery", "hli.query", "hli"),
    ("repro.driver.session", "HLIQuery", "hli.query", "hli"),
    ("repro.driver.passes", "lower_program", "backend.lower", "backend"),
    ("repro.driver.session", "lower_program", "backend.lower", "backend"),
    ("repro.driver.passes", "map_function", "backend.map", "backend"),
    ("repro.driver.passes", "schedule_function", "backend.schedule", "backend"),
    ("repro.binfmt", "encode", "binfmt.encode", "binfmt"),
    ("repro.binfmt", "decode", "binfmt.decode", "binfmt"),
    ("repro.driver.session", "encode_entry", "binfmt.encode", "binfmt"),
    ("repro.driver.session", "decode_entry", "binfmt.decode", "binfmt"),
    ("repro.driver.session", "CompilationSession.compile", "session.compile", "session"),
    ("repro.driver.timing", "execute", "machine.execute", "machine"),
    ("repro.machine.pipeline", "R4600Model.time", "machine.r4600", "machine"),
    ("repro.machine.superscalar", "R10000Model.time", "machine.r10000", "machine"),
    ("repro.driver.wpa", "analyze_unit", "linker.analyze_unit", "linker"),
    ("repro.driver.wpa", "link_units", "linker.link_units", "linker"),
    ("repro.driver.wpa", "link_image", "linker.link_image", "linker"),
    # the phase-2 per-unit compiles are back-end work; their passes get
    # their own spans from the wrapped ``build_pipeline`` below
    ("repro.driver.wpa", "compile_source", "wpa.phase2_compile", "backend"),
)

#: modules whose ``build_pipeline`` is swapped for one whose pass
#: actions run in spans (``compile_source`` and ``CompilationSession``)
PIPELINE_USERS = ("repro.driver.passes", "repro.driver.session")

#: layer of each pass's span; every other pass is back-end work
PASS_LAYER = {"parse": "frontend", "hli-build": "analysis"}


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: Optional[int] = None
        self._next_request = 0
        #: byte counts recorded at the same boundaries as the spans
        self.counts: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, layer, _perf(), 0.0, parent, self._request]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = _perf()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str = "op"):
        """Root span of one benchmark op; its descendants share its
        request id."""
        self._request = self._next_request
        self._next_request += 1
        try:
            with self.span(name, "op") as rec:
                yield rec
        finally:
            self._request = None

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        span = self.span
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name, layer):
                out = fn(*args, **kwargs)
            if name == "binfmt.encode":
                counts["binfmt.encoded_bytes"] += len(out)
            elif name == "frontend.parse_and_check":
                counts["frontend.lines"] += args[0].count("\n") + 1
            return out

        return traced

    def wrap_passes(self, passes: list) -> list:
        """``passes`` with each action running in a ``pass.<name>`` span."""
        return [
            dataclasses.replace(
                p, action=self.wrap(p.action, f"pass.{p.name}", PASS_LAYER.get(p.name, "backend"))
            )
            for p in passes
        ]

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        child: dict[int, float] = defaultdict(float)
        for sid, _n, _l, start, end, parent, _r in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _l, start, end, _p, _r in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        by_name = self.self_times()
        layer_of = {rec[1]: rec[2] for rec in self.spans}
        for name, t in by_name.items():
            out[layer_of[name]] += t
        return dict(out)

    def totals(self, name: str) -> tuple[float, int]:
        """Summed inclusive duration and count of spans called ``name``."""
        t, n = 0.0, 0
        for _s, nm, _l, start, end, _p, _r in self.spans:
            if nm == name:
                t += end - start
                n += 1
        return t, n

    def top_level_time(self) -> float:
        """Duration covered by the direct children of the op roots."""
        roots = {rec[0] for rec in self.spans if rec[2] == "op"}
        return sum(
            rec[4] - rec[3] for rec in self.spans if rec[5] in roots
        )

    def dump(self, path: Path) -> None:
        """Write the spans as a Chrome ``trace_event`` file."""
        base = self.spans[0][3] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": sid, "parent": parent, "request": req},
            }
            for sid, name, layer, start, end, parent, req in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`INSTRUMENTED` function in a span, and every pass
    action of the :data:`PIPELINE_USERS`' pipelines, until exit."""
    saved = []
    try:
        for module, attr, name, layer in INSTRUMENTED:
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(original, name, layer))
        for module in PIPELINE_USERS:
            owner = importlib.import_module(module)
            original = owner.build_pipeline
            saved.append((owner, "build_pipeline", original))
            owner.build_pipeline = functools.wraps(original)(
                lambda opts, _build=original: tracer.wrap_passes(_build(opts))
            )
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
