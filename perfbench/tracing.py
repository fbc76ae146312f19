"""Spans around calls into the stepup layers, recorded from outside the package.

A Tracer replaces public functions at their module attribute with
wrappers that open a span on entry and close it on exit.  Callers inside
the package look those names up in their own module at call time, so a
wrapper on ``stepup.witness.build_layers`` nests under a wrapper on
``stepup.witness.extract_edge`` without any edit to the package.

Each span keeps its name, start, end, parent span and op id, the time
its children covered (so self time = duration - children), small notes
(counts or attributes) taken from the wrapped call's arguments and
result, and, when the tracer was made with ``memory=True``, the
tracemalloc peak above the span's starting allocation.  tracemalloc
slows allocation-heavy Python several times over, so times and peaks
come from separate passes.  Spans stay in memory until ``write`` dumps
them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    id: int
    op: Optional[int]
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0
    notes: dict = field(default_factory=dict)
    # tracemalloc bookkeeping while the span is open
    _base: int = 0
    _max: int = 0

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s


Note = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._open: list[Span] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # --- installing wrappers -------------------------------------------------

    def wrap(self, module, attr: str, name: str, note: Optional[Note] = None):
        """Replace module.attr by a span-recording wrapper named `name`."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if note is not None:
                span.notes.update(note(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def start(self):
        if self.memory:
            tracemalloc.start()

    def stop(self):
        """Restore every wrapped attribute and stop tracemalloc."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()

    def _traced_memory(self) -> tuple[int, int]:
        return tracemalloc.get_traced_memory() if self.memory else (0, 0)

    def _reset_peak(self):
        if self.memory:
            tracemalloc.reset_peak()

    # --- span bookkeeping ------------------------------------------------------

    def _enter(self, name: str) -> Span:
        cur, peak = self._traced_memory()
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent._max = max(parent._max, peak)
        self._reset_peak()
        span = Span(id=len(self.spans) + len(self._open), op=self.op, name=name,
                    parent=parent.id if parent else None,
                    start=time.perf_counter() - self._t0, _base=cur, _max=cur)
        self._open.append(span)
        return span

    def _exit(self, span: Span):
        span.end = time.perf_counter() - self._t0
        _, peak = self._traced_memory()
        span._max = max(span._max, peak)
        span.peak_bytes = span._max - span._base
        self._open.pop()
        if self._open:
            parent = self._open[-1]
            parent.child_s += span.dur_s
            parent._max = max(parent._max, span._max)
        self._reset_peak()
        self.spans.append(span)

    # --- queries -----------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def peak_mb(self, name: str) -> float:
        return max((s.peak_bytes for s in self.named(name)), default=0) / 2 ** 20

    def table(self, memory: Optional["Tracer"]) -> list[str]:
        """One line per span name: calls, inclusive and self seconds, and the
        peak MB seen by the memory pass, if there was one."""
        names = sorted({s.name for s in self.spans})
        lines = [f"{'span':34s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} "
                 f"{'peak_mb':>9s}"]
        for n in names:
            ss = self.named(n)
            peak = f"{memory.peak_mb(n):9.1f}" if memory else f"{'-':>9s}"
            lines.append(f"{n:34s} {len(ss):7d} {sum(s.dur_s for s in ss):10.4f} "
                         f"{sum(s.self_s for s in ss):10.4f} {peak}")
        return lines

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                row = {k: v for k, v in asdict(s).items() if not k.startswith("_")}
                row["self_s"] = s.self_s
                fh.write(json.dumps(row, default=str) + "\n")
