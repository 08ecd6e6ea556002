"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into
asptoc's public functions.  Each span has an id, a name, a start and end
time, the id of the enclosing span (``None`` for a root) and the id of the
program it served; all spans of one program share that id.  They stay in
memory until :meth:`Tracer.write` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    program: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, program: int):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, program)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the part of it that its child
        spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = s.duration - covered
        return out

    def layer_times(self) -> dict[tuple[int, str], float]:
        """(program id, span name) -> summed self time."""
        selfs = self.self_times()
        out: dict[tuple[int, str], float] = {}
        for s in self.spans:
            key = (s.program, s.name)
            out[key] = out.get(key, 0.0) + selfs[s.id]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
