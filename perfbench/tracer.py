"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark around its own calls into the package's
public functions; nothing inside the package is instrumented.  Spans stay in
memory until the run ends, when the parent process writes them out as JSON
lines.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MIB = float(2 ** 20)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; each span knows the span that caused it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, peak: bool = False, **attrs):
        """Time the block; with ``peak`` also record its tracemalloc peak (MiB).

        Peak spans must not nest: tracemalloc has one global peak.
        """
        s = Span(len(self.spans), name, self._open[-1] if self._open else None,
                 self.run_id, 0.0, attrs=dict(attrs))
        self.spans.append(s)
        self._open.append(s.id)
        if peak:
            tracemalloc.start()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if peak:
                s.attrs["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
            self._open.pop()

    def records(self) -> list[dict]:
        """Span dicts with their self time: duration minus child durations.

        Children of one span run one after another, so their durations add
        up to the part of the parent's interval they cover.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = []
        for s in self.spans:
            rec = asdict(s)
            rec["duration"] = s.duration
            rec["self_time"] = s.duration - child_time[s.id]
            out.append(rec)
        return out


def total(records, name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(r["duration"] for r in records if r["name"] == name)


def peak(records, name: str) -> float:
    """Largest tracemalloc peak (MiB) over the spans called ``name``."""
    return max((r["attrs"]["peak_mib"] for r in records
                if r["name"] == name and "peak_mib" in r["attrs"]), default=0.0)
