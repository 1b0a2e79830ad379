"""In-memory span recorder and the summary statistics the benchmark reports.

A span is one call into a layer, recorded from the benchmark's own
files: ``name`` (``<layer>.<what>``), ``start``/``end`` on the
process-wide monotonic clock, the ``parent`` span open on the same
thread when it started, and an ``op`` id shared by every span of one
sweep pair, score or service request.  Spans stay in memory and are
written out once, when the run ends.

A disabled recorder (the untraced run) records nothing, so end-to-end
numbers are measured without tracing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Optional[int]]:
        """Record the enclosed block; yields the span id (None when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.record(name, start, end, parent=parent, op=op, sid=sid)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[str] = None,
        sid: Optional[int] = None,
    ) -> Optional[int]:
        """Add a span measured elsewhere (a callback gap, a worker)."""
        if not self.enabled:
            return None
        with self._lock:
            if sid is None:
                sid = next(self._ids)
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
            )
        return sid

    def adopt(self, spans: Iterable[dict], parent: Optional[int] = None) -> None:
        """Merge spans recorded by another process, renumbering their ids.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        start/end stay comparable across the processes of one run.
        """
        spans = list(spans)
        with self._lock:
            mapping = {s["id"]: next(self._ids) for s in spans}
            for s in spans:
                self.spans.append(
                    dict(
                        s,
                        id=mapping[s["id"]],
                        parent=mapping.get(s["parent"], parent),
                    )
                )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")

    # -- summaries ------------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name.

        Self time is a span's duration minus the part of its interval
        covered by its children (overlapping children count once).
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: Dict[str, float] = {}
        for s in self.spans:
            covered = _union_length(children.get(s["id"], ()), s["start"], s["end"])
            own = s["end"] - s["start"] - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def _union_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond.

    That is the 11th-largest sample; the percentile is the share of
    samples at or below it.  Below 20 samples no percentile from the
    median up has ten samples beyond it, and the maximum is returned as
    the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]
