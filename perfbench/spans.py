"""In-memory spans and counters for the traced run.

A span records (name, start, end, parent span, operation id) around one call
into a langcc module: a call the benchmark makes itself, or one the langcc
command makes while its module-level names are wrapped (see
workloads.traced_calls).  A span without an operation id takes its
parent's.  Spans stay in
memory and are written out when the run ends.  Each span and counter also
carries the phase ("setup" or "pass") and the repetition it ran in, so that
per-layer figures can be given per set-up or per timed pass.

`extra` marks calls the traced run makes only to split a layer's time (a
separate `lex` or `expand_instances` of the same input); they are left out
when the traced passes are compared with the untraced ones.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    on = False

    def span(self, name, op=None, extra=False, **attrs):
        return _NULL

    def count(self, name, n):
        pass

    def begin(self, phase, rep):
        pass


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "op", "phase", "rep",
                 "extra", "attrs")

    def as_json(self):
        return {"id": self.idx, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "phase": self.phase, "rep": self.rep, "extra": self.extra,
                "attrs": self.attrs}


class Tracer:
    on = True

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.phase = "setup"
        self.rep = 0
        # (phase, rep) -> name -> total
        self.counts: Dict[tuple, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def begin(self, phase: str, rep: int):
        self.phase, self.rep = phase, rep

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None, extra: bool = False, **attrs):
        s = Span()
        s.idx = len(self.spans)
        s.parent = self._stack[-1] if self._stack else None
        if op is None and s.parent is not None:
            op = self.spans[s.parent].op
        s.name, s.op, s.extra, s.attrs = name, op, extra, attrs
        s.phase, s.rep = self.phase, self.rep
        s.end = None
        self.spans.append(s)
        s.start = time.perf_counter()
        self._stack.append(s.idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int):
        self.counts[(self.phase, self.rep)][name] += n

    def kernel(self, t0: float, t1: float):
        """A calibration kernel run that interrupted the open span: recorded
        as its child so that it is not part of the span's self time."""
        s = Span()
        s.idx = len(self.spans)
        s.name, s.op, s.extra, s.attrs = "calib.kernel", None, False, {}
        s.phase, s.rep = self.phase, self.rep
        s.parent = self._stack[-1] if self._stack else None
        s.start, s.end = t0, t1
        self.spans.append(s)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def per_rep(self, factor=None):
        """(phase, rep) -> name -> summed self time, each scaled by
        factor(start, end) if given; and the same for counts."""
        times: Dict[tuple, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, t in zip(self.spans, self.self_times()):
            times[(s.phase, s.rep)][s.name] += t * (factor(s.start, s.end) if factor else 1.0)
        return times, self.counts

    def write(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "spans": [s.as_json() for s in self.spans],
                       "counts": {"%s/%d" % k: dict(v) for k, v in self.counts.items()}},
                      f)
