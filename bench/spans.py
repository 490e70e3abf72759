"""Span tracer for the benchmark's traced run.

Library functions are wrapped at the module attribute their caller looks them
up through (``slicedconv.kernel.pack_input`` is what the macrokernel calls),
so the library itself is not edited. Each call records a span (name, start,
end, parent) in memory; a layer's self time is its span's duration minus the
time its child spans cover. A target the library no longer has is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name, fn, on_result=None):
        """fn recording one span per call; on_result(counters, args, result)."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if on_result is not None:
                on_result(counters, args, result)
            return result

        return traced

    def patch(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by its traced form until restore()."""
        try:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        self._patched.append((mod, attr, original))
        setattr(mod, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.absent.clear()

    def summary(self) -> dict[str, SpanStats]:
        """Calls, total and self seconds per span name, over recorded spans."""
        child_s = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        stats: dict[str, SpanStats] = {}
        for (name, t0, t1, _), covered in zip(self.spans, child_s):
            s = stats.setdefault(name, SpanStats())
            s.calls += 1
            s.total_s += t1 - t0
            s.self_s += t1 - t0 - covered
        return stats
