"""In-memory span tracer for the benchmark's traced run.

A span is one call across a layer boundary: its name, start, end and
the span that was open when it began (its parent).  The tracer keeps,
per span name, the call count, the summed duration and the summed
*self* time — the duration minus the part its child spans cover — so
the self times of all spans nested under a root add up to the root's
duration exactly.  The first ``keep`` spans are also kept verbatim as
``(name, start, end, parent_index)`` records for inspection; the
aggregates cover every span.

Wrappers are installed on classes (``install``) and removed again by
``uninstall``: the program itself is not modified, and it must be
patched before any object captures a bound method (a receiver callback
registered at construction keeps whatever the class held then).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanStats", "Tracer"]


class SpanStats:
    """Aggregates of every span with one name."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records nested spans and call counts in memory."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 100_000
    ):
        self.clock = clock
        self.keep = keep
        self.stats: Dict[str, SpanStats] = {}
        #: Verbatim ``(name, start, end, parent_index)`` of the first
        #: ``keep`` spans, in order of their start; ``parent_index`` is
        #: the position of the enclosing span in this list, or -1.
        self.spans: List[Tuple[str, float, float, int]] = []
        # open spans: [name, start, child_total, index in self.spans]
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object]] = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, children, index = self._stack.pop()
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total += duration
        stats.self_time += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    # -- queries ---------------------------------------------------------
    def count(self, prefix: str) -> int:
        """Calls of every span whose name is ``prefix`` or starts with
        ``prefix + '.'``."""
        return sum(s.count for s in self._matching(prefix))

    def self_time(self, prefix: str) -> float:
        return sum(s.self_time for s in self._matching(prefix))

    def total(self, prefix: str) -> float:
        return sum(s.total for s in self._matching(prefix))

    def _matching(self, prefix: str) -> List[SpanStats]:
        dotted = prefix + "."
        return [
            s for n, s in self.stats.items() if n == prefix or n.startswith(dotted)
        ]

    # -- class patching --------------------------------------------------
    def install(
        self,
        cls: type,
        attr: str,
        name: Optional[str] = None,
        make: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a traced
        version: a span ``name`` around it, or ``make(original)``."""
        original = cls.__dict__[attr]
        if make is None:
            replacement = self.wrap(name, original)
        else:
            replacement = functools.wraps(original)(make(original))
        setattr(cls, attr, replacement)
        self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)
