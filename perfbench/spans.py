"""In-memory spans around calls into a package's public functions.

`Tracer.instrument` replaces a module attribute with a timing wrapper, so
every call made through the module is recorded: ``graphmod.thin(...)`` in
the CLI as well as ``smooth(...)`` inside ``temporal.detect_ranges``.
Names bound elsewhere with ``from module import name`` are not seen.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str          # "<layer>.<function>"
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    maxrss_start_kb: int = 0   # process peak RSS when the span opened
    maxrss_end_kb: int = 0     # ... and when it closed

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.kept: dict[int, object] = {}   # span id -> value kept from that call
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span = Span(id=len(self.spans), name=name,
                    parent=self._open[-1] if self._open else None,
                    run_id=self.run_id, start=time.perf_counter(),
                    maxrss_start_kb=_maxrss_kb())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.maxrss_end_kb = _maxrss_kb()
            self._open.pop()

    def instrument(self, module, attr: str,
                   keep: Optional[Callable[[dict, object], object]] = None) -> None:
        """Wrap `module.attr`; `keep(bound_arguments, result)` runs after
        the call's span has closed and its value is stored per span."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if keep is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.kept[span.id] = keep(bound.arguments, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # ---------------------------------------------------------------- queries

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def select(self, name: str, under: Optional[str] = None) -> list[Span]:
        """Spans called `name`, optionally only those inside a span `under`."""
        return [s for s in self.spans if s.name == name and
                (under is None or any(a.name == under for a in self.ancestors(s)))]

    def total(self, name: str, under: Optional[str] = None) -> float:
        return sum(s.duration for s in self.select(name, under))

    def kept_values(self, name: str, under: Optional[str] = None) -> list:
        return [self.kept[s.id] for s in self.select(name, under) if s.id in self.kept]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, layer: str) -> float:
        """Time inside the layer's spans not covered by their child spans."""
        return sum(s.duration - sum(c.duration for c in self.children(s))
                   for s in self.spans if s.layer == layer)

    def rss_rise_mb(self, layer: str) -> float:
        """How far the layer's outermost spans raised the process peak RSS."""
        outer = [s for s in self.spans if s.layer == layer
                 and all(a.layer != layer for a in self.ancestors(s))]
        return sum(s.maxrss_end_kb - s.maxrss_start_kb for s in outer) / 1024.0

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
