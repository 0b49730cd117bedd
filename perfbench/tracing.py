"""Spans around lateir's public functions, recorded from outside the package.

`install` wraps every public function of the library modules, plus
`TeacherScoreTable.from_tsv` and each CLI stage handler, and rebinds the
wrapper under every name the package looks the original up by: the defining
module, modules that imported it (`lateir.cli`, `lateir.exact` importing
`ranked_from_scores`, `lateir.mining` importing `search_bm25`, ...) and the
package root.  A call from one layer into another therefore becomes a child
span.  No file of the program is changed; the spans stay in memory.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("store", "exact", "compressed", "bm25", "ranking", "scoring", "mining", "evaluation")


class Tracer:
    """In-memory spans: [name, start, end, parent index] with -1 for a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations (s) of spans called `name`, optionally only under a `parent` span."""
        return [
            end - start
            for n, start, end, p in self.spans
            if n == name and (parent is None or (p >= 0 and self.spans[p][0] == parent))
        ]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time direct children cover, per span called `name`."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, p in self.spans:
            if p >= 0:
                child_time[p] += end - start
        return [
            end - start - child_time[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def root_time(self, prefixes: tuple[str, ...] = ("",)) -> float:
        """Summed duration of root spans whose name starts with one of `prefixes`."""
        return sum(
            end - start
            for n, start, end, p in self.spans
            if p < 0 and n.startswith(prefixes)
        )


def install(tracer: Tracer) -> None:
    """Route every public lateir function and CLI stage through `tracer`."""
    import lateir
    import lateir.cli as cli
    from lateir.mining import TeacherScoreTable

    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lateir.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for module in [lateir, cli] + [importlib.import_module(f"lateir.{m}") for m in LAYERS]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])

    from_tsv = TeacherScoreTable.__dict__["from_tsv"].__func__
    TeacherScoreTable.from_tsv = classmethod(tracer.wrap("mining.TeacherScoreTable.from_tsv", from_tsv))
    for command, (opts, handler) in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = (opts, tracer.wrap(f"cli.{command}", handler))
