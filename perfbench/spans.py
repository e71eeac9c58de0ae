"""Span tracing of gridprompt from outside the package.

`Tracer.wrap` replaces a function as it is bound in the module that calls it
(for example ``gridprompt.dataset_export.solve_opf``) with a wrapper that
records one span per call: name, start, end, parent span and the draw or
trial id the call belongs to. Spans stay in memory until the run ends.
`Tracer.count_minimize` sums the ``OptimizeResult`` of every
``scipy.optimize.minimize`` call that ``gridprompt.solvers`` makes into the
span that encloses it, which gives exact solver work counters per OPF.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: "Span | None"
    item: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)
    child_item: int | None = None  # draw id set by a sticky child (mutate)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent.id if self.parent else None, "item": self.item,
            **({"info": self.info} if self.info else {}),
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, item: int | None, sticky: bool) -> Span:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to the span that started the pool
            main = self._stacks.get(self._main) or [None]
            parent = main[-1] if ident != self._main else None
        if item is None and parent is not None:
            item = parent.item if parent.item is not None else parent.child_item
        elif sticky and parent is not None:
            parent.child_item = item
        span = Span(next(self._ids), name, time.perf_counter(), parent, item)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        self.spans.append(span)

    def current(self) -> Span | None:
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def wrap(self, owner, attr: str, name: str, item_of=None, sticky=False, on_exit=None):
        """Trace ``owner.attr``; ``item_of(*args)`` names the call's draw/trial id.

        A ``sticky`` item also labels the later siblings of the call (a draw's
        solve, embed and write follow its ``mutate``). ``on_exit(span, args,
        result)`` may record facts about the call in ``span.info``.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, item_of(*args) if item_of else None, sticky)
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, args, result)
                return result
            finally:
                tracer._close(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def count_minimize(self, solvers_module) -> None:
        """Sum each ``minimize`` result into the enclosing span's info."""
        real = solvers_module.optimize
        tracer = self

        class _Optimize:
            def __getattr__(self, name):
                return getattr(real, name)

            @staticmethod
            def minimize(*args, **kwargs):
                res = real.minimize(*args, **kwargs)
                span = tracer.current()
                if span is not None:
                    info = span.info
                    info["outer"] = info.get("outer", 0) + 1
                    info["nfev"] = info.get("nfev", 0) + int(res.nfev)
                    info["nit"] = info.get("nit", 0) + int(res.nit)
                return res

        solvers_module.optimize = _Optimize()
        self._patches.append((solvers_module, "optimize", real))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self, name: str) -> float:
        """Summed self time of the named spans: duration minus the union of child intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent.id, []).append(s)
        total = 0.0
        for s in self.named(name):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (s.end - s.start) - covered
        return total * 1000.0


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    class Box:
        @staticmethod
        def noop(x):
            return x

    tracer = Tracer()
    plain = Box.noop
    t0 = time.perf_counter()
    for i in range(samples):
        plain(i)
    t_plain = time.perf_counter() - t0
    tracer.wrap(Box, "noop", "noop")
    t0 = time.perf_counter()
    for i in range(samples):
        Box.noop(i)
    t_traced = time.perf_counter() - t0
    tracer.uninstall()
    return max(t_traced - t_plain, 0.0) / samples
