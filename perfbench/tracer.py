"""In-memory span tracer that wraps functions from outside the traced package.

A wrapper is installed at every binding a caller resolves: the defining
module, every module that imported the function by name, and (for methods)
the class. Each call records one span: id, parent id, thread, label, start,
end, thread CPU seconds, and the counts a per-function hook computes from the
call's arguments and result. Span stacks are per thread, so calls made by a
worker pool nest under their own thread's spans, never under another's.
Spans stay in memory until the caller writes them out; ``restore`` puts every
original object back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable
from typing import NamedTuple

# (args, kwargs, result) -> {count name: integer increment}
CountHook = Callable[[tuple, dict, object], dict]


class Span(NamedTuple):
    sid: int
    parent: int           # 0 for a span with no enclosing span on its thread
    thread: int
    label: str
    start: float          # perf_counter seconds
    end: float
    cpu: float            # CPU seconds of the calling thread inside the span
    counts: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn: Callable, hook: CountHook | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = done = None
            # the two clocks are read in the same order at both ends, so the
            # cost of reading one does not show up as wait
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                cpu1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                counts = hook(args, kwargs, result) if done and hook is not None else None
                # list.append is atomic, so pool threads need no lock here
                spans.append(Span(sid, parent, threading.get_ident(), label, t0, t1, cpu1 - cpu0, counts))

        return traced

    def patch_function(self, label: str, original: Callable, modules: Iterable, hook: CountHook | None = None) -> None:
        """Replace ``original`` wherever a module in ``modules`` binds it."""
        wrapper = self.wrap(label, original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, label: str, cls: type, attr: str, hook: CountHook | None = None) -> None:
        self._set(cls, attr, self.wrap(label, vars(cls)[attr], hook))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children share their parent's thread and stack, so they never overlap one
    another and their durations add up to the covered time.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent:
            covered[span.parent] = covered.get(span.parent, 0.0) + (span.end - span.start)
    return {span.sid: (span.end - span.start) - covered.get(span.sid, 0.0) for span in spans}


class LabelStats(NamedTuple):
    calls: int
    self_s: float
    wait_s: float         # wall time minus the calling thread's CPU time
    counts: dict


def summarize(spans: list[Span]) -> dict[str, LabelStats]:
    selfs = self_times(spans)
    acc: dict[str, list] = {}
    for span in spans:
        entry = acc.setdefault(span.label, [0, 0.0, 0.0, {}])
        entry[0] += 1
        entry[1] += selfs[span.sid]
        entry[2] += (span.end - span.start) - span.cpu
        for key, value in (span.counts or {}).items():
            entry[3][key] = entry[3].get(key, 0) + value
    return {label: LabelStats(*entry) for label, entry in acc.items()}


def pool_busy_ratio(spans: list[Span], label: str, slots_key: str) -> float:
    """Worker-thread time inside traced calls over slots x wall time of ``label`` spans.

    Worker time is the duration of root spans on threads other than the one
    that made the ``label`` call, inside that call's interval. The slot count
    of each call is the count ``slots_key`` its hook recorded.
    """
    busy = capacity = 0.0
    for outer in (s for s in spans if s.label == label):
        capacity += (outer.counts or {}).get(slots_key, 1) * (outer.end - outer.start)
        busy += sum(
            s.end - s.start for s in spans
            if s.parent == 0 and s.thread != outer.thread and outer.start <= s.start and s.end <= outer.end
        )
    return busy / capacity if capacity else 0.0
