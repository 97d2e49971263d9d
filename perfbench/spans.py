"""In-memory span recorder and the wrapper installer used by traced runs.

A span has a name, a start and end time (``time.perf_counter``), the id of
the span that was open when it started (its parent) and the id of the
benchmark iteration it belongs to (its run id).  Counts are recorded at the
same boundaries, keyed by run id, so ratios are formed where the work
happens; values that are costly to turn into counts (artifact paths) are
noted and measured after the iteration.  Nothing is written until the
benchmark asks for ``to_records``.

``install`` replaces each probed callable with a timing wrapper *wherever
its callers look it up*: for a module-level function that is every module
namespace holding the same object (``cablecal.cli`` and
``cablecal.evaluate`` import functions by name), for a method it is the
class that defines it.  ``Installation.restore`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Optional[str]


class SpanRecorder:
    """Nested spans and counters for one process, held in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.notes: dict = defaultdict(lambda: defaultdict(list))
        self.run: Optional[str] = None
        self._stack: list = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"),
                    parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.run][name] += float(value)

    def note(self, name: str, value) -> None:
        """Keep a value (such as a path whose size is wanted) for the
        benchmark to turn into a count after the iteration, untimed."""
        self.notes[self.run][name].append(value)

    # -- derived numbers ---------------------------------------------------

    def _of_run(self, run) -> list:
        return [s for s in self.spans if s.run == run]

    def inclusive_times(self, run) -> dict:
        """Sum of span durations per name (nested same-name spans counted
        once, at the outermost)."""
        spans = self._of_run(run)
        by_id = {s.id: s for s in spans}
        out = defaultdict(float)
        for s in spans:
            p = by_id.get(s.parent)
            nested = False
            while p is not None:
                if p.name == s.name:
                    nested = True
                    break
                p = by_id.get(p.parent)
            if not nested:
                out[s.name] += s.end - s.start
        return dict(out)

    def self_times(self, run) -> dict:
        """Per name: span duration minus the part its child spans cover."""
        spans = self._of_run(run)
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        out = defaultdict(float)
        for s in spans:
            out[s.name] += (s.end - s.start) - _covered(
                s.start, s.end, [(c.start, c.end) for c in children[s.id]])
        return dict(out)

    def to_records(self) -> list:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass(frozen=True)
class Probe:
    """One entry point to time: ``owner.attr`` under span ``name``.

    ``owner`` is a module (the function is then replaced in every scanned
    module that holds the same object) or a class (the method is replaced
    on that class).  ``counter(recorder, args, kwargs, result)`` records
    counts after the span has closed, so counting is not timed.
    """

    owner: object
    attr: str
    name: str
    counter: Optional[Callable] = None


def _wrap(recorder: SpanRecorder, fn: Callable, probe: Probe) -> Callable:
    name, counter = probe.name, probe.counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if counter is not None:
            counter(recorder, args, kwargs, result)
        return result

    return wrapper


class Installation:
    """The replacements one ``install`` made, and how to undo them."""

    def __init__(self):
        self.patched: list = []  # (namespace object, attribute, original)

    def restore(self) -> None:
        for obj, attr, original in reversed(self.patched):
            setattr(obj, attr, original)

    def restored(self) -> bool:
        """True when every replaced attribute holds its original again."""
        return all(vars(obj).get(attr) is original
                   for obj, attr, original in self.patched)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(recorder: SpanRecorder, probes, modules) -> Installation:
    """Wrap every probe; ``modules`` are the namespaces scanned for by-name
    imports of module-level functions."""
    inst = Installation()
    try:
        for probe in probes:
            if isinstance(probe.owner, type):
                original = probe.owner.__dict__[probe.attr]
                inst.patched.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr,
                        _wrap(recorder, original, probe))
                continue
            original = getattr(probe.owner, probe.attr)
            wrapper = _wrap(recorder, original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        inst.patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    except BaseException:
        inst.restore()
        raise
    return inst
