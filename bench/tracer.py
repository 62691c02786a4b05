"""In-memory span tracer that wraps secrelay's public functions from outside.

The tracer replaces a function with a timing wrapper on the module that
*binds* it, because ``from .channel import endpoints_for`` gives every
consumer module its own name to patch.  Each call records a span
``(id, name, start_ns, end_ns, parent_id, thread_id, ok)``.  Spans started on
a thread with no open span (sweep pool workers) are adopted by the span that
was opened with ``adopt=True``, so a sweep's point work counts as its
children.  A target that no longer exists is recorded in ``absent`` instead
of raising, so a renamed function shows up as a missing layer.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []
        self._adopter = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, adopt: bool):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._adopter
        previous = self._adopter
        if adopt:
            self._adopter = sid
        stack.append(sid)
        return stack, sid, parent, previous

    def _close(self, name, stack, sid, parent, previous, adopt, start, ok):
        end = _now()
        stack.pop()
        if adopt:
            self._adopter = previous
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident(), ok))

    @contextmanager
    def span(self, name: str, adopt: bool = False):
        """Record one span around the block; nested spans become children."""
        opened = self._open(adopt)
        ok = False
        start = _now()
        try:
            yield opened[1]
            ok = True
        finally:
            self._close(name, *opened, adopt, start, ok)

    def count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[key] += n

    def drain(self) -> tuple[list, Counter]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- installing ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, hook=None,
             adopt: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``hook(fn, args, kwargs)``, when given, makes the call itself so it
        can count what passes through; it must return ``fn``'s result.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # inlined span(): a generator context manager per call would
            # cost more than the small functions it times
            opened = self._open(adopt)
            ok = False
            start = _now()
            try:
                result = (fn(*args, **kwargs) if hook is None
                          else hook(fn, args, kwargs))
                ok = True
                return result
            finally:
                self._close(name, *opened, adopt, start, ok)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def summarise(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, failures, inclusive and self nanoseconds.

    Self time is a span's duration minus the part of it that its children
    cover, so children running in parallel are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _tid, _ok in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "failures": 0, "incl_ns": 0, "self_ns": 0,
                 "child_ns": 0})
    for sid, name, start, end, _parent, _tid, ok in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        kids = [(s, e) for s, e in kids if e > s]
        rec = out[name]
        rec["calls"] += 1
        rec["failures"] += 0 if ok else 1
        rec["incl_ns"] += end - start
        rec["self_ns"] += end - start - _union_ns(kids)
        rec["child_ns"] += sum(e - s for s, e in kids)
    return dict(out)
