"""In-memory span tracing around the package's public functions.

The tracer edits no source: it rebinds each traced function in the module
that defines it and in every ``emitpair`` module that imported it by name, and
puts the originals back when the traced block ends.  Spans are kept in memory;
the caller writes them out when the run ends.

A span records its name, start, end and parent.  Spans below one top-level
call inside ``sweep.run_sweep`` (one grid point, or one whole table for the
table tasks) share that call's id as their ``point``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent point info")

# A span whose parent has this name starts a new grid point.
POINT_PARENT = "sweep.run_sweep"
PACKAGE = "emitpair"


class Tracer:
    """Collects spans and plain call counts for one traced block."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._opened = 0
        self._stack = []  # (span id, name, point) of the open spans

    def wrap(self, name, fn, info=None):
        """Return ``fn`` recording one span per call.

        ``info(args, kwargs, result)``, when given, returns a value stored on
        the span (a residual, an argument pair, a byte count); ``result`` is
        None when the call raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._opened
            self._opened += 1
            if self._stack:
                parent, parent_name, parent_point = self._stack[-1]
                point = sid if parent_name == POINT_PARENT else parent_point
            else:
                parent = point = None
            self._stack.append((sid, name, point))
            result = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                # a call that raised is still a call; its info sees result None
                extra = info(args, kwargs, result) if info is not None else None
                self.spans.append(Span(sid, name, start, end, parent, point, extra))
            return result

        return traced

    def count(self, name, fn):
        """Return ``fn`` counting its calls under ``name``; records no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _resolve(module_name, qualname):
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


class Installed:
    """Context manager that binds wrappers in place and restores the originals.

    ``targets`` is a list of ``(module, qualname, make_wrapper)``;
    ``make_wrapper(original)`` returns the replacement.  A plain function is
    replaced in every module of the package that holds the same object; a
    method (``Class.method``) is replaced on its class.
    """

    def __init__(self, targets):
        self.targets = targets
        self._undo = []

    def __enter__(self):
        try:
            self._bind()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _bind(self):
        for module_name, qualname, make_wrapper in self.targets:
            module, owner, attr = _resolve(module_name, qualname)
            if owner is module:
                original = getattr(module, attr)
                replacement = make_wrapper(original)
                for holder in self._package_modules():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, name, original))
                            setattr(holder, name, replacement)
            else:
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))

    def __exit__(self, *exc):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()
        return False

    @staticmethod
    def _package_modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


def layer_stats(spans):
    """Span name -> {calls, self_s, total_s, durations, infos}."""
    own = self_times(spans)
    stats = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [], "infos": []}
    )
    for s in sorted(spans, key=lambda s: s.start):
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += own[s.id]
        st["total_s"] += s.end - s.start
        st["durations"].append(s.end - s.start)
        st["infos"].append(s.info)
    return stats


def repeat_mirror_shares(calls):
    """Shares of ``(context, a, b)`` calls already solved in the run.

    ``repeat`` counts calls whose exact argument pair came earlier; ``mirror``
    counts the rest whose swapped pair ``(b, a)`` came earlier.  Their sum is
    the share of calls whose pair, or its swap, was already solved.
    """
    seen = set()
    repeat = mirror = total = 0
    for context, a, b in calls:
        total += 1
        if (context, a, b) in seen:
            repeat += 1
        elif (context, b, a) in seen:
            mirror += 1
        seen.add((context, a, b))
    if total == 0:
        return 0.0, 0.0
    return repeat / total, mirror / total
