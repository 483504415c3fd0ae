"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.patch`
wraps a public function or method of the program for the duration of the
traced phase, and :meth:`Tracer.span` times blocks the benchmark runs
itself.  Each span is ``(name, start, end, parent, op)``: ``parent`` is
the index of the enclosing span on the same thread (-1 for a root) and
``op`` identifies the benchmark operation (a replay, a table cell, a
request) the span belongs to.  Nothing is written until :meth:`write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and stack:
            op = self.spans[parent][4]
        record = [name, perf_counter(), 0.0, parent, op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def patch(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` until
        :meth:`unpatch`."""
        original = getattr(owner, attr)
        static = inspect.getattr_static(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        # A classmethod read off its class is already bound: keep it so.
        bound = isinstance(static, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(traced) if bound else traced)
        self._patches.append((owner, attr, static))

    @property
    def patched(self) -> bool:
        return bool(self._patches)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time (seconds) per span name: each span's duration
        minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Total inclusive duration (seconds) per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
