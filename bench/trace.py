"""Span tracing from outside the program, for the per-layer report.

The bench wraps the layers' *public* callables — rebinding the name in
every module that imported it, or the attribute on the class — and keeps
spans ``{id, parent, name, start, end, thread, attrs}`` in memory until
the run ends.  Nothing under ``src/`` knows it is being traced, and the
end-to-end numbers come from repetitions run with the patches removed.

A span's *self time* is its duration minus that of its direct children,
so the self times of a repetition's spans sum to the part of its wall
clock spent inside any wrapped callable (``trace.coverage_pct``).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Dict[str, Any]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Record one span around the block (parent: innermost open span)."""
        stack = self._stack()
        record: Span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.current_thread().name,
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(
        self,
        func: Callable,
        name: str,
        attrs: Optional[Callable] = None,
        result_attrs: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recorded as span ``name``.

        ``attrs(*args, **kwargs)`` and ``result_attrs(result)`` return
        dicts tagged onto the span (counts and sizes the program already
        holds, read at the boundary).
        """

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})) as record:
                result = func(*args, **kwargs)
                if result_attrs is not None:
                    record["attrs"].update(result_attrs(result))
                return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **tags: Optional[Callable]) -> None:
        """Wrap method ``attr`` on the class of ``cls``'s MRO that defines it."""
        owner = next(klass for klass in cls.__mro__ if attr in klass.__dict__)
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **tags))

    def patch_function(self, func: Callable, name: str, **tags: Optional[Callable]) -> None:
        """Wrap a module-level function under every name it was imported as."""
        traced = self.wrap(func, name, **tags)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, traced)

    def remove(self) -> None:
        """Undo every patch (spans stay)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= duration(span)
    return own


def by_name(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total`` seconds and ``self`` seconds."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["total"] += duration(span)
        row["self"] += own[span["id"]]
    return dict(table)


def descendants(spans: Iterable[Span], root_id: int) -> List[Span]:
    """Every span below ``root_id`` (any depth), excluding the root."""
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    found: List[Span] = []
    frontier = [root_id]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(span["id"] for span in below)
    return found
