"""Span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, request, meta)``.  The parent
and the request id travel in context variables, so the two client tasks
on the event loop and every executor thread keep their own chain.  Spans
stay in memory and are written out as JSON when the run ends.

The recorder only ever wraps *public* entry points of the layers, from
the benchmark's side: instance attributes of the objects the benchmark
built (``service.submit``, ``engine.search_many``, ``index.query``), the
module-level functions the core modules call (``suffix_range``,
``make_rmq``, ...) and ``query_batch`` of the RMQ classes.  Nothing under
``src/`` changes, and an untraced run installs none of it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call.  Times are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self.request: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_request", default=None
        )

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Record the enclosed block as a child of the current span."""
        record = Span(next(self._ids), name, 0.0, 0.0, self._parent.get(), self.request.get(), meta)
        token = self._parent.set(record.id)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._parent.reset(token)
            # list.append is atomic under the interpreter lock, so executor
            # threads and the event loop can record concurrently.
            self.spans.append(record)

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        describe: Optional[Callable[[Any], Dict[str, Any]]] = None,
        **meta: Any,
    ) -> Callable[..., Any]:
        """``function`` recorded as a ``name`` span on every call.

        ``describe(result)`` adds meta data once the call returned.
        """

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, **meta) as record:
                result = function(*args, **kwargs)
                if describe is not None:
                    record.meta.update(describe(result))
            return result

        return wrapper

    def wrap_async(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        describe: Callable[[Tuple[Any, ...]], Dict[str, Any]],
    ) -> Callable[..., Any]:
        """Coroutine-function counterpart of :meth:`wrap`; ``describe(args)``
        runs before the call."""

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, **describe(args)):
                return await function(*args, **kwargs)

        return wrapper

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def patch(owner: Any, attribute: str, replacement: Callable[[Callable[..., Any]], Any]) -> None:
    """Set ``owner.attribute`` to ``replacement(current value)``."""
    setattr(owner, attribute, replacement(getattr(owner, attribute)))


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children may overlap each other (shards evaluated in parallel); the
    covered part is the length of the union of their intervals, clipped
    to the span.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda item: item.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def dump(spans: Sequence[Span], path: Path) -> None:
    """Write ``spans`` as a JSON list of objects."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump([asdict(span) for span in spans], handle, default=str)
