"""Closed-loop load: two clients calling ``SearchHttpApp.dispatch``.

Each client sends its next request only after the previous answer
arrived, taking request indices from one shared cursor over the seeded
stream, so the request order is the stream order whatever the timing.
A request's latency runs from the call to ``dispatch`` until the response
body bytes exist (``HttpResponse.body``, the JSON encoding a socket
transport would write).  A non-2xx status or a raised exception counts as
failed.  Swaps are started from the request count: when a measured
phase has completed one of ``stream.swap_points`` requests.

A measured phase's throughput is the median over its time windows
(:meth:`Phase.window_qps`), so a few seconds in which another tenant of
the machine or an archive swap slows the service do not set it.
"""

from __future__ import annotations

import asyncio
import bisect
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from .check import AnswerSample, Served
from .spans import SpanRecorder
from .workloads import Deployment

#: Closed-loop clients; matches the two cores of the reference machine.
CLIENTS = 2

#: Completed requests a throughput window should hold at least, and the
#: shortest window (see :meth:`Phase.window_qps`).
WINDOW_REQUESTS = 400
MIN_WINDOW_SECONDS = 1.0


@dataclass
class Phase:
    """What one phase measured."""

    latencies: List[float] = field(default_factory=list)
    answered: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    started: float = 0.0
    ended: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.answered)

    @property
    def qps(self) -> float:
        return self.completed / (self.ended - self.started)

    def window_qps(self) -> List[float]:
        """Completion rate in each of the phase's equal time windows, in
        time order.

        There are as many windows as fit :data:`WINDOW_REQUESTS` completed
        requests each, at most one per :data:`MIN_WINDOW_SECONDS`, so every
        window averages over a broad mix of requests.  A window's rate runs
        from the last completion before it opens to the last completion
        before it closes (the phase start for the first), so it is a
        measured rate, not a whole count per width.  A window without
        completions has rate 0.
        """
        duration = self.ended - self.started
        count = max(1, min(self.completed // WINDOW_REQUESTS, int(duration / MIN_WINDOW_SECONDS)))
        width = duration / count
        rates = []
        done, since = 0, self.started
        for window in range(1, count + 1):
            closed = bisect.bisect_right(self.answered, self.started + window * width)
            if closed == done:
                rates.append(0.0)
                continue
            rates.append((closed - done) / (self.answered[closed - 1] - since))
            done, since = closed, self.answered[closed - 1]
        return rates


class Cursor:
    """The next stream index; shared by the clients of a run."""

    def __init__(self) -> None:
        self.next = 0


async def run_phase(
    deployment: Deployment,
    cursor: Cursor,
    sample: AnswerSample,
    *,
    seconds: Optional[float] = None,
    requests: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Phase:
    """Drive the deployment for ``seconds`` (a measured phase) or for
    ``requests`` requests (warm-up, which never swaps).

    Swaps a phase started are awaited before it returns, outside its
    wall time, so they never spill into the next phase.
    """
    app = deployment.app
    assert app is not None, "deployment not started"
    stream = deployment.inputs.stream
    phase = Phase()
    swaps: List["asyncio.Future[None]"] = []
    phase.started = perf_counter()
    deadline = None if seconds is None else phase.started + seconds
    limit = None if requests is None else cursor.next + requests
    measured = seconds is not None

    async def client() -> None:
        while True:
            if deadline is not None and perf_counter() >= deadline:
                return
            if limit is not None and cursor.next >= limit:
                return
            if cursor.next >= len(stream):
                raise RuntimeError("request stream exhausted; raise its size")
            index = cursor.next
            cursor.next += 1
            target = stream.target(index)
            phase.attempted += 1
            sent = perf_counter()
            try:
                if recorder is None:
                    response = await app.dispatch("GET", target)
                    body = response.body()
                else:
                    recorder.request.set(index)
                    with recorder.span("http.dispatch") as span:
                        response = await app.dispatch("GET", target)
                        body = response.body()
                        span.meta["bytes"] = len(body)
            except Exception:  # noqa: BLE001 — a raised exception is a failed request
                phase.failed += 1
                continue
            answered = perf_counter()
            if not response.ok:
                phase.failed += 1
                continue
            phase.latencies.append(answered - sent)
            phase.answered.append(answered)
            sample.offer(Served(index, sent, answered, body))
            if measured and phase.completed in stream.swap_points:
                swaps.append(deployment.start_swap())

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    phase.ended = perf_counter()
    for swap in swaps:
        await swap
    return phase
