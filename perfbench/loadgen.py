"""The benchmark's own load drivers and latency arithmetic.

``repro.serve.loadgen.run_load`` times an open-loop request from the
moment it was *submitted*, so a generator that falls behind (or a
front-end that blocks the sender) hides the wait it imposed on every
later request.  The drivers here time each request from the moment it
was *due* under the fixed-rate schedule, record how late the generator
actually sent it, and count every request that was refused or failed
as infinitely slow.

The drivers only need a ``submit(item) -> pending`` callable whose
result exposes ``resolved_at`` (wall clock, ``time.time()``), ``outcome``
and ``result()`` — exactly :class:`repro.serve.frontend.PendingQuery` —
so the tests drive them with fakes.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

INF = math.inf

#: Outcomes that count as served (an answer came back).
SERVED = frozenset({"ok", "stale"})

#: Reported in place of a percentile that lands on a refused or failed
#: request (JSON has no infinity); far above any request deadline.
FAILED_LATENCY_MS = 1e6


@dataclass
class Sample:
    """One request of an open- or closed-loop phase."""

    # Slots: a run keeps tens of thousands of samples for the checks.
    __slots__ = ("item", "due", "sent", "pending")

    item: object
    due: float      # when the schedule wanted it sent (time.time())
    sent: float     # when the driver actually called submit
    pending: object

    @property
    def served(self) -> bool:
        return self.pending.outcome in SERVED

    @property
    def late_s(self) -> float:
        """How far behind the schedule the generator sent it."""
        return max(0.0, self.sent - self.due)

    @property
    def latency_s(self) -> float:
        """Due time to resolution; infinite unless served."""
        if not self.served or self.pending.resolved_at is None:
            return INF
        return self.pending.resolved_at - self.due


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); infinite when
    the interpolation touches an infinite value."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    a, b = ordered[lo], ordered[hi]
    if math.isinf(a) or math.isinf(b):
        return INF if rank > lo or math.isinf(a) else a
    return a + (b - a) * (rank - lo)


def latency_ms(samples: Iterable[Sample], q: float) -> float:
    """``q``-th percentile of due-time latency in ms, failures at
    infinity, reported as :data:`FAILED_LATENCY_MS` when infinite."""
    value = percentile([s.latency_s for s in samples], q)
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1e3


def failed_count(samples: Iterable[Sample]) -> int:
    return sum(1 for s in samples if not s.served)


def open_loop(submit: Callable[[object], object], items: Iterable[object],
              rate: float, seconds: float,
              clock: Callable[[], float] = time.time,
              sleep: Callable[[float], None] = time.sleep,
              on_send: Optional[Callable[[], None]] = None,
              ) -> List[Sample]:
    """Send ``items`` on a fixed-rate schedule for ``seconds``.

    Request ``i`` is due at ``start + i / rate`` and is sent as soon as
    the sender gets there; a stall in ``submit`` makes later requests
    late, and their latency still counts from their due time.  Returns
    the samples unresolved — callers collect with ``wait_all``.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    count = int(rate * seconds)
    start = clock()
    out: List[Sample] = []
    for i, item in zip(range(count), items):
        due = start + i / rate
        ahead = due - clock()
        if ahead > 0:
            sleep(ahead)
        sent = clock()
        out.append(Sample(item, due, sent, submit(item)))
        if on_send is not None:
            on_send()
    return out


@dataclass(frozen=True)
class Done:
    """What the checks read of a resolved request.  Swapped in for the
    pending handle so a run does not keep one event and lock alive per
    request (that memory would count in the program's peak RSS)."""

    __slots__ = ("query", "outcome", "resolved_at", "length", "kind",
                 "lag", "max_staleness")

    query: object
    outcome: str
    resolved_at: Optional[float]
    length: Optional[int]   # of the answer, None when none came back
    kind: Optional[str]
    lag: int
    max_staleness: int

    def result(self) -> "Done":
        return self


def settle(sample: Sample) -> None:
    """Wait for ``sample``'s request and keep only its :class:`Done`."""
    p = sample.pending
    p.result()
    # The answer object is not kept: a closed loop makes as many
    # requests as the machine serves, and the benchmark's own memory
    # per request should not move the program's peak RSS with that.
    answer = getattr(p, "answer", None)
    sample.pending = Done(getattr(p, "query", None), p.outcome,
                          p.resolved_at,
                          None if answer is None else answer.length,
                          None if answer is None else answer.kind,
                          getattr(p, "lag", 0),
                          getattr(p, "max_staleness", 0))


def wait_all(samples: Iterable[Sample]) -> None:
    """Block until every request resolved (or hit its deadline)."""
    for s in samples:
        settle(s)


def closed_loop(submit: Callable[[object], object],
                items: Iterable[object], clients: int, window: int,
                seconds: float,
                clock: Callable[[], float] = time.time,
                ) -> "ClosedLoopReport":
    """``clients`` threads, each keeping ``window`` requests
    outstanding, for ``seconds``.  A request is counted as completed
    when it resolves before the phase ends; the rest are drained
    afterwards and reported separately."""
    source = iter(items)
    lock = threading.Lock()
    deadline = clock() + seconds
    samples: List[List[Sample]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    def take():
        with lock:
            return next(source)

    def client(idx: int) -> None:
        mine = samples[idx]
        live: deque = deque()
        try:
            for _ in range(window):
                item = take()
                now = clock()
                live.append(Sample(item, now, now, submit(item)))
            while live:
                head = live.popleft()
                mine.append(head)
                settle(head)
                if clock() < deadline:
                    item = take()
                    now = clock()
                    live.append(Sample(item, now, now, submit(item)))
        except StopIteration:
            for s in live:
                settle(s)
                mine.append(s)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    start = clock()
    threads = [threading.Thread(target=client, args=(i,),
                                name=f"perfbench-client-{i}")
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    flat = list(itertools.chain.from_iterable(samples))
    return ClosedLoopReport(samples=flat, start=start, deadline=deadline)


@dataclass
class ClosedLoopReport:
    samples: List[Sample]
    start: float
    deadline: float

    @property
    def completed(self) -> int:
        """Requests served before the phase ended."""
        return sum(1 for s in self.samples if s.served
                   and s.pending.resolved_at <= self.deadline)

    @property
    def qps(self) -> float:
        return self.completed / (self.deadline - self.start)
