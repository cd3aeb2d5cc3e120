"""Open-loop load generator over ``QueryScheduler.submit()/drain()``.

One thread submits each request at its due time, whether or not earlier
requests have finished (independent users: an open loop). One thread
drains the scheduler's queue. A request's latency is measured from when
it was *due*, so a stall also charges the wait it imposes on every later
request, and the generator's own lateness (submission minus due time) is
reported so a run whose generator fell behind can be recognised.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Sent:
    """One submitted request: due and submission times, and its outcome."""

    due: float
    submitted: float
    request: object
    outcome: object = None

    @property
    def lateness(self) -> float:
        return self.submitted - self.due

    @property
    def latency_from_due(self) -> float:
        """Due time to completion: generator lateness plus the service's
        own submission-to-completion latency."""
        return self.lateness + self.outcome.latency_seconds


@dataclass
class OpenLoopResult:
    sent: list[Sent] = field(default_factory=list)
    #: perf_counter time the schedule's offsets count from.
    started: float = 0.0
    wall_seconds: float = 0.0

    def achieved_qps(self, interval: float) -> float:
        """Requests per second as actually submitted, counting one
        scheduled ``interval`` after the last submission: equals the
        offered rate when the generator kept to the schedule and falls
        below it when the generator fell behind."""
        span = self.sent[-1].submitted - self.started + interval
        return len(self.sent) / span


def run_open_loop(scheduler,
                  schedule: list[tuple[float, object]]) -> OpenLoopResult:
    """Submit ``(offset_seconds, request)`` pairs on time; drain until done.

    Returns every request with its outcome, in submission order. The
    drainer clears an event before each drain and the generator sets it
    after each submission, so no wake-up is lost and an idle drainer
    wakes as soon as work arrives.
    """
    result = OpenLoopResult()
    tickets: list[int] = []
    finished: dict[int, object] = {}
    arrived = threading.Event()
    done_submitting = threading.Event()
    failure: list[BaseException] = []

    def drainer() -> None:
        try:
            while True:
                arrived.clear()
                outcomes = scheduler.drain()
                for outcome in outcomes:
                    finished[outcome.index] = outcome
                if outcomes:
                    continue
                if done_submitting.is_set() and scheduler.queue_depth() == 0:
                    return
                arrived.wait()
        except Exception as error:  # re-raised in the caller
            failure.append(error)

    thread = threading.Thread(target=drainer, name="e2ebench-drainer")
    start = result.started = time.perf_counter()
    thread.start()
    try:
        for offset, request in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted = time.perf_counter()
            ticket = scheduler.submit(request)
            tickets.append(ticket)
            result.sent.append(Sent(due, submitted, request))
            arrived.set()
    finally:
        done_submitting.set()
        arrived.set()
        thread.join()
    result.wall_seconds = time.perf_counter() - start
    if failure:
        raise failure[0]
    for ticket, sent in zip(tickets, result.sent):
        sent.outcome = finished[ticket]
    return result
