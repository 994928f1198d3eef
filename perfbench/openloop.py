"""Open-loop load: requests are sent on a seeded schedule, not when the last one returns.

Each request is timed from the moment it was *due*, so a stall that makes
the generator fall behind is charged to every request it delays. The
generator itself runs at most ``workers`` requests at once (the number of
connections or caller threads); how late it ran is reported per rate, and
a rate whose lateness keeps growing is marked unsustained.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from perfbench.common import median, percentile


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> List[float]:
    """Arrival offsets (s) of a Poisson process of ``rate``/s over ``seconds``."""
    offsets, now = [], 0.0
    while True:
        now += rng.exponential(1.0 / rate)
        if now >= seconds:
            return offsets
        offsets.append(now)


def fixed_offsets(rate: float, seconds: float) -> List[float]:
    """Evenly spaced arrival offsets (s): one every ``1/rate`` seconds."""
    return [i / rate for i in range(int(seconds * rate))]


@dataclass
class Outcome:
    """One request as the generator saw it (monotonic seconds)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    value: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int], Any],
    workers: int,
    clock: Callable[[], float] = time.monotonic,
) -> List[Outcome]:
    """Call ``send(i)`` at ``start + offsets[i]`` from ``workers`` threads.

    A worker that is still busy when the next request is due leaves it to
    the other worker, or sends it late; ``send`` raising counts as a
    failure, never as a crash of the generator.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = [0]
    start = clock() + 0.005

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(offsets):
                    return
                cursor[0] += 1
            due = start + offsets[index]
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                value, ok, error = send(index), True, None
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                value, ok, error = None, False, f"{type(exc).__name__}: {exc}"
            outcomes[index] = Outcome(index, due, sent, clock(), ok, value, error)

    threads = [threading.Thread(target=worker, name=f"perfbench-load-{i}") for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]


def run_closed_loop(
    seconds: float,
    send: Callable[[int], Any],
    workers: int,
    clock: Callable[[], float] = time.monotonic,
) -> List[Outcome]:
    """Keep ``workers`` requests in flight for ``seconds``: the saturation probe.

    Each worker sends its next request as soon as the previous one returns,
    so the achieved rate is the capacity at this concurrency; requests are
    due when they are sent.
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    stop = clock() + seconds

    def worker() -> None:
        while clock() < stop:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            sent = clock()
            try:
                value, ok, error = send(index), True, None
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                value, ok, error = None, False, f"{type(exc).__name__}: {exc}"
            with lock:
                outcomes.append(Outcome(index, sent, sent, clock(), ok, value, error))

    threads = [threading.Thread(target=worker, name=f"perfbench-probe-{i}") for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(outcomes, key=lambda outcome: outcome.index)


@dataclass
class RateReport:
    """Per-rate summary: what was sent, what came back, and how late the generator ran."""

    rate: float
    seconds: float
    sent: int
    succeeded: int
    failed: int
    degraded: int
    p50_ms: float
    p99_ms: float
    late_max_ms: float
    late_trend_ms: float
    limit_ms: float
    errors: List[str] = field(default_factory=list)

    @property
    def backlog_grows(self) -> bool:
        # Lateness that climbs by more than half the latency limit between
        # the first and last quarter of the schedule is a queue the
        # generator cannot drain at this rate.
        return self.late_trend_ms > 0.5 * self.limit_ms

    @property
    def sustained(self) -> bool:
        return (
            self.failed == 0
            and self.p99_ms <= self.limit_ms
            and self.degraded <= 0.01 * self.sent
            and not self.backlog_grows
        )

    def as_dict(self) -> dict:
        return {
            "rate_per_s": self.rate,
            "seconds": self.seconds,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "degraded": self.degraded,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "late_max_ms": self.late_max_ms,
            "late_trend_ms": self.late_trend_ms,
            "backlog_grows": self.backlog_grows,
            "sustained": self.sustained,
            "errors": self.errors[:5],
        }


def summarize_rate(
    rate: float,
    seconds: float,
    outcomes: Sequence[Outcome],
    limit_ms: float,
    is_degraded: Callable[[Outcome], bool],
    is_correct: Callable[[Outcome], bool] = lambda outcome: True,
) -> RateReport:
    """Latency from due time; a failed or wrong answer counts as past the limit."""
    failed = [o for o in outcomes if not o.ok or not is_correct(o)]
    latencies = [
        o.latency * 1e3 if (o.ok and is_correct(o)) else float("inf") for o in outcomes
    ]
    lateness = [o.lateness * 1e3 for o in sorted(outcomes, key=lambda o: o.due)]
    quarter = max(1, len(lateness) // 4)
    trend = median(lateness[-quarter:]) - median(lateness[:quarter]) if lateness else 0.0
    return RateReport(
        rate=rate,
        seconds=seconds,
        sent=len(outcomes),
        succeeded=len(outcomes) - len(failed),
        failed=len(failed),
        degraded=sum(1 for o in outcomes if o.ok and is_degraded(o)),
        p50_ms=percentile(latencies, 50.0),
        p99_ms=percentile(latencies, 99.0),
        late_max_ms=max(lateness, default=0.0),
        late_trend_ms=trend,
        limit_ms=limit_ms,
        errors=[o.error or "wrong answer" for o in failed],
    )


def sustained_rate(reports: Sequence[RateReport]) -> float:
    """Highest ladder rate at which it and every lower rate were sustained."""
    best = 0.0
    for report in sorted(reports, key=lambda r: r.rate):
        if not report.sustained:
            break
        best = report.rate
    return best
