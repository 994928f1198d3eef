"""Micro-batching: coalesce concurrent requests into one forward pass.

Concurrent clients each submit one window; a single worker thread drains
the queue, stacks up to ``max_batch`` windows, and answers them all with
**one** ``service.predict_batch`` call. After the first arrival it waits
for stragglers only while fewer requests are queued than the callers it
has seen active: the most requests in flight at once (queued plus the
batch being answered) since it took the last batch. The wait ends when
that many are queued (at most ``max_batch``), ``max_wait_seconds`` after
the first arrival, or on close. A lone caller is answered at once,
concurrent callers still coalesce, and no batch waits past the cap; a
fresh batcher's first batch waits for ``max_batch``. The service is
anything with a ``window_shape`` and a ``predict_batch``: a
:class:`~repro.serve.shard.ShardRouter` (its one batcher) or a
:class:`~repro.serve.service.ForecastService`. The coalesced pass *is* one
``predict_batch`` over the stacked windows in arrival order, so responses
are bit-identical to a direct call with that batch — pinned by
``tests/serve/test_batching.py``.

The worker owns all model execution, so the numpy substrate's per-thread
state (autograd flag, cache bypass) sees one consistent thread; client
threads only block on a :class:`concurrent.futures.Future`.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.serve.service import PartialBatchError, check_shape

# How many of the newest batch sizes a batcher keeps: a gateway serves
# until it is killed, and a perfbench gateway run makes about 1,800.
BATCH_SIZES_KEPT = 65_536


@dataclass
class _Submission:
    window: np.ndarray
    deadline: Optional[float]  # absolute monotonic seconds
    start: float  # monotonic enqueue time
    future: Future
    # Request-lifecycle trace span: started on the submitting thread, ended
    # on the worker once the response lands, so the recorded span covers
    # queue wait + coalesced inference — exactly the caller's latency.
    span: object = None


class MicroBatcher:
    """A queue that turns concurrent single-window requests into batches."""

    def __init__(
        self,
        service,
        max_batch: int = 8,
        max_wait_seconds: float = 0.002,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_seconds < 0:
            raise ValueError(f"max_wait_seconds must be >= 0, got {max_wait_seconds}")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queue: List[_Submission] = []
        self._closed = False
        # Requests in the batch being answered, and the most in flight at
        # once (queued plus running) since the last batch was taken: the
        # callers the straggler wait waits for. Starting at max_batch makes
        # a fresh batcher's first batch wait as long as the cap allows.
        self._running = 0
        self._concurrency = self.max_batch
        # The newest coalesced batch sizes, in order.
        self.batch_sizes = deque(maxlen=BATCH_SIZES_KEPT)
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(
        self, window: np.ndarray, deadline_seconds: Optional[float] = None
    ) -> Future:
        """Enqueue one raw window; resolves to the service's response.

        ``deadline_seconds`` is a budget measured from *now* (submission),
        so time spent queued counts against it — exactly the latency the
        caller experiences.
        """
        window = np.asarray(window, dtype=float)
        check_shape(window, self.service.window_shape, "one raw window")
        now = self._clock()
        deadline = now + float(deadline_seconds) if deadline_seconds is not None else None
        submission = _Submission(
            window=window,
            deadline=deadline,
            start=now,
            future=Future(),
            # A no-op handle unless trace recording is on; parents to the
            # submitting thread's current span so end-to-end traces cross
            # the hand-off into the worker thread.
            span=tracing.start_span("serve.request"),
        )
        with self._arrived:
            if self._closed:
                # The lifecycle span is already open on this thread; close
                # it before raising or it dangles and corrupts parent
                # resolution for every later span the caller starts.
                submission.span.end(status="error", error="MicroBatcher is closed")
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(submission)
            self._concurrency = max(self._concurrency, self._running + len(self._queue))
            self._arrived.notify()
        return submission.future

    def forecast(self, window: np.ndarray, deadline_seconds: Optional[float] = None):
        """Blocking sugar: submit one window and wait for its response."""
        return self.submit(window, deadline_seconds=deadline_seconds).result()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work, drain the queue, and join the worker.

        A healthy worker drains the queue before exiting, so after the join
        nothing is usually left. If the worker could *not* be joined in time
        (wedged in a tier call, or dead), whatever is still queued would
        block its callers forever — those futures are failed with a
        "batcher closed" error, and the unjoined worker is surfaced via a
        :class:`RuntimeWarning` plus ``serve_batcher_unjoined_total``.
        """
        with self._arrived:
            self._closed = True
            self._arrived.notify()
        self._worker.join(timeout=timeout)
        with self._arrived:
            leftovers = self._queue[:]
            del self._queue[:]
        for submission in leftovers:
            error = RuntimeError("MicroBatcher closed before this request was answered")
            submission.span.end(status="error", error=str(error))
            if submission.future.set_running_or_notify_cancel():
                submission.future.set_exception(error)
        if self._worker.is_alive():
            obs_metrics.counter("serve_batcher_unjoined_total").inc()
            warnings.warn(
                f"MicroBatcher worker failed to stop within {timeout}s; "
                f"{len(leftovers)} queued request(s) failed with a closed error",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._gather()
            if batch is None:
                return
            self._answer(batch)

    def _gather(self) -> Optional[List[_Submission]]:
        """Block for the first submission, then coalesce stragglers.

        Returns ``None`` when closed and fully drained. The straggler wait
        ends once the queue holds as many requests as were in flight at
        once since the last batch (at most ``max_batch``), and never lasts
        past ``max_wait_seconds`` after the batch's *first* arrival, so an
        early submitter's latency cost for batching is capped regardless
        of traffic.
        """
        with self._arrived:
            while not self._queue and not self._closed:
                self._arrived.wait(timeout=0.1)
            if not self._queue:
                return None  # closed and drained
            target = min(self.max_batch, self._concurrency)
            cutoff = self._clock() + self.max_wait_seconds
            while len(self._queue) < target and not self._closed:
                remaining = cutoff - self._clock()
                if remaining <= 0:
                    break
                self._arrived.wait(timeout=remaining)
            batch = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
            self._running = len(batch)
            self._concurrency = self._running + len(self._queue)
            return batch

    def _answer(self, batch: List[_Submission]) -> None:
        self.batch_sizes.append(len(batch))
        obs_metrics.histogram("serve_microbatch_coalesced").observe(len(batch))
        try:
            responses = self._predict(batch)
        except PartialBatchError as error:
            # The floor failed for a subset of the batch: deliver every
            # answer that was computed and fail exactly the broken requests,
            # each with its own underlying error.
            for i, submission in enumerate(batch):
                failure = error.errors.get(i)
                if failure is None:
                    self._resolve(submission, error.responses[i])
                else:
                    self._fail(submission, failure)
            return
        except Exception as error:  # noqa: BLE001 - propagate to the waiters
            for submission in batch:
                self._fail(submission, error)
            return
        for submission, response in zip(batch, responses):
            self._resolve(submission, response)

    def _predict(self, batch: List[_Submission]):
        try:
            return self.service.predict_batch(
                np.stack([submission.window for submission in batch]),
                deadlines=[submission.deadline for submission in batch],
                starts=[submission.start for submission in batch],
                contexts=[submission.span.context for submission in batch],
            )
        finally:
            # Before any future resolves: a caller that resubmits at once
            # must not be counted twice, or the next batch waits for nobody.
            with self._lock:
                self._running = 0

    @staticmethod
    def _resolve(submission: _Submission, response) -> None:
        submission.span.end(
            tier=response.tier,
            degraded=response.degraded,
            deadline_missed=response.deadline_missed,
        )
        if submission.future.set_running_or_notify_cancel():
            submission.future.set_result(response)

    @staticmethod
    def _fail(submission: _Submission, error: Exception) -> None:
        submission.span.end(status="error", error=str(error))
        if submission.future.set_running_or_notify_cancel():
            submission.future.set_exception(error)


__all__ = ["MicroBatcher"]
