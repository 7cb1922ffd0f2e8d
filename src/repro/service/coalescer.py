"""Natural-batching request coalescer for concurrent point queries.

The vectorized kernels behind :meth:`repro.index.SimilarityIndex.query_batch`
amortize their per-call overhead (signature blocks, sketch packing, numpy
dispatch) across a batch, so a server answering each in-flight request with
its own ``query(record)`` call throws that advantage away exactly when it
matters — under concurrent load.  :class:`QueryCoalescer` recovers it
without ever waiting on purpose, like a write-ahead log's group commit:

* **idle** — a query submitted while no batch is running is dispatched at
  once, as a batch of one;
* **queued** — queries submitted while a batch runs are collected, and
  dispatched together (at most ``max_batch`` at a time) as soon as it
  finishes.

Only one batch is in flight at a time: the engine is a single thread, so a
second batch could only queue behind the first.  The busier the engine, the
larger the batches; an idle engine adds no latency at all.  Each batch runs
as a single ``query_batch`` call whose per-query results resolve the
individual futures.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["QueryCoalescer"]

Record = Sequence[int]
BatchRunner = Callable[[List[Record]], Awaitable[List[Any]]]
BatchObserver = Callable[[int, float, str], None]
Pending = Tuple[Record, asyncio.Future, float]


class QueryCoalescer:
    """Batch concurrently submitted queries into single ``query_batch`` runs.

    Parameters
    ----------
    runner:
        Async callable executing one batch; receives the list of pending
        records and must return one result per record, aligned with the
        input order.  (The server runs ``SimilarityIndex.query_batch`` on
        its engine thread here.)
    max_batch:
        Upper bound on the queries in one batch; a larger backlog is split
        over consecutive batches.
    """

    def __init__(self, runner: BatchRunner, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._runner = runner
        self.max_batch = max_batch
        #: Optional hook called at every dispatch with
        #: ``(batch_size, wait_seconds, reason)`` — how long the batch's first
        #: query waited, and ``"idle"`` or ``"queued"``.  The server points it
        #: at its metrics registry without the coalescer importing any of it.
        self.on_batch: Optional[BatchObserver] = None
        # Non-empty only while ``_running`` is set: the running batch task
        # hands the backlog on when it finishes.
        self._pending: Deque[Pending] = deque()
        self._running: Optional[asyncio.Task] = None
        self.counters: Dict[str, float] = {
            "queries": 0,
            "batches": 0,
            "max_batch_observed": 0,
            "cancelled_dropped": 0,
        }

    async def submit(self, record: Record) -> Any:
        """Run one query; resolves with its slice of the batch result."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = (record, future, time.perf_counter())
        self.counters["queries"] += 1
        if self._running is None:
            self._dispatch([entry], "idle")
            self._running = asyncio.ensure_future(self._run([entry]))
        else:
            self._pending.append(entry)
        return await future

    async def drain(self) -> None:
        """Wait until the running batch and the backlog it hands on are done."""
        if self._running is not None:
            await asyncio.gather(self._running, return_exceptions=True)

    # ------------------------------------------------------------------ internals
    def _dispatch(self, batch: List[Pending], reason: str) -> None:
        self.counters["batches"] += 1
        self.counters["max_batch_observed"] = max(
            self.counters["max_batch_observed"], len(batch)
        )
        if self.on_batch is not None:
            wait_seconds = 0.0 if reason == "idle" else time.perf_counter() - batch[0][2]
            self.on_batch(len(batch), wait_seconds, reason)

    def _next_batch(self) -> List[Pending]:
        """Take up to ``max_batch`` live queries off the backlog."""
        batch: List[Pending] = []
        while self._pending and len(batch) < self.max_batch:
            entry = self._pending.popleft()
            # A submitter cancelled while pending (deadline, shed, vanished
            # client) has a done future: executing its record would be pure
            # waste — and under overload, waste is exactly what balloons the
            # queue — so drop it here and only batch live queries.
            if entry[1].done():
                self.counters["cancelled_dropped"] += 1
            else:
                batch.append(entry)
        if batch:
            self._dispatch(batch, "queued")
        return batch

    async def _run(self, batch: List[Pending]) -> None:
        try:
            while batch:
                await self._run_batch(batch)
                batch = self._next_batch()
        finally:
            self._running = None

    async def _run_batch(self, batch: List[Pending]) -> None:
        records = [record for record, _, _ in batch]
        try:
            results = await self._runner(records)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for {len(batch)} queries"
                )
        except Exception as error:
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future, _), result in zip(batch, results):
            if not future.done():  # the submitter may have been cancelled
                future.set_result(result)
