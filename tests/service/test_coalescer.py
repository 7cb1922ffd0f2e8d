"""Tests for the natural-batching query coalescer.

The runner used here holds every batch until the test releases it, so
"while a batch runs" is a state the test controls rather than a timing
window: no test sleeps on wall-clock time.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.service.coalescer import QueryCoalescer


class _HeldRunner:
    """A batch runner that holds each batch until :meth:`release` frees it.

    It records every batch it was handed, fails batches holding a negative
    token, and echoes each record back tagged, so per-future alignment is
    checkable.  Build it inside the running event loop.
    """

    def __init__(self) -> None:
        self.batches: List[List] = []
        self._released = asyncio.Semaphore(0)

    def release(self, batches: int = 1) -> None:
        for _ in range(batches):
            self._released.release()

    async def reached(self, count: int) -> None:
        """Yield to the loop until ``count`` batches have reached the runner."""
        while len(self.batches) < count:
            await asyncio.sleep(0)

    async def __call__(self, records):
        self.batches.append(list(records))
        await self._released.acquire()
        if any(token < 0 for record in records for token in record):
            raise RuntimeError("runner exploded")
        return [("result", record) for record in records]


def run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))


class TestValidation:
    def test_max_batch_positive(self) -> None:
        async def noop(records):
            return []

        with pytest.raises(ValueError):
            QueryCoalescer(noop, max_batch=0)


class TestDispatch:
    def test_single_submit_reaches_runner_without_a_timer(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            runner.release()
            coalescer = QueryCoalescer(runner, max_batch=64)
            observed = []
            coalescer.on_batch = lambda *batch: observed.append(batch)
            task = asyncio.ensure_future(coalescer.submit((7,)))
            # Two zero-length loop iterations: the submit dispatches, then the
            # batch task calls the runner.  No wall-clock time has to pass.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            reached = list(runner.batches)
            return reached, observed, await task

        reached, observed, result = run(scenario)
        assert reached == [[(7,)]]
        assert observed == [(1, 0.0, "idle")]
        assert result == ("result", (7,))

    def test_submits_while_a_batch_runs_form_one_next_batch(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=64)
            observed = []
            coalescer.on_batch = lambda *batch: observed.append(batch)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            queued = [asyncio.ensure_future(coalescer.submit((i,))) for i in range(1, 6)]
            await asyncio.sleep(0)  # let every submit enqueue itself
            while_running = list(runner.batches)
            runner.release(2)
            results = await asyncio.gather(first, *queued)
            return runner, coalescer, observed, while_running, results

        runner, coalescer, observed, while_running, results = run(scenario)
        assert while_running == [[(0,)]]  # the backlog waited for the running batch
        assert runner.batches == [[(0,)], [(i,) for i in range(1, 6)]]
        assert results == [("result", (i,)) for i in range(6)]
        assert [(size, reason) for size, _, reason in observed] == [(1, "idle"), (5, "queued")]
        assert observed[0][1] == 0.0 and observed[1][1] >= 0.0
        assert coalescer.counters == {
            "queries": 6,
            "batches": 2,
            "max_batch_observed": 5,
            "cancelled_dropped": 0,
        }

    def test_same_tick_submits_share_the_second_batch(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            runner.release(2)
            coalescer = QueryCoalescer(runner, max_batch=64)
            records = [(index, index + 1) for index in range(10)]
            results = await asyncio.gather(*(coalescer.submit(r) for r in records))
            return runner, results, records

        runner, results, records = run(scenario)
        # The first submit finds the coalescer idle; the other nine arrive
        # before its batch task has run, and ride the next batch together.
        assert runner.batches == [records[:1], records[1:]]
        assert results == [("result", record) for record in records]

    def test_max_batch_splits_a_larger_backlog(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=2)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            queued = [asyncio.ensure_future(coalescer.submit((i,))) for i in range(1, 6)]
            await asyncio.sleep(0)
            runner.release(4)
            results = await asyncio.gather(first, *queued)
            return runner, coalescer, results

        runner, coalescer, results = run(scenario)
        assert runner.batches == [[(0,)], [(1,), (2,)], [(3,), (4,)], [(5,)]]
        assert results == [("result", (i,)) for i in range(6)]
        assert coalescer.counters["max_batch_observed"] == 2

    def test_drain_returns_only_after_the_queued_batch_ran(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=64)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            queued = [asyncio.ensure_future(coalescer.submit((i,))) for i in (1, 2)]
            await asyncio.sleep(0)
            drained = asyncio.ensure_future(coalescer.drain())
            runner.release()
            await runner.reached(2)
            done_while_queued_runs = drained.done()
            runner.release()
            await drained
            batches_at_drain = list(runner.batches)
            results = await asyncio.gather(first, *queued)
            return done_while_queued_runs, batches_at_drain, results

        done_while_queued_runs, batches_at_drain, results = run(scenario)
        assert not done_while_queued_runs
        assert batches_at_drain == [[(0,)], [(1,), (2,)]]
        assert results == [("result", (i,)) for i in range(3)]

    def test_drain_on_an_idle_coalescer_returns(self) -> None:
        async def scenario():
            coalescer = QueryCoalescer(_HeldRunner(), max_batch=64)
            await coalescer.drain()
            return coalescer.counters["batches"]

        assert run(scenario) == 0


class TestCancelledSubmitters:
    def test_cancelled_pending_submits_are_dropped(self) -> None:
        # A submitter cancelled while its query is pending (deadline, shed,
        # vanished client) must not have its record executed in the batch.
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=64)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            tasks = [asyncio.ensure_future(coalescer.submit((index,))) for index in (1, 2, 3)]
            await asyncio.sleep(0)  # let every submit enqueue itself
            tasks[0].cancel()
            tasks[2].cancel()
            await asyncio.sleep(0)  # let the cancellations reach the futures
            runner.release(2)
            settled = await asyncio.gather(first, *tasks, return_exceptions=True)
            return runner, coalescer, settled

        runner, coalescer, settled = run(scenario)
        assert runner.batches == [[(0,)], [(2,)]]  # only the live query was executed
        assert coalescer.counters["cancelled_dropped"] == 2
        assert settled[0] == ("result", (0,))
        assert isinstance(settled[1], asyncio.CancelledError)
        assert settled[2] == ("result", (2,))
        assert isinstance(settled[3], asyncio.CancelledError)

    def test_all_cancelled_backlog_dispatches_nothing(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=64)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            tasks = [asyncio.ensure_future(coalescer.submit((index,))) for index in (1, 2)]
            await asyncio.sleep(0)
            for task in tasks:
                task.cancel()
            await asyncio.sleep(0)
            runner.release()
            await coalescer.drain()
            await asyncio.gather(first, *tasks, return_exceptions=True)
            return runner, coalescer

        runner, coalescer = run(scenario)
        assert runner.batches == [[(0,)]]  # no second batch fired
        assert coalescer.counters["batches"] == 1
        assert coalescer.counters["cancelled_dropped"] == 2


class TestFailurePropagation:
    def test_runner_error_reaches_its_batch_and_the_queued_batch_still_runs(self) -> None:
        async def scenario():
            runner = _HeldRunner()
            coalescer = QueryCoalescer(runner, max_batch=64)
            first = asyncio.ensure_future(coalescer.submit((0,)))
            await runner.reached(1)
            failing = [asyncio.ensure_future(coalescer.submit((-index,))) for index in (1, 2)]
            await asyncio.sleep(0)
            runner.release()
            await runner.reached(2)  # the failing batch is running
            after = [asyncio.ensure_future(coalescer.submit((index,))) for index in (3, 4)]
            await asyncio.sleep(0)
            runner.release(2)
            settled = await asyncio.gather(first, *failing, *after, return_exceptions=True)
            return runner, settled

        runner, settled = run(scenario)
        assert runner.batches == [[(0,)], [(-1,), (-2,)], [(3,), (4,)]]
        assert settled[0] == ("result", (0,))
        assert all(isinstance(result, RuntimeError) for result in settled[1:3])
        assert settled[3:] == [("result", (3,)), ("result", (4,))]

    def test_result_count_mismatch_is_an_error(self) -> None:
        async def bad_runner(records):
            return [None] * (len(records) + 1)  # wrong arity on purpose

        async def scenario():
            coalescer = QueryCoalescer(bad_runner, max_batch=64)
            return await asyncio.gather(
                coalescer.submit((1,)), coalescer.submit((2,)), return_exceptions=True
            )

        results = run(scenario)
        assert all(isinstance(result, RuntimeError) for result in results)
