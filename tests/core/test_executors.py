"""Cross-executor determinism tests: serial == processes.

The only thing an executor may change is *where* work runs.  For every
randomized join the reported pair set — and for cpsjoin/minhash the full
counter signature — must be bit-identical across ``serial`` (the reference)
and ``processes`` at a fixed seed, for any worker count.
"""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin, cpsjoin
from repro.core.preprocess import preprocess_collection
from repro.core.repetition import (
    EXECUTOR_NAMES,
    RepetitionEngine,
    shard_round_robin,
)
from repro.exact.naive import naive_join
from repro.index import SimilarityIndex
from repro.join import similarity_join, similarity_join_rs

EXECUTORS = ("serial", "processes")


def _signature(result):
    stats = result.stats
    return (
        frozenset(result.pairs),
        stats.pre_candidates,
        stats.candidates,
        stats.verified,
        stats.results,
        stats.repetitions,
    )


class TestCPSJoinExecutors:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_executors_identical(self, uniform_dataset, workers) -> None:
        records = uniform_dataset.records[:220]
        base = CPSJoinConfig(seed=17, repetitions=6, workers=workers)
        results = {
            executor: cpsjoin(records, 0.5, base.with_overrides(executor=executor))
            for executor in EXECUTORS
        }
        reference = _signature(results["serial"])
        for executor, result in results.items():
            assert _signature(result) == reference, executor

    def test_run_until_recall_processes_matches_serial(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.5).pairs
        engine = CPSJoin(0.5, CPSJoinConfig(seed=13))
        collection = preprocess_collection(records, seed=13)
        serial = RepetitionEngine(engine, collection, workers=1, executor="serial").run_until_recall(
            truth, target_recall=0.9, max_repetitions=16
        )
        procs = RepetitionEngine(
            engine, collection, workers=4, executor="processes"
        ).run_until_recall(truth, target_recall=0.9, max_repetitions=16)
        assert _signature(procs) == _signature(serial)

    def test_engine_reusable_after_close(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:120]
        engine = CPSJoin(0.5, CPSJoinConfig(seed=2, repetitions=3))
        collection = preprocess_collection(records, seed=2)
        driver = RepetitionEngine(engine, collection, workers=2, executor="processes")
        first = driver.run_fixed(3)
        driver.close()  # double close (run_fixed already closed) must be safe
        second = driver.run_fixed(3)  # resources are re-created lazily
        assert first.pairs == second.pairs

    def test_sequential_worker_time_consistent(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        result = cpsjoin(
            records, 0.5, CPSJoinConfig(seed=5, repetitions=4, workers=2, executor="processes")
        )
        stats = result.stats
        assert stats.worker_seconds > 0.0
        assert stats.elapsed_seconds > 0.0


class TestMinHashExecutors:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_executors_identical(self, uniform_dataset, workers) -> None:
        records = uniform_dataset.records[:220]
        results = {
            executor: similarity_join(
                records,
                0.5,
                algorithm="minhash",
                seed=23,
                workers=workers,
                executor=executor,
            )
            for executor in EXECUTORS
        }
        reference = _signature(results["serial"])
        for executor, result in results.items():
            assert _signature(result) == reference, executor

    def test_parallel_matches_sequential(self, uniform_dataset) -> None:
        # workers=1 runs in-process whatever the executor; any parallel
        # configuration must reproduce it exactly.
        records = uniform_dataset.records[:200]
        sequential = similarity_join(records, 0.6, algorithm="minhash", seed=4)
        parallel = similarity_join(
            records, 0.6, algorithm="minhash", seed=4, workers=3, executor="processes"
        )
        assert _signature(parallel) == _signature(sequential)


class TestBayesLSHWorkers:
    def test_workers_raise_clear_error_naming_algorithm(self, uniform_dataset) -> None:
        with pytest.raises(ValueError, match="bayeslsh.*parallel workers"):
            similarity_join(
                uniform_dataset.records[:50], 0.5, algorithm="bayeslsh", seed=1, workers=4
            )

    def test_workers_one_still_fine(self, uniform_dataset) -> None:
        result = similarity_join(
            uniform_dataset.records[:80], 0.5, algorithm="bayeslsh", seed=1, workers=1
        )
        assert result.stats.algorithm == "BAYESLSH"


class TestRSJoinExecutors:
    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash"])
    def test_native_rs_processes_identical(self, uniform_dataset, algorithm) -> None:
        records = uniform_dataset.records
        left, right = records[:120], records[120:240]
        serial = similarity_join_rs(left, right, 0.5, algorithm=algorithm, seed=9, executor="serial")
        procs = similarity_join_rs(
            left, right, 0.5, algorithm=algorithm, seed=9, workers=4, executor="processes"
        )
        assert procs.pairs == serial.pairs
        assert procs.stats.pre_candidates == serial.stats.pre_candidates


class TestIndexExecutors:
    @pytest.mark.parametrize("candidates", ["exact", "lsh"])
    def test_query_batch_parallel_identical(self, uniform_dataset, candidates) -> None:
        records = uniform_dataset.records[:300]
        serial = SimilarityIndex.build(
            records, 0.5, candidates=candidates, backend="numpy", seed=6, batch_size=32
        )
        parallel = SimilarityIndex.build(
            records,
            0.5,
            candidates=candidates,
            backend="numpy",
            seed=6,
            batch_size=32,
            workers=4,
            executor="processes",
        )
        queries = records[:150]
        expected = serial.query_batch(queries)
        got = parallel.query_batch(queries)
        assert got == expected
        assert parallel.stats.pre_candidates == serial.stats.pre_candidates
        assert parallel.stats.candidates == serial.stats.candidates
        assert parallel.stats.verified == serial.stats.verified
        assert parallel.stats.extra["queries"] == serial.stats.extra["queries"]


class TestIndexQueryPoolLifecycle:
    def test_pool_reused_across_batches_and_invalidated_by_insert(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        index = SimilarityIndex.build(
            records, 0.5, backend="numpy", batch_size=32, workers=2, executor="processes"
        )
        queries = records[:80]
        first = index.query_batch(queries)
        pool = index._query_pool
        assert pool is not None
        second = index.query_batch(queries)
        assert index._query_pool is pool  # reused: no re-pickle, no re-fork
        assert first == second
        index.insert([901, 902, 903])
        index.query_batch(queries[:40])
        assert index._query_pool is not pool  # insert invalidated the snapshot
        index.close()
        index.close()  # double close safe
        assert index._query_pool is None


class TestValidation:
    def test_unknown_executor_rejected_by_config(self) -> None:
        with pytest.raises(ValueError, match="executor"):
            CPSJoinConfig(executor="carrier-pigeon")

    def test_unknown_executor_rejected_by_engine(self, uniform_dataset) -> None:
        engine = CPSJoin(0.5, CPSJoinConfig(seed=1))
        collection = preprocess_collection(uniform_dataset.records[:20], seed=1)
        with pytest.raises(ValueError, match="executor"):
            RepetitionEngine(engine, collection, workers=2, executor="fleet")

    def test_executor_names_exported(self) -> None:
        assert EXECUTOR_NAMES == ("serial", "processes")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CPSJoinConfig(executor="threads"),
            lambda: similarity_join([(1, 2)], 0.5, algorithm="minhash", executor="threads"),
            lambda: similarity_join([(1, 2)], 0.5, algorithm="bayeslsh", executor="threads"),
            lambda: SimilarityIndex(0.5, executor="threads"),
        ],
        ids=["config", "minhash", "bayeslsh", "index"],
    )
    def test_threads_executor_rejected(self, make) -> None:
        with pytest.raises(ValueError, match="executor"):
            make()

    def test_default_executor_is_processes(self, uniform_dataset) -> None:
        engine = CPSJoin(0.5, CPSJoinConfig(seed=1))
        collection = preprocess_collection(uniform_dataset.records[:20], seed=1)
        assert CPSJoinConfig().executor == "processes"
        assert RepetitionEngine(engine, collection).executor == "processes"
        assert SimilarityIndex(0.5).executor == "processes"

    def test_shard_round_robin_covers_all_ids(self) -> None:
        shards = shard_round_robin(7, 3, start=10)
        assert sorted(sum(shards, [])) == list(range(10, 17))
        assert max(len(shard) for shard in shards) - min(len(shard) for shard in shards) <= 1

    def test_shard_round_robin_caps_at_count(self) -> None:
        shards = shard_round_robin(2, 8)
        assert len(shards) == 2
