"""Tests for the shared staged join engine.

Covers the stage primitives (dedup, filter, verify), the engine's batching
and accounting (identical pairs and counters across batch budgets), and the
per-stage timing split every algorithm reports.  Production-versus-oracle
equivalence of whole joins lives in ``tests/backend/test_equivalence.py``.
"""

from __future__ import annotations

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.approximate.bayeslsh import BayesLSHJoin
from repro.approximate.minhash_lsh import MinHashLSHJoin
from repro.backend.execution import expand_rows
from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.core.preprocess import preprocess_collection
from repro.engine import (
    CandidateStage,
    DedupStage,
    JoinEngine,
    PairCandidates,
    PointCandidates,
    SubsetCandidates,
)
from repro.engine.engine import row_chunks, task_rows
from repro.exact.naive import naive_join
from repro.result import JoinStats


@pytest.fixture(scope="module")
def collection(request):
    uniform = request.getfixturevalue("uniform_dataset")
    return preprocess_collection(uniform.records[:200], seed=5)


class _ListStage(CandidateStage):
    """A candidate stage replaying a fixed task list (test helper)."""

    def __init__(self, task_list):
        self.task_list = task_list

    def tasks(self):
        yield from self.task_list


def _fresh_stats(collection, threshold=0.5):
    return JoinStats(algorithm="TEST", threshold=threshold, num_records=collection.num_records)


class TestStages:
    def test_dedup_unique_candidates(self) -> None:
        dedup = DedupStage()
        fresh = dedup.unique_candidates([(3, 1), (1, 3), (2, 4)])
        assert fresh == [(1, 3), (2, 4)]
        assert dedup.unique_candidates([(4, 2)]) == []

    def test_dedup_accept_canonicalizes(self) -> None:
        dedup = DedupStage()
        firsts = np.array([5, 2])
        seconds = np.array([1, 7])
        dedup.accept(firsts, seconds, np.array([True, True]))
        assert dedup.result == {(1, 5), (2, 7)}

    def test_subset_task_cost(self) -> None:
        assert SubsetCandidates((1, 2, 3, 4)).cost == 6
        assert PointCandidates(0, (1, 2, 3)).cost == 3
        assert PairCandidates(((0, 1), (1, 2))).cost == 2

    def test_filter_pairs_matches_filter_rows(self, collection) -> None:
        engine = JoinEngine(collection, 0.5)
        stage = engine.default_filter_stage()
        pre, firsts, seconds = stage.filter_rows(*task_rows([SubsetCandidates(tuple(range(30)))]))
        all_firsts, all_seconds = np.triu_indices(30, k=1)
        pair_firsts, pair_seconds = stage.filter_pairs(all_firsts, all_seconds)
        assert firsts.tolist() == pair_firsts.tolist()
        assert seconds.tolist() == pair_seconds.tolist()
        assert pre == all_firsts.size


def _pairs(tasks):
    firsts, seconds = expand_rows(*task_rows(tasks))
    return list(zip(firsts.tolist(), seconds.tolist()))


class TestRowExpansion:
    def test_subset_yields_combinations_in_order(self) -> None:
        subset = (9, 2, 7, 4, 11)
        assert _pairs([SubsetCandidates(subset)]) == list(itertools.combinations(subset, 2))
        array_subset = np.array(subset, dtype=np.intp)
        assert _pairs([SubsetCandidates(array_subset)]) == list(itertools.combinations(subset, 2))

    def test_point_yields_anchor_against_each_other(self) -> None:
        assert _pairs([PointCandidates(5, (8, 1, 3))]) == [(5, 8), (5, 1), (5, 3)]

    def test_trivial_tasks_add_nothing(self) -> None:
        assert _pairs([]) == []
        assert _pairs([SubsetCandidates(()), SubsetCandidates((4,)), PointCandidates(3, ())]) == []

    def test_mixed_flush_keeps_task_order(self) -> None:
        tasks = [
            PointCandidates(0, (5, 6)),
            SubsetCandidates((1,)),
            SubsetCandidates((7, 8, 9)),
            PointCandidates(4, ()),
            PointCandidates(2, np.array([3], dtype=np.intp)),
            SubsetCandidates((10, 11)),
        ]
        assert _pairs(tasks) == [
            (0, 5), (0, 6), (7, 8), (7, 9), (8, 9), (2, 3), (10, 11),
        ]

    @pytest.mark.parametrize("budget", [1, 3, 7, 100])
    def test_row_chunks_cover_every_row_once(self, budget) -> None:
        lengths = np.array([5, 1, 9, 2, 2, 4, 1, 12], dtype=np.intp)
        chunks = row_chunks(lengths, budget)
        covered = [row for rows in chunks for row in range(lengths.size)[rows]]
        assert covered == list(range(lengths.size))
        for rows in chunks:
            # At most the budget plus the chunk's first row.
            assert lengths[rows].sum() <= budget + lengths[rows][0]
        assert row_chunks(lengths[:0], budget) == []


class TestJoinEngine:
    def test_subset_tasks_match_naive(self, collection) -> None:
        engine = JoinEngine(collection, 0.5, use_sketches=False)
        stats = _fresh_stats(collection)
        subset = tuple(range(collection.num_records))
        pairs = engine.execute(_ListStage([SubsetCandidates(subset)]), stats)
        expected = naive_join(collection.records, 0.5).pairs
        assert pairs == expected
        assert stats.pre_candidates == len(subset) * (len(subset) - 1) // 2
        assert stats.candidates == stats.verified

    def test_pair_candidates_are_deduplicated(self, collection) -> None:
        engine = JoinEngine(collection, 0.5, use_sketches=False)
        stats = _fresh_stats(collection)
        raw = tuple((first, second) for first in range(10) for second in range(first + 1, 10))
        pairs = engine.execute(
            _ListStage([PairCandidates(raw), PairCandidates(raw)]), stats
        )
        expected = {
            pair for pair in naive_join(collection.records, 0.5).pairs if pair[1] < 10
        }
        assert pairs == expected
        # The duplicate emission must not double the verification work.
        assert stats.candidates <= len(raw)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 16])
    def test_batch_budget_does_not_change_results(self, collection, budget) -> None:
        reference_stats = _fresh_stats(collection)
        reference = JoinEngine(collection, 0.5).execute(
            _ListStage([SubsetCandidates(tuple(range(60))), PointCandidates(3, tuple(range(4, 60)))]),
            reference_stats,
        )
        stats = _fresh_stats(collection)
        engine = JoinEngine(collection, 0.5, batch_budget=budget)
        pairs = engine.execute(
            _ListStage([SubsetCandidates(tuple(range(60))), PointCandidates(3, tuple(range(4, 60)))]),
            stats,
        )
        assert pairs == reference
        assert (stats.pre_candidates, stats.candidates, stats.verified) == (
            reference_stats.pre_candidates,
            reference_stats.candidates,
            reference_stats.verified,
        )

    @pytest.mark.parametrize(
        "records, threshold, limit, repetitions",
        [
            # One root task of 179,700 pairs: many chunks, most of one row.
            pytest.param([(1, 2, 3, 4, 5)] * 600, 0.8, 1000, 1, id="600-identical"),
            pytest.param(None, 0.5, 50, 3, id="random"),
        ],
    )
    def test_tiny_budget_gives_identical_joins(
        self, uniform_dataset, monkeypatch, records, threshold, limit, repetitions
    ) -> None:
        records = records or uniform_dataset.records[:300]
        config = CPSJoinConfig(seed=4, repetitions=repetitions, limit=limit, executor="serial")
        reference = CPSJoin(threshold, config).join(records)

        class TinyBudgetEngine(JoinEngine):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, batch_budget=7, **kwargs)

        # The module, not ``repro.core.cpsjoin``: that attribute path resolves
        # to the ``cpsjoin`` function re-exported by ``repro.core``.
        cpsjoin_module = importlib.import_module("repro.core.cpsjoin")
        monkeypatch.setattr(cpsjoin_module, "JoinEngine", TinyBudgetEngine)
        chunked = CPSJoin(threshold, config).join(records)
        assert chunked.pairs == reference.pairs
        assert chunked.stats.pre_candidates == reference.stats.pre_candidates
        assert chunked.stats.candidates == reference.stats.candidates
        assert chunked.stats.extra == reference.stats.extra
        assert reference.pairs

    def test_mixed_side_subset_counts_cross_pairs_only(self) -> None:
        rng = np.random.default_rng(4)
        records = [tuple(sorted(rng.choice(40, size=6, replace=False).tolist())) for _ in range(50)]
        sides = [0] * 18 + [1] * 32
        collection = preprocess_collection(records, seed=2, sides=sides)
        stats = _fresh_stats(collection)
        order = tuple(rng.permutation(50).tolist())  # sides interleaved within the subset
        pairs = JoinEngine(collection, 0.3).execute(_ListStage([SubsetCandidates(order)]), stats)
        assert stats.pre_candidates == 18 * 32
        assert all(sides[first] != sides[second] for first, second in pairs)

    def test_large_subset_filtered_in_bounded_memory(self) -> None:
        # 3,000 records in one task: 4.5M pairs.  Expanded at once, the two
        # intp pair arrays alone would take 72 MB; chunked at the default
        # budget the flush stays within a few MB.
        rng = np.random.default_rng(6)
        records = [tuple(sorted(rng.choice(5000, size=10, replace=False).tolist())) for _ in range(3000)]
        collection = preprocess_collection(records, seed=1)
        engine = JoinEngine(collection, 0.5)
        stats = _fresh_stats(collection)
        tracemalloc.start()
        try:
            engine.execute(_ListStage([SubsetCandidates(np.arange(3000))]), stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.pre_candidates == 3000 * 2999 // 2
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_invalid_batch_budget_rejected(self, collection) -> None:
        with pytest.raises(ValueError):
            JoinEngine(collection, 0.5, batch_budget=0)

    def test_repetition_rng_matches_manual_derivation(self) -> None:
        manual = np.random.default_rng(21 * 7919 + 3).random(8)
        derived = JoinEngine.repetition_rng(21, 3, stream=7919).random(8)
        assert np.array_equal(manual, derived)


class TestPerStageTimings:
    """Every algorithm reports the candidate/filter/verify timing split."""

    @pytest.mark.parametrize(
        "runner",
        [
            pytest.param(
                lambda records: CPSJoin(0.5, CPSJoinConfig(seed=7, repetitions=2)).join(records),
                id="cpsjoin",
            ),
            pytest.param(
                lambda records: MinHashLSHJoin(0.5, num_hash_functions=3, repetitions=4, seed=7).join(records),
                id="minhash",
            ),
            pytest.param(
                lambda records: BayesLSHJoin(0.5, seed=7).join(records),
                id="bayeslsh",
            ),
        ],
    )
    def test_stage_timings_sum_to_elapsed(self, uniform_dataset, runner) -> None:
        result = runner(uniform_dataset.records)
        stats = result.stats
        staged = stats.candidate_seconds + stats.filter_seconds + stats.verify_seconds
        assert stats.candidate_seconds >= 0.0
        assert stats.filter_seconds >= 0.0
        assert stats.verify_seconds >= 0.0
        assert staged > 0.0
        # The three stages cover the whole join loop up to pure driver
        # overhead: the sum can never exceed the wall clock and must account
        # for the bulk of it.
        assert staged <= stats.elapsed_seconds * 1.05 + 0.05
        assert staged >= stats.elapsed_seconds * 0.5 - 0.05

    def test_timings_merge_across_repetitions(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        single = CPSJoin(0.5, CPSJoinConfig(seed=3, repetitions=1)).join(records).stats
        merged = CPSJoin(0.5, CPSJoinConfig(seed=3, repetitions=4)).join(records).stats
        assert merged.candidate_seconds > single.candidate_seconds * 0.5
        assert merged.verify_seconds >= 0.0

    def test_timings_in_as_dict(self, uniform_dataset) -> None:
        result = CPSJoin(0.5, CPSJoinConfig(seed=1, repetitions=1)).join(uniform_dataset.records[:50])
        flat = result.stats.as_dict()
        for key in ("candidate_seconds", "filter_seconds", "verify_seconds", "index_build_seconds"):
            assert key in flat
