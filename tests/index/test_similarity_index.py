"""Tests for the build-once/query-many SimilarityIndex."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.preprocess import preprocess_collection
from repro.index import SimilarityIndex
from repro.index import similarity_index as similarity_index_module
from repro.join import similarity_join
from repro.obs import (
    MetricsRegistry,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
)
from repro.result import canonical_pair

MODES = ("exact", "chosenpath", "lsh")


@pytest.fixture(scope="module")
def random_records():
    rng = np.random.default_rng(77)
    records = [
        tuple(sorted(rng.choice(400, size=int(rng.integers(4, 20)), replace=False).tolist()))
        for _ in range(250)
    ]
    # Plant near-duplicates so qualifying pairs exist.
    for index in range(0, 40, 4):
        base = list(records[index])
        base[-1] = 399 if base[-1] != 399 else 398
        records.append(tuple(sorted(set(base))))
    return records


class TestConstruction:
    def test_invalid_threshold(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.0)
        with pytest.raises(ValueError):
            SimilarityIndex(1.5)

    def test_threshold_one_is_exact_duplicate_lookup(self) -> None:
        index = SimilarityIndex.build([(1, 2, 3), (4, 5), (1, 2, 3)], 1.0, backend="numpy")
        assert index.query((1, 2, 3), exclude=0) == [(2, 1.0)]
        assert index.query((4, 5, 6)) == []

    def test_invalid_candidates(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.5, candidates="magic")

    @pytest.mark.parametrize("backend", ["cuda", "python"])
    def test_invalid_backend(self, backend) -> None:
        with pytest.raises(ValueError, match="only backend is 'numpy'"):
            SimilarityIndex(0.5, backend=backend)

    @pytest.mark.parametrize("option", ["workers", "executor", "batch_size"])
    def test_parallel_query_options_are_gone(self, option) -> None:
        # Queries run serially in fixed chunks; there is no pool to configure.
        with pytest.raises(TypeError, match=option):
            SimilarityIndex(0.5, **{option: 2})

    def test_empty_record_rejected(self) -> None:
        index = SimilarityIndex(0.5)
        with pytest.raises(ValueError):
            index.insert([])
        index.insert([1, 2, 3])
        with pytest.raises(ValueError):
            index.query([])

    def test_exact_mode_disables_sketches_by_default(self) -> None:
        assert SimilarityIndex(0.5).use_sketches is False
        assert SimilarityIndex(0.5, candidates="lsh").use_sketches is True
        assert SimilarityIndex(0.5, use_sketches=True).use_sketches is True


class TestBasicSemantics:
    def test_out_of_range_token_rejected_before_any_mutation(self) -> None:
        # int64 is the token storage; an oversized token must fail the
        # insert atomically (no record id consumed, no half-grown CSR).
        index = SimilarityIndex(0.5, backend="numpy")
        index.insert((1, 2, 3))
        for bad in ((2**70,), (1, 2, 2**63), (-(2**63) - 1, 5)):
            with pytest.raises(ValueError, match="64-bit"):
                index.insert(bad)
            with pytest.raises(ValueError, match="64-bit"):
                index.query(bad)
        assert len(index) == 1
        assert index.insert((4, 5, 6)) == 1  # ids still contiguous
        assert index.query((1, 2, 3))[0] == (0, 1.0)

    def test_insert_returns_sequential_ids(self) -> None:
        index = SimilarityIndex(0.5)
        assert index.insert([1, 2, 3]) == 0
        assert index.insert([4, 5, 6]) == 1
        assert len(index) == 2
        assert index.record(0) == (1, 2, 3)

    def test_record_normalization(self) -> None:
        index = SimilarityIndex(0.5)
        index.insert([3, 1, 2, 2, 3])
        assert index.record(0) == (1, 2, 3)

    def test_query_finds_similar_records(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        matches = index.query((1, 2, 3, 4), exclude=0)
        ids = [record_id for record_id, _ in matches]
        assert ids == [4, 1]  # (0,4)=0.8 before (0,1)=0.6
        similarities = [similarity for _, similarity in matches]
        assert similarities == sorted(similarities, reverse=True)

    def test_query_without_exclude_reports_self(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        matches = index.query((1, 2, 3, 4))
        assert matches[0] == (0, 1.0)

    def test_exclude_ids_validated(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        with pytest.raises(ValueError):
            index.query_batch(tiny_records, exclude_ids=[0])

    @pytest.mark.parametrize("mode", MODES)
    def test_query_chunks_do_not_change_results(self, random_records, mode, monkeypatch) -> None:
        index = SimilarityIndex.build(random_records, 0.5, candidates=mode, seed=5)
        expected = index.query_batch(random_records[:40])
        monkeypatch.setattr(similarity_index_module, "QUERY_CHUNK_SIZE", 7)
        assert index.query_batch(random_records[:40]) == expected

    def test_stats_accumulate(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        index.query_batch(tiny_records)
        stats = index.stats
        assert stats.index_build_seconds > 0.0
        assert stats.extra["queries"] == len(tiny_records)
        assert stats.pre_candidates >= stats.candidates
        assert stats.candidates == stats.verified


class TestExactEquivalence:
    def test_self_join_matches_allpairs(self, random_records) -> None:
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        index = SimilarityIndex.build(random_records, 0.5)
        assert index.self_join_pairs() == truth

    def test_threshold_one_self_join_matches_allpairs(self, random_records) -> None:
        # λ = 1: only exact duplicates qualify.  Plant duplicate groups of
        # several sizes; the exact index must report every pair among them.
        records = list(random_records[:80])
        records += [records[3]] * 4 + [records[10]] * 2 + [records[-1]]
        truth = similarity_join(records, 1.0, algorithm="allpairs").pairs
        assert len(truth) == 10 + 3 + 1
        assert SimilarityIndex.build(records, 1.0).self_join_pairs() == truth

    def test_incremental_build_equals_bulk_build(self, random_records) -> None:
        bulk = SimilarityIndex.build(random_records, 0.5, seed=9)
        incremental = SimilarityIndex.build(random_records[:100], 0.5, seed=9)
        for record in random_records[100:]:
            incremental.insert(record)
        assert incremental.self_join_pairs() == bulk.self_join_pairs()
        assert incremental.query_batch(random_records[:30]) == bulk.query_batch(random_records[:30])

    @pytest.mark.parametrize("mode", MODES)
    def test_interleaved_inserts_match_fresh_build(self, random_records, mode) -> None:
        # The serving contract: querying, then inserting N records, then
        # querying again must answer exactly like a fresh build over the
        # grown collection, with the same candidate work per query.
        base, extra = random_records[:200], random_records[200:]
        queries = random_records[:60] + extra
        grown = SimilarityIndex.build(base, 0.5, candidates=mode, seed=9)
        for position, record in enumerate(extra):
            grown.query(extra[-1 - position])  # for the first half, a record inserted later
            grown.insert(record)
        fresh = SimilarityIndex.build(list(base) + list(extra), 0.5, candidates=mode, seed=9)
        for query in queries:
            before = (grown.stats.pre_candidates, fresh.stats.pre_candidates)
            assert grown.query(query) == fresh.query(query)
            assert grown.stats.pre_candidates - before[0] == fresh.stats.pre_candidates - before[1]

    def test_queries_against_grown_index(self, random_records) -> None:
        split = 150
        index = SimilarityIndex.build(random_records[:split], 0.5, backend="numpy")
        streamed = set()
        for record in random_records[split:]:
            for match_id, _ in index.query(record):
                streamed.add(canonical_pair(len(index), match_id))
            index.insert(record)
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        expected = {pair for pair in truth if pair[1] >= split}
        assert streamed == expected


class TestApproximateModes:
    @pytest.mark.parametrize("mode", ["chosenpath", "lsh"])
    def test_subset_of_exact_with_high_recall(self, random_records, mode) -> None:
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        index = SimilarityIndex.build(random_records, 0.5, candidates=mode, seed=3)
        pairs = index.self_join_pairs()
        assert pairs <= truth
        if truth:
            assert len(pairs) / len(truth) >= 0.8

    def test_sketch_filter_used_in_approximate_modes(self, random_records) -> None:
        index = SimilarityIndex.build(random_records[:50], 0.5, candidates="lsh", seed=3)
        assert index.use_sketches
        index.query(random_records[0])
        assert index.stats.filter_seconds >= 0.0


class TestSketchParity:
    @pytest.mark.parametrize("options", [{"candidates": "lsh"}, {"use_sketches": True}])
    def test_stored_sketches_are_the_joins_sketches(self, random_records, options) -> None:
        """Bulk-built or grown one record at a time, the index stores the join's sketch words."""
        seed = 31
        records = random_records[:60]
        expected = preprocess_collection(
            records, embedding_size=128, sketch_words=8, seed=seed
        ).sketches.words
        bulk = SimilarityIndex.build(records, 0.5, seed=seed, **options)
        grown = SimilarityIndex(0.5, seed=seed, **options)
        for record in records:
            grown.insert(record)
        for index in (bulk, grown):
            assert index._store.sketch_words.dtype == np.uint64
            assert np.array_equal(index._store.sketch_words, expected)

    def test_exact_index_keeps_no_signatures_or_sketches(self, random_records) -> None:
        index = SimilarityIndex.build(random_records, 0.5)
        assert index._store.signature_matrix.size == 0
        assert index._store.sketch_words.size == 0
        assert index._store.num_records == len(random_records)


class TestBlockInserts:
    @pytest.mark.parametrize(
        "mode, use_sketches, bad, message",
        [pytest.param(mode, None, (), "empty record", id=mode) for mode in MODES]
        + [
            # Tokens a hasher cannot take (MinHash: 32-bit keys; the Chosen
            # Path trees: no negatives) are refused before anything is written.
            pytest.param("chosenpath", False, (-1, 5), r"2\*\*32", id="chosenpath-negative"),
            pytest.param("lsh", False, (5, 2**40), r"2\*\*32", id="lsh-64bit"),
            pytest.param("exact", True, (5, 2**40), r"2\*\*32", id="exact-sketches-64bit"),
        ],
    )
    def test_insert_all_is_atomic(self, mode, use_sketches, bad, message) -> None:
        index = SimilarityIndex(0.5, candidates=mode, use_sketches=use_sketches, seed=1)
        index.insert((7, 8, 9))
        with pytest.raises(ValueError, match=message):
            index.insert_all([(1, 2, 3), (4, 5, 6), bad])
        with pytest.raises(ValueError, match=message):
            index.insert(bad)
        assert len(index) == 1
        assert index._store.token_values.tolist() == [7, 8, 9]
        assert index.insert((1, 2, 3)) == 1
        assert index.query((1, 2, 3)) == [(1, 1.0)]

    @pytest.mark.parametrize(
        "mode, use_sketches", [("lsh", False), ("chosenpath", False), ("exact", True)]
    )
    def test_query_batch_checks_every_query_first(self, mode, use_sketches) -> None:
        index = SimilarityIndex.build(
            [(1, 2, 3), (4, 5, 6)], 0.5, candidates=mode, use_sketches=use_sketches, seed=1
        )
        with pytest.raises(ValueError, match=r"query 1 has token 1099511627776, outside \[0, 2\*\*32\)"):
            index.query_batch([(1, 2, 3), (1, 2, 2**40)])
        assert index.stats.pre_candidates == 0  # the good query 0 was not answered either

    def test_exact_index_without_sketches_queries_64_bit_tokens(self) -> None:
        index = SimilarityIndex.build([(1, 2, 2**40), (-7, 3)], 0.5)
        assert index.query_batch([(1, 2, 2**40)]) == [[(0, 1.0)]]

    @pytest.mark.parametrize("mode", MODES)
    def test_build_reports_one_build_not_many_inserts(self, random_records, mode) -> None:
        spans = []
        registry = MetricsRegistry()
        enable_tracing(spans.append)
        enable_metrics(registry)
        try:
            index = SimilarityIndex.build(random_records[:100], 0.5, candidates=mode, seed=2)
            index.insert(random_records[100])
        finally:
            disable_metrics()
            disable_tracing()
        names = [record["name"] for record in spans]
        assert names.count("index.build") == 1
        assert names.count("index.insert") == 1
        snapshot = registry.snapshot()
        assert snapshot["repro_index_build_seconds"]["series"][0]["count"] == 1
        assert snapshot["repro_index_insert_seconds"]["series"][0]["count"] == 1


class TestPersistence:
    def test_pickle_carries_exact_length_arrays(self, random_records) -> None:
        index = SimilarityIndex.build(random_records[:100], 0.5, use_sketches=True, seed=4)
        for record in random_records[100:]:
            index.insert(record)
        store = index._store
        assert any(
            buffer.shape[0] > getattr(store, name).shape[0]
            for name, buffer in store._capacity.items()
        )
        restored = pickle.loads(pickle.dumps(index))
        assert restored._store._capacity == {}
        assert restored._store.token_values.shape == (store.token_offsets[-1],)
        assert restored._store.sketch_words.shape == (len(random_records), 8)
        assert all(buffer.shape[0] == used for buffer, used in restored._postings._lists.values())
        assert restored.query_batch(random_records) == index.query_batch(random_records)

    def test_pickle_roundtrip(self, random_records) -> None:
        index = SimilarityIndex.build(random_records, 0.5, backend="numpy", seed=4)
        restored = pickle.loads(pickle.dumps(index))
        assert len(restored) == len(index)
        assert restored.query_batch(random_records[:20]) == index.query_batch(random_records[:20])
        # The restored index keeps growing incrementally.
        new_id = restored.insert(random_records[0])
        matches = restored.query(random_records[0], exclude=new_id)
        assert any(similarity == 1.0 for _, similarity in matches)


class TestStageTimings:
    def test_query_timings_cover_elapsed(self, random_records) -> None:
        import time

        index = SimilarityIndex.build(random_records, 0.5, backend="numpy")
        started = time.perf_counter()
        index.query_batch(random_records)
        elapsed = time.perf_counter() - started
        stats = index.stats
        staged = stats.candidate_seconds + stats.filter_seconds + stats.verify_seconds
        assert 0.0 < staged <= elapsed * 1.05 + 0.05
