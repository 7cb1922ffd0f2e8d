"""Unit tests for the execution-backend kernels.

The backend's vectorized kernels (packed-token verification, block
all-pairs, grouped pair verification) are checked directly against the
scalar oracle backend of ``tests/oracles`` on randomized inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import ScalarBackend

from repro.backend import ExecutionBackend, check_backend, make_backend
from repro.core.preprocess import preprocess_collection
from repro.similarity.measures import jaccard_similarity
from repro.similarity.verify import verify_pair_sorted


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(7)
    records = []
    for _ in range(120):
        size = int(rng.integers(2, 25))
        records.append(tuple(sorted(rng.choice(300, size=size, replace=False).tolist())))
    return preprocess_collection(records, seed=3)


class TestMakeBackend:
    def test_make_backend_resolves_numpy_and_none(self, collection) -> None:
        assert type(make_backend("numpy", collection, 0.5)) is ExecutionBackend
        assert type(make_backend(None, collection, 0.5)) is ExecutionBackend
        assert check_backend(None) == check_backend("NumPy") == "numpy"

    def test_make_backend_passes_instances_through(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.5)
        assert make_backend(backend, collection, 0.5) is backend

    @pytest.mark.parametrize("name", ["fortran", "python"])
    def test_other_backends_rejected_naming_the_one_choice(self, collection, name) -> None:
        with pytest.raises(ValueError, match="only backend is 'numpy'"):
            make_backend(name, collection, 0.5)

    def test_invalid_threshold_rejected(self, collection) -> None:
        with pytest.raises(ValueError):
            ExecutionBackend(collection, 0.0)


class TestPackedTokens:
    def test_packing_round_trips(self, collection) -> None:
        values, offsets = collection.packed_tokens()
        assert offsets[0] == 0
        assert offsets[-1] == values.size
        for index, record in enumerate(collection.records):
            segment = values[offsets[index] : offsets[index + 1]]
            assert segment.tolist() == list(record)

    def test_packing_is_cached(self, collection) -> None:
        assert collection.packed_tokens()[0] is collection.packed_tokens()[0]

    def test_sketch_bigints_match_words(self, collection) -> None:
        bigints = collection.sketch_bigints()
        words = collection.sketches.words
        for index in range(collection.num_records):
            expected = sum(int(word) << (64 * w) for w, word in enumerate(words[index]))
            assert bigints[index] == expected


class TestVerifyKernels:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9])
    def test_verify_one_to_many_matches_reference(self, collection, threshold) -> None:
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        rng = np.random.default_rng(11)
        for _ in range(25):
            record_id = int(rng.integers(0, collection.num_records))
            count = int(rng.integers(1, 40))
            others = rng.choice(collection.num_records, size=count, replace=False)
            others = others[others != record_id]
            if others.size == 0:
                continue
            expected = scalar_backend.verify_one_to_many(record_id, others)
            actual = numpy_backend.verify_one_to_many(record_id, others)
            np.testing.assert_array_equal(actual, expected)

    def test_verify_agrees_with_true_jaccard(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.5)
        rng = np.random.default_rng(13)
        for _ in range(50):
            first, second = rng.choice(collection.num_records, size=2, replace=False)
            mask = backend.verify_one_to_many(int(first), np.array([int(second)]))
            truth = jaccard_similarity(collection.records[first], collection.records[second]) >= 0.5
            assert bool(mask[0]) == truth

    def test_verify_pairs_grouping(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.4)
        rng = np.random.default_rng(17)
        firsts = rng.integers(0, collection.num_records, size=200)
        seconds = (firsts + 1 + rng.integers(0, collection.num_records - 1, size=200)) % collection.num_records
        mask = backend.verify_pairs(firsts, seconds)
        for first, second, accepted in zip(firsts, seconds, mask):
            expected, _ = verify_pair_sorted(
                collection.records[first], collection.records[second], 0.4
            )
            assert bool(accepted) == expected


class TestAllPairsKernels:
    @pytest.mark.parametrize("use_sketches", [True, False])
    @pytest.mark.parametrize("subset_size", [2, 3, 7, 12, 13, 40, 120])
    # 0.0 is an estimate random pairs reach exactly (distance num_bits / 2),
    # so it pins the ">= cut-off" comparison at the boundary.
    @pytest.mark.parametrize("cutoff", [0.3, 0.0])
    def test_all_pairs_matches_reference(self, collection, use_sketches, subset_size, cutoff) -> None:
        # Sizes straddle SMALL_ROW_LIMIT (12) to cover the scalar fast path,
        # the block kernel, and the boundary between them.
        threshold = 0.5
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        rng = np.random.default_rng(subset_size)
        subset = rng.choice(collection.num_records, size=subset_size, replace=False).tolist()
        expected = scalar_backend.all_pairs(subset, use_sketches, cutoff)
        actual = numpy_backend.all_pairs(subset, use_sketches, cutoff)
        assert actual == expected  # (pre_candidates, verified, accepted pairs)

    def test_block_fallback_above_row_limit(self, collection, monkeypatch) -> None:
        monkeypatch.setattr(ExecutionBackend, "BLOCK_ROW_LIMIT", 16)
        threshold = 0.5
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        subset = list(range(30))
        assert numpy_backend.all_pairs(subset, True, 0.3) == scalar_backend.all_pairs(subset, True, 0.3)

    def test_trivial_subsets(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.5)
        assert backend.all_pairs([], True, 0.3) == (0, 0, set())
        assert backend.all_pairs([4], True, 0.3) == (0, 0, set())


class TestGroupRowsFirstOccurrence:
    def _reference(self, keys: np.ndarray, min_size: int) -> list:
        groups: dict = {}
        for row, key in enumerate(map(tuple, keys.tolist())):
            groups.setdefault(key, []).append(row)
        return [rows for rows in groups.values() if len(rows) >= min_size]

    def test_matches_insertion_ordered_dict_grouping(self) -> None:
        from repro.backend.kernels import group_rows_first_occurrence

        rng = np.random.default_rng(13)
        for columns in (1, 2, 4):
            keys = rng.integers(0, 5, size=(200, columns))
            for min_size in (1, 2, 3):
                expected = self._reference(keys, min_size)
                got = group_rows_first_occurrence(keys, min_size=min_size)
                assert [group.tolist() for group in got] == expected

    def test_empty_and_degenerate_inputs(self) -> None:
        from repro.backend.kernels import group_rows_first_occurrence

        assert group_rows_first_occurrence(np.zeros((0, 3), dtype=np.int64)) == []
        # Zero columns: every row shares the (empty) key.
        [only] = group_rows_first_occurrence(np.zeros((4, 0), dtype=np.int64), min_size=2)
        assert only.tolist() == [0, 1, 2, 3]
        assert group_rows_first_occurrence(np.zeros((1, 0), dtype=np.int64), min_size=2) == []
        with pytest.raises(ValueError):
            group_rows_first_occurrence(np.zeros(5, dtype=np.int64))
