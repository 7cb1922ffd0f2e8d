"""Unit tests for the execution-backend kernels.

The backend's segmented kernels (row expansion, filter, packed-key
verification) are checked directly against the scalar oracle backend of
``tests/oracles`` on randomized inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import ScalarBackend
from oracles.estimator import scalar_average_similarity_sampled

from repro.backend import ExecutionBackend, check_backend, make_backend
from repro.core.preprocess import preprocess_collection
from repro.engine import SubsetCandidates
from repro.engine.engine import row_chunks, task_rows
from repro.result import canonical_pair
from repro.similarity.measures import get_measure, jaccard_similarity
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


def _random_pairs(collection, rng, count):
    firsts = rng.integers(0, collection.num_records, size=count)
    offsets = 1 + rng.integers(0, collection.num_records - 1, size=count)
    return firsts.astype(np.intp), ((firsts + offsets) % collection.num_records).astype(np.intp)


class TestVerifyKernels:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9])
    def test_verify_pairs_matches_reference(self, collection, threshold) -> None:
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        rng = np.random.default_rng(11)
        for _ in range(25):
            firsts, seconds = _random_pairs(collection, rng, int(rng.integers(1, 40)))
            expected = scalar_backend.verify_pairs(firsts, seconds)
            actual = numpy_backend.verify_pairs(firsts, seconds)
            np.testing.assert_array_equal(actual, expected)

    def test_verify_agrees_with_true_jaccard(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.5)
        rng = np.random.default_rng(13)
        for _ in range(50):
            first, second = rng.choice(collection.num_records, size=2, replace=False)
            mask = backend.verify_pairs(np.array([first]), np.array([second]))
            truth = jaccard_similarity(collection.records[first], collection.records[second]) >= 0.5
            assert bool(mask[0]) == truth

    def test_verify_pairs_in_any_order(self, collection) -> None:
        # Unsorted firsts with repeats on both sides: the packed keys are
        # per pair, so no grouping by record is needed.
        backend = ExecutionBackend(collection, 0.4)
        firsts, seconds = _random_pairs(collection, np.random.default_rng(17), 200)
        mask = backend.verify_pairs(firsts, seconds)
        for first, second, accepted in zip(firsts, seconds, mask):
            expected, _ = verify_pair_sorted(
                collection.records[first], collection.records[second], 0.4
            )
            assert bool(accepted) == expected

    def test_verify_pairs_of_identical_records(self, collection) -> None:
        backend = ExecutionBackend(collection, 1.0)
        ids = np.arange(10, dtype=np.intp)
        assert backend.verify_pairs(ids, ids).all()
        assert backend.verify_pairs(ids[:0], ids[:0]).size == 0

    @pytest.mark.parametrize("name", ["jaccard", "cosine", "dice", "braun_blanquet"])
    def test_weighted_accept_masks_match_per_pair_oracle(self, name) -> None:
        # Non-dyadic weights: their sums depend on the summation order, so
        # only a kernel summing each pair's matched weights in token order,
        # like the scalar merge, matches the oracle's masks.
        rng = np.random.default_rng(23)
        records = [
            tuple(sorted(rng.choice(14, size=int(rng.integers(4, 10)), replace=False).tolist()))
            for _ in range(80)
        ]
        weights = {token: 0.1 + float(rng.random()) * 2.9 for token in range(0, 14, 2)}
        collection = preprocess_collection(records, seed=3)
        measure = get_measure(name, weights=weights)
        firsts, seconds = np.triu_indices(len(records), k=1)
        for threshold in (0.3, 0.5, 0.7):
            scalar = ScalarBackend(collection, threshold, measure).verify_pairs(firsts, seconds)
            actual = ExecutionBackend(collection, threshold, measure).verify_pairs(firsts, seconds)
            np.testing.assert_array_equal(actual, scalar)
            assert 0 < scalar.sum() < scalar.size


def _all_pairs(backend, subset, use_sketches, cutoff, budget=None):
    """Filter and verify every pair within ``subset`` through the row kernels."""
    ids, anchors, starts, lengths = task_rows([SubsetCandidates(tuple(subset))])
    chunks = row_chunks(lengths, budget) if budget else [slice(None)]
    pre_candidates, verified, accepted = 0, 0, set()
    for rows in chunks:
        pre, firsts, seconds = backend.filter_rows(
            ids, anchors[rows], starts[rows], lengths[rows], use_sketches, cutoff
        )
        mask = backend.verify_pairs(firsts, seconds)
        pre_candidates += pre
        verified += int(firsts.size)
        accepted |= {canonical_pair(int(a), int(b)) for a, b in zip(firsts[mask], seconds[mask])}
    return pre_candidates, verified, accepted


class TestRowKernels:
    @pytest.mark.parametrize("use_sketches", [True, False])
    @pytest.mark.parametrize("subset_size", [2, 3, 7, 12, 13, 40, 120])
    # 0.0 is an estimate random pairs reach exactly (distance num_bits / 2),
    # so it pins the ">= cut-off" comparison at the boundary.
    @pytest.mark.parametrize("cutoff", [0.3, 0.0])
    def test_all_pairs_matches_reference(self, collection, use_sketches, subset_size, cutoff) -> None:
        threshold = 0.5
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        rng = np.random.default_rng(subset_size)
        subset = rng.choice(collection.num_records, size=subset_size, replace=False).tolist()
        expected = _all_pairs(scalar_backend, subset, use_sketches, cutoff)
        actual = _all_pairs(numpy_backend, subset, use_sketches, cutoff)
        assert actual == expected  # (pre_candidates, verified, accepted pairs)

    @pytest.mark.parametrize("budget", [1, 16, 100])
    def test_chunked_rows_match_reference(self, collection, budget) -> None:
        threshold = 0.5
        scalar_backend = ScalarBackend(collection, threshold)
        numpy_backend = ExecutionBackend(collection, threshold)
        subset = list(range(30))
        expected = _all_pairs(scalar_backend, subset, True, 0.3)
        assert _all_pairs(numpy_backend, subset, True, 0.3, budget) == expected
        assert expected[0] == 30 * 29 // 2

    def test_trivial_subsets(self, collection) -> None:
        backend = ExecutionBackend(collection, 0.5)
        assert _all_pairs(backend, [], True, 0.3) == (0, 0, set())
        assert _all_pairs(backend, [4], True, 0.3) == (0, 0, set())


class TestSampledEstimator:
    @pytest.fixture(scope="class", params=[1, 8, 40], ids=["l1", "l8", "l40"])
    def estimated(self, request):
        # 2,500 records: the whole collection spans three lookup blocks.
        # ℓ = 40 needs table keys wider than uint16.
        rng = np.random.default_rng(11)
        records = [
            tuple(rng.choice(400, size=int(rng.integers(1, 30)), replace=False).tolist())
            for _ in range(2500)
        ]
        return preprocess_collection(records, sketch_words=request.param, seed=5)

    @pytest.mark.parametrize("size", [2, 63, 64, 300, 626, 1500, 2500])
    def test_matches_scalar_oracle_bit_for_bit(self, estimated, size) -> None:
        # Sizes from a pair through the sample size to at least n/4 and the
        # whole collection; the subset is unsorted, like the walk's.
        subset = np.random.default_rng(size).permutation(estimated.num_records)[:size]
        backend = make_backend(None, estimated, 0.5)
        for seed in range(3):
            got = backend.average_similarity_sampled(subset, 64, np.random.default_rng(seed))
            expected = scalar_average_similarity_sampled(
                estimated, subset, 64, np.random.default_rng(seed)
            )
            assert got.tobytes() == expected.tobytes()


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
