"""R ⋈ S correctness: the native side-aware path against its two references.

The native path must match, pair for pair:

* a naive cross-join of the two collections (the exact ground truth — the
  randomized algorithms are run at seeds where they reach full recall, which
  is deterministic for a fixed seed), and
* the cross-side pairs of a union self-join ``similarity_join(R + S)`` at the
  same seed: the side labels change which comparisons are *executed*, not
  the tree walk or its randomness.

Both properties are checked for worker counts 1 and 4, on randomized
collections with duplicate records planted on both sides (the adversarial
case for index mapping: identical token sets under different indices and
sides).
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np
import pytest

from repro.join import NATIVE_RS_ALGORITHMS, similarity_join, similarity_join_rs
from repro.similarity.measures import jaccard_similarity

THRESHOLD = 0.5


def _random_collections(seed: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Two random collections with a block of duplicates planted on both sides."""
    rng = np.random.default_rng(seed)
    def record() -> List[int]:
        return sorted(rng.choice(60, size=int(rng.integers(3, 9)), replace=False).tolist())

    left = [record() for _ in range(70)]
    right = [record() for _ in range(60)]
    # Duplicates spanning the two sides, plus duplicates *within* each side
    # (same-side similar pairs are what the native path must skip).
    left += right[:6]
    right += left[:6]
    left += left[3:6]
    right += right[2:4]
    return left, right


def _naive_cross_join(
    left: List[List[int]], right: List[List[int]], threshold: float
) -> Set[Tuple[int, int]]:
    return {
        (i, j)
        for i, left_record in enumerate(left)
        for j, right_record in enumerate(right)
        if jaccard_similarity(left_record, right_record) >= threshold
    }


def _union_self_join(left, right, algorithm: str, seed: int, workers: int = 1):
    """Self-join of ``R ∪ S`` at the same seed, plus its cross-side pairs."""
    union = similarity_join(left + right, THRESHOLD, algorithm=algorithm, seed=seed, workers=workers)
    split = len(left)
    cross = {(low, high - split) for low, high in union.pairs if low < split <= high}
    return union, cross


class TestNativeMatchesReferences:
    @pytest.mark.parametrize("data_seed", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_cpsjoin_native_matches_naive_and_union(self, data_seed, workers) -> None:
        left, right = _random_collections(data_seed)
        truth = _naive_cross_join(left, right, THRESHOLD)
        native = similarity_join_rs(
            left, right, THRESHOLD, algorithm="cpsjoin", seed=17, workers=workers
        )
        _, union_cross = _union_self_join(left, right, "cpsjoin", seed=17, workers=workers)
        assert native.pairs == union_cross
        assert native.pairs == truth

    @pytest.mark.parametrize("algorithm", ["minhash", "bayeslsh"])
    def test_baselines_native_matches_naive_and_union(self, algorithm) -> None:
        left, right = _random_collections(4)
        truth = _naive_cross_join(left, right, THRESHOLD)
        native = similarity_join_rs(left, right, THRESHOLD, algorithm=algorithm, seed=23)
        _, union_cross = _union_self_join(left, right, algorithm, seed=23)
        assert native.pairs == union_cross
        assert native.pairs == truth


class TestWorkersBitIdentical:
    @pytest.mark.parametrize("data_seed", [5, 6])
    def test_pair_sets_identical_across_workers(self, data_seed) -> None:
        left, right = _random_collections(data_seed)
        results = [
            similarity_join_rs(
                left, right, THRESHOLD, algorithm="cpsjoin", seed=31, workers=workers
            ).pairs
            for workers in (1, 4)
        ]
        assert results[0] == results[1]


class TestHonestStatistics:
    @pytest.mark.parametrize("algorithm", NATIVE_RS_ALGORITHMS)
    def test_native_counts_only_cross_side_work(self, algorithm) -> None:
        left, right = _random_collections(7)
        native = similarity_join_rs(left, right, THRESHOLD, algorithm=algorithm, seed=13)
        union, _ = _union_self_join(left, right, algorithm, seed=13)
        assert native.stats.extra["rs_native"] == 1.0
        assert native.stats.extra["same_side_verified"] == 0.0
        # Same-side pairs never enter the pipeline, so every counter shrinks.
        assert native.stats.pre_candidates < union.stats.pre_candidates
        assert native.stats.verified <= union.stats.verified
        assert native.stats.candidates <= union.stats.candidates
        # The planted same-side duplicates guarantee the union self-join
        # verifies same-side pairs the native path skips entirely.
        assert native.stats.verified < union.stats.verified

    def test_results_counter_matches_cross_pairs(self) -> None:
        left, right = _random_collections(8)
        native = similarity_join_rs(left, right, THRESHOLD, algorithm="cpsjoin", seed=3)
        assert native.stats.results == len(native.pairs)
        assert native.stats.num_records == len(left) + len(right)


class TestEdgeCases:
    def test_empty_left_side_yields_no_pairs(self) -> None:
        result = similarity_join_rs([], [[1, 2, 3], [4, 5, 6]], 0.5, algorithm="cpsjoin", seed=1)
        assert result.pairs == set()
        assert result.stats.verified == 0

    def test_empty_right_side_yields_no_pairs(self) -> None:
        result = similarity_join_rs([[1, 2, 3]], [], 0.5, algorithm="cpsjoin", seed=1)
        assert result.pairs == set()

    def test_identical_collections(self) -> None:
        records = [[1, 2, 3, 4], [10, 11, 12], [20, 21, 22]]
        result = similarity_join_rs(records, records, 0.9, algorithm="cpsjoin", seed=2)
        assert result.pairs == {(0, 0), (1, 1), (2, 2)}

    def test_exact_algorithms_use_union_self_join(self) -> None:
        left, right = _random_collections(9)
        truth = _naive_cross_join(left, right, THRESHOLD)
        for algorithm in ("naive", "allpairs", "ppjoin"):
            result = similarity_join_rs(left, right, THRESHOLD, algorithm=algorithm)
            assert result.pairs == truth
            assert result.stats.extra["rs_native"] == 0.0
