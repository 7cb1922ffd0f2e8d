"""Tests for the top-level public API (`repro.similarity_join`)."""

from __future__ import annotations

import pytest

from repro import ALGORITHMS, CPSJoinConfig, similarity_join, similarity_join_rs
from repro.evaluation.metrics import precision, recall
from repro.similarity.measures import jaccard_similarity


class TestSimilarityJoin:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_on_tiny_example(self, algorithm, tiny_records, tiny_truth_05) -> None:
        result = similarity_join(tiny_records, 0.5, algorithm=algorithm, seed=1)
        assert result.pairs == tiny_truth_05

    def test_unknown_algorithm(self, tiny_records) -> None:
        with pytest.raises(ValueError):
            similarity_join(tiny_records, 0.5, algorithm="quantum")

    def test_accepts_unsorted_and_duplicate_tokens(self) -> None:
        records = [[4, 1, 1, 3, 2], [5, 4, 3, 2, 2]]
        result = similarity_join(records, 0.5, algorithm="naive")
        assert result.pairs == {(0, 1)}

    def test_config_passed_to_cpsjoin(self, tiny_records) -> None:
        config = CPSJoinConfig(repetitions=2, seed=3)
        result = similarity_join(tiny_records, 0.5, algorithm="cpsjoin", config=config)
        assert result.stats.repetitions == 2

    def test_seed_applied_when_config_has_none(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:80]
        config = CPSJoinConfig(repetitions=2)
        first = similarity_join(records, 0.5, algorithm="cpsjoin", config=config, seed=9)
        second = similarity_join(records, 0.5, algorithm="cpsjoin", config=config, seed=9)
        assert first.pairs == second.pairs

    def test_explicit_seed_wins_over_config_seed(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:80]
        with_config_seed = similarity_join(
            records, 0.5, config=CPSJoinConfig(repetitions=2, seed=1), seed=2
        )
        with_explicit_seed = similarity_join(records, 0.5, config=CPSJoinConfig(repetitions=2), seed=2)
        baseline = similarity_join(records, 0.5, config=CPSJoinConfig(repetitions=2, seed=2))
        # Both precedence orders resolve to seed 2: explicit argument first...
        assert with_config_seed.pairs == baseline.pairs
        assert with_config_seed.stats.pre_candidates == baseline.stats.pre_candidates
        # ...and a config without a seed inherits the explicit argument.
        assert with_explicit_seed.pairs == baseline.pairs

    def test_config_seed_used_when_no_explicit_seed(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:80]
        from_config = similarity_join(records, 0.5, config=CPSJoinConfig(repetitions=2, seed=7))
        baseline = similarity_join(records, 0.5, config=CPSJoinConfig(repetitions=2), seed=7)
        assert from_config.pairs == baseline.pairs

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_record_rejected_uniformly(self, algorithm) -> None:
        records = [[1, 2, 3], [], [4, 5, 6]]
        with pytest.raises(ValueError, match="record 1 is empty"):
            similarity_join(records, 0.5, algorithm=algorithm, seed=0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_record_rejected_in_rs_join(self, algorithm) -> None:
        with pytest.raises(ValueError, match="left record 0 is empty"):
            similarity_join_rs([[]], [[1, 2]], 0.5, algorithm=algorithm, seed=0)
        with pytest.raises(ValueError, match="right record 1 is empty"):
            similarity_join_rs([[1, 2]], [[3, 4], []], 0.5, algorithm=algorithm, seed=0)

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash", "bayeslsh"])
    @pytest.mark.parametrize("token", [2**32, -3, 2**70])
    def test_unhashable_token_rejected_by_hashing_joins(self, algorithm, token) -> None:
        # MinHash and the sketches hash 32-bit keys: refused before hashing,
        # naming the record and the token, never an untyped OverflowError.
        message = rf"record 1 has token {token}, outside \[0, 2\*\*32\)"
        with pytest.raises(ValueError, match=message):
            similarity_join([(1, 2, 3), (1, 2, token)], 0.5, algorithm=algorithm, seed=0)
        # R ⋈ S names the offender by its index on its own side.
        with pytest.raises(ValueError, match=rf"^right record 0 has token {token},"):
            similarity_join_rs([(1, 2, 3)], [(1, 2, token)], 0.5, algorithm=algorithm, seed=0)
        with pytest.raises(ValueError, match=rf"^left record 1 has token {token},"):
            similarity_join_rs([(1, 2, 3), (4, token)], [(1, 2)], 0.5, algorithm=algorithm, seed=0)

    @pytest.mark.parametrize("algorithm", ["allpairs", "ppjoin", "naive"])
    def test_exact_joins_take_64_bit_tokens(self, algorithm) -> None:
        records = [(1, 2, 2**40), (1, 2, 2**40), (-5, 3)]
        assert similarity_join(records, 0.5, algorithm=algorithm).pairs == {(0, 1)}

    def test_exact_and_approximate_consistent(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        exact = similarity_join(records, 0.6, algorithm="allpairs")
        approx = similarity_join(records, 0.6, algorithm="cpsjoin", seed=4)
        assert precision(approx.pairs, exact.pairs) == 1.0
        assert recall(approx.pairs, exact.pairs) >= 0.9


class TestSimilarityJoinRS:
    def test_cross_join_only_reports_cross_pairs(self) -> None:
        left = [[1, 2, 3, 4], [10, 11, 12]]
        right = [[1, 2, 3, 5], [10, 11, 12], [20, 21]]
        result = similarity_join_rs(left, right, 0.5, algorithm="naive")
        assert result.pairs == {(0, 0), (1, 1)}

    def test_pairs_within_one_side_excluded(self) -> None:
        left = [[1, 2, 3], [1, 2, 3]]
        right = [[50, 60]]
        result = similarity_join_rs(left, right, 0.5, algorithm="naive")
        assert result.pairs == set()

    def test_indices_refer_to_input_collections(self) -> None:
        left = [[1, 2, 3, 4]]
        right = [[99, 100], [1, 2, 3, 4, 5]]
        result = similarity_join_rs(left, right, 0.5, algorithm="allpairs")
        assert result.pairs == {(0, 1)}
        for left_index, right_index in result.pairs:
            assert jaccard_similarity(left[left_index], right[right_index]) >= 0.5

    def test_cpsjoin_rs_join(self, uniform_dataset) -> None:
        records = uniform_dataset.records
        left, right = records[:100], records[100:200]
        exact = similarity_join_rs(left, right, 0.5, algorithm="allpairs")
        approx = similarity_join_rs(left, right, 0.5, algorithm="cpsjoin", seed=5)
        assert precision(approx.pairs, exact.pairs) == 1.0
        assert recall(approx.pairs, exact.pairs) >= 0.85

    def test_stats_report_cross_result_count(self) -> None:
        left = [[1, 2, 3]]
        right = [[1, 2, 3]]
        result = similarity_join_rs(left, right, 0.9, algorithm="naive")
        assert result.stats.results == 1
