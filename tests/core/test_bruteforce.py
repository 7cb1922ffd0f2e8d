"""Tests for the BRUTEFORCE subroutines (Algorithm 2).

BRUTEFORCEPAIRS and BRUTEFORCEPOINT run as engine tasks
(:class:`SubsetCandidates`, :class:`PointCandidates`); :class:`BruteForcer`
is the adaptive rule's average-similarity estimator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import BruteForcer
from repro.core.preprocess import preprocess_collection
from repro.engine import CandidateStage, JoinEngine, PointCandidates, SubsetCandidates
from repro.exact.naive import naive_join
from repro.result import JoinStats


def make_brute_forcer(records, threshold=0.5, seed=0):
    collection = preprocess_collection(records, seed=seed)
    forcer = BruteForcer(collection, threshold, rng=np.random.default_rng(seed))
    return collection, forcer


class _ListStage(CandidateStage):
    def __init__(self, task_list):
        self.task_list = task_list

    def tasks(self):
        yield from self.task_list


def brute_force(records, tasks, threshold=0.5, use_sketches=True, seed=0):
    """Run BRUTEFORCEPAIRS / BRUTEFORCEPOINT tasks through the join engine."""
    collection = preprocess_collection(records, seed=seed)
    stats = JoinStats(threshold=threshold, num_records=len(records))
    engine = JoinEngine(collection, threshold, use_sketches=use_sketches)
    return engine.execute(_ListStage(tasks), stats), stats


class TestBruteForcePairs:
    def test_finds_exact_join_without_sketches(self, tiny_records, tiny_truth_05) -> None:
        subset = SubsetCandidates(tuple(range(len(tiny_records))))
        output, _ = brute_force(tiny_records, [subset], use_sketches=False)
        assert output == tiny_truth_05

    def test_with_sketches_high_recall_perfect_precision(self, uniform_dataset) -> None:
        records = uniform_dataset.records
        truth = naive_join(records, 0.5).pairs
        assert truth, "fixture must contain qualifying pairs"
        output, _ = brute_force(records, [SubsetCandidates(tuple(range(len(records))))])
        assert output <= truth  # precision 1.0 by construction
        assert len(output & truth) / len(truth) >= 0.9

    def test_empty_and_singleton_subsets(self, tiny_records) -> None:
        output, stats = brute_force(tiny_records, [SubsetCandidates(()), SubsetCandidates((2,))])
        assert output == set()
        assert stats.pre_candidates == 0


class TestBruteForcePoint:
    def test_reports_pairs_involving_the_point(self, tiny_records) -> None:
        others = tuple(range(1, len(tiny_records)))
        output, _ = brute_force(tiny_records, [PointCandidates(0, others)], use_sketches=False)
        assert output == {(0, 1), (0, 4)}

    def test_point_without_others_compares_nothing(self, tiny_records) -> None:
        output, stats = brute_force(tiny_records, [PointCandidates(0, ())], use_sketches=False)
        assert output == set()
        assert stats.pre_candidates == 0

    def test_size_filter_skips_incompatible_pairs(self) -> None:
        # Record 0 has 2 tokens, record 1 has 40: their Jaccard cannot reach 0.5,
        # so no exact verification should happen for the pair.
        records = [(1, 2), tuple(range(100, 140))]
        _, stats = brute_force(records, [PointCandidates(0, (1,))], use_sketches=False)
        assert stats.pre_candidates == 1
        assert stats.verified == 0


class TestStatisticsCounting:
    def test_pre_candidates_count_every_considered_pair(self, tiny_records) -> None:
        subset = SubsetCandidates(tuple(range(len(tiny_records))))
        _, stats = brute_force(tiny_records, [subset], use_sketches=False)
        n = len(tiny_records)
        assert stats.pre_candidates == n * (n - 1) // 2
        assert stats.candidates <= stats.pre_candidates
        assert stats.verified == stats.candidates

    def test_sketch_filter_reduces_candidates(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        subset = [SubsetCandidates(tuple(range(len(records))))]
        _, stats_with = brute_force(records, subset, use_sketches=True)
        _, stats_without = brute_force(records, subset, use_sketches=False)
        assert stats_with.candidates < stats_without.candidates


class TestAverageSimilarities:
    def test_exact_method_matches_definition(self) -> None:
        # Verify the token-count implementation against a direct computation
        # of the average Braun–Blanquet similarity over the embedded sets.
        records = [(1, 2, 3, 4), (2, 3, 4, 5), (100, 200, 300, 400)]
        collection, forcer = make_brute_forcer(records)
        subset = [0, 1, 2]
        averages = forcer.average_similarities(subset, method="tokens")

        matrix = collection.signatures.matrix
        expected = []
        for i in subset:
            total = 0.0
            for j in subset:
                if i == j:
                    continue
                total += np.count_nonzero(matrix[i] == matrix[j]) / matrix.shape[1]
            expected.append(total / (len(subset) - 1))
        assert np.allclose(averages, expected)

    def test_sampled_method_close_to_exact(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:120]
        _, forcer = make_brute_forcer(records, seed=5)
        subset = list(range(len(records)))
        exact = forcer.average_similarities(subset, method="tokens")
        sampled = forcer.average_similarities(subset, method="sketches", sample_size=64)
        # Both estimate the same quantity; on average they should agree within
        # a modest tolerance.
        assert abs(float(np.mean(exact)) - float(np.mean(sampled))) < 0.12

    def test_high_similarity_records_detected(self) -> None:
        # A cluster of near-identical records plus a few distant ones: the
        # cluster members must have much higher average similarity.
        cluster = [tuple(range(0, 30)), tuple(range(0, 29)) + (40,), tuple(range(1, 31))]
        noise = [tuple(range(100 * i, 100 * i + 30)) for i in range(2, 6)]
        records = cluster + noise
        _, forcer = make_brute_forcer(records, seed=3)
        averages = forcer.average_similarities(list(range(len(records))), method="tokens")
        assert min(averages[:3]) > max(averages[3:])

    def test_small_subsets_return_zero(self, tiny_records) -> None:
        _, forcer = make_brute_forcer(tiny_records)
        assert forcer.average_similarities([0]).tolist() == [0.0]
        assert forcer.average_similarities([]).tolist() == []

    def test_unknown_method_rejected(self, tiny_records) -> None:
        _, forcer = make_brute_forcer(tiny_records)
        with pytest.raises(ValueError):
            forcer.average_similarities([0, 1], method="bogus")


class TestValidation:
    def test_invalid_threshold(self, tiny_records) -> None:
        collection = preprocess_collection(tiny_records, seed=0)
        with pytest.raises(ValueError):
            BruteForcer(collection, 0.0)
