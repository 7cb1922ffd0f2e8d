"""Tests for the Chosen Path and MinHash LSH candidate structures.

The structures hold record ids only; their parameter checks and analytic
bounds are tested directly, and their end-to-end behaviour (precision,
recall, duplicates) through ``SimilarityIndex(candidates="chosenpath"|"lsh")``,
which owns the records and verifies the candidates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import SimilarityIndex
from repro.index.chosen_path import ChosenPathIndex
from repro.index.minhash_lsh import MinHashLSHIndex
from repro.similarity.measures import jaccard_similarity


def build_reference_collection():
    """A reference collection with known near-duplicates of the query records."""
    rng = np.random.default_rng(5)
    base_records = [tuple(sorted(rng.choice(500, size=20, replace=False).tolist())) for _ in range(80)]
    # Near-duplicates of the first three records (high similarity).
    duplicates = []
    for index in range(3):
        base = list(base_records[index])
        duplicate = tuple(sorted(base[:-3] + [600 + index, 700 + index, 800 + index]))
        duplicates.append(duplicate)
    return base_records, duplicates


def lsh_index(seed: int, **options) -> SimilarityIndex:
    return SimilarityIndex(0.5, candidates="lsh", use_sketches=False, seed=seed, **options)


def chosen_path_index(seed: int, depth: int = 3, repetitions: int = 12) -> SimilarityIndex:
    return SimilarityIndex(
        0.5,
        candidates="chosenpath",
        use_sketches=False,
        seed=seed,
        chosen_path_depth=depth,
        chosen_path_repetitions=repetitions,
    )


class TestMinHashLSHIndex:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            MinHashLSHIndex(0.0)
        with pytest.raises(ValueError):
            MinHashLSHIndex(0.5, bands=0)

    def test_insert_stores_the_given_id(self) -> None:
        structure = MinHashLSHIndex(0.5, seed=1)
        structure.insert(7, (1, 2, 3))
        structure.insert(9, (4, 5, 6))
        assert structure.candidates((1, 2, 3)) == {7}

    def test_empty_record_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty record"):
            lsh_index(seed=1).insert([])

    def test_exact_duplicate_always_found(self) -> None:
        index = lsh_index(seed=2)
        index.insert([7, 8, 9, 10])
        results = index.query([7, 8, 9, 10])
        assert results and results[0] == (0, 1.0)

    def test_query_finds_near_duplicates_with_exact_precision(self) -> None:
        base_records, duplicates = build_reference_collection()
        index = lsh_index(seed=3)
        index.insert_all(base_records)
        for query_position, query in enumerate(duplicates):
            results = index.query(query)
            result_ids = {record_id for record_id, _ in results}
            assert query_position in result_ids  # the true near-duplicate is found
            for record_id, similarity in results:
                assert jaccard_similarity(query, index.record(record_id)) >= 0.5
                assert similarity == pytest.approx(jaccard_similarity(query, index.record(record_id)))

    def test_collision_probability_monotone(self) -> None:
        structure = MinHashLSHIndex(0.5, bands=16, rows=4, seed=4)
        values = [structure.collision_probability(similarity) for similarity in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)
        assert structure.collision_probability(1.0) == pytest.approx(1.0)

    def test_unrelated_query_returns_nothing(self) -> None:
        index = lsh_index(seed=5)
        index.insert_all([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert index.query([100, 200, 300]) == []


class TestChosenPathIndex:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            ChosenPathIndex(0.0)
        with pytest.raises(ValueError):
            ChosenPathIndex(0.5, depth=0)
        with pytest.raises(ValueError):
            ChosenPathIndex(0.5, repetitions=0)

    def test_insert_stores_the_given_id(self) -> None:
        structure = ChosenPathIndex(0.5, depth=3, repetitions=15, seed=1)
        structure.insert(4, (1, 2, 3))
        assert structure.candidates((1, 2, 3)) == {4}

    def test_empty_record_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty record"):
            chosen_path_index(seed=1).insert([])

    def test_exact_duplicate_found_with_high_probability(self) -> None:
        index = chosen_path_index(seed=2, repetitions=15)
        index.insert([5, 6, 7, 8, 9])
        results = index.query([5, 6, 7, 8, 9])
        assert results and results[0][0] == 0

    def test_query_precision_is_exact(self) -> None:
        base_records, duplicates = build_reference_collection()
        index = chosen_path_index(seed=3)
        index.insert_all(base_records)
        for query in duplicates:
            for record_id, similarity in index.query(query):
                true_similarity = jaccard_similarity(query, index.record(record_id))
                assert true_similarity >= 0.5
                assert similarity == pytest.approx(true_similarity)

    def test_recall_of_planted_duplicates(self) -> None:
        base_records, duplicates = build_reference_collection()
        index = chosen_path_index(seed=4, repetitions=15)
        index.insert_all(base_records)
        found = 0
        for query_position, query in enumerate(duplicates):
            result_ids = {record_id for record_id, _ in index.query(query)}
            if query_position in result_ids:
                found += 1
        # recall_lower_bound() with depth 3, 15 trees is ~0.99; all three
        # planted duplicates have similarity well above the threshold.
        assert found == len(duplicates)

    def test_recall_lower_bound_formula(self) -> None:
        structure = ChosenPathIndex(0.5, depth=4, repetitions=10, seed=5)
        expected = 1.0 - (1.0 - 1.0 / 5) ** 10
        assert structure.recall_lower_bound() == pytest.approx(expected)

    def test_expected_leaf_count(self) -> None:
        structure = ChosenPathIndex(0.5, depth=3, repetitions=1, seed=6)
        assert structure.expected_leaf_count(20) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            structure.expected_leaf_count(0)

    def test_candidate_rate_below_full_scan(self) -> None:
        # The whole point of the index: a query should not have to look at
        # every stored record.
        rng = np.random.default_rng(7)
        records = [tuple(sorted(rng.choice(2000, size=15, replace=False).tolist())) for _ in range(300)]
        structure = ChosenPathIndex(0.5, depth=3, repetitions=5, seed=8)
        for record_id, record in enumerate(records):
            structure.insert(record_id, record)
        query = records[0]
        assert len(structure.candidates(query)) < len(records) / 2

    def test_queries_leave_the_forest_unchanged(self) -> None:
        rng = np.random.default_rng(9)
        records = [tuple(sorted(rng.choice(300, size=12, replace=False).tolist())) for _ in range(60)]
        structure = ChosenPathIndex(0.5, depth=3, repetitions=6, seed=10)
        for record_id, record in enumerate(records):
            structure.insert(record_id, record)
        nodes = len(structure._node_hashes)
        unseen = [tuple(sorted(rng.choice(300, size=9, replace=False).tolist())) for _ in range(40)]
        before = [structure.candidates(query) for query in records + unseen]
        assert len(structure._node_hashes) == nodes
        assert [structure.candidates(query) for query in records + unseen] == before
