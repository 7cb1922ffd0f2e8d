"""Tests for SimilarityIndex top-k queries and the measure-aware index."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.index import SimilarityIndex
from repro.index.similarity_index import SAVE_FORMAT_VERSION, topk_from_matches
from repro.similarity.measures import get_measure


def make_records(seed: int = 9, count: int = 60, universe: int = 40):
    rng = random.Random(seed)
    return [
        tuple(sorted(rng.sample(range(universe), rng.randint(2, 9))))
        for _ in range(count)
    ]


class TestTopkFromMatches:
    MATCHES = [(4, 0.9), (1, 0.8), (7, 0.8), (2, 0.5)]

    def test_prefix(self) -> None:
        assert topk_from_matches(self.MATCHES, 2) == [(4, 0.9), (1, 0.8)]

    def test_k_larger_than_list(self) -> None:
        assert topk_from_matches(self.MATCHES, 10) == self.MATCHES

    def test_floor_cuts_tail(self) -> None:
        assert topk_from_matches(self.MATCHES, 10, floor=0.8) == self.MATCHES[:3]

    def test_floor_and_k_combine(self) -> None:
        assert topk_from_matches(self.MATCHES, 2, floor=0.6) == self.MATCHES[:2]

    @pytest.mark.parametrize("bad", (0, -3, 1.5, True, False, "2", None))
    def test_invalid_k_rejected(self, bad) -> None:
        with pytest.raises(ValueError, match="positive integer"):
            topk_from_matches(self.MATCHES, bad)


class TestQueryTopk:
    def test_equals_query_prefix(self) -> None:
        records = make_records()
        index = SimilarityIndex.build(records, 0.4, backend="numpy", seed=5)
        for query_id in range(0, len(records), 5):
            matches = index.query(records[query_id], exclude=query_id)
            for k in (1, 2, 5, 100):
                assert index.query_topk(records[query_id], k, exclude=query_id) == (
                    matches[:k]
                )

    def test_floor_tightens_threshold(self) -> None:
        records = make_records(seed=21)
        index = SimilarityIndex.build(records, 0.3, seed=5)
        query = records[0]
        full = index.query(query, exclude=0)
        floored = index.query_topk(query, 1000, floor=0.6, exclude=0)
        assert floored == [match for match in full if match[1] >= 0.6]

    def test_invalid_k_rejected(self) -> None:
        index = SimilarityIndex(0.5)
        index.insert((1, 2, 3))
        with pytest.raises(ValueError, match="positive integer"):
            index.query_topk((1, 2, 3), 0)


class TestMeasurePersistence:
    def test_format_version_bumped(self) -> None:
        assert SAVE_FORMAT_VERSION == 3

    def test_measure_survives_save_load(self, tmp_path) -> None:
        records = make_records(seed=31)
        index = SimilarityIndex.build(
            records, 0.5, backend="numpy", measure="cosine", seed=2
        )
        path = tmp_path / "cosine.idx"
        index.save(path)
        loaded = SimilarityIndex.load(path)
        assert loaded.measure.name == "cosine"
        for query_id in range(0, len(records), 6):
            assert loaded.query(records[query_id]) == index.query(records[query_id])

    def test_weighted_measure_survives_pickle(self) -> None:
        weights = {token: (1 + token % 8) / 8.0 for token in range(40)}
        records = make_records(seed=41)
        index = SimilarityIndex.build(
            records, 0.5, measure=get_measure("jaccard", weights=weights)
        )
        clone = pickle.loads(pickle.dumps(index))
        assert clone.measure.weighted
        for query_id in range(0, len(records), 6):
            assert clone.query(records[query_id]) == index.query(records[query_id])


class TestMeasureGating:
    def test_floorless_measure_rejected_with_approximate_candidates(self) -> None:
        with pytest.raises(ValueError, match="Jaccard floor"):
            SimilarityIndex(0.5, candidates="chosenpath", measure="overlap")

    def test_floorless_measure_rejected_with_sketches(self) -> None:
        with pytest.raises(ValueError, match="Jaccard floor"):
            SimilarityIndex(0.5, candidates="exact", use_sketches=True, measure="containment")

    def test_floorless_measure_allowed_exact(self) -> None:
        records = make_records(seed=61)
        index = SimilarityIndex.build(records, 0.5, measure="overlap")
        measure = get_measure("overlap")
        query = records[3]
        expected = sorted(
            (
                (other, measure.score(set(query), set(records[other])))
                for other in range(len(records))
                if other != 3 and measure.score(set(query), set(records[other])) >= 0.5
            ),
            key=lambda item: (-item[1], item[0]),
        )
        got = index.query(query, exclude=3)
        assert [match[0] for match in got] == [match[0] for match in expected]

    def test_approximate_candidates_recall_subset(self) -> None:
        # The chosen-path structure at the cosine embedding may miss pairs
        # but must never invent one or mis-score one.
        records = make_records(seed=71)
        exact = SimilarityIndex.build(records, 0.6, measure="cosine", seed=9)
        approx = SimilarityIndex.build(
            records, 0.6, candidates="chosenpath", measure="cosine", seed=9
        )
        for query_id in range(0, len(records), 4):
            truth = dict(exact.query(records[query_id], exclude=query_id))
            for record_id, similarity in approx.query(records[query_id], exclude=query_id):
                assert record_id in truth
                assert similarity == pytest.approx(truth[record_id])

    def test_default_measure_unchanged_bitwise(self) -> None:
        records = make_records(seed=81)
        plain = SimilarityIndex.build(records, 0.5, backend="numpy", seed=13)
        named = SimilarityIndex.build(
            records, 0.5, backend="numpy", seed=13, measure="jaccard"
        )
        for query_id in range(len(records)):
            assert plain.query(records[query_id]) == named.query(records[query_id])
