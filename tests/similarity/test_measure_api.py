"""Tests for the first-class Measure abstraction (registry, bounds, floors)."""

from __future__ import annotations

import math

import pytest

from repro.similarity.measures import (
    MEASURE_NAMES,
    SIMILARITY_MEASURES,
    Measure,
    get_measure,
)


class TestRegistry:
    def test_all_six_measures_registered(self) -> None:
        assert set(MEASURE_NAMES) == {
            "jaccard",
            "cosine",
            "dice",
            "overlap",
            "braun_blanquet",
            "containment",
        }

    def test_registry_and_names_agree(self) -> None:
        assert tuple(SIMILARITY_MEASURES) == tuple(MEASURE_NAMES)

    def test_get_measure_default_is_jaccard(self) -> None:
        measure = get_measure(None)
        assert measure.name == "jaccard"
        assert measure.is_default
        assert not measure.weighted

    def test_get_measure_by_name(self) -> None:
        for name in MEASURE_NAMES:
            measure = get_measure(name)
            assert isinstance(measure, Measure)
            assert measure.name == name

    def test_get_measure_passthrough_instance(self) -> None:
        measure = get_measure("cosine")
        assert get_measure(measure) is measure

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown similarity measure"):
            get_measure("euclidean")

    def test_weighted_measure_not_default(self) -> None:
        measure = get_measure("jaccard", weights={1: 0.5})
        assert measure.weighted
        assert not measure.is_default


class TestScoresAndBounds:
    FIRST = frozenset({1, 2, 3, 4})
    SECOND = frozenset({2, 3, 4, 5, 6})

    def test_known_scores(self) -> None:
        overlap = 3
        expectations = {
            "jaccard": overlap / 6,
            "cosine": overlap / math.sqrt(4 * 5),
            "dice": 2 * overlap / 9,
            "overlap": overlap / 4,
            "braun_blanquet": overlap / 5,
            "containment": overlap / 4,
        }
        for name, expected in expectations.items():
            score = get_measure(name).score(self.FIRST, self.SECOND)
            assert score == pytest.approx(expected), name

    @pytest.mark.parametrize("name", MEASURE_NAMES)
    def test_required_overlap_is_tight(self, name: str) -> None:
        # At the measure's own required overlap the pair qualifies; one
        # token less and it cannot.
        measure = get_measure(name)
        for size_first in range(1, 9):
            for size_second in range(1, 9):
                for threshold in (0.3, 0.5, 0.75, 0.9):
                    required = measure.required_overlap(size_first, size_second, threshold)
                    max_overlap = min(size_first, size_second)
                    for overlap in range(0, max_overlap + 1):
                        qualifies = (
                            measure.similarity_from_overlap(size_first, size_second, overlap)
                            >= threshold - 1e-12
                        )
                        assert qualifies == (overlap >= required), (
                            name, size_first, size_second, threshold, overlap,
                        )

    @pytest.mark.parametrize("name", MEASURE_NAMES)
    def test_size_compatible_never_prunes_a_qualifying_pair(self, name: str) -> None:
        measure = get_measure(name)
        for size_first in range(1, 9):
            for size_second in range(1, 9):
                overlap = min(size_first, size_second)  # best possible
                for threshold in (0.4, 0.7):
                    best = measure.similarity_from_overlap(size_first, size_second, overlap)
                    if best >= threshold:
                        assert measure.size_compatible(size_first, size_second, threshold)


class TestJaccardFloor:
    def test_jaccard_floor_is_identity_for_default(self) -> None:
        measure = get_measure(None)
        for threshold in (0.1, 0.5, 0.9, 1.0):
            assert measure.jaccard_floor(threshold) == threshold

    def test_known_floors(self) -> None:
        threshold = 0.6
        assert get_measure("cosine").jaccard_floor(threshold) == pytest.approx(
            threshold * threshold
        )
        assert get_measure("dice").jaccard_floor(threshold) == pytest.approx(
            threshold / (2.0 - threshold)
        )

    def test_floorless_measures(self) -> None:
        # Overlap coefficient and containment admit J arbitrarily close to 0
        # at any threshold, so their floor degenerates to 0.
        for name in ("overlap", "containment"):
            assert get_measure(name).jaccard_floor(0.8) == 0.0

    @pytest.mark.parametrize("name", ("cosine", "dice", "braun_blanquet"))
    def test_floor_is_a_valid_lower_bound(self, name: str) -> None:
        # score >= threshold must imply J >= floor over a dense sweep of
        # (sizes, overlap) combinations.
        measure = get_measure(name)
        threshold = 0.65
        floor = measure.jaccard_floor(threshold)
        assert floor > 0.0
        for size_first in range(1, 12):
            for size_second in range(1, 12):
                for overlap in range(0, min(size_first, size_second) + 1):
                    score = measure.similarity_from_overlap(size_first, size_second, overlap)
                    if score >= threshold:
                        union = size_first + size_second - overlap
                        jaccard = overlap / union if union else 1.0
                        assert jaccard >= floor - 1e-12


class TestWeighted:
    WEIGHTS = {token: (1 + token % 8) / 8.0 for token in range(20)}

    def test_record_size_sums_weights(self) -> None:
        measure = get_measure("jaccard", weights=self.WEIGHTS)
        record = (0, 1, 2)
        assert measure.record_size(record) == pytest.approx(
            sum(self.WEIGHTS[token] for token in record)
        )

    def test_unlisted_tokens_weigh_one(self) -> None:
        measure = get_measure("jaccard", weights={1: 0.25})
        assert measure.token_weight(999) == 1.0

    def test_weighted_score_matches_hand_computation(self) -> None:
        measure = get_measure("jaccard", weights=self.WEIGHTS)
        first, second = {0, 1, 2}, {1, 2, 3}
        shared = self.WEIGHTS[1] + self.WEIGHTS[2]
        union = sum(self.WEIGHTS[token] for token in (0, 1, 2, 3))
        assert measure.score(first, second) == pytest.approx(shared / union)
