"""Recall-regression guard for the execution-backend layer.

Seeded end-to-end runs asserting that CPSJOIN still reaches the paper's
≥ 90 % recall at default parameters on a synthetic profile, for every
combination of execution backend and worker count.  Any optimization of the
backends or the repetition engine that silently degrades result quality
fails here before it lands.
"""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import cpsjoin
from repro.datasets.profiles import generate_profile_dataset
from repro.evaluation.metrics import precision, recall
from repro.exact.allpairs import all_pairs_join


@pytest.fixture(scope="module")
def synthetic_profile():
    return generate_profile_dataset("UNIFORM005", scale=0.15, seed=77)


@pytest.fixture(scope="module")
def ground_truth(synthetic_profile):
    return all_pairs_join(synthetic_profile.records, 0.5).pairs


@pytest.mark.parametrize("workers", [1, 4])
def test_default_parameters_reach_ninety_percent_recall(
    synthetic_profile, ground_truth, workers
) -> None:
    assert ground_truth, "profile must contain qualifying pairs"
    config = CPSJoinConfig(seed=123, workers=workers)
    result = cpsjoin(synthetic_profile.records, 0.5, config)
    assert precision(result.pairs, ground_truth) == 1.0
    assert recall(result.pairs, ground_truth) >= 0.9


@pytest.mark.parametrize("threshold", [0.7, 0.9])
def test_higher_thresholds_hold_recall_with_numpy_backend(synthetic_profile, threshold) -> None:
    truth = all_pairs_join(synthetic_profile.records, threshold).pairs
    if not truth:
        pytest.skip("no qualifying pairs at this threshold")
    config = CPSJoinConfig(seed=123, backend="numpy")
    result = cpsjoin(synthetic_profile.records, threshold, config)
    assert precision(result.pairs, truth) == 1.0
    assert recall(result.pairs, truth) >= 0.9
