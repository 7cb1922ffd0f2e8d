"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig
from repro.core.preprocess import PreprocessedCollection
from repro.datasets.base import Dataset
from repro.evaluation.runner import ExperimentRunner


@pytest.fixture(scope="module")
def small_dataset(request) -> Dataset:
    from repro.datasets.synthetic import generate_uniform_dataset

    return generate_uniform_dataset(
        num_records=250, universe_size=120, average_set_size=10, planted_pairs_per_similarity=6, seed=21
    )


class TestExperimentRunner:
    def test_invalid_target_recall(self) -> None:
        with pytest.raises(ValueError):
            ExperimentRunner(target_recall=0.0)

    def test_allpairs_measurement(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=1)
        measurement = runner.run_allpairs(small_dataset, 0.5)
        assert measurement.algorithm == "ALL"
        assert measurement.recall == 1.0
        assert measurement.precision == 1.0
        assert measurement.join_seconds > 0.0

    def test_cpsjoin_reaches_target_recall(self, small_dataset) -> None:
        runner = ExperimentRunner(target_recall=0.9, seed=2)
        measurement = runner.run_cpsjoin(small_dataset, 0.5)
        assert measurement.recall >= 0.9
        assert measurement.precision == 1.0

    def test_minhash_reaches_target_recall(self, small_dataset) -> None:
        runner = ExperimentRunner(target_recall=0.9, seed=3)
        measurement = runner.run_minhash(small_dataset, 0.6)
        assert measurement.recall >= 0.9
        assert measurement.precision == 1.0

    def test_bayeslsh_measurement(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=4)
        measurement = runner.run_bayeslsh(small_dataset, 0.7)
        assert measurement.precision == 1.0
        assert measurement.algorithm == "BAYESLSH"

    def test_ppjoin_measurement(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=5)
        measurement = runner.run_ppjoin(small_dataset, 0.7)
        assert measurement.recall == 1.0

    def test_dispatch_by_name(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=6)
        assert runner.run("ALL", small_dataset, 0.7).algorithm == "ALL"
        assert runner.run("CP", small_dataset, 0.7).algorithm == "CP"
        assert runner.run("MH", small_dataset, 0.7).algorithm == "MH"
        with pytest.raises(ValueError):
            runner.run("UNKNOWN", small_dataset, 0.7)

    def test_preprocessing_cached_across_runs(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=7)
        config = CPSJoinConfig()
        first = runner.preprocessed(small_dataset, config)
        second = runner.preprocessed(small_dataset, config)
        assert first is second

    def test_cpsjoin_timed_repetitions_build_no_artefacts(self, small_dataset, monkeypatch) -> None:
        # preprocessed() builds CPSJOIN's lazy per-collection artefacts, so
        # none is built inside a timed repetition.
        runner = ExperimentRunner(target_recall=0.9, seed=2)
        config = CPSJoinConfig(limit=10)  # small enough for the estimator to run
        runner.preprocessed(small_dataset, config.with_seed(runner.seed))
        cold = {
            "signature_rank_matrix": lambda collection: collection._signature_ranks is None,
            "sketch_bit_matrix": lambda collection: not collection._sketch_bits_built,
        }
        built = []
        for name, is_cold in cold.items():
            original = getattr(PreprocessedCollection, name)

            def counting(collection, _original=original, _name=name, _is_cold=is_cold):
                if _is_cold(collection):
                    built.append(_name)
                return _original(collection)

            monkeypatch.setattr(PreprocessedCollection, name, counting)
        measurement = runner.run_cpsjoin(small_dataset, 0.5, config)
        assert measurement.recall >= 0.9
        assert built == []

    def test_measurement_row_format(self, small_dataset) -> None:
        runner = ExperimentRunner(seed=8)
        row = runner.run_allpairs(small_dataset, 0.8).as_row()
        assert {"algorithm", "dataset", "threshold", "join_seconds", "recall", "results"} <= set(row)
