"""Experiment runner shared by every table/figure harness.

The runner reproduces the measurement protocol of Section VI:

* the exact baseline (ALLPAIRS) is run once and its wall-clock join time is
  reported;
* the approximate methods (CPSJOIN, MINHASH) share a preprocessing step
  (MinHash signatures + sketches) that is *not* counted towards join time —
  the paper excludes it because it is reusable across thresholds — and are
  then repeated until the measured recall against the exact result reaches
  the target (90 % in Table II, 80 % in the Figure 3 parameter sweeps);
* BAYESLSH runs once with its internal repetition count.

Every measurement is returned as a :class:`JoinMeasurement`, which the
experiment modules format into the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.approximate.bayeslsh import BayesLSHJoin
from repro.approximate.minhash_lsh import MinHashLSHJoin
from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.datasets.base import Dataset
from repro.evaluation.ground_truth import GroundTruthCache
from repro.evaluation.metrics import precision as precision_metric, recall as recall_metric
from repro.exact.ppjoin import PPJoin
from repro.result import JoinResult, JoinStats

__all__ = ["JoinMeasurement", "ExperimentRunner"]

Pair = Tuple[int, int]


@dataclass
class JoinMeasurement:
    """One (algorithm, dataset, threshold) measurement."""

    algorithm: str
    dataset: str
    threshold: float
    join_seconds: float
    recall: float
    precision: float
    num_results: int
    repetitions: int
    pre_candidates: int
    candidates: int
    stats: JoinStats

    def as_row(self) -> Dict[str, object]:
        """Flatten into a plain dict for table rendering / CSV export."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "threshold": self.threshold,
            "join_seconds": round(self.join_seconds, 4),
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 4),
            "results": self.num_results,
            "repetitions": self.repetitions,
            "pre_candidates": self.pre_candidates,
            "candidates": self.candidates,
        }


class ExperimentRunner:
    """Runs joins on datasets under the paper's measurement protocol.

    Parameters
    ----------
    target_recall:
        Recall level at which the approximate methods are measured (0.9 for
        Table II / Figure 2, 0.8 for the Figure 3 parameter study).
    max_repetitions:
        Upper bound on repetitions when chasing the recall target.
    seed:
        Base seed for all randomized components.
    """

    def __init__(self, target_recall: float = 0.9, max_repetitions: int = 50, seed: int = 42) -> None:
        if not 0.0 < target_recall <= 1.0:
            raise ValueError("target_recall must be in (0, 1]")
        self.target_recall = target_recall
        self.max_repetitions = max_repetitions
        self.seed = seed
        self.ground_truth = GroundTruthCache()
        self._preprocessed: Dict[Tuple[str, int, int], PreprocessedCollection] = {}

    # ------------------------------------------------------------------ preprocessing cache
    def preprocessed(self, dataset: Dataset, config: CPSJoinConfig) -> PreprocessedCollection:
        """Preprocess a dataset once per (embedding size, sketch length).

        The one lazily built per-collection artefact CPSJOIN uses, the
        signature rank matrix of its tree walk, is built here too, so no
        algorithm's timed join pays for it — MinHash LSH does not need it.
        """
        key = (dataset.name, config.embedding_size, config.sketch_words)
        if key not in self._preprocessed:
            collection = preprocess_collection(
                dataset.records,
                embedding_size=config.embedding_size,
                sketch_words=config.sketch_words,
                seed=self.seed,
            )
            collection.signature_rank_matrix()
            self._preprocessed[key] = collection
        return self._preprocessed[key]

    # ------------------------------------------------------------------ individual algorithms
    def run_allpairs(self, dataset: Dataset, threshold: float) -> JoinMeasurement:
        """Run the exact ALLPAIRS baseline (also populates the ground-truth cache)."""
        result = self.ground_truth.get(dataset.name, dataset.records, threshold)
        return self._measurement("ALL", dataset, threshold, result, result.pairs)

    def run_ppjoin(self, dataset: Dataset, threshold: float) -> JoinMeasurement:
        """Run the exact PPJOIN baseline."""
        result = PPJoin(threshold).join(dataset.records)
        truth = self.ground_truth.pairs(dataset.name, dataset.records, threshold)
        return self._measurement("PPJOIN", dataset, threshold, result, truth)

    def run_cpsjoin(
        self,
        dataset: Dataset,
        threshold: float,
        config: Optional[CPSJoinConfig] = None,
    ) -> JoinMeasurement:
        """Run CPSJOIN, repeating until the target recall is reached."""
        config = (config or CPSJoinConfig()).with_seed(self.seed)
        collection = self.preprocessed(dataset, config)
        truth = self.ground_truth.pairs(dataset.name, dataset.records, threshold)
        engine = CPSJoin(threshold, config)
        result = self._repeat_until_recall(lambda rep: engine.run_once(collection, repetition=rep), truth, collection)
        result.stats.algorithm = "CP"
        return self._measurement("CP", dataset, threshold, result, truth)

    def run_minhash(self, dataset: Dataset, threshold: float) -> JoinMeasurement:
        """Run the MinHash LSH baseline, repeating until the target recall is reached."""
        config = CPSJoinConfig().with_seed(self.seed)
        collection = self.preprocessed(dataset, config)
        truth = self.ground_truth.pairs(dataset.name, dataset.records, threshold)
        engine = MinHashLSHJoin(threshold, target_recall=self.target_recall, seed=self.seed)
        result = self._repeat_until_recall(lambda rep: engine.run_once(collection, repetition=rep), truth, collection)
        result.stats.algorithm = "MH"
        return self._measurement("MH", dataset, threshold, result, truth)

    def run_bayeslsh(self, dataset: Dataset, threshold: float) -> JoinMeasurement:
        """Run the BayesLSH-lite baseline (single call, internal repetitions)."""
        config = CPSJoinConfig().with_seed(self.seed)
        collection = self.preprocessed(dataset, config)
        truth = self.ground_truth.pairs(dataset.name, dataset.records, threshold)
        engine = BayesLSHJoin(threshold, seed=self.seed)
        result = engine.join_preprocessed(collection)
        return self._measurement("BAYESLSH", dataset, threshold, result, truth)

    def run(self, algorithm: str, dataset: Dataset, threshold: float, **kwargs: object) -> JoinMeasurement:
        """Dispatch by algorithm short name (``ALL``, ``CP``, ``MH``, ``BAYESLSH``, ``PPJOIN``)."""
        name = algorithm.upper()
        if name in ("ALL", "ALLPAIRS"):
            return self.run_allpairs(dataset, threshold)
        if name in ("CP", "CPSJOIN"):
            return self.run_cpsjoin(dataset, threshold, **kwargs)  # type: ignore[arg-type]
        if name in ("MH", "MINHASH"):
            return self.run_minhash(dataset, threshold)
        if name == "BAYESLSH":
            return self.run_bayeslsh(dataset, threshold)
        if name == "PPJOIN":
            return self.run_ppjoin(dataset, threshold)
        raise ValueError(f"unknown algorithm {algorithm!r}")

    # ------------------------------------------------------------------ helpers
    def _repeat_until_recall(
        self,
        run_once,
        ground_truth: Set[Pair],
        collection: PreprocessedCollection,
    ) -> JoinResult:
        """Accumulate repetitions until the measured recall reaches the target."""
        pairs: Set[Pair] = set()
        stats = JoinStats(repetitions=0, num_records=collection.num_records)
        stats.preprocessing_seconds = collection.preprocessing_seconds
        for repetition in range(self.max_repetitions):
            single = run_once(repetition)
            pairs |= single.pairs
            stats.merge(single.stats)
            stats.extra.update({key: value for key, value in single.stats.extra.items() if key == "k"})
            if not ground_truth:
                break
            if recall_metric(pairs, ground_truth) >= self.target_recall:
                break
        stats.results = len(pairs)
        stats.threshold = single.stats.threshold
        return JoinResult(pairs=pairs, stats=stats)

    def _measurement(
        self,
        algorithm: str,
        dataset: Dataset,
        threshold: float,
        result: JoinResult,
        ground_truth: Set[Pair],
    ) -> JoinMeasurement:
        return JoinMeasurement(
            algorithm=algorithm,
            dataset=dataset.name,
            threshold=threshold,
            join_seconds=result.stats.elapsed_seconds,
            recall=recall_metric(result.pairs, ground_truth),
            precision=precision_metric(result.pairs, ground_truth),
            num_results=len(result.pairs),
            repetitions=result.stats.repetitions,
            pre_candidates=result.stats.pre_candidates,
            candidates=result.stats.candidates,
            stats=result.stats,
        )
