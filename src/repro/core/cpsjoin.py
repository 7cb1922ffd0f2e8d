"""The CPSJOIN algorithm (Algorithms 1 and 2 of the paper).

The engine performs one randomized run of the Chosen Path Similarity Join on
a preprocessed collection.  A run recursively splits the collection along the
Chosen Path Tree:

* **BRUTEFORCE step** (Algorithm 2): subproblems of at most ``limit`` records
  are solved by all-pairs comparison; in larger subproblems every record whose
  estimated average similarity to the rest exceeds ``(1 - ε) λ`` is compared
  against the whole subproblem and removed (the adaptive stopping rule that
  distinguishes CPSJOIN from classic LSH approaches).
* **Splitting step** (Algorithm 1): the surviving records are split into
  buckets.  Following the implementation heuristic of Section V-A.3, instead
  of hashing every token the engine samples an expected ``1/λ`` coordinates of
  the MinHash embedding and groups records by their MinHash value on each
  sampled coordinate; each non-trivial bucket becomes a recursive subproblem.

Execution is staged through the shared :class:`repro.engine.JoinEngine`: the
tree walk is only the **candidate stage** — it decides *which* subsets get
brute-forced and yields them as tasks
(:class:`~repro.engine.stages.SubsetCandidates` /
:class:`~repro.engine.stages.PointCandidates`); the engine runs the dedup,
sketch-filter and verify stages in memory-bounded batches.  Verification
never feeds back into the walk and consumes no randomness.

The walk itself is the level-synchronous array frontier of
:mod:`repro.core.frontier`.  Node randomness is seeded *per node* — one
entropy draw per repetition, then counter-based node keys along the tree
edges and path-seeded estimator generators (see the frontier module
docstring) — and the tasks are emitted in the depth-first preorder of the
recursion the paper describes.

For the ablation of Section IV-C.5 the walk also implements the ``global``
and ``individual`` stopping strategies, which replace the adaptive rule with a
fixed recursion depth (one global depth, or one depth per record estimated
from its average similarity to the collection).

A single run reports every qualifying pair with probability ``Ω(ε/log n)``
(Lemma 6); the :mod:`repro.core.repetition` driver runs the engine several
times (ten by default, as in the paper's experiments) to reach the target
recall.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.bruteforce import BruteForcer
from repro.core.config import CPSJoinConfig
from repro.core.frontier import frontier_tasks
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.engine import CandidateStage, JoinEngine, Task
from repro.result import JoinResult, JoinStats, Timer
from repro.similarity.measures import get_measure

__all__ = ["CPSJoin", "ChosenPathCandidateStage", "cpsjoin"]

_SEED_STREAM = 7919
"""Odd multiplier deriving per-repetition seeds (kept from the seed impl)."""


class ChosenPathCandidateStage(CandidateStage):
    """Candidate stage of CPSJOIN: the Chosen Path Tree walk.

    The repetition generator is consumed exactly once — for the walk's
    ``root_entropy`` — and every node's randomness (split coordinates,
    estimator samples) is derived from the node's identity (see
    :mod:`repro.core.frontier`).
    """

    def __init__(
        self,
        join: "CPSJoin",
        collection: PreprocessedCollection,
        engine: JoinEngine,
        rng: np.random.Generator,
        stats: JoinStats,
    ) -> None:
        self.join = join
        self.collection = collection
        self.rng = rng
        self.stats = stats
        self.root_entropy = 0
        # The estimator drives the adaptive rule; it shares the engine's
        # backend instance so token packing happens once per collection.
        self.estimator = BruteForcer(
            collection, join.embedded_threshold, rng=rng, backend=engine.backend
        )

    def tasks(self) -> Iterator[Task]:
        # The single draw that fixes the whole tree's randomness: node keys
        # and estimator streams are pure functions of (root_entropy, path).
        self.root_entropy = int(self.rng.integers(0, 1 << 63))
        yield from frontier_tasks(self)


class CPSJoin:
    """Chosen Path Similarity Join engine.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` in ``(0, 1)``, on the configured measure's
        own scale.
    config:
        Algorithm parameters; see :class:`repro.core.config.CPSJoinConfig`.

    Notes
    -----
    With a non-Jaccard measure the randomized machinery (the Chosen Path
    walk, the adaptive rule's similarity estimates, the sketch filter)
    runs at the *embedded* threshold — the measure's Jaccard floor of ``λ``,
    the smallest Jaccard any qualifying pair can have — while exact
    verification scores candidates with the real measure at ``λ``.  Measures
    whose floor is zero (overlap coefficient, containment) give the
    recursion nothing to recurse on and are rejected; use the exact join
    algorithms for those.
    """

    algorithm_name = "CPSJOIN"

    def __init__(self, threshold: float, config: Optional[CPSJoinConfig] = None) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self.config = config if config is not None else CPSJoinConfig()
        self.measure = get_measure(self.config.measure)
        self.embedded_threshold = self.measure.jaccard_floor(threshold)
        if self.embedded_threshold <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} has no positive Jaccard floor at "
                f"threshold {threshold}; CPSJOIN cannot bound its recursion — use "
                "an exact algorithm (allpairs / ppjoin) for this measure"
            )

    # ------------------------------------------------------------------ public API
    def join(
        self,
        records: Sequence[Sequence[int]],
        sides: Optional[Sequence[int]] = None,
    ) -> JoinResult:
        """Preprocess ``records`` and run the configured number of repetitions.

        ``sides`` (0 = R, 1 = S, one entry per record) turns the run into a
        native R ⋈ S join: the recursion is unchanged, but the engine's
        filter stage skips same-side comparisons entirely, so only cross-side
        pairs are counted, verified, and reported.
        """
        collection = preprocess_collection(
            records,
            embedding_size=self.config.embedding_size,
            sketch_words=self.config.sketch_words,
            seed=self.config.seed,
            sides=sides,
        )
        return self.join_preprocessed(collection)

    def join_preprocessed(self, collection: PreprocessedCollection) -> JoinResult:
        """Run the configured number of repetitions on a preprocessed collection.

        Repetitions are dispatched through the repetition engine, which honours
        ``config.workers`` and ``config.executor`` (parallel execution on
        shared-memory process workers, with deterministic merging) and
        reports wall-clock vs summed worker time separately.
        """
        from repro.core.repetition import RepetitionEngine

        engine = RepetitionEngine(
            self, collection, workers=self.config.workers, executor=self.config.executor
        )
        return engine.run_fixed(self.config.repetitions)

    def run_once(self, collection: PreprocessedCollection, repetition: int = 0) -> JoinResult:
        """Run a single repetition of CPSJOIN through the staged join engine."""
        rng = JoinEngine.repetition_rng(self.config.seed, repetition, stream=_SEED_STREAM)
        stats = JoinStats(
            algorithm=self.algorithm_name,
            threshold=self.threshold,
            num_records=collection.num_records,
            repetitions=1,
        )
        engine = JoinEngine(
            collection,
            self.threshold,
            backend=self.config.backend,
            use_sketches=self.config.use_sketches,
            sketch_false_negative_rate=self.config.sketch_false_negative_rate,
            measure=self.measure,
        )
        stage = ChosenPathCandidateStage(self, collection, engine, rng, stats)
        with Timer() as timer:
            pairs = engine.execute(stage, stats)
        stats.results = len(pairs)
        stats.elapsed_seconds = timer.elapsed
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------ ablation helpers
    def _global_depth(self, num_records: int) -> int:
        """Fixed tree depth for the ``global`` stopping strategy.

        When not supplied explicitly the depth is set to
        ``⌈ln(n) / ln(1/λ)⌉`` — the depth at which the expected number of
        tree vertices containing a record, ``(1/λ)^k``, reaches ``n`` and
        further splitting can no longer pay off.
        """
        if self.config.global_depth is not None:
            return self.config.global_depth
        return max(
            1, math.ceil(math.log(max(2, num_records)) / math.log(1.0 / self.embedded_threshold))
        )

    def _individual_depths(self, subset: List[int], brute_forcer: BruteForcer) -> np.ndarray:
        """Per-record stopping depths for the ``individual`` strategy.

        Following the running-time expression of Section IV-C.5 the depth for
        record ``x`` is chosen to balance ``(1/λ)^k`` against
        ``Σ_y (sim(x, y)/λ)^k``; a record whose average similarity to the
        collection is ``s`` gets depth ``k_x ≈ ln(n) / ln(λ/s)`` when
        ``s < λ`` (records with ``s ≥ λ`` get depth 0, i.e. immediate brute
        force, which matches the adaptive rule's behaviour for such records).
        """
        averages = brute_forcer.average_similarities(subset, method=self.config.average_method)
        num_records = max(2, len(subset))
        threshold = self.embedded_threshold
        averages = np.asarray(averages, dtype=np.float64)
        at_threshold = averages >= threshold
        clamped = np.maximum(averages, 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.ceil(math.log(num_records) / np.log(threshold / clamped))
        # Records at least as similar as the threshold get depth 0: immediate
        # brute force, matching the adaptive rule's behaviour for them.  (They
        # are masked before the cast: their ``raw`` value may be NaN/-inf.)
        raw = np.where(at_threshold, 0.0, np.maximum(raw, 1.0))
        return raw.astype(np.int64)


def cpsjoin(
    records: Sequence[Sequence[int]],
    threshold: float,
    config: Optional[CPSJoinConfig] = None,
) -> JoinResult:
    """Run CPSJOIN on a record collection (functional convenience wrapper)."""
    return CPSJoin(threshold, config).join(records)
