"""The shared staged join engine.

One driver executes every join algorithm in the repository.  An algorithm
contributes a :class:`~repro.engine.stages.CandidateStage` (all of its
randomness and policy) and optionally a custom filter stage; the engine owns
everything the three historical drivers used to hand-roll separately:

* **seeding** — :meth:`JoinEngine.repetition_rng` derives the per-repetition
  generator from ``(seed, stream, repetition)``, the scheme every algorithm
  shares;
* **stats accounting** — pre-candidate / candidate / verified counters and
  the per-stage wall-clock split (``candidate_seconds`` / ``filter_seconds``
  / ``verify_seconds`` on :class:`repro.result.JoinStats`);
* **side-masking** — R ⋈ S side labels travel with the preprocessed
  collection into the backend filter kernel, so same-side pairs are dropped
  before any counting regardless of the algorithm;
* **segmented, memory-bounded batching** — tasks are drained from the
  candidate stage and flushed whenever the accumulated candidate count
  reaches ``batch_budget``.  A flush is not one backend call per task: its
  subset and point tasks are flattened into rows over one id buffer
  (:func:`task_rows`), cut into chunks of about ``batch_budget`` pairs
  (:func:`row_chunks` — the same bound caps a single task of any size), and
  each chunk is expanded and filtered in one kernel pass; the survivors are
  verified ``batch_budget`` pairs per kernel pass.

Because candidate generation is the only randomized stage and verification
never feeds back into it, the staged execution is bit-for-bit equivalent to
the historical fused loops: identical result pairs, identical counters.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backend import ExecutionBackend, make_backend
from repro.core.preprocess import PreprocessedCollection
from repro.engine.stages import (
    CandidateStage,
    DedupStage,
    PairCandidates,
    PointCandidates,
    SketchFilterStage,
    VerifyStage,
)
from repro.hashing.sketch import sketch_similarity_threshold
from repro.obs.tracing import event, span
from repro.result import JoinStats

__all__ = ["JoinEngine", "row_chunks", "task_rows"]

Pair = Tuple[int, int]


class JoinEngine:
    """Drives candidate → dedup → filter → verify over one collection.

    Parameters
    ----------
    collection:
        The preprocessed records the join runs over (carries the R ⋈ S side
        labels, if any).
    threshold:
        Similarity threshold ``λ`` on the measure's own scale.
    backend:
        Execution backend: ``"numpy"`` / ``None``, or an instance.
    use_sketches / sketch_false_negative_rate:
        Configuration of the default :class:`SketchFilterStage` (``δ``
        determines the estimator cut-off ``λ̂``).  The sketches estimate
        *Jaccard* similarity, so for a non-default measure the cut-off is
        derived from the measure's Jaccard floor — the smallest Jaccard any
        pair meeting the threshold can have.  Measures with a zero floor
        (overlap coefficient, containment) admit pairs of arbitrarily low
        Jaccard, so the sketch filter is unusable and must be disabled.
    measure:
        Similarity measure (name, instance or ``None`` for Jaccard) the
        verification kernels score under.  Ignored when ``backend`` is an
        already constructed instance (the instance's measure wins).
    batch_budget:
        Number of pre-filter candidate pairs accumulated before a batch is
        flushed through the filter and verify stages, and the size of the
        chunks a flush is filtered and verified in (bounds the engine's
        working memory).
    """

    DEFAULT_BATCH_BUDGET = 1 << 16

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        backend=None,
        use_sketches: bool = True,
        sketch_false_negative_rate: float = 0.05,
        batch_budget: int = DEFAULT_BATCH_BUDGET,
        measure=None,
    ) -> None:
        if batch_budget < 1:
            raise ValueError("batch_budget must be positive")
        self.collection = collection
        self.threshold = threshold
        self.backend: ExecutionBackend = make_backend(backend, collection, threshold, measure)
        self.measure = self.backend.measure
        jaccard_floor = self.measure.jaccard_floor(threshold)
        if use_sketches and jaccard_floor <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} has no positive Jaccard floor at "
                f"threshold {threshold}; the 1-bit minwise sketch filter cannot be "
                "used — pass use_sketches=False or use an exact algorithm"
            )
        self.use_sketches = use_sketches
        self.sketch_cutoff = sketch_similarity_threshold(
            jaccard_floor if use_sketches else threshold,
            collection.sketches.num_bits,
            sketch_false_negative_rate,
        )
        self.batch_budget = batch_budget
        self.verify_stage = VerifyStage(self.backend)

    # ------------------------------------------------------------------ seeding
    @staticmethod
    def repetition_rng(
        seed: Optional[int], repetition: int = 0, stream: int = 1
    ) -> np.random.Generator:
        """Per-repetition generator: ``default_rng(seed * stream + repetition)``.

        ``stream`` is an algorithm-specific odd multiplier keeping the
        repetition streams of different algorithms disjoint at equal seeds;
        ``seed=None`` yields OS entropy, as everywhere else in the library.
        """
        return np.random.default_rng(None if seed is None else seed * stream + repetition)

    def default_filter_stage(self) -> SketchFilterStage:
        """The standard size-probe + ``λ̂``-cut-off sketch filter stage."""
        return SketchFilterStage(self.backend, self.use_sketches, self.sketch_cutoff)

    # ------------------------------------------------------------------ execution
    def execute(
        self,
        candidates: CandidateStage,
        stats: JoinStats,
        filter_stage: Optional[SketchFilterStage] = None,
        dedup: Optional[DedupStage] = None,
    ) -> Set[Pair]:
        """Run the full pipeline; returns the verified result pair set.

        Counters and the per-stage timing split are accumulated into
        ``stats`` in place.  The candidate stage is consumed lazily: time
        spent producing tasks (including all recursion and bucketing work)
        lands in ``candidate_seconds``, the filter and verify stages are
        timed per flushed batch.
        """
        filter_stage = filter_stage if filter_stage is not None else self.default_filter_stage()
        dedup = dedup if dedup is not None else DedupStage()

        with span(
            "engine.execute",
            algorithm=stats.algorithm or type(candidates).__name__,
            backend=self.backend.name,
        ) as engine_span:
            pending: List = []
            pending_cost = 0
            generator = candidates.tasks()
            while True:
                started = time.perf_counter()
                task = next(generator, None)
                stats.candidate_seconds += time.perf_counter() - started
                if task is None:
                    break
                pending.append(task)
                pending_cost += task.cost
                if pending_cost >= self.batch_budget:
                    self._flush(pending, stats, filter_stage, dedup)
                    pending = []
                    pending_cost = 0
            if pending:
                self._flush(pending, stats, filter_stage, dedup)
            if engine_span.enabled:
                event("engine.candidate", seconds=stats.candidate_seconds)
                engine_span.annotate(
                    pre_candidates=stats.pre_candidates,
                    candidates=stats.candidates,
                    results=len(dedup.result),
                )
        return dedup.result

    def _flush(
        self,
        tasks: List,
        stats: JoinStats,
        filter_stage: SketchFilterStage,
        dedup: DedupStage,
    ) -> None:
        """Filter one task batch in segmented passes, then verify the survivors.

        Subset and point tasks become rows over one id buffer
        (:func:`task_rows`), filtered ``batch_budget`` pairs at a time; pair
        streams are deduplicated, side-masked and filtered as one block.
        """
        started = time.perf_counter()
        budget = self.batch_budget
        with span("engine.filter", tasks=len(tasks)) as filter_span:
            surviving_firsts: List[np.ndarray] = []
            surviving_seconds: List[np.ndarray] = []
            row_tasks = [task for task in tasks if not isinstance(task, PairCandidates)]
            ids, anchors, starts, lengths = task_rows(row_tasks)
            for rows in row_chunks(lengths, budget):
                pre, firsts, seconds = filter_stage.filter_rows(
                    ids, anchors[rows], starts[rows], lengths[rows]
                )
                stats.pre_candidates += pre
                surviving_firsts.append(firsts)
                surviving_seconds.append(seconds)
            # Raw emissions were counted by the producer; dedup here.
            fresh = dedup.unique_candidates(
                pair for task in tasks if isinstance(task, PairCandidates) for pair in task.pairs
            )
            if fresh:
                pairs_array = np.asarray(fresh, dtype=np.intp)
                firsts, seconds = pairs_array[:, 0], pairs_array[:, 1]
                # Side mask is an engine invariant, not producer discipline:
                # in a side-aware collection same-side pairs are dropped
                # before any filter sees them, whatever the candidate stage
                # emitted.
                sides = self.backend.sides
                if sides is not None:
                    cross = sides[firsts] != sides[seconds]
                    firsts, seconds = firsts[cross], seconds[cross]
                firsts, seconds = filter_stage.filter_pairs(firsts, seconds)
                surviving_firsts.append(firsts)
                surviving_seconds.append(seconds)
            firsts = np.concatenate(surviving_firsts) if surviving_firsts else _EMPTY
            seconds = np.concatenate(surviving_seconds) if surviving_seconds else _EMPTY
            stats.candidates += int(firsts.size)
            stats.verified += int(firsts.size)
            stats.filter_seconds += time.perf_counter() - started
            if filter_span.enabled:
                filter_span.annotate(survivors=int(firsts.size))
                event("engine.dedup", seen_candidates=dedup.seen_candidates)

        started = time.perf_counter()
        with span("engine.verify", candidates=int(firsts.size)):
            for start in range(0, firsts.size, budget):
                block = slice(start, start + budget)
                mask = self.verify_stage.verify(firsts[block], seconds[block])
                dedup.accept(firsts[block], seconds[block], mask)
        stats.verify_seconds += time.perf_counter() - started


_EMPTY = np.zeros(0, dtype=np.intp)


def task_rows(tasks: Sequence) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten subset and point tasks into rows ``(ids, anchors, starts, lengths)``.

    ``ids`` concatenates every task's records; row ``r`` pairs
    ``anchors[r]`` with ``ids[starts[r] : starts[r] + lengths[r]]``.  A
    :class:`SubsetCandidates` of ``n`` records gives ``n - 1`` rows (each
    record against the records after it), a :class:`PointCandidates` one
    row (the anchor against its others).  Tasks keep their order and rows
    are row-major, so the pairs come out in task order, each subset's in
    ``itertools.combinations`` order.
    """
    segments = []
    point_anchors = []  # -1 marks a subset task
    for task in tasks:
        if isinstance(task, PointCandidates):
            segments.append(task.others)
            point_anchors.append(task.anchor)
        else:
            segments.append(task.subset)
            point_anchors.append(-1)
    if not segments:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    sizes = np.fromiter(map(len, segments), dtype=np.intp, count=len(segments))
    ids = np.concatenate(segments).astype(np.intp, copy=False)
    task_anchor = np.asarray(point_anchors, dtype=np.intp)
    is_subset = task_anchor < 0
    row_counts = np.where(is_subset, np.maximum(sizes - 1, 0), np.minimum(sizes, 1))
    task_of_row = np.repeat(np.arange(sizes.size), row_counts)
    first_row = np.cumsum(row_counts) - row_counts
    row_in_task = np.arange(task_of_row.size) - first_row[task_of_row]
    subset_row = is_subset[task_of_row]
    # A subset's row ``j`` is anchored at the task's ``j``-th record and
    # pairs it with the records after it; a point row covers the segment.
    anchor_positions = (np.cumsum(sizes) - sizes)[task_of_row] + row_in_task
    starts = anchor_positions + subset_row
    lengths = sizes[task_of_row] - row_in_task - subset_row
    anchors = np.where(subset_row, ids[anchor_positions], task_anchor[task_of_row])
    return ids, anchors, starts, lengths


def row_chunks(lengths: np.ndarray, budget: int) -> List[slice]:
    """Cut rows into consecutive slices of about ``budget`` pairs each.

    A slice takes the rows whose pairs end inside one ``budget``-wide
    window, so it holds at most ``budget`` pairs plus its first row; a row
    longer than ``budget`` is a slice of its own.  This bounds the filter's
    working memory for a subset of any size.
    """
    if lengths.size == 0:
        return []
    ends = np.cumsum(lengths)
    cuts = np.searchsorted(ends, np.arange(budget, int(ends[-1]), budget), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [lengths.size]))).tolist()
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
