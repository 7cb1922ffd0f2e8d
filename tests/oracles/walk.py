"""Depth-first Chosen Path recursion: the reference the array frontier must reproduce.

A direct transcription of Algorithms 1 and 2 as a recursive generator, one
node at a time.  It derives node randomness exactly like the frontier —
node keys from :func:`repro.core.frontier.root_node_key` /
:func:`~repro.core.frontier.child_node_keys`, split coordinates from
:func:`~repro.core.frontier.coordinate_uniforms`, estimator streams from
:func:`~repro.core.frontier.estimator_rng` — so at any seed the two walks
must emit the identical task stream (same tasks, same order) and the
identical ``tree_nodes`` / ``max_depth`` / ``bruteforce_*_calls``
statistics.

:func:`recursive_tasks` takes the production
:class:`~repro.core.cpsjoin.ChosenPathCandidateStage` after its ``tasks()``
has drawn ``root_entropy`` (see :func:`oracles.install`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.core.frontier import (
    child_node_keys,
    coordinate_uniforms,
    estimator_rng,
    fallback_coordinates,
    root_node_key,
)
from repro.engine import PointCandidates, SubsetCandidates, Task

__all__ = ["chosen_split_coordinates", "recursive_tasks", "split"]


def chosen_split_coordinates(node_key: int, num_functions: int, probability: float) -> np.ndarray:
    """Sorted split coordinates of one node.

    Each coordinate is chosen independently with the splitting probability;
    when none fires the fallback coordinate guarantees progress.
    """
    keys = np.array([node_key], dtype=np.uint64)
    chosen = np.flatnonzero(coordinate_uniforms(keys, num_functions)[0] < probability)
    if chosen.size == 0:
        chosen = fallback_coordinates(keys, num_functions)
    return chosen


def split(join, collection, subset: List[int], node_key: int) -> List[List[int]]:
    """Split a subproblem into buckets (Algorithm 1 with the Section V-A.3 heuristic).

    An expected ``1/λ`` coordinates of the embedding are sampled; for each
    sampled coordinate the subproblem is partitioned by MinHash value with a
    dict, buckets in first-occurrence order and members in subset order.
    Buckets with fewer than two records are dropped.
    """
    num_functions = collection.embedding_size
    probability = min(1.0, 1.0 / (join.embedded_threshold * num_functions))
    matrix = collection.signatures.matrix
    buckets: List[List[int]] = []
    for coordinate in chosen_split_coordinates(node_key, num_functions, probability):
        groups: Dict[int, List[int]] = {}
        for record_id in subset:
            groups.setdefault(int(matrix[record_id, coordinate]), []).append(record_id)
        buckets.extend(bucket for bucket in groups.values() if len(bucket) >= 2)
    return buckets


def recursive_tasks(stage) -> Iterator[Task]:
    """The candidate task stream of one repetition, walked depth-first."""
    return _RecursiveWalk(stage).tasks()


class _RecursiveWalk:
    def __init__(self, stage) -> None:
        self.join = stage.join
        self.config = stage.join.config
        self.collection = stage.collection
        self.stats = stage.stats
        self.estimator = stage.estimator
        self.root_entropy = stage.root_entropy

    def tasks(self) -> Iterator[Task]:
        all_records = list(range(self.collection.num_records))
        root_key = root_node_key(self.root_entropy)
        if self.config.stopping == "adaptive":
            yield from self._adaptive(all_records, 0, root_key)
        elif self.config.stopping == "global":
            depth = self.join._global_depth(self.collection.num_records)
            yield from self._fixed_depth(all_records, 0, depth, root_key)
        else:  # individual
            depth_values = self.join._individual_depths(all_records, self.estimator)
            depths = {record_id: int(depth) for record_id, depth in zip(all_records, depth_values)}
            yield from self._individual(all_records, 0, depths, root_key)

    # ------------------------------------------------------------------ node bookkeeping
    def _enter_node(self, depth: int) -> None:
        self.stats.add_extra("tree_nodes")
        self.stats.max_extra("max_depth", float(depth))

    def _children(self, subset: List[int], node_key: int) -> Iterator[tuple]:
        """Buckets of a node paired with their child node keys, in rank order."""
        buckets = split(self.join, self.collection, subset, node_key)
        if not buckets:
            return
        keys = child_node_keys(
            np.full(len(buckets), node_key, dtype=np.uint64), np.arange(len(buckets))
        )
        for rank, bucket in enumerate(buckets):
            yield bucket, int(keys[rank])

    # ------------------------------------------------------------------ adaptive strategy (the paper's)
    def _adaptive(self, subset: List[int], depth: int, node_key: int) -> Iterator[Task]:
        self._enter_node(depth)
        subset = yield from self._brute_force_step(subset, node_key)
        if len(subset) < 2:
            return
        if depth >= self.config.max_depth:
            yield SubsetCandidates(tuple(subset))
            return
        for bucket, child_key in self._children(subset, node_key):
            yield from self._adaptive(bucket, depth + 1, child_key)

    def _brute_force_step(self, subset: List[int], node_key: int) -> Iterator[Task]:
        """The BRUTEFORCE step (Algorithm 2): returns the records that keep branching."""
        config = self.config
        stats = self.stats
        if len(subset) <= config.limit:
            yield SubsetCandidates(tuple(subset))
            stats.add_extra("bruteforce_pairs_calls")
            return []
        averages = self.estimator.average_similarities(
            subset, method=config.average_method, rng=estimator_rng(node_key)
        )
        cutoff = (1.0 - config.epsilon) * self.join.embedded_threshold
        to_remove = [record_id for record_id, average in zip(subset, averages) if average > cutoff]
        if to_remove:
            stats.add_extra("bruteforce_point_calls", float(len(to_remove)))
            removed_set = set(to_remove)
            for record_id in to_remove:
                others = tuple(other for other in subset if other != record_id)
                if others:
                    yield PointCandidates(record_id, others)
            subset = [record_id for record_id in subset if record_id not in removed_set]
            if len(subset) <= config.limit:
                yield SubsetCandidates(tuple(subset))
                stats.add_extra("bruteforce_pairs_calls")
                return []
        return subset

    # ------------------------------------------------------------------ ablation strategies
    def _fixed_depth(
        self, subset: List[int], depth: int, stop_depth: int, node_key: int
    ) -> Iterator[Task]:
        self._enter_node(depth)
        if len(subset) < 2:
            return
        if depth >= stop_depth or len(subset) <= self.config.limit:
            yield SubsetCandidates(tuple(subset))
            return
        for bucket, child_key in self._children(subset, node_key):
            yield from self._fixed_depth(bucket, depth + 1, stop_depth, child_key)

    def _individual(
        self, subset: List[int], depth: int, depths: Dict[int, int], node_key: int
    ) -> Iterator[Task]:
        self._enter_node(depth)
        if len(subset) < 2:
            return
        if len(subset) <= self.config.limit or depth >= self.config.max_depth:
            yield SubsetCandidates(tuple(subset))
            return
        expiring = [record_id for record_id in subset if depths.get(record_id, 0) <= depth]
        if expiring:
            for record_id in expiring:
                others = tuple(other for other in subset if other != record_id)
                if others:
                    yield PointCandidates(record_id, others)
            expiring_set = set(expiring)
            subset = [record_id for record_id in subset if record_id not in expiring_set]
            if len(subset) < 2:
                return
        for bucket, child_key in self._children(subset, node_key):
            yield from self._individual(bucket, depth + 1, depths, child_key)
