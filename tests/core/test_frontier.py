"""Tests for the array-frontier candidate walk.

The load-bearing property is *task-stream equivalence*: at any seed the
level-synchronous frontier of :mod:`repro.core.frontier` must emit the
identical task stream (same tasks, same order, same tree statistics) as the
scalar depth-first recursion of the test oracle :mod:`oracles.walk`, for
every stopping strategy.  Everything else — per-node key derivation, the
vectorized preorder, the depth vectorization — exists to uphold that
property and is tested against its scalar reference here.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import oracles
import pytest
from oracles.walk import chosen_split_coordinates

from repro.core.bruteforce import BruteForcer
from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import _SEED_STREAM, CPSJoin, ChosenPathCandidateStage
from repro.core.frontier import (
    child_node_keys,
    coordinate_uniforms,
    estimator_rng,
    fallback_coordinates,
    root_node_key,
)
from repro.core.preprocess import preprocess_collection
from repro.engine import JoinEngine, PointCandidates, SubsetCandidates
from repro.result import JoinStats

STOPPINGS = ("adaptive", "global", "individual")


def _make_records(seed: int, num_records: int = 300) -> List[Tuple[int, ...]]:
    """Records with planted near-duplicate clusters.

    The clusters create subproblems whose average similarity exceeds the
    adaptive cutoff, so the BRUTEFORCEPOINT branch (and the ``individual``
    strategy's expiring-record branch) is actually exercised.
    """
    rng = np.random.default_rng(seed)
    records: List[Tuple[int, ...]] = []
    for _ in range(num_records):
        size = int(rng.integers(2, 30))
        records.append(tuple(sorted(rng.choice(2000, size=size, replace=False).tolist())))
    base = tuple(range(5000, 5012))
    for variant in range(8):
        records.append(tuple(sorted(base[: 10 + (variant % 3)])))
    return records


def _normalize(task) -> tuple:
    if isinstance(task, SubsetCandidates):
        return ("subset", tuple(int(r) for r in task.subset))
    assert isinstance(task, PointCandidates)
    return ("point", int(task.anchor), tuple(int(r) for r in task.others))


def _task_stream(collection, stopping, seed, repetition, limit=4):
    """One repetition's task stream and tree statistics from ``stage.tasks()``."""
    config = CPSJoinConfig(seed=seed, limit=limit, stopping=stopping)
    join = CPSJoin(0.5, config)
    stats = JoinStats(algorithm="CPSJOIN", threshold=0.5, num_records=collection.num_records)
    engine = JoinEngine(
        collection,
        join.threshold,
        use_sketches=config.use_sketches,
        sketch_false_negative_rate=config.sketch_false_negative_rate,
        measure=join.measure,
    )
    rng = JoinEngine.repetition_rng(seed, repetition, stream=_SEED_STREAM)
    stage = ChosenPathCandidateStage(join, collection, engine, rng, stats)
    stream = [_normalize(task) for task in stage.tasks()]
    return stream, dict(stats.extra)


def _both_streams(collection, stopping, seed, repetition, limit=4):
    """(frontier, recursive-oracle) task streams of the same repetition."""
    frontier = _task_stream(collection, stopping, seed, repetition, limit)
    with pytest.MonkeyPatch.context() as patch:
        oracles.install(patch, backend=False)
        recursive = _task_stream(collection, stopping, seed, repetition, limit)
    return frontier, recursive


@pytest.fixture(scope="module")
def walk_collection():
    return preprocess_collection(_make_records(7), embedding_size=64, sketch_words=4, seed=3)


class TestTaskStreamEquivalence:
    @pytest.mark.parametrize("stopping", STOPPINGS)
    def test_frontier_matches_recursive_stream(self, walk_collection, stopping) -> None:
        for repetition in range(2):
            frontier, recursive = _both_streams(
                walk_collection, stopping, seed=11, repetition=repetition
            )
            assert frontier == recursive

    @pytest.mark.parametrize("seed", (23, 57))
    def test_equivalence_holds_across_seeds(self, walk_collection, seed) -> None:
        frontier, recursive = _both_streams(walk_collection, "adaptive", seed=seed, repetition=0)
        assert frontier == recursive

    def test_streams_exercise_both_task_shapes(self, walk_collection) -> None:
        # Guard against the suite silently comparing trivial streams: the
        # planted clusters must produce point tasks and the walk must recurse.
        stream, extra = _task_stream(walk_collection, "adaptive", seed=11, repetition=0)
        kinds = {entry[0] for entry in stream}
        assert kinds == {"subset", "point"}
        assert extra["max_depth"] >= 2
        assert extra["bruteforce_point_calls"] > 0


class TestJoinParity:
    def test_full_join_matches_recursive_oracle(self, walk_collection) -> None:
        config = CPSJoinConfig(seed=5, repetitions=3, limit=12, executor="serial")
        frontier = CPSJoin(0.5, config).join_preprocessed(walk_collection)
        with pytest.MonkeyPatch.context() as patch:
            oracles.install(patch, backend=False)
            recursive = CPSJoin(0.5, config).join_preprocessed(walk_collection)
        assert frontier.pairs == recursive.pairs
        assert frontier.stats.extra == recursive.stats.extra
        assert (frontier.stats.pre_candidates, frontier.stats.candidates) == (
            recursive.stats.pre_candidates,
            recursive.stats.candidates,
        )

    def test_frontier_parity_across_executors_and_workers(self, walk_collection) -> None:
        pair_sets = []
        for executor, workers in (("serial", 1), ("processes", 2)):
            config = CPSJoinConfig(
                seed=5, repetitions=4, limit=12, executor=executor, workers=workers
            )
            pair_sets.append(CPSJoin(0.5, config).join_preprocessed(walk_collection).pairs)
        assert pair_sets[0] == pair_sets[1]


class TestNodeKeys:
    def test_root_key_is_deterministic_and_entropy_sensitive(self) -> None:
        assert root_node_key(123) == root_node_key(123)
        assert root_node_key(123) != root_node_key(124)

    def test_child_keys_depend_on_parent_and_rank(self) -> None:
        parents = np.array([root_node_key(1)] * 3, dtype=np.uint64)
        keys = child_node_keys(parents, np.arange(3))
        assert len(set(keys.tolist())) == 3
        again = child_node_keys(parents, np.arange(3))
        assert np.array_equal(keys, again)

    def test_scalar_split_coordinates_match_frontier_row(self) -> None:
        # The oracle's per-node split sampling must reproduce exactly one
        # row of the frontier's vectorized Bernoulli mask (incl. the
        # fallback rule).
        keys = np.array([root_node_key(s) for s in range(40)], dtype=np.uint64)
        for probability in (0.0, 0.2, 0.9):
            uniforms = coordinate_uniforms(keys, 16)
            for row, key in enumerate(keys.tolist()):
                expected = np.flatnonzero(uniforms[row] < probability)
                if expected.size == 0:
                    expected = fallback_coordinates(np.array([key], dtype=np.uint64), 16)
                scalar = chosen_split_coordinates(int(key), 16, probability)
                assert np.array_equal(scalar, expected)

    def test_coordinate_uniforms_are_counter_based(self) -> None:
        keys = np.array([root_node_key(9), root_node_key(10)], dtype=np.uint64)
        both = coordinate_uniforms(keys, 32)
        one = coordinate_uniforms(keys[1:], 32)
        assert np.array_equal(both[1], one[0])
        assert both.min() >= 0.0 and both.max() < 1.0

    def test_estimator_rng_is_a_pure_function_of_the_node_key(self) -> None:
        key = root_node_key(77)
        first = estimator_rng(key).integers(0, 1 << 30, size=8)
        second = estimator_rng(key).integers(0, 1 << 30, size=8)
        other = estimator_rng(key + 1).integers(0, 1 << 30, size=8)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)


class TestIndividualDepths:
    def test_vectorized_depths_match_scalar_reference(self, walk_collection) -> None:
        import math

        config = CPSJoinConfig(seed=3)
        join = CPSJoin(0.5, config)
        engine = JoinEngine(walk_collection, 0.5, measure=join.measure)

        # Two estimators with identically-seeded generators: the sampled
        # average estimate consumes generator state, so each computation gets
        # its own stream to make the comparison exact.
        def make_estimator() -> BruteForcer:
            return BruteForcer(
                walk_collection,
                join.embedded_threshold,
                rng=np.random.default_rng(99),
                backend=engine.backend,
            )

        subset = list(range(walk_collection.num_records))
        depths = join._individual_depths(subset, make_estimator())

        averages = make_estimator().average_similarities(subset, method=config.average_method)
        threshold = join.embedded_threshold
        num_records = max(2, len(subset))
        expected = []
        for average in averages:
            if average >= threshold:
                expected.append(0)
            else:
                clamped = max(float(average), 1e-6)
                expected.append(
                    int(max(1.0, math.ceil(math.log(num_records) / math.log(threshold / clamped))))
                )
        assert depths.tolist() == expected
        assert depths.dtype == np.int64


class TestPreorderPositions:
    def test_positions_match_explicit_dfs(self) -> None:
        from repro.core.frontier import _preorder_positions

        # Tree:        0
        #            / | \
        #           0  1  2          (level 1, parents [0, 0, 0])
        #          /|     |\
        #         0 1     2 3        (level 2, parents [0, 0, 2, 2])
        level_counts = [1, 3, 4]
        level_parents = [
            np.array([0]),
            np.array([0, 0, 0]),
            np.array([0, 0, 2, 2]),
        ]
        positions = _preorder_positions(level_counts, level_parents)
        assert positions[0].tolist() == [0]
        # DFS: root=0, child0=1, its kids 2 and 3; child1=4; child2=5, kids 6, 7.
        assert positions[1].tolist() == [1, 4, 5]
        assert positions[2].tolist() == [2, 3, 6, 7]
