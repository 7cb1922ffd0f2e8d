"""Property-based tests (hypothesis) for index/engine equivalence.

The contract the build-once/query-many index makes:

* in ``"exact"`` mode, querying the index with its own collection returns
  *exactly* the pairs of the batch exact join — at every threshold up to
  λ = 1, and regardless of whether the index was built in one shot or grown
  by incremental inserts;
* in every candidate mode, an index grown by inserts — with queries served
  between them — answers every query like a bulk build of the same records,
  at the same candidate cost;
* the approximate candidate modes return subsets of the exact result
  (precision 1 — every reported pair is verified);
* the per-stage timing split of the staged engine accounts for the join's
  wall clock.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.exact.naive import naive_join
from repro.index import SimilarityIndex

# Collections of 2-25 records, each with 2-10 tokens from a small universe so
# qualifying pairs actually occur.
record_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=20), min_size=2, max_size=10).map(
        lambda tokens: tuple(sorted(tokens))
    ),
    min_size=2,
    max_size=25,
)
threshold_strategy = st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9])
# The exact index also serves λ = 1: only exact duplicates qualify, and the
# small universe makes duplicate records common.
exact_threshold_strategy = st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])


@settings(max_examples=40, deadline=None)
@given(record_strategy, exact_threshold_strategy)
def test_exact_index_equals_batch_join(records, threshold) -> None:
    truth = naive_join(records, threshold).pairs
    index = SimilarityIndex.build(records, threshold)
    assert index.self_join_pairs() == truth


def _answers_with_work(index, queries):
    """Each query's answer with the pre-candidates it cost."""
    answers = []
    for query in queries:
        before = index.stats.pre_candidates
        answers.append((index.query(query), index.stats.pre_candidates - before))
    return answers


@pytest.mark.parametrize("mode", ["exact", "chosenpath", "lsh"])
@settings(max_examples=30, deadline=None)
@given(records=record_strategy, threshold=exact_threshold_strategy)
def test_incremental_inserts_equal_bulk_build(mode, records, threshold) -> None:
    # A served index answers reads between its inserts; the reads must not
    # change what the inserts build (WAL replay rebuilds without them).
    assume(mode == "exact" or threshold < 1.0)
    split = len(records) // 2
    incremental = SimilarityIndex.build(records[:split], threshold, candidates=mode, seed=11)
    for record in records[split:]:
        # Reads between inserts; records[-1] is inserted last, so reading it
        # walks tree paths that no insert has taken yet.
        incremental.query_batch([record, records[-1]])
        incremental.insert(record)
    bulk = SimilarityIndex.build(records, threshold, candidates=mode, seed=11)
    assert _answers_with_work(incremental, records) == _answers_with_work(bulk, records)
    if mode == "exact":
        assert incremental.self_join_pairs() == naive_join(records, threshold).pairs


@settings(max_examples=20, deadline=None)
@given(record_strategy, threshold_strategy)
def test_approximate_modes_are_subsets(records, threshold) -> None:
    truth = naive_join(records, threshold).pairs
    for mode in ("chosenpath", "lsh"):
        index = SimilarityIndex.build(records, threshold, candidates=mode, seed=0)
        assert index.self_join_pairs() <= truth


@settings(max_examples=15, deadline=None)
@given(record_strategy, threshold_strategy)
def test_staged_timings_bounded_by_elapsed(records, threshold) -> None:
    result = CPSJoin(threshold, CPSJoinConfig(seed=0, repetitions=2)).join(records)
    stats = result.stats
    staged = stats.candidate_seconds + stats.filter_seconds + stats.verify_seconds
    assert staged > 0.0
    assert staged <= stats.elapsed_seconds * 1.05 + 0.05
