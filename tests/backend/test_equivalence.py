"""Cross-algorithm and production-versus-oracle equivalence property tests.

Two families of invariants protect the semantics against aggressive
optimization of the execution layer:

* **Exact algorithms agree**: on randomized collections, ``naive``,
  ``allpairs`` and ``ppjoin`` return the identical pair set (the problem has
  a unique answer).
* **Production agrees with the scalar oracles**: for every randomized
  algorithm (CPSJOIN, MinHash LSH, BayesLSH) the production run's verified
  pairs — and its candidate statistics — equal those of the same join routed
  through the scalar references of ``tests/oracles`` (pair-by-pair row-walk
  filtering and per-pair merge verification; for CPSJOIN also the depth-first
  recursion; for MinHash LSH dict bucketing; for BayesLSH the word-by-word
  posterior check) at seed parity.  Degenerate collections — single-token
  records, all-identical records in one root subset, heavy duplicates on
  both sides of an R ⋈ S join — get their own cases.
"""

from __future__ import annotations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.bayeslsh import scalar_filter_pairs

from repro.approximate.bayeslsh import BayesianFilterStage, BayesLSHJoin
from repro.approximate.minhash_lsh import MinHashLSHJoin
from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import cpsjoin
from repro.exact.allpairs import all_pairs_join
from repro.exact.naive import naive_join
from repro.exact.ppjoin import ppjoin
from repro.join import similarity_join, similarity_join_rs

# Collections of 2-30 records with tokens from a small universe so qualifying
# pairs actually occur (same shape as tests/property/test_join_properties.py).
record_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=25), min_size=2, max_size=12).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=2,
    max_size=30,
)
threshold_strategy = st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9])
# Degenerate collections: single-token records over a tiny universe, so most
# records are exact duplicates of each other.
single_token_strategy = st.lists(
    st.integers(min_value=0, max_value=5).map(lambda token: (token,)), min_size=2, max_size=40
)


def random_records(seed: int, num_records: int = 80, universe: int = 120):
    """A deterministic random collection with planted overlap structure."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(num_records):
        size = int(rng.integers(2, 18))
        records.append(tuple(sorted(rng.choice(universe, size=size, replace=False).tolist())))
    # Plant near-duplicates so thresholds above 0.5 have qualifying pairs.
    for index in range(0, min(10, num_records - 1), 2):
        base = list(records[index])
        base[-1] = (base[-1] + 1) % universe
        records[index + 1] = tuple(sorted(set(base)))
    return records


class TestExactAlgorithmsAgree:
    @settings(max_examples=30, deadline=None)
    @given(record_strategy, threshold_strategy)
    def test_naive_allpairs_ppjoin_identical(self, records, threshold) -> None:
        expected = naive_join(records, threshold).pairs
        assert all_pairs_join(records, threshold).pairs == expected
        assert ppjoin(records, threshold).pairs == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_agreement_on_planted_collections(self, seed, threshold) -> None:
        records = random_records(seed)
        expected = naive_join(records, threshold).pairs
        assert all_pairs_join(records, threshold).pairs == expected
        assert ppjoin(records, threshold).pairs == expected


def _stats_signature(result):
    stats = result.stats
    return (stats.pre_candidates, stats.candidates, stats.verified, stats.results)


def _assert_matches_oracle(run) -> None:
    """``run()`` in production equals ``run()`` with every oracle swapped in."""
    production = run()
    with pytest.MonkeyPatch.context() as patch:
        oracles.install(patch)
        reference = run()
    assert production.pairs == reference.pairs
    assert _stats_signature(production) == _stats_signature(reference)
    assert production.stats.extra == reference.stats.extra


class TestProductionMatchesOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_cpsjoin_matches_oracle(self, seed, threshold) -> None:
        records = random_records(100 + seed)
        config = CPSJoinConfig(seed=seed, repetitions=4, limit=10, executor="serial")
        _assert_matches_oracle(lambda: cpsjoin(records, threshold, config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [0.5, 0.7])
    def test_minhash_matches_oracle(self, seed, threshold) -> None:
        records = random_records(200 + seed)
        _assert_matches_oracle(lambda: MinHashLSHJoin(threshold, seed=seed).join(records))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("threshold", [0.5, 0.7])
    @pytest.mark.parametrize("candidates", ["lsh", "allpairs"])
    def test_bayeslsh_matches_oracle(self, seed, threshold, candidates) -> None:
        records = random_records(300 + seed)
        _assert_matches_oracle(
            lambda: BayesLSHJoin(threshold, seed=seed, candidates=candidates).join(records)
        )

    @settings(max_examples=20, deadline=None)
    @given(record_strategy, threshold_strategy)
    def test_cpsjoin_matches_oracle_property(self, records, threshold) -> None:
        config = CPSJoinConfig(seed=7, repetitions=3, limit=5, executor="serial")
        _assert_matches_oracle(lambda: cpsjoin(records, threshold, config))

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash", "bayeslsh"])
    def test_public_api_matches_oracle(self, algorithm) -> None:
        records = random_records(400)
        _assert_matches_oracle(
            lambda: similarity_join(records, 0.6, algorithm=algorithm, seed=5, executor="serial")
        )

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash", "bayeslsh", "allpairs"])
    def test_other_backends_rejected_by_every_algorithm(self, algorithm) -> None:
        with pytest.raises(ValueError, match="only backend is 'numpy'"):
            similarity_join(random_records(401), 0.6, algorithm=algorithm, backend="python")


class TestDegenerateInputs:
    @settings(max_examples=20, deadline=None)
    @given(single_token_strategy, threshold_strategy)
    def test_single_token_records_match_oracle(self, records, threshold) -> None:
        config = CPSJoinConfig(seed=3, repetitions=2, limit=3, executor="serial")
        _assert_matches_oracle(lambda: cpsjoin(records, threshold, config))

    @pytest.mark.parametrize("algorithm", ["minhash", "bayeslsh"])
    def test_single_token_records_baselines_match_oracle(self, algorithm) -> None:
        records = [(token % 7,) for token in range(60)]
        _assert_matches_oracle(lambda: similarity_join(records, 0.5, algorithm=algorithm, seed=2))

    def test_identical_records_in_one_root_subset(self) -> None:
        # 600 copies of one record at limit=1000: the root subproblem is
        # brute-forced whole, one task of 179,700 pairs that the engine
        # filters in several chunks and every pair of which survives.
        count = 600
        records = [(1, 2, 3, 4, 5)] * count
        config = CPSJoinConfig(seed=4, repetitions=1, limit=1000, executor="serial")
        production = cpsjoin(records, 0.8, config)
        assert len(production.pairs) == count * (count - 1) // 2
        assert production.stats.extra["bruteforce_pairs_calls"] == 1.0
        _assert_matches_oracle(lambda: cpsjoin(records, 0.8, config))

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash", "bayeslsh"])
    def test_rs_heavy_duplicates_on_both_sides(self, algorithm) -> None:
        rng = np.random.default_rng(9)
        common = (3, 4, 5, 6, 7, 8)
        near = (3, 4, 5, 6, 7, 9)
        left = [common] * 40 + [near] * 10 + [
            tuple(sorted(rng.choice(80, size=6, replace=False).tolist())) for _ in range(20)
        ]
        right = [common] * 30 + [near] * 15 + [
            tuple(sorted(rng.choice(80, size=6, replace=False).tolist())) for _ in range(20)
        ]

        def run():
            return similarity_join_rs(
                left, right, 0.6, algorithm=algorithm, seed=8, executor="serial"
            )

        _assert_matches_oracle(run)
        assert run().stats.extra["same_side_verified"] == 0.0


class TestBayesianFilterMatchesScalarCheck:
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("pruning_probability", [0.01, 0.025, 0.2])
    def test_block_check_matches_scalar_check(self, threshold, pruning_probability) -> None:
        # Sketch pairs with controlled per-word Hamming distances: record 0
        # is all zeros, record i has d random bits set in each word, with d
        # spread over the range where the posterior crosses the pruning
        # probability — so cumulative agreement counts land exactly on the
        # per-word minima the block check compares against.
        from types import SimpleNamespace

        rng = np.random.default_rng(int(threshold * 100) + int(pruning_probability * 1000))
        num_pairs, num_words = 3000, 4
        words = np.zeros((num_pairs + 1, num_words), dtype=np.uint64)
        for row in range(1, num_pairs + 1):
            for word in range(num_words):
                distance = int(rng.integers(0, 33))
                bits = rng.choice(64, size=distance, replace=False)
                words[row, word] = np.uint64(sum(1 << int(bit) for bit in bits))
        sketches = SimpleNamespace(words=words, num_words=num_words)
        backend = SimpleNamespace(collection=SimpleNamespace(sketches=sketches))
        join = BayesLSHJoin(threshold, pruning_probability=pruning_probability)
        stage = BayesianFilterStage(join, backend)
        firsts = np.zeros(num_pairs, dtype=np.intp)
        seconds = np.arange(1, num_pairs + 1, dtype=np.intp)
        block = stage.filter_pairs(firsts, seconds)
        scalar = scalar_filter_pairs(stage, firsts, seconds)
        assert np.array_equal(block[1], scalar[1])
        # Guard against a vacuous comparison: the check must prune some
        # pairs and keep others.
        assert 0 < block[1].size < num_pairs
