"""Property tests: every registered measure against a set-arithmetic oracle.

The oracle computes each measure straight from Python set operations, with
no shared code with the join implementations — the same style as the other
property suites.  The exact algorithms must equal it exactly; the
randomized algorithms (which run at the measure's embedded Jaccard floor)
must never report a pair the oracle rejects.
"""

from __future__ import annotations

import random

import pytest

from repro.join import similarity_join
from repro.result import canonical_pair
from repro.similarity.measures import MEASURE_NAMES, get_measure

# Dyadic weights (multiples of 1/8) are exact in binary floating point, so
# weighted sums agree bit-for-bit no matter the summation order (Python
# sequential vs numpy pairwise) and the oracle comparison stays exact.
DYADIC_WEIGHTS = {token: (1 + token % 8) / 8.0 for token in range(64)}


def make_records(seed: int, count: int = 70, universe: int = 48):
    rng = random.Random(seed)
    return [
        tuple(sorted(rng.sample(range(universe), rng.randint(2, 11))))
        for _ in range(count)
    ]


def oracle_pairs(records, threshold: float, measure) -> set:
    pairs = set()
    sets = [set(record) for record in records]
    for first in range(len(records)):
        for second in range(first + 1, len(records)):
            if measure.score(sets[first], sets[second]) >= threshold - 1e-12:
                pairs.add(canonical_pair(first, second))
    return pairs


@pytest.mark.parametrize("name", MEASURE_NAMES)
@pytest.mark.parametrize("algorithm", ("allpairs", "ppjoin", "naive"))
def test_exact_algorithms_equal_oracle(name: str, algorithm: str) -> None:
    records = make_records(seed=101)
    threshold = 0.5
    measure = get_measure(name)
    result = similarity_join(records, threshold, algorithm=algorithm, measure=name)
    assert result.pairs == oracle_pairs(records, threshold, measure)


@pytest.mark.parametrize("name", ("jaccard", "cosine", "dice"))
@pytest.mark.parametrize("algorithm", ("allpairs", "ppjoin", "naive"))
def test_weighted_exact_algorithms_equal_oracle(name: str, algorithm: str) -> None:
    records = make_records(seed=202)
    threshold = 0.55
    measure = get_measure(name, weights=DYADIC_WEIGHTS)
    result = similarity_join(records, threshold, algorithm=algorithm, measure=measure)
    assert result.pairs == oracle_pairs(records, threshold, measure)


@pytest.mark.parametrize("workers", (1, 4))
def test_cpsjoin_measure_is_oracle_subset_across_workers(workers: int) -> None:
    # CPSJOIN runs at the cosine threshold's embedded Jaccard floor; its
    # verified output must be a subset of the oracle at every worker count,
    # and identical to the scalar oracle backend's for a fixed seed.
    import oracles

    records = make_records(seed=303)
    threshold = 0.7
    measure = get_measure("cosine")
    reference = oracle_pairs(records, threshold, measure)
    result = similarity_join(
        records,
        threshold,
        algorithm="cpsjoin",
        measure="cosine",
        seed=7,
        workers=workers,
    )
    assert result.pairs <= reference
    with pytest.MonkeyPatch.context() as patch:
        oracles.install(patch)
        scalar = similarity_join(
            records, threshold, algorithm="cpsjoin", measure="cosine", seed=7
        )
    assert result.pairs == scalar.pairs


@pytest.mark.parametrize("workers", (1, 4))
def test_minhash_measure_is_oracle_subset_across_workers(workers: int) -> None:
    records = make_records(seed=404)
    threshold = 0.6
    measure = get_measure("dice")
    reference = oracle_pairs(records, threshold, measure)
    result = similarity_join(
        records,
        threshold,
        algorithm="minhash",
        measure="dice",
        seed=11,
        workers=workers,
    )
    assert result.pairs <= reference


def test_floorless_measures_rejected_by_randomized_algorithms() -> None:
    records = make_records(seed=505, count=12)
    for name in ("overlap", "containment"):
        with pytest.raises(ValueError, match="Jaccard floor"):
            similarity_join(records, 0.5, algorithm="cpsjoin", measure=name)


def test_bayeslsh_rejects_non_default_measures() -> None:
    records = make_records(seed=606, count=12)
    with pytest.raises(ValueError, match="Jaccard"):
        similarity_join(records, 0.5, algorithm="bayeslsh", measure="cosine")


@pytest.mark.parametrize("name", ("jaccard", "cosine", "braun_blanquet"))
def test_query_topk_is_threshold_query_prefix(name: str) -> None:
    from repro.index import SimilarityIndex

    records = make_records(seed=707)
    index = SimilarityIndex.build(records, 0.45, measure=name, seed=3)
    for query_id in range(0, len(records), 7):
        matches = index.query(records[query_id], exclude=query_id)
        for k in (1, 3, 10**6):
            assert index.query_topk(
                records[query_id], k, exclude=query_id
            ) == matches[: min(k, len(matches))]
        floored = index.query_topk(records[query_id], 10**6, floor=0.8, exclude=query_id)
        assert floored == [match for match in matches if match[1] >= 0.8]
