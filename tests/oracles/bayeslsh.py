"""BayesLSH's word-by-word posterior check: the reference for the block check."""

from __future__ import annotations

import numpy as np

from repro.approximate.bayeslsh import _WORD_BITS, _posterior_above_threshold

__all__ = ["incremental_sketch_check", "scalar_filter_pairs"]


def incremental_sketch_check(join, first_words: np.ndarray, second_words: np.ndarray) -> bool:
    """Compare two sketches word by word, pruning once the posterior drops too low."""
    agreements = 0
    comparisons = 0
    for word_first, word_second in zip(first_words, second_words):
        differing = bin(int(word_first) ^ int(word_second)).count("1")
        comparisons += _WORD_BITS
        agreements += _WORD_BITS - differing
        posterior = float(_posterior_above_threshold(agreements, comparisons, join.threshold))
        if posterior < join.pruning_probability:
            return False
    return True


def scalar_filter_pairs(filter_stage, firsts: np.ndarray, seconds: np.ndarray):
    """:meth:`BayesianFilterStage.filter_pairs`, one pair at a time."""
    words = filter_stage.backend.collection.sketches.words
    surviving = np.array(
        [
            incremental_sketch_check(filter_stage.join, words[first], words[second])
            for first, second in zip(firsts, seconds)
        ],
        dtype=bool,
    )
    return firsts[surviving], seconds[surviving]
