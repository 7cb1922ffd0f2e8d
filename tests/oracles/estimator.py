"""Scalar reference of the sampled average-similarity estimator (Section V-A.4).

Each record's summed Hamming distance to the sample is taken pair by pair
with ``int.bit_count`` on the big-integer sketches of
:meth:`~repro.core.preprocess.PreprocessedCollection.sketch_bigints` — the
definition the production kernel's integer byte tables must reproduce bit
for bit.  The sample is drawn exactly as production draws it, so equally
seeded generators give the same sample.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["scalar_average_similarity_sampled"]


def scalar_average_similarity_sampled(
    collection, subset: Sequence[int], sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Each subset record's mean estimated similarity to a random sample of the subset."""
    sketches = collection.sketch_bigints()
    num_bits = collection.sketches.num_bits
    subset = [int(record) for record in subset]
    sample_count = min(sample_size, len(subset))
    positions = rng.choice(len(subset), size=sample_count, replace=False)
    sample = [sketches[subset[position]] for position in positions]
    averages = np.array(
        [
            1.0 - 2.0 * sum((sketches[record] ^ other).bit_count() for other in sample) / (sample_count * num_bits)
            for record in subset
        ]
    )
    # A sampled record's own (similarity 1) term leaves its mean.
    if sample_count > 1:
        averages[positions] = (averages[positions] * sample_count - 1.0) / (sample_count - 1)
    return averages
