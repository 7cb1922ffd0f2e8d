"""Dict-based MinHash LSH bucketing: the reference for the lexsort grouping kernel."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["dict_bucketize"]


def dict_bucketize(collection, coordinates: np.ndarray) -> List[List[int]]:
    """Buckets keyed by the concatenated MinHash values on ``coordinates``.

    Records are inserted into a dict in id order, so buckets come out in
    first-occurrence order with members in record order; buckets of fewer
    than two records are dropped.
    """
    keys = collection.signatures.matrix[:, coordinates]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for record_id in range(collection.num_records):
        groups.setdefault(tuple(int(value) for value in keys[record_id]), []).append(record_id)
    return [bucket for bucket in groups.values() if len(bucket) >= 2]
