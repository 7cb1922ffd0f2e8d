"""Scalar execution backend: the reference semantics of the verify and filter kernels.

Every candidate surviving the size and sketch filters is verified with the
early-terminating merge of :func:`repro.similarity.verify.verify_pair_sorted`
(or its measure-aware variant), one pair at a time, and the all-pairs filter
walks the subset row by row at every size.  Everything else — the size
probe, the sketch estimate, the average-similarity estimators — is inherited
from the production backend, so a differential test isolates exactly the
block verify kernel and the block / small-subset filter kernels.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.backend import ExecutionBackend, check_backend
from repro.similarity.verify import verify_pair_sorted, verify_pair_sorted_measure

__all__ = ["ScalarBackend", "make_scalar_backend"]


class ScalarBackend(ExecutionBackend):
    """Per-pair verification and row-walk filtering (the reference semantics)."""

    def verify_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        records = self.collection.records
        record = records[record_id]
        accepted = np.zeros(len(others), dtype=bool)
        for position, other_id in enumerate(others):
            other = records[int(other_id)]
            if self.measure.is_default:
                accepted[position] = verify_pair_sorted(record, other, self.threshold)[0]
            else:
                accepted[position] = verify_pair_sorted_measure(
                    record, other, self.threshold, self.measure
                )[0]
        return accepted

    def filter_subset(
        self, subset: Sequence[int], use_sketches: bool, sketch_cutoff: float
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        return self._filter_subset_rows(list(subset), use_sketches, sketch_cutoff)


def make_scalar_backend(backend, collection, threshold, measure=None) -> ScalarBackend:
    """Drop-in for :func:`repro.backend.make_backend` that builds the oracle."""
    check_backend(backend)
    return ScalarBackend(collection, threshold, measure)
