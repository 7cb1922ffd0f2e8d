"""Scalar execution backend: the reference semantics of the filter and verify kernels.

The filter walks the engine's rows pair by pair in Python: side mask, the
measure's size probe on Python numbers, and the sketch estimate
``1 - 2d/num_bits`` with the Hamming distance ``d`` taken by
``int.bit_count`` on the big-integer sketches of
:meth:`~repro.core.preprocess.PreprocessedCollection.sketch_bigints`.
Every survivor is verified with the merge of
:func:`repro.similarity.verify.verify_pair_sorted` (or its measure-aware
variant), one pair at a time.  Everything else — the row flattening and
chunking of the engine, the average-similarity estimators — is shared with
production, so a differential test isolates exactly the segmented
expansion, filter and verify kernels.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.backend import ExecutionBackend, check_backend
from repro.similarity.verify import verify_pair_sorted, verify_pair_sorted_measure

__all__ = ["ScalarBackend", "make_scalar_backend"]


class ScalarBackend(ExecutionBackend):
    """Pair-by-pair row walk filtering and merge verification (the reference semantics)."""

    def filter_rows(self, ids, anchors, starts, lengths, use_sketches, sketch_cutoff):
        ids = ids.tolist()
        pairs = (
            (anchor, ids[position])
            for anchor, start, length in zip(anchors.tolist(), starts.tolist(), lengths.tolist())
            for position in range(start, start + length)
        )
        return self._filter(pairs, use_sketches, sketch_cutoff)

    def filter_pairs(self, firsts, seconds, use_sketches, sketch_cutoff):
        return self._filter(zip(firsts.tolist(), seconds.tolist()), use_sketches, sketch_cutoff)

    def _filter(
        self, pairs: Iterable[Tuple[int, int]], use_sketches: bool, sketch_cutoff: float
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        sides = None if self.sides is None else self.sides.tolist()
        sizes = self.measure_sizes.tolist()
        sketch_ints = self.collection.sketch_bigints()
        num_bits = self.collection.sketches.num_bits
        pre_candidates = 0
        firsts, seconds = [], []
        for first, second in pairs:
            if sides is not None and sides[first] == sides[second]:
                continue
            pre_candidates += 1
            if not self.measure.size_compatible(sizes[first], sizes[second], self.threshold):
                continue
            if use_sketches:
                distance = (sketch_ints[first] ^ sketch_ints[second]).bit_count()
                if 1.0 - 2.0 * distance / num_bits < sketch_cutoff:
                    continue
            firsts.append(first)
            seconds.append(second)
        return pre_candidates, np.asarray(firsts, dtype=np.intp), np.asarray(seconds, dtype=np.intp)

    def verify_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        records = self.collection.records
        accepted = np.zeros(len(firsts), dtype=bool)
        for position, (first, second) in enumerate(zip(firsts.tolist(), seconds.tolist())):
            if self.measure.is_default:
                accepted[position] = verify_pair_sorted(
                    records[first], records[second], self.threshold
                )[0]
            else:
                accepted[position] = verify_pair_sorted_measure(
                    records[first], records[second], self.threshold, self.measure
                )[0]
        return accepted


def make_scalar_backend(backend, collection, threshold, measure=None) -> ScalarBackend:
    """Drop-in for :func:`repro.backend.make_backend` that builds the oracle."""
    check_backend(backend)
    return ScalarBackend(collection, threshold, measure)
