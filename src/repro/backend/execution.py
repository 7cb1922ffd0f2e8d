"""The execution backend: filter, verify and estimate kernels over one collection.

Every join in the repository funnels its candidate pairs through the same
three-stage check (size-compatibility probe, 1-bit minwise sketch filter,
exact verification on the token sets) and estimates average similarities for
the adaptive BRUTEFORCE rule.  :class:`ExecutionBackend` bundles those
kernels so the policy layers (:class:`~repro.core.bruteforce.BruteForcer`,
the staged :class:`~repro.engine.JoinEngine`, the LSH baselines) stay
agnostic of how the arithmetic is executed.  The hot loops run over whole
candidate blocks:

* Token sets are read as CSR-packed arrays straight out of the collection's
  :class:`repro.store.RecordStore` — zero-copy even when the store lives in a
  shared-memory segment attached by a worker process.  The intersection of
  one record with a block of candidates is a single ``searchsorted`` over the
  concatenated candidate tokens followed by a segmented sum
  (:func:`repro.backend.kernels.csr_overlaps_one_to_many`, shared with the
  :class:`repro.index.SimilarityIndex` query kernels).
* The BRUTEFORCEPAIRS filter stage materializes the upper triangle of a
  subproblem and applies the size probe and the 1-bit sketch Hamming filter
  (``np.bitwise_xor`` + popcount) to all pairs at once; surviving pairs are
  verified by the grouped block verifier.

A pair is accepted if and only if its true similarity meets the threshold,
decided with the measure's integer overlap bound
(:func:`repro.similarity.measures.required_overlap_for_jaccard` for Jaccard).
The scalar per-pair kernels these block kernels must agree with bit for bit
live in the test suite's oracles (``tests/oracles``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import ClassVar, List, Sequence, Set, Tuple

import numpy as np

from repro.backend.kernels import (
    csr_overlaps_one_to_many,
    csr_weighted_overlaps_one_to_many,
    sketch_estimates,
)
from repro.core.preprocess import PreprocessedCollection
from repro.hashing.sketch import _HAS_BITWISE_COUNT, popcount_rows
from repro.result import canonical_pair
from repro.similarity.measures import Measure, get_measure

__all__ = ["ExecutionBackend"]

Pair = Tuple[int, int]


@lru_cache(maxsize=64)
def _triu_indices(num_records: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pair for subsets of a given size.

    The BRUTEFORCEPAIRS filter is called on thousands of subproblems capped
    at the same ``limit``, so the index arrays repeat constantly.  The cache
    is bounded: each entry costs two ``n(n-1)/2`` index arrays, so an
    unbounded cache over all sizes up to :attr:`ExecutionBackend.BLOCK_ROW_LIMIT`
    could pin hundreds of megabytes in a long experiment process.
    """
    first, second = np.triu_indices(num_records, k=1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


class ExecutionBackend:
    """Verification and estimation kernels bound to one preprocessed collection.

    Parameters
    ----------
    collection:
        The preprocessed records (token sets, signatures, sketches).
    threshold:
        Similarity threshold ``λ`` used by the exact verification kernels,
        on the measure's own scale.
    measure:
        The :class:`~repro.similarity.measures.Measure` verification runs
        under (name, instance or ``None`` for the default Jaccard).  With a
        weighted measure the size probe and the required-overlap bound use
        summed token weights instead of token counts.
    """

    name: ClassVar[str] = "numpy"

    # Above this subset size the all-pairs block kernel falls back to the
    # row-by-row pipeline (still vectorized per row) to bound the memory of
    # the materialized upper triangle.
    BLOCK_ROW_LIMIT = 512

    # At or below this subset size the all-pairs filter uses a scalar path:
    # the tree walk produces thousands of tiny buckets for which Python
    # integer sketch arithmetic beats the fixed cost of numpy dispatches.
    SMALL_ROW_LIMIT = 12

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        measure: "Measure | str | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.collection = collection
        self.threshold = threshold
        self.measure = get_measure(measure)
        self.sizes = collection.record_sizes()
        self._values, self._offsets = collection.packed_tokens()
        # Measure-sizes drive every filter and bound: identical to ``sizes``
        # for unweighted measures, per-record summed token weights otherwise.
        if self.measure.weighted:
            self._value_weights = self.measure.value_weights(self._values)
            if self.sizes.size:
                self.measure_sizes = np.add.reduceat(self._value_weights, self._offsets[:-1])
            else:
                self.measure_sizes = np.zeros(0, dtype=np.float64)
        else:
            self._value_weights = None
            self.measure_sizes = self.sizes
        self._measure_size_list = self.measure_sizes.tolist()
        self._sketch_ints = collection.sketch_bigints()
        self._sketch_distance_bounds: dict = {}
        # Side labels for R ⋈ S joins (None for a self-join).  When present,
        # same-side pairs are dropped before any counting or filtering, so
        # pre_candidates / candidates / verified only ever count cross-side
        # work and same-side candidates never reach verification.
        self.sides = collection.sides
        # Lazily built unpacked sketch-bit matrix for the sampled
        # average-similarity estimator (see average_similarity_sampled).
        self._sketch_bits: "np.ndarray | None" = None
        self._sketch_bytes: "np.ndarray | None" = None
        self._sketch_bits_built = False

    # ------------------------------------------------------------------ filtering
    def sketch_estimate_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        """Sketch-estimated Jaccard similarity of one record against many."""
        sketches = self.collection.sketches
        return sketch_estimates(sketches.words[record_id], sketches.words[others], sketches.num_bits)

    def _filter_one_to_many(
        self,
        record_id: int,
        others: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> np.ndarray:
        """Candidates among ``others``: size probe plus optional sketch filter."""
        passing = self.measure.size_compatible(
            self.measure_sizes[record_id], self.measure_sizes[others], self.threshold
        )
        if use_sketches:
            estimates = self.sketch_estimate_one_to_many(record_id, others)
            passing &= estimates >= sketch_cutoff
        return others[passing]

    def _max_sketch_distance(self, sketch_cutoff: float) -> int:
        """Largest sketch Hamming distance whose estimate passes the cut-off.

        The estimate ``1 - 2d/num_bits`` is an exact dyadic rational
        (``num_bits`` is a power of two), so comparing the integer distance
        against this precomputed bound is bit-for-bit equivalent to the float
        comparison ``estimate >= sketch_cutoff`` of the one-to-many filter —
        the bound is derived by running that exact comparison per distance.
        """
        cached = self._sketch_distance_bounds.get(sketch_cutoff)
        if cached is not None:
            return cached
        num_bits = self.collection.sketches.num_bits
        distances = np.arange(num_bits + 1)
        passing = (1.0 - 2.0 * distances / num_bits) >= sketch_cutoff
        bound = int(np.flatnonzero(passing).max(initial=-1))
        self._sketch_distance_bounds[sketch_cutoff] = bound
        return bound

    # ------------------------------------------------------------------ staged filtering (engine primitives)
    def filter_point(
        self,
        record_id: int,
        others: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, np.ndarray]:
        """Filter stage of BRUTEFORCEPOINT: side mask, size probe, sketch filter.

        Returns ``(pre_candidates, survivors)``: ``pre_candidates`` counts
        every considered pair (after the side mask — in a side-aware
        collection same-side pairs are not part of the workload) and
        ``survivors`` the ids that must be verified exactly.
        """
        others = np.asarray(others, dtype=np.intp)
        if self.sides is not None and others.size:
            others = others[self.sides[others] != self.sides[record_id]]
        pre_candidates = int(others.size)
        if pre_candidates == 0:
            return 0, others
        return pre_candidates, self._filter_one_to_many(record_id, others, use_sketches, sketch_cutoff)

    def filter_subset(
        self,
        subset: Sequence[int],
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Filter stage of BRUTEFORCEPAIRS over every pair within ``subset``.

        Returns ``(pre_candidates, firsts, seconds)`` where the two id arrays
        hold the filter-surviving pairs awaiting exact verification.  Tiny
        subsets take a scalar loop, subsets up to :attr:`BLOCK_ROW_LIMIT`
        the upper-triangle block kernel, larger ones the row walk.
        """
        subset = list(subset)
        num_records = len(subset)
        empty = np.zeros(0, dtype=np.intp)
        if num_records < 2:
            return 0, empty, empty
        if num_records <= self.SMALL_ROW_LIMIT:
            return self._filter_subset_small(subset, use_sketches, sketch_cutoff)
        if num_records > self.BLOCK_ROW_LIMIT:
            return self._filter_subset_rows(subset, use_sketches, sketch_cutoff)

        ids = np.asarray(subset, dtype=np.intp)
        first_pos, second_pos = _triu_indices(num_records)
        if self.sides is not None:
            # Side mask first: in an R ⋈ S join same-side pairs are not part
            # of the workload, so they are dropped before the size probe and
            # the sketch filter and never counted as pre-candidates.
            subset_sides = self.sides[ids]
            cross = subset_sides[first_pos] != subset_sides[second_pos]
            first_pos, second_pos = first_pos[cross], second_pos[cross]
        pre_candidates = int(first_pos.size)
        if pre_candidates == 0:
            return 0, empty, empty

        sizes = self.measure_sizes[ids]
        passing = self.measure.size_compatible(sizes[first_pos], sizes[second_pos], self.threshold)
        first_pos, second_pos = first_pos[passing], second_pos[passing]

        if use_sketches and first_pos.size:
            sketches = self.collection.sketches
            words = sketches.words[ids]
            # The gathered pair block is a private temporary, so the XOR and
            # the popcount both run in place to avoid further allocations.
            xored = words[first_pos]
            np.bitwise_xor(xored, words[second_pos], out=xored)
            if _HAS_BITWISE_COUNT:
                np.bitwise_count(xored, out=xored)
                distances = xored.sum(axis=1, dtype=np.int64)
            else:
                distances = popcount_rows(xored)
            surviving = distances <= self._max_sketch_distance(sketch_cutoff)
            first_pos, second_pos = first_pos[surviving], second_pos[surviving]

        return pre_candidates, ids[first_pos], ids[second_pos]

    def _filter_subset_rows(
        self,
        subset: List[int],
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """All-pairs filter as one :meth:`filter_point` per row (large subsets).

        Memory stays linear in the subset size: each row filters the record
        against the records after it.
        """
        pre_candidates = 0
        firsts: List[int] = []
        seconds: List[int] = []
        for position, record_id in enumerate(subset):
            rest = subset[position + 1 :]
            if not rest:
                continue
            pre, passing = self.filter_point(
                record_id, np.asarray(rest, dtype=np.intp), use_sketches, sketch_cutoff
            )
            pre_candidates += pre
            firsts.extend([record_id] * int(passing.size))
            seconds.extend(int(other) for other in passing)
        return (
            pre_candidates,
            np.asarray(firsts, dtype=np.intp),
            np.asarray(seconds, dtype=np.intp),
        )

    def _filter_subset_small(
        self,
        subset: List[int],
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Scalar all-pairs filter for tiny subproblems.

        Arithmetically identical to the block kernel: the same size probe and
        the same sketch estimate ``1 - 2d/num_bits`` (evaluated on the same
        IEEE doubles, with the Hamming distance taken by ``int.bit_count``
        on the cached big-integer sketches).
        """
        num_records = len(subset)
        sides = self.sides
        if sides is None:
            pre_candidates = num_records * (num_records - 1) // 2
        else:
            # Only cross-side pairs count: with n₀ R-records and n₁ S-records
            # in the subset, the workload is n₀ · n₁ pairs.
            num_right = int(np.count_nonzero(sides[np.asarray(subset, dtype=np.intp)]))
            pre_candidates = num_right * (num_records - num_right)
        firsts: List[int] = []
        seconds: List[int] = []
        sizes = self._measure_size_list
        sketch_ints = self._sketch_ints
        num_bits = self.collection.sketches.num_bits
        threshold = self.threshold
        size_compatible_one = self.measure.size_compatible_one
        for position in range(num_records):
            record_id = subset[position]
            size_first = sizes[record_id]
            for other_position in range(position + 1, num_records):
                other_id = subset[other_position]
                if sides is not None and sides[record_id] == sides[other_id]:
                    continue
                size_second = sizes[other_id]
                if not size_compatible_one(size_first, size_second, threshold):
                    continue
                if use_sketches:
                    distance = (sketch_ints[record_id] ^ sketch_ints[other_id]).bit_count()
                    if 1.0 - 2.0 * distance / num_bits < sketch_cutoff:
                        continue
                firsts.append(record_id)
                seconds.append(other_id)
        return (
            pre_candidates,
            np.asarray(firsts, dtype=np.intp),
            np.asarray(seconds, dtype=np.intp),
        )

    # ------------------------------------------------------------------ exact verification
    def _record_tokens(self, record_id: int) -> np.ndarray:
        start = self._offsets[record_id]
        return self._values[start : start + self.sizes[record_id]]

    def _overlaps_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        """Exact (possibly weighted) overlaps of one record against a block."""
        if self._value_weights is not None:
            start = self._offsets[record_id]
            return csr_weighted_overlaps_one_to_many(
                self._record_tokens(record_id),
                self._value_weights[start : start + self.sizes[record_id]],
                self._values,
                self._offsets,
                self.sizes,
                others,
            )
        return csr_overlaps_one_to_many(
            self._record_tokens(record_id), self._values, self._offsets, self.sizes, others
        )

    def verify_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``others`` truly meet the threshold against ``record_id``."""
        others = np.asarray(others, dtype=np.intp)
        if others.size == 0:
            return np.zeros(0, dtype=bool)
        overlaps = self._overlaps_one_to_many(record_id, others)
        required = self.measure.required_overlaps(
            self.measure_sizes[record_id], self.measure_sizes[others], self.threshold
        )
        return overlaps >= required

    def verify_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Exact verification of an arbitrary block of (first, second) pairs.

        Pairs are grouped by their first record so each group reduces to one
        vectorized one-to-many verification.
        """
        firsts = np.asarray(firsts, dtype=np.intp)
        seconds = np.asarray(seconds, dtype=np.intp)
        accepted = np.zeros(firsts.size, dtype=bool)
        if firsts.size == 0:
            return accepted
        order = np.argsort(firsts, kind="stable")
        sorted_firsts = firsts[order]
        sorted_seconds = seconds[order]
        group_starts = np.flatnonzero(np.r_[True, sorted_firsts[1:] != sorted_firsts[:-1]])
        group_ends = np.r_[group_starts[1:], sorted_firsts.size]
        for start, end in zip(group_starts, group_ends):
            record_id = int(sorted_firsts[start])
            accepted[order[start:end]] = self.verify_one_to_many(
                record_id, sorted_seconds[start:end]
            )
        return accepted

    # ------------------------------------------------------------------ candidate pipelines
    def one_to_many(
        self,
        record_id: int,
        others: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, int, List[int]]:
        """Full pipeline for one record against many: filter, then verify.

        Returns ``(pre_candidates, verified, accepted_ids)`` where
        ``pre_candidates`` counts every considered pair and ``verified`` the
        pairs surviving the filters (and therefore exactly verified).  In a
        side-aware collection, same-side pairs are not considered at all.
        """
        pre_candidates, passing = self.filter_point(record_id, others, use_sketches, sketch_cutoff)
        if passing.size == 0:
            return pre_candidates, 0, []
        accepted = self.verify_one_to_many(record_id, passing)
        return pre_candidates, int(passing.size), [int(other) for other in passing[accepted]]

    def all_pairs(
        self,
        subset: Sequence[int],
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[int, int, Set[Pair]]:
        """Full pipeline for every pair within ``subset`` (BRUTEFORCEPAIRS).

        Expressed as the staged primitives run back to back:
        :meth:`filter_subset` followed by :meth:`verify_pairs`.  Returns
        ``(pre_candidates, verified, accepted_pairs)``.
        """
        pre_candidates, firsts, seconds = self.filter_subset(subset, use_sketches, sketch_cutoff)
        verified = int(firsts.size)
        if verified == 0:
            return pre_candidates, 0, set()
        mask = self.verify_pairs(firsts, seconds)
        accepted = {
            canonical_pair(int(first), int(second))
            for first, second in zip(firsts[mask], seconds[mask])
        }
        return pre_candidates, verified, accepted

    # ------------------------------------------------------------------ average similarity
    def average_similarity_exact(self, subset: List[int]) -> np.ndarray:
        """Exact average Braun–Blanquet similarity on the embedded sets (Algorithm 2).

        With ``count[j]`` the number of records in the subproblem containing
        embedded token ``j``, the average similarity of ``x`` to the rest is
        ``(1/(|S|-1)) Σ_{j ∈ f(x)} (count[j] - 1) / t``.
        """
        signatures = self.collection.signatures.matrix
        subset_array = np.asarray(subset, dtype=np.intp)
        sub_signatures = signatures[subset_array]  # (|S|, t)
        num_records, num_functions = sub_signatures.shape

        averages = np.zeros(num_records)
        # count[(i, value)] is computed column by column: within coordinate i,
        # records sharing the same MinHash value share the embedded token.
        for coordinate in range(num_functions):
            column = sub_signatures[:, coordinate]
            unique_values, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
            averages += (counts[inverse] - 1) / num_functions
        return averages / (num_records - 1)

    def _sketch_bits_matrix(self) -> "np.ndarray | None":
        """Per-record sketch bits as a float32 (n, num_bits) matrix (or None).

        Cached on the collection (shared by every repetition's backend); the
        matvec identity below turns the per-node estimator of the adaptive
        rule from ``m`` XOR/popcount passes over the subset words into a
        single BLAS pass over the subset bits.  Collections whose bit matrix
        would exceed the collection's memory budget fall back to the word
        loop (None).
        """
        if not self._sketch_bits_built:
            self._sketch_bits_built = True
            self._sketch_bits = self.collection.sketch_bit_matrix()
            if self._sketch_bits is not None:
                self._sketch_bytes = np.ascontiguousarray(
                    self.collection.sketches.words
                ).view(np.uint8)
        return self._sketch_bits

    def average_similarity_sampled(
        self, subset: List[int], sample_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sampled sketch estimate of the average similarity (Section V-A.4).

        The summed Hamming distance of a sketch ``x`` against the ``m``
        sampled sketches decomposes bit-wise:

        ``Σ_s popcount(x ^ s) = Σ_b c_b + Σ_{b : x_b = 1} (m - 2 c_b)``

        with ``c_b`` the number of sampled sketches with bit ``b`` set.  The
        second term is a dot product of the record's unpacked bits against a
        per-bit weight vector, so the whole subset reduces to one matrix ×
        vector product over the cached bit matrix.  All intermediate values
        are small integers (≤ ``m · num_bits``), exactly representable in
        float32, so the totals — and therefore the returned averages — are
        bit-for-bit identical to the XOR/popcount word loop used as the
        large-collection fallback.
        """
        sketches = self.collection.sketches
        subset_array = np.asarray(subset, dtype=np.intp)
        sample_count = min(sample_size, len(subset))
        # Sampling positions (not record ids) draws the identical sample —
        # Generator.choice on an array samples indices into it — and makes
        # the self-term correction below a direct index instead of a value
        # lookup over the whole subset.
        positions = rng.choice(len(subset_array), size=sample_count, replace=False)
        sample = subset_array[positions]

        bits = self._sketch_bits_matrix()
        if bits is not None:
            # Gather the packed sample bytes (ℓ·8 per sketch, 32× less
            # traffic than the float32 rows) and count column bits there.
            sample_bits = np.unpackbits(self._sketch_bytes[sample], axis=1)
            column_counts = sample_bits.sum(axis=0, dtype=np.int64)  # c_b
            weights = (sample_count - 2.0 * column_counts).astype(np.float32)
            if subset_array.size * 4 >= bits.shape[0]:
                # Near-root subproblems: one gemv over the whole matrix beats
                # gathering most of its rows first.  Identical totals either
                # way — every row dot is the same exact small-integer sum.
                totals = (bits @ weights)[subset_array]
            else:
                # Gather the packed bytes (ℓ·8 per record) and unpack just the
                # subset — 32× less random-access traffic than gathering the
                # float32 rows, for the same exact bit values.
                subset_bits = np.unpackbits(self._sketch_bytes[subset_array], axis=1)
                totals = subset_bits.astype(np.float32) @ weights  # exact: sums ≤ m·num_bits < 2^24
            totals = totals.astype(np.float64) + float(column_counts.sum(dtype=np.float64))
        else:
            subset_words = sketches.words[subset_array]  # (|S|, ℓ)
            sample_words = sketches.words[sample]  # (m, ℓ)
            # Iterating over the (at most ``sample_size``) sampled sketches
            # keeps the temporaries at |S| × ℓ words instead of materializing
            # the full |S| × m × ℓ broadcast.
            totals = np.zeros(len(subset), dtype=np.int64)
            for sample_row in sample_words:
                totals += popcount_rows(subset_words ^ sample_row)
            totals = totals.astype(np.float64)
        averages = 1.0 - 2.0 * totals / (sample_count * sketches.num_bits)

        # A sampled record sees itself in its own sample; remove the
        # (similarity = 1) self term from its mean.
        if sample_count > 1:
            averages[positions] = (averages[positions] * sample_count - 1.0) / (sample_count - 1)
        return averages
