"""The execution backend: filter, verify and estimate kernels over one collection.

Every join in the repository funnels its candidate pairs through the same
three-stage check (size-compatibility probe, 1-bit minwise sketch filter,
exact verification on the token sets) and estimates average similarities for
the adaptive BRUTEFORCE rule.  :class:`ExecutionBackend` bundles those
kernels so the policy layers (the adaptive rule's
:class:`~repro.core.bruteforce.BruteForcer`, the staged
:class:`~repro.engine.JoinEngine`, the LSH baselines) stay agnostic of how
the arithmetic is executed.  The kernels are segmented: one call covers a
whole flush of tasks, never one task or one record.

* **Rows.**  The engine describes a flush as rows over one id buffer: row
  ``r`` pairs ``anchors[r]`` with ``ids[starts[r] : starts[r] + lengths[r]]``
  (a BRUTEFORCEPAIRS subset is one row per record, BRUTEFORCEPOINT one row).
  :func:`expand_rows` turns rows into ``(firsts, seconds)`` pair arrays in
  one ``repeat``/``cumsum`` pass, in row-major order.
* **Filter** (:meth:`ExecutionBackend.filter_pairs`).  Side mask, size
  probe, then the sketch Hamming distance: per sketch word one column
  gather, one XOR and one popcount added into a ``uint16`` distance,
  compared with the integer bound :meth:`ExecutionBackend._max_sketch_distance`.
* **Verify** (:meth:`ExecutionBackend.verify_pairs`).  Every token of
  every pair is packed as ``pair << 32 | token``; tokens are sorted within
  a record, so the first side's keys are globally sorted and one
  ``searchsorted`` finds all matches.  One ``bincount`` (weighted by the
  matched tokens' weights for a weighted measure) gives every overlap.
  Preprocessing refuses tokens outside ``[0, 2**32)``
  (:func:`repro.hashing.minhash.check_hash_keys`), so the packed key is
  exact.
* **Estimate** (:meth:`ExecutionBackend.average_similarity_sampled`).  The
  adaptive rule's sampled average similarity, from a ``(256, 8ℓ)`` int32
  table of per-byte Hamming-distance totals looked up over the subset's
  packed sketch bytes: integers only, no float copy and no BLAS call.

A pair is accepted if and only if its true similarity meets the threshold,
decided with the measure's integer overlap bound
(:func:`repro.similarity.measures.required_overlap_for_jaccard` for Jaccard).
The scalar per-pair kernels these segmented kernels must agree with bit for
bit live in the test suite's oracles (``tests/oracles``).
"""

from __future__ import annotations

from typing import ClassVar, List, Tuple

import numpy as np

from repro.core.preprocess import PreprocessedCollection
from repro.hashing.sketch import word_popcounts
from repro.similarity.measures import Measure, get_measure

__all__ = ["ExecutionBackend", "expand_rows"]

Pairs = Tuple[int, np.ndarray, np.ndarray]

ESTIMATOR_BLOCK_ROWS = 1 << 10
"""Subset records per table lookup of the sampled estimator: its keys and
looked-up values stay under 1 MiB (``ℓ = 8``) whatever the subset size."""


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[r] + j`` for ``j < lengths[r]``, segment after segment."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - lengths), lengths)


def expand_rows(
    ids: np.ndarray, anchors: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(firsts, seconds)`` pairs of rows over an id buffer, row-major.

    Row ``r`` contributes ``(anchors[r], ids[starts[r] + j])`` for
    ``j < lengths[r]``.  All four arrays are ``intp``.
    """
    return np.repeat(anchors, lengths), ids[_segment_positions(starts, lengths)]


class ExecutionBackend:
    """Verification and estimation kernels bound to one preprocessed collection.

    The join engine calls :meth:`filter_rows` once per chunk of a flush and
    :meth:`verify_pairs` once per block of survivors; explicit pair streams
    enter the filter at :meth:`filter_pairs`.  The adaptive rule's estimator
    calls the average-similarity kernels.

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
        # Column-major sketch words: the filter gathers one word column per
        # pass, which is twice as fast as gathering whole rows.
        self._sketch_columns = np.ascontiguousarray(collection.sketches.words.T)
        self._sketch_distance_bounds: dict = {}
        # Side labels for R ⋈ S joins (None for a self-join).  When present,
        # same-side pairs are dropped before any counting or filtering, so
        # pre_candidates / candidates / verified only ever count cross-side
        # work and same-side candidates never reach verification.
        self.sides = collection.sides
        # The sampled estimator reads each sketch as its 8ℓ bytes (a view,
        # no copy): byte k of value v looks up flat entry v · 8ℓ + k of its
        # table, a key in the narrowest unsigned type that holds them all
        # (uint16 up to ℓ = 32), which numpy gathers faster than int64 keys.
        self._sketch_row_bytes = np.ascontiguousarray(collection.sketches.words).view(np.uint8)
        num_bytes = self._sketch_row_bytes.shape[1]
        self._key_dtype = np.min_scalar_type(256 * num_bytes - 1)
        self._byte_positions = np.arange(num_bytes, dtype=self._key_dtype)

    # ------------------------------------------------------------------ filtering
    def _max_sketch_distance(self, sketch_cutoff: float) -> int:
        """Largest sketch Hamming distance whose estimate passes the cut-off.

        The estimate ``1 - 2d/num_bits`` is an exact dyadic rational
        (``num_bits`` is a power of two), so comparing the integer distance
        against this precomputed bound is bit-for-bit equivalent to the float
        comparison ``estimate >= sketch_cutoff`` — the bound is derived by
        running that exact comparison per distance.
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

    def filter_rows(
        self,
        ids: np.ndarray,
        anchors: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Pairs:
        """Filter stage of every pair in a block of rows (see :func:`expand_rows`).

        Returns ``(pre_candidates, firsts, seconds)`` like :meth:`filter_pairs`.
        """
        firsts, seconds = expand_rows(ids, anchors, starts, lengths)
        return self.filter_pairs(firsts, seconds, use_sketches, sketch_cutoff)

    def filter_pairs(
        self,
        firsts: np.ndarray,
        seconds: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Pairs:
        """Side mask, size probe and sketch filter over aligned pair arrays.

        Returns ``(pre_candidates, firsts, seconds)``: ``pre_candidates``
        counts the pairs left after the side mask (in a side-aware
        collection same-side pairs are not part of the workload), the two
        ``intp`` arrays hold the survivors awaiting exact verification, in
        input order.
        """
        if self.sides is not None:
            cross = self.sides[firsts] != self.sides[seconds]
            firsts, seconds = firsts[cross], seconds[cross]
        pre_candidates = int(firsts.size)
        sizes = self.measure_sizes
        passing = self.measure.size_compatible(sizes[firsts], sizes[seconds], self.threshold)
        firsts, seconds = firsts[passing], seconds[passing]
        if use_sketches and firsts.size:
            distances = np.zeros(firsts.size, dtype=np.uint16)
            for column in self._sketch_columns:
                # The gathered column is a private temporary: XOR in place.
                words = column[firsts]
                np.bitwise_xor(words, column[seconds], out=words)
                distances += word_popcounts(words)
            surviving = distances <= self._max_sketch_distance(sketch_cutoff)
            firsts, seconds = firsts[surviving], seconds[surviving]
        return pre_candidates, firsts, seconds

    # ------------------------------------------------------------------ exact verification
    def _token_keys(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``pair << 32 | token`` for every token of ``ids[pair]``, pair-major.

        Also returns each token's position in the packed token array (for
        the weight lookup).  Tokens are sorted within a record, so the keys
        come out globally sorted.
        """
        lengths = self.sizes[ids]
        positions = _segment_positions(self._offsets[ids], lengths)
        keys = np.repeat(np.arange(ids.size, dtype=np.int64) << 32, lengths)
        keys |= self._values[positions]
        return keys, positions

    def verify_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Exact verification of aligned pair arrays; returns the accept mask.

        One segmented intersection covers the whole block: the second
        side's keys are looked up in the (sorted) first side's keys, and
        the overlap of pair ``p`` is the number (or summed weight) of its
        matches.
        """
        count = int(firsts.size)
        if count == 0:
            return np.zeros(0, dtype=bool)
        first_keys, _ = self._token_keys(firsts)
        second_keys, second_positions = self._token_keys(seconds)
        found = np.searchsorted(first_keys, second_keys)
        np.minimum(found, first_keys.size - 1, out=found)
        matched = first_keys[found] == second_keys
        pair_of_match = second_keys[matched] >> 32
        if self._value_weights is None:
            overlaps = np.bincount(pair_of_match, minlength=count)
        else:
            # Summed pair by pair in token order, like the scalar merge.
            weights = self._value_weights[second_positions[matched]]
            overlaps = np.bincount(pair_of_match, weights=weights, minlength=count)
        sizes = self.measure_sizes
        required = self.measure.required_overlaps(sizes[firsts], sizes[seconds], self.threshold)
        return overlaps >= required

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

    def average_similarity_sampled(
        self, subset: List[int], sample_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sampled sketch estimate of the average similarity (Section V-A.4).

        The summed Hamming distance of a sketch ``x`` against the ``m``
        sampled sketches decomposes bit-wise:

        ``Σ_s popcount(x ^ s) = Σ_b c_b + Σ_{b : x_b = 1} (m - 2 c_b)``

        with ``c_b`` the number of sampled sketches with bit ``b`` set.  Both
        sums split over the sketch's 8ℓ bytes: the int32 table
        ``T[v, k] = Σ_{j < 8} c_{8k+j} + Σ_{bit j of v} (m - 2 c_{8k+j})``,
        built with 8 doubling adds, holds byte ``k``'s share of the total
        for every byte value ``v``, and a record's total is
        ``Σ_k T[byte_k(x), k]`` — one ``take`` of the flat keys
        ``byte_k(x) · 8ℓ + k`` (uint16 up to ``ℓ = 32``) over the subset's
        packed sketch bytes, :data:`ESTIMATOR_BLOCK_ROWS` records at a time.  Every
        value is an exact integer below ``m · 64ℓ`` — no float copy of the
        sketches and no BLAS call — so the averages equal the XOR/popcount
        definition bit for bit.
        """
        subset_array = np.asarray(subset, dtype=np.intp)
        sample_count = min(sample_size, len(subset))
        # Sampling positions (not record ids) draws the identical sample —
        # Generator.choice on an array samples indices into it — and makes
        # the self-term correction below a direct index instead of a value
        # lookup over the whole subset.
        positions = rng.choice(len(subset_array), size=sample_count, replace=False)
        sample = subset_array[positions]

        row_bytes = self._sketch_row_bytes
        num_bytes = row_bytes.shape[1]
        sample_bits = np.unpackbits(row_bytes[sample], axis=1, bitorder="little")
        # counts[j, k] = c_{8k+j}: how many samples set bit j of byte k.
        counts = sample_bits.sum(axis=0, dtype=np.int32).reshape(num_bytes, 8).T
        weights = sample_count - 2 * counts
        table = np.empty((256, num_bytes), dtype=np.int32)
        counts.sum(axis=0, out=table[0])
        for bit in range(8):
            width = 1 << bit
            np.add(table[:width], weights[bit], out=table[width : 2 * width])
        totals = np.empty(subset_array.size, dtype=np.int32)
        for start in range(0, subset_array.size, ESTIMATOR_BLOCK_ROWS):
            block = slice(start, start + ESTIMATOR_BLOCK_ROWS)
            keys = np.multiply(row_bytes[subset_array[block]], num_bytes, dtype=self._key_dtype)
            keys += self._byte_positions
            # Every key is in range, so "wrap" never wraps; numpy gathers
            # faster in that mode than in its default "raise".
            np.take(table, keys, mode="wrap").sum(axis=1, dtype=np.int32, out=totals[block])
        averages = 1.0 - 2.0 * totals / (sample_count * self.collection.sketches.num_bits)

        # A sampled record sees itself in its own sample; remove the
        # (similarity = 1) self term from its mean.
        if sample_count > 1:
            averages[positions] = (averages[positions] * sample_count - 1.0) / (sample_count - 1)
        return averages
