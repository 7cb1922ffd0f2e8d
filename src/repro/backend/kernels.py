"""Vectorized kernels shared outside the join's execution backend.

* :func:`csr_overlaps_one_to_many` and its weighted twin — the exact
  intersection of one sorted token array against a block of CSR-packed
  records, reduced via ``searchsorted`` plus a segmented sum.  The
  :class:`repro.index.SimilarityIndex` verifies every query's candidates
  with them (a join verifies a whole flush at once, through
  :meth:`repro.backend.ExecutionBackend.verify_pairs`).
* :func:`sketch_estimates` — 1-bit sketch similarity estimates of aligned
  or broadcast sketch rows (the index's sketch filter).
* :func:`group_rows_first_occurrence` — MinHash LSH's bucketing.

Acceptance is always decided with the measure's overlap bound
(:meth:`repro.similarity.measures.Measure.required_overlaps`), so scalar
and vectorized callers agree on every borderline pair.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.sketch import popcount_rows

__all__ = [
    "csr_overlaps_one_to_many",
    "csr_weighted_overlaps_one_to_many",
    "group_rows_first_occurrence",
    "sketch_estimates",
]


def sketch_estimates(
    first_words: np.ndarray, second_words: np.ndarray, num_bits: int
) -> np.ndarray:
    """1-bit minwise sketch similarity estimates ``1 - 2·hamming/num_bits``.

    ``first_words`` / ``second_words`` broadcast (one sketch row against a
    block, or two aligned blocks).
    """
    distances = popcount_rows(first_words ^ second_words)
    return 1.0 - 2.0 * distances / num_bits


def csr_overlaps_one_to_many(
    query_tokens: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    others: np.ndarray,
) -> np.ndarray:
    """Exact intersection sizes of one sorted token array against a CSR block.

    Parameters
    ----------
    query_tokens:
        Sorted token array of the probing record.
    values, offsets:
        CSR-packed token sets: record ``i`` occupies
        ``values[offsets[i] : offsets[i] + sizes[i]]`` (sorted).
    sizes:
        Per-record set sizes (indexable by the ids in ``others``).
    others:
        Record ids to intersect the query against.
    """
    query_tokens = np.asarray(query_tokens, dtype=values.dtype)
    others = np.asarray(others, dtype=np.intp)
    if others.size == 0:
        return np.zeros(0, dtype=np.int64)
    if query_tokens.size == 0:
        return np.zeros(others.size, dtype=np.int64)
    if others.size == 1:
        # Fast path for the very common singleton candidate block.
        other = int(others[0])
        tokens = values[offsets[other] : offsets[other] + sizes[other]]
        positions = np.searchsorted(query_tokens, tokens)
        matches = positions < query_tokens.size
        matches &= query_tokens[np.minimum(positions, query_tokens.size - 1)] == tokens
        return np.array([int(np.count_nonzero(matches))], dtype=np.int64)
    starts = offsets[others]
    lengths = sizes[others]
    boundaries = np.zeros(others.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=boundaries[1:])
    # Flat indices of every token of every candidate in the packed array.
    flat_index = np.arange(boundaries[-1], dtype=np.int64) + np.repeat(
        starts - boundaries[:-1], lengths
    )
    tokens = values[flat_index]

    positions = np.searchsorted(query_tokens, tokens)
    matches = positions < query_tokens.size
    matches &= query_tokens[np.minimum(positions, query_tokens.size - 1)] == tokens
    return np.add.reduceat(matches.astype(np.int64), boundaries[:-1])


def csr_weighted_overlaps_one_to_many(
    query_tokens: np.ndarray,
    query_weights: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    others: np.ndarray,
) -> np.ndarray:
    """Weighted intersections of one sorted token array against a CSR block.

    The weighted twin of :func:`csr_overlaps_one_to_many`: instead of
    *counting* matched tokens it sums their weights, which is the overlap a
    weighted :class:`~repro.similarity.measures.Measure` plugs into its
    required-overlap bound.  Every matched token is a query token, so the
    weights come from the query side (``query_weights`` is aligned
    element-for-element with ``query_tokens``).  Returns float64 sums.
    """
    query_tokens = np.asarray(query_tokens, dtype=values.dtype)
    others = np.asarray(others, dtype=np.intp)
    if others.size == 0:
        return np.zeros(0, dtype=np.float64)
    if query_tokens.size == 0:
        return np.zeros(others.size, dtype=np.float64)
    if others.size == 1:
        other = int(others[0])
        start = offsets[other]
        stop = start + sizes[other]
        tokens = values[start:stop]
        positions = np.searchsorted(query_tokens, tokens)
        matches = positions < query_tokens.size
        matches &= query_tokens[np.minimum(positions, query_tokens.size - 1)] == tokens
        return np.array([float(query_weights[positions[matches]].sum())], dtype=np.float64)
    starts = offsets[others]
    lengths = sizes[others]
    boundaries = np.zeros(others.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=boundaries[1:])
    flat_index = np.arange(boundaries[-1], dtype=np.int64) + np.repeat(
        starts - boundaries[:-1], lengths
    )
    tokens = values[flat_index]

    positions = np.minimum(np.searchsorted(query_tokens, tokens), query_tokens.size - 1)
    matches = query_tokens[positions] == tokens
    return np.add.reduceat(np.where(matches, query_weights[positions], 0.0), boundaries[:-1])


def group_rows_first_occurrence(keys: np.ndarray, min_size: int = 1) -> "list[np.ndarray]":
    """Group the rows of a key matrix by identical key tuples, column-wise.

    ``keys`` is ``(n, k)``; rows whose entire key tuple matches land in the
    same group.  The output order is bit-identical to the insertion-ordered
    dict loop it replaces: groups appear in order of their first occurring
    row, members within a group in ascending row order; groups smaller than
    ``min_size`` are dropped.  ``k = 0`` keys put every row in one group.

    The pass is a single multi-column stable lexsort plus boundary scans —
    no Python-level hashing of row tuples.
    """
    keys = np.asarray(keys)
    num_rows = keys.shape[0]
    if num_rows == 0:
        return []
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-D (rows, columns) array")
    if keys.shape[1] == 0:
        all_rows = np.arange(num_rows, dtype=np.intp)
        return [all_rows] if num_rows >= min_size else []
    # Last lexsort key is primary, so feed the columns right-to-left; the
    # sort is stable, leaving equal rows in ascending row order.
    order = np.lexsort(keys.T[::-1]).astype(np.intp, copy=False)
    sorted_keys = keys[order]
    boundary = np.empty(num_rows, dtype=bool)
    boundary[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    group_counts = np.diff(group_starts, append=num_rows)
    keep = group_counts >= min_size
    # First-occurrence order: a group's first member is its smallest row
    # index (stable sort), so sorting groups by that index reproduces the
    # insertion order of the scalar dict loop.
    first_rows = order[group_starts[keep]]
    emit = np.argsort(first_rows, kind="stable")
    starts = group_starts[keep][emit]
    counts = group_counts[keep][emit]
    return [order[start : start + count] for start, count in zip(starts.tolist(), counts.tolist())]
