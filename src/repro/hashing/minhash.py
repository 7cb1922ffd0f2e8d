"""MinHash (minwise hashing) for Jaccard similarity.

A MinHash function ``h`` has the property ``Pr[h(x) = h(y)] = J(x, y)`` which
makes it LSHable in the sense of equation (1) of the paper.  The paper's
implementation samples a MinHash function by sampling a Zobrist hash function
``g`` and letting ``h(x) = argmin_{j in x} g(j)``; we follow the same
construction (Section V-A.1) with ``t = 128`` functions by default.

The central object here is :class:`MinHashSignatures`: the ``n × t`` matrix of
MinHash values for a whole collection.  It is the shared preprocessing
artefact used by

* the LSHable embedding of Section II-A (each record becomes the token set
  ``{(i, h_i(x))}``),
* the CPSJOIN recursion, which splits a subproblem on a sampled coordinate
  ``i`` and buckets records by ``h_i(x)``,
* the MinHash LSH baseline (Algorithm 3), which buckets on ``k`` concatenated
  coordinates, and
* the 1-bit minwise sketches, which hash each signature coordinate down to a
  single bit.

:meth:`MinHasher.signature_matrix` computes the matrix in one vectorized
tabulation pass over CSR-packed tokens, :data:`SIGNATURE_BLOCK_TOKENS` tokens
at a time: four character gathers give each token's hash values under all
``t`` functions, and ``np.minimum.reduceat`` takes each record's minimum.
Its memory is bounded by the block, not by the collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.tabulation import TabulationHashFamily

__all__ = [
    "MinHasher",
    "MinHashSignatures",
    "SIGNATURE_BLOCK_TOKENS",
    "check_hash_keys",
    "pack_tokens",
]

_HASH_KEY_LIMIT = 1 << 32
"""The hashers take 32-bit keys: every hashed token must lie in ``[0, 2**32)``."""

SIGNATURE_BLOCK_TOKENS = 1 << 10
"""Tokens per block of :meth:`MinHasher.signature_matrix`.

A block's hash values are one ``(tokens, t)`` uint64 temporary — 1 MiB at
``t = 128`` — whatever the collection size, small enough to stay in cache
(2× faster than 8,192-token blocks).  Blocks end on record boundaries; a
record longer than a block is a block of its own.
"""


def pack_tokens(records: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-pack records as ``(values, offsets)``.

    Record ``i`` is ``values[offsets[i] : offsets[i + 1]]``.  ``values`` is
    ``int64``, or an object array when a token lies beyond the int64 range,
    so that :func:`check_hash_keys` can still name it.
    """
    offsets = np.fromiter(accumulate(map(len, records), initial=0), dtype=np.int64, count=len(records) + 1)
    try:
        values = np.fromiter(chain.from_iterable(records), dtype=np.int64, count=int(offsets[-1]))
    except OverflowError:
        values = np.array(list(chain.from_iterable(records)), dtype=object)
    return values, offsets


def check_hash_keys(values: np.ndarray, offsets: np.ndarray, noun: str = "record") -> None:
    """Refuse tokens the 32-bit hashers cannot take, before any hashing.

    ``values`` / ``offsets`` are CSR-packed tokens: record ``i`` is
    ``values[offsets[i] : offsets[i + 1]]``.  The check is one min/max pass;
    only a failing check locates the first offender, raising
    :class:`ValueError` that names it as ``{noun} {i}`` with its token.
    """
    if values.size == 0 or (values.min() >= 0 and values.max() < _HASH_KEY_LIMIT):
        return
    position = int(np.flatnonzero((values < 0) | (values >= _HASH_KEY_LIMIT))[0])
    index = int(np.searchsorted(offsets, position, side="right")) - 1
    raise ValueError(
        f"{noun} {index} has token {values[position]}, outside [0, 2**32): MinHash and the "
        "1-bit sketches hash 32-bit keys (only the exact joins and an exact index without "
        "sketches take 64-bit tokens)"
    )


@dataclass(frozen=True)
class MinHashSignatures:
    """MinHash signatures for a collection of records.

    Attributes
    ----------
    matrix:
        ``uint64`` array of shape ``(num_records, num_functions)``; entry
        ``(r, i)`` is ``h_i(record r)`` represented by the *hash value* of the
        minimizing token (not the token itself), which is what both the
        embedding and the bucketing steps need.
    num_functions:
        The embedding size ``t`` from Section II-A.
    """

    matrix: np.ndarray

    @property
    def num_records(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_functions(self) -> int:
        return int(self.matrix.shape[1])

    def coordinate(self, function_index: int) -> np.ndarray:
        """Return the column of values of MinHash function ``function_index``."""
        return self.matrix[:, function_index]

    def signature(self, record_index: int) -> np.ndarray:
        """Return the full signature (length ``t``) of one record."""
        return self.matrix[record_index]

    def estimate_jaccard(self, first: int, second: int) -> float:
        """Estimate the Jaccard similarity of two records from their signatures.

        The estimator is the fraction of coordinates on which the two
        signatures agree; it is unbiased with variance ``J(1-J)/t``.
        """
        agreements = np.count_nonzero(self.matrix[first] == self.matrix[second])
        return agreements / self.num_functions

    def braun_blanquet_tokens(self, record_index: int) -> List[Tuple[int, int]]:
        """Return the embedded token set ``{(i, h_i(x))}`` of Section II-A."""
        row = self.matrix[record_index]
        return [(i, int(value)) for i, value in enumerate(row)]


class MinHasher:
    """Samples and evaluates ``t`` independent MinHash functions.

    Parameters
    ----------
    num_functions:
        The number of independent MinHash functions ``t``.  The paper uses
        ``t = 128`` for the join experiments and notes ``t = 64`` already gives
        sufficient precision for thresholds ``λ ≥ 0.5``.
    seed:
        Seed for the underlying tabulation hash family.
    """

    DEFAULT_NUM_FUNCTIONS = 128

    def __init__(self, num_functions: int = DEFAULT_NUM_FUNCTIONS, seed: Optional[int] = None) -> None:
        if num_functions < 1:
            raise ValueError("num_functions must be positive")
        self.num_functions = num_functions
        family = TabulationHashFamily(seed)
        # Character tables laid out (4, 256, t), transposed once: gathering
        # one character of a block of tokens gives every function's table
        # words for those tokens as (tokens, t) rows.
        self._tables = np.ascontiguousarray(family.sample_tables(num_functions).transpose(1, 2, 0))

    def __getstate__(self) -> dict:
        # Pickles keep sample_tables' (t, 4, 256) layout, the one saved
        # indexes have always held, so they load either way.
        return {"num_functions": self.num_functions, "_tables": self._tables.transpose(2, 0, 1)}

    def __setstate__(self, state: dict) -> None:
        self.num_functions = state["num_functions"]
        self._tables = np.ascontiguousarray(state["_tables"].transpose(1, 2, 0))

    def signature(self, tokens: Sequence[int]) -> np.ndarray:
        """Compute the length-``t`` signature of a single record.

        Each coordinate ``i`` is ``min_{j in tokens} g_i(j)`` where ``g_i`` is
        the ``i``-th tabulation hash function: a one-row
        :meth:`signature_matrix`.
        """
        return self.signature_matrix(*pack_tokens([tokens]))[0]

    def signatures(self, records: Sequence[Sequence[int]]) -> MinHashSignatures:
        """Compute signatures for a whole collection of records."""
        return MinHashSignatures(matrix=self.signature_matrix(*pack_tokens(records)))

    def signature_matrix(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The ``(n, t)`` uint64 signatures of CSR-packed records.

        Record ``i`` is ``values[offsets[i] : offsets[i + 1]]``; tokens may
        repeat and come in any order.  Tokens outside ``[0, 2**32)`` are
        refused by :func:`check_hash_keys` before the cast to 32-bit keys,
        which would otherwise wrap them silently, and empty records raise
        :class:`ValueError`.  The tokens are hashed in blocks of
        :data:`SIGNATURE_BLOCK_TOKENS`.
        """
        check_hash_keys(values, offsets)
        sizes = np.diff(offsets)
        if sizes.size and sizes.min() == 0:
            raise ValueError(f"record {int(np.argmin(sizes))} is empty: cannot MinHash an empty record")
        tables = self._tables
        matrix = np.empty((sizes.size, self.num_functions), dtype=np.uint64)
        first = 0
        while first < sizes.size:
            start = offsets[first]
            last = int(np.searchsorted(offsets, start + SIGNATURE_BLOCK_TOKENS, side="right")) - 1
            last = max(last, first + 1)
            keys = values[start : offsets[last]].astype(np.uint32)
            hashed = tables[0][keys & np.uint32(0xFF)]
            for position in range(1, 4):
                hashed ^= tables[position][(keys >> np.uint32(8 * position)) & np.uint32(0xFF)]
            matrix[first:last] = np.minimum.reduceat(hashed, offsets[first:last] - start, axis=0)
            first = last
        return matrix

    def collision_probability(self, jaccard: float) -> float:
        """Probability that a single MinHash coordinate collides at similarity ``jaccard``."""
        if not 0.0 <= jaccard <= 1.0:
            raise ValueError("jaccard must be in [0, 1]")
        return jaccard
