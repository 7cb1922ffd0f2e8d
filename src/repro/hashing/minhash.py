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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.tabulation import TabulationHashFamily, tabulate_many_functions

__all__ = ["MinHasher", "MinHashSignatures", "check_hash_keys"]

_HASH_KEY_LIMIT = 1 << 32
"""The hashers take 32-bit keys: every hashed token must lie in ``[0, 2**32)``."""


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
        # Raw character tables of shape (t, 4, 256): evaluating all t functions
        # on a record's tokens is a single vectorized call.
        self._tables = family.sample_tables(num_functions)

    def signature(self, tokens: Sequence[int]) -> np.ndarray:
        """Compute the length-``t`` signature of a single record.

        Each coordinate ``i`` is ``min_{j in tokens} g_i(j)`` where ``g_i`` is
        the ``i``-th tabulation hash function.
        """
        if len(tokens) == 0:
            raise ValueError("cannot MinHash an empty record")
        token_array = np.asarray(list(tokens), dtype=np.uint32)
        values = tabulate_many_functions(self._tables, token_array)
        return values.min(axis=1)

    def signatures(self, records: Sequence[Sequence[int]]) -> MinHashSignatures:
        """Compute signatures for a whole collection of records."""
        matrix = np.empty((len(records), self.num_functions), dtype=np.uint64)
        for index, record in enumerate(records):
            matrix[index] = self.signature(record)
        return MinHashSignatures(matrix=matrix)

    def collision_probability(self, jaccard: float) -> float:
        """Probability that a single MinHash coordinate collides at similarity ``jaccard``."""
        if not 0.0 <= jaccard <= 1.0:
            raise ValueError("jaccard must be in [0, 1]")
        return jaccard
