"""Zobrist / simple tabulation hashing.

The paper (Section V-A.1) implements MinHash with Zobrist hashing, also known
as simple tabulation hashing: a 32-bit key is split into 8-bit characters and
each character indexes a table of random 64-bit words; the hash value is the
XOR of the selected words.  Simple tabulation is 3-independent and has been
shown by Pătraşcu and Thorup to have strong MinHash properties while being
extremely fast in practice.

This module provides both a scalar interface (``TabulationHash.hash_one``) and
a vectorized numpy interface (``TabulationHash.hash_many``) that hashes whole
token arrays at once.  The MinHash layer draws the raw tables of all its
functions at once (:meth:`TabulationHashFamily.sample_tables`) and evaluates
them in its own blocked kernel (:meth:`repro.hashing.minhash.MinHasher.signature_matrix`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

_NUM_CHARACTERS = 4  # a 32-bit key split into four 8-bit characters
_TABLE_SIZE = 256

__all__ = ["TabulationHash", "TabulationHashFamily"]


class TabulationHash:
    """A single Zobrist (simple tabulation) hash function from 32-bit keys to 64 bits.

    Parameters
    ----------
    rng:
        Source of randomness used to fill the character tables.  Passing an
        explicit generator makes the hash function reproducible.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        if rng is None:
            rng = np.random.default_rng()
        # One table of 256 random 64-bit words per 8-bit character position.
        self._tables = rng.integers(
            0, 2**64, size=(_NUM_CHARACTERS, _TABLE_SIZE), dtype=np.uint64
        )

    def hash_one(self, key: int) -> int:
        """Hash a single non-negative 32-bit integer key to a 64-bit value."""
        if key < 0 or key >= 2**32:
            raise ValueError(f"key must fit in 32 bits, got {key}")
        value = np.uint64(0)
        for position in range(_NUM_CHARACTERS):
            character = (key >> (8 * position)) & 0xFF
            value ^= self._tables[position, character]
        return int(value)

    def hash_many(self, keys: np.ndarray) -> np.ndarray:
        """Hash an array of non-negative 32-bit integer keys to 64-bit values.

        This is the vectorized path used by the MinHash layer: all four table
        lookups are performed with numpy fancy indexing and combined with XOR.
        """
        keys = np.asarray(keys, dtype=np.uint32)
        value = np.zeros(keys.shape, dtype=np.uint64)
        for position in range(_NUM_CHARACTERS):
            characters = (keys >> np.uint32(8 * position)) & np.uint32(0xFF)
            value ^= self._tables[position][characters]
        return value

    def __call__(self, key: int) -> int:
        return self.hash_one(key)


class TabulationHashFamily:
    """A family of independent tabulation hash functions sharing one RNG stream.

    The CPSJOIN preprocessing step needs ``t`` independent MinHash functions
    plus ``64 * ell`` independent 1-bit hash functions; this class hands out
    independent :class:`TabulationHash` instances from a single seed so whole
    experiments are reproducible from one integer.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    def sample(self) -> TabulationHash:
        """Sample one independent tabulation hash function."""
        return TabulationHash(self._rng)

    def sample_many(self, count: int) -> List[TabulationHash]:
        """Sample ``count`` independent tabulation hash functions."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [TabulationHash(self._rng) for _ in range(count)]

    def sample_tables(self, count: int) -> np.ndarray:
        """Sample raw character tables for ``count`` functions as one array.

        Returns an array of shape ``(count, 4, 256)`` of uint64.  The MinHash
        layer uses this bulk form to evaluate many hash functions over many
        tokens without Python-level loops over functions.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._rng.integers(
            0, 2**64, size=(count, _NUM_CHARACTERS, _TABLE_SIZE), dtype=np.uint64
        )

