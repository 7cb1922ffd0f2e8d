"""MinHash LSH banding: the candidate structure of ``SimilarityIndex(candidates="lsh")``.

The standard construction: ``bands`` independent bands of ``rows`` MinHash
values each; a record id is inserted into one bucket per band keyed by the
band's value tuple, and a query's candidates are the union of its buckets.
A pair with Jaccard similarity ``s`` collides in at least one band with
probability ``1 - (1 - s^rows)^bands``.

This is the query-time counterpart of the MINHASH join baseline
(Algorithm 3 of the paper) and serves as the comparison point for the
Chosen Path forest in :mod:`repro.index.chosen_path`.  The buckets hold
record ids only; :class:`repro.index.SimilarityIndex` owns the records and
filters and verifies the candidates.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hashing.minhash import MinHasher

__all__ = ["MinHashLSHIndex"]


class MinHashLSHIndex:
    """MinHash LSH buckets over record ids.

    Parameters
    ----------
    threshold:
        Jaccard threshold the index targets (validated, kept for reporting).
    bands, rows:
        Banding parameters; ``bands * rows`` MinHash functions are sampled.
        The defaults (32 bands of 4 rows) give a collision probability above
        97 % for pairs at similarity 0.5.
    seed:
        Seed for the MinHash functions.
    """

    def __init__(self, threshold: float, bands: int = 32, rows: int = 4, seed: Optional[int] = None) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if bands < 1 or rows < 1:
            raise ValueError("bands and rows must be positive")
        self.threshold = threshold
        self.bands = bands
        self.rows = rows
        self._minhasher = MinHasher(num_functions=bands * rows, seed=seed)
        self._buckets: List[Dict[Tuple[int, ...], List[int]]] = [defaultdict(list) for _ in range(bands)]

    def collision_probability(self, similarity: float) -> float:
        """Probability that a pair at the given similarity shares at least one bucket."""
        if not 0.0 <= similarity <= 1.0:
            raise ValueError("similarity must be in [0, 1]")
        return 1.0 - (1.0 - similarity**self.rows) ** self.bands

    def _band_keys(self, tokens: Sequence[int]) -> List[Tuple[int, ...]]:
        # One bulk tolist() yields Python ints for every band at once.
        values = self._minhasher.signature(tokens).tolist()
        return [
            tuple(values[band * self.rows : (band + 1) * self.rows]) for band in range(self.bands)
        ]

    def insert(self, record_id: int, tokens: Sequence[int]) -> None:
        """Add a record id to one bucket per band of its sorted, distinct tokens."""
        for band, key in enumerate(self._band_keys(tokens)):
            self._buckets[band][key].append(record_id)

    def candidates(self, tokens: Sequence[int]) -> Set[int]:
        """Ids sharing at least one bucket with the sorted, distinct query tokens."""
        found: Set[int] = set()
        for band, key in enumerate(self._band_keys(tokens)):
            found.update(self._buckets[band].get(key, ()))
        return found
