"""Similarity search indexes related to CPSJOIN.

CPSJOIN is derived from the Chosen Path *index* for approximate set
similarity search (Christiani & Pagh, STOC 2017 — reference [5] of the
paper).  This subpackage provides the query-time counterpart of the join
algorithms, useful when one collection is indexed once and probed many
times (e.g. streaming deduplication against a reference collection):

* :class:`repro.index.similarity_index.SimilarityIndex` — the
  build-once/query-many index: one growable record store holding every
  record once, one candidate structure holding record ids, and one query
  pipeline (candidates → size/sketch filter → exact overlaps → accept).
  Its default ``"exact"`` candidate mode answers exactly like an exact
  batch join.
* :class:`repro.index.chosen_path.ChosenPathIndex` — the Chosen Path
  forest, the candidate structure of the ``"chosenpath"`` mode: random
  token trees whose leaves hold record ids.
* :class:`repro.index.minhash_lsh.MinHashLSHIndex` — MinHash LSH banding,
  the candidate structure of the ``"lsh"`` mode and the baseline the
  Chosen Path forest improves upon.
"""

from repro.index.chosen_path import ChosenPathIndex
from repro.index.minhash_lsh import MinHashLSHIndex
from repro.index.similarity_index import IndexPersistenceError, SimilarityIndex

__all__ = ["ChosenPathIndex", "IndexPersistenceError", "MinHashLSHIndex", "SimilarityIndex"]
