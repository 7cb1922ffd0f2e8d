"""Chosen Path forest: the candidate structure of ``SimilarityIndex(candidates="chosenpath")``.

This is the data structure of Christiani & Pagh ("Set similarity search
beyond MinHash", STOC 2017) that inspired CPSJOIN — reference [5] of the
paper.  The forest grows random *token trees*: at every node a fresh hash
function ``r`` maps tokens to ``[0, 1)`` and a record follows the child for
token ``j ∈ x`` whenever ``r(j) < 1/(λ |x|)``.  A record id is stored in
every leaf (node at the cut-off depth) the record reaches; a query walks the
same trees with the same hash functions, and every id it meets at a leaf is
a candidate.

Two records with Braun–Blanquet similarity at least ``λ`` follow a common
path of length ``k`` with probability at least ``1/(k+1)`` (Lemma 5 /
Agresti), so with ``repetitions`` independent trees a qualifying record is
a candidate with probability ``1 - (1 - 1/(k+1))^repetitions``.

Differences from CPSJOIN (Section IV-B of the paper): the forest is
parameterized by a fixed depth and number of trees (non-adaptive), stores
every root-to-leaf path (space grows with both), and answers *queries*
instead of materializing a join.

The forest holds record ids only; :class:`repro.index.SimilarityIndex` owns
the records, normalizes them, and filters and verifies the candidates.
Only inserts create tree nodes: a query walks the nodes that exist, so
reading never changes the forest.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hashing.universal import UniformHash

__all__ = ["ChosenPathIndex"]


class ChosenPathIndex:
    """A Chosen Path forest over record ids.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` of the branching probability
        ``1/(λ|x|)``.
    depth:
        Length of the root-to-leaf paths (the ``k`` of the analysis).  When
        ``None`` a depth of ``⌈log₂(1/target_miss)⌉`` is not meaningful for
        this structure, so we default to 4 which works well for thresholds
        around 0.5 on token sets of moderate size.
    repetitions:
        Number of independent trees in the forest.
    seed:
        Seed for all node hash functions.
    """

    def __init__(
        self,
        threshold: float,
        depth: Optional[int] = None,
        repetitions: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if depth is not None and depth < 1:
            raise ValueError("depth must be positive")
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        self.threshold = threshold
        self.depth = depth if depth is not None else 4
        self.repetitions = repetitions
        self._rng = np.random.default_rng(seed)
        # Hash functions are created per (tree, path) node by the inserts that
        # reach it, so the forest never materializes nodes no record reaches.
        self._node_hashes: Dict[Tuple[int, Tuple[int, ...]], UniformHash] = {}
        # Leaf buckets: (tree, full path) -> record ids.
        self._leaves: Dict[Tuple[int, Tuple[int, ...]], List[int]] = defaultdict(list)

    # ------------------------------------------------------------------ internals
    def _paths_of(self, tokens: Sequence[int], tree: int, create: bool) -> List[Tuple[int, ...]]:
        """All root-to-leaf paths the sorted token set follows in one tree.

        Each node tests all of the record's tokens in one vectorized hash
        pass.  ``UniformHash.value`` masks its key to 32 bits while the
        vectorized ``values`` does not, so the tokens are masked here once —
        keeping the branching decisions (and therefore existing persisted
        buckets) identical to the scalar per-token loop.  With ``create``
        (inserts) a node without a hash function gets one; without it
        (queries) the walk ends there, as no leaf lies below such a node.
        """
        branch_probability = min(1.0, 1.0 / (self.threshold * len(tokens)))
        masked = np.asarray(tokens, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
        node_hashes = self._node_hashes
        frontier: List[Tuple[int, ...]] = [()]
        for _ in range(self.depth):
            next_frontier: List[Tuple[int, ...]] = []
            for path in frontier:
                node_hash = node_hashes.get((tree, path))
                if node_hash is None:
                    if not create:
                        continue
                    node_hash = node_hashes[(tree, path)] = UniformHash(self._rng)
                branching = node_hash.values(masked) < branch_probability
                for position in np.flatnonzero(branching).tolist():
                    next_frontier.append(path + (tokens[position],))
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    # ------------------------------------------------------------------ public API
    def insert(self, record_id: int, tokens: Sequence[int]) -> None:
        """Add a record id to every leaf its sorted, distinct tokens reach."""
        for tree in range(self.repetitions):
            for path in self._paths_of(tokens, tree, create=True):
                self._leaves[(tree, path)].append(record_id)

    def candidates(self, tokens: Sequence[int]) -> Set[int]:
        """Ids sharing a leaf with the sorted, distinct query tokens in any tree."""
        found: Set[int] = set()
        for tree in range(self.repetitions):
            for path in self._paths_of(tokens, tree, create=False):
                found.update(self._leaves.get((tree, path), ()))
        return found

    def recall_lower_bound(self) -> float:
        """Per-query lower bound on the probability of reporting a qualifying record."""
        per_tree = 1.0 / (self.depth + 1)
        return 1.0 - (1.0 - per_tree) ** self.repetitions

    def expected_leaf_count(self, record_size: int) -> float:
        """Expected number of leaves a record of the given size reaches per tree.

        Each node spawns ``Binomial(|x|, 1/(λ|x|))`` children (mean ``1/λ``),
        so after ``depth`` levels the expected number of leaves is
        ``(1/λ)^depth``; this is the space/time knob of the non-adaptive index
        that CPSJOIN's adaptive rule removes.
        """
        if record_size < 1:
            raise ValueError("record_size must be positive")
        return (1.0 / self.threshold) ** self.depth
