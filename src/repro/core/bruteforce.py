"""Brute-force subroutines of CPSJOIN (Algorithm 2).

Three pieces live here, shared by the CPSJOIN engine and the MinHash LSH
baseline:

* ``BruteForcer.pairs`` — BRUTEFORCEPAIRS: compare all pairs within a
  subproblem, reporting those meeting the threshold.
* ``BruteForcer.point`` — BRUTEFORCEPOINT: compare one record against every
  record of a subproblem.
* ``BruteForcer.average_similarities`` — the estimate of each record's average
  similarity to the rest of the subproblem that drives the adaptive recursion
  rule (equation IV-C1), either via exact token counting (Algorithm 2) or via
  the sampled 1-bit sketch estimator the paper's implementation uses
  (Section V-A.4).

All candidate pairs go through the same two-stage check the paper describes:
a size-compatibility probe and the 1-bit minwise sketch estimate with cut-off
``λ̂`` (chosen for false-negative probability ``δ``); survivors are verified
exactly on the original token sets.

The arithmetic itself is delegated to the execution backend
(:mod:`repro.backend`), which verifies whole candidate blocks with vectorized
kernels; ``BruteForcer`` only owns the policy (which subsets to compare) and
the statistics bookkeeping.

When the preprocessed collection carries per-record side labels (an R ⋈ S
join, see :func:`repro.core.preprocess.preprocess_collection`), the backend
makes ``pairs`` and ``point`` side-aware: same-side pairs are skipped before
any counting, so the statistics only reflect cross-side work.  The
:meth:`BruteForcer.average_similarities` estimate intentionally stays
side-blind — it only steers *when* the recursion brute-forces, so keeping it
identical to the self-join makes the R ⋈ S recursion (and its randomness
consumption) match a union self-join at the same seed exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.preprocess import PreprocessedCollection
from repro.hashing.sketch import sketch_similarity_threshold
from repro.result import JoinStats, canonical_pair

__all__ = ["BruteForcer"]


class BruteForcer:
    """Candidate generation and verification kernel over a preprocessed collection.

    Parameters
    ----------
    collection:
        The preprocessed records (token sets, signatures, sketches).
    threshold:
        Jaccard threshold ``λ``.
    stats:
        Statistics object updated in place (pre-candidates / candidates /
        verified counts).
    use_sketches:
        When False the sketch filter is skipped (ablation A2): every
        size-compatible pre-candidate is verified exactly.
    sketch_false_negative_rate:
        ``δ`` — used to derive the sketch estimate cut-off ``λ̂``.
    rng:
        Randomness used only for the sampled average-similarity estimator.
    backend:
        Execution backend: ``"numpy"`` / ``None``, or an already constructed
        :class:`repro.backend.ExecutionBackend` instance.
    """

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        stats: JoinStats,
        use_sketches: bool = True,
        sketch_false_negative_rate: float = 0.05,
        rng: Optional[np.random.Generator] = None,
        backend: Union[str, "object", None] = None,
    ) -> None:
        from repro.backend import make_backend

        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.collection = collection
        self.threshold = threshold
        self.stats = stats
        self.use_sketches = use_sketches
        self.rng = rng if rng is not None else np.random.default_rng()
        self.sketch_cutoff = sketch_similarity_threshold(
            threshold, collection.sketches.num_bits, sketch_false_negative_rate
        )
        self.backend = make_backend(backend, collection, threshold)

    # ------------------------------------------------------------------ pair reporting
    def pairs(self, subset: Sequence[int], output: Set[Tuple[int, int]]) -> None:
        """BRUTEFORCEPAIRS: report all pairs within ``subset`` meeting the threshold."""
        pre_candidates, verified, accepted = self.backend.all_pairs(
            subset, self.use_sketches, self.sketch_cutoff
        )
        self.stats.pre_candidates += pre_candidates
        self.stats.candidates += verified
        self.stats.verified += verified
        output |= accepted

    def point(self, subset: Sequence[int], record_id: int, output: Set[Tuple[int, int]]) -> None:
        """BRUTEFORCEPOINT: report all pairs between ``record_id`` and ``subset``."""
        others = [other for other in subset if other != record_id]
        if not others:
            return
        pre_candidates, verified, accepted_ids = self.backend.one_to_many(
            record_id, np.asarray(others, dtype=np.intp), self.use_sketches, self.sketch_cutoff
        )
        self.stats.pre_candidates += pre_candidates
        self.stats.candidates += verified
        self.stats.verified += verified
        for other_id in accepted_ids:
            output.add(canonical_pair(record_id, other_id))

    # ------------------------------------------------------------------ average similarity
    def average_similarities(
        self,
        subset: Sequence[int],
        method: str = "sketches",
        sample_size: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Estimated average similarity of each record in ``subset`` to the others.

        ``method="tokens"`` implements the exact rule of Algorithm 2 on the
        embedded token sets: with ``count[j]`` the number of records in the
        subproblem containing embedded token ``j``, the average Braun–Blanquet
        similarity of ``x`` to the rest is
        ``(1/(|S|-1)) Σ_{j ∈ f(x)} (count[j] - 1) / t``.

        ``method="sketches"`` is the paper's fast variant (Section V-A.4):
        the average is estimated against a random sample of the subproblem
        using the 1-bit sketches, at cost ``O(ℓ · sample)`` per record.

        ``rng`` overrides the sampling generator for one call; the CPSJOIN
        candidate stage passes a per-node generator here so the estimate at a
        tree node is a pure function of the node's identity, independent of
        the order the walk visits nodes in.
        """
        subset = np.asarray(subset, dtype=np.intp)
        if subset.size < 2:
            return np.zeros(subset.size)
        if method == "tokens":
            return self.backend.average_similarity_exact(subset)
        if method == "sketches":
            return self.backend.average_similarity_sampled(
                subset, sample_size, self.rng if rng is None else rng
            )
        raise ValueError(f"unknown average method: {method!r}")
