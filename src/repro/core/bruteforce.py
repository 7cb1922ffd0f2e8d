"""The adaptive BRUTEFORCE rule's similarity estimator (Algorithm 2).

The brute-force comparisons themselves — BRUTEFORCEPAIRS over a subproblem,
BRUTEFORCEPOINT of one record against it — are candidate tasks
(:class:`~repro.engine.stages.SubsetCandidates`,
:class:`~repro.engine.stages.PointCandidates`) that the staged
:class:`~repro.engine.JoinEngine` filters and verifies in segmented passes,
a whole flush of tasks at a time.  What stays here is the estimate that
decides *when* the recursion brute-forces:
``BruteForcer.average_similarities``, each record's average similarity to
the rest of the subproblem (equation IV-C1), either via exact token
counting (Algorithm 2) or via the sampled 1-bit sketch estimator the
paper's implementation uses (Section V-A.4).

The arithmetic is delegated to the execution backend
(:mod:`repro.backend`).  The estimate is side-blind in an R ⋈ S join: it
only steers *when* the recursion brute-forces, so keeping it identical to
the self-join makes the R ⋈ S recursion (and its randomness consumption)
match a union self-join at the same seed exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.preprocess import PreprocessedCollection

__all__ = ["BruteForcer"]


class BruteForcer:
    """Average-similarity estimator of the adaptive rule over a preprocessed collection.

    Parameters
    ----------
    collection:
        The preprocessed records (token sets, signatures, sketches).
    threshold:
        Jaccard threshold ``λ`` (binds a new backend; ignored when
        ``backend`` is an instance).
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
        rng: Optional[np.random.Generator] = None,
        backend: Union[str, "object", None] = None,
    ) -> None:
        from repro.backend import make_backend

        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.collection = collection
        self.threshold = threshold
        self.rng = rng if rng is not None else np.random.default_rng()
        self.backend = make_backend(backend, collection, threshold)

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
