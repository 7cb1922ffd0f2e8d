"""Set similarity measures and the :class:`Measure` abstraction.

The paper's experiments use Jaccard similarity, but the algorithm applies to
any LSHable measure through the embedding of Section II-A; the embedded join
itself runs on Braun–Blanquet similarity of fixed-size sets.  This module
collects the measures used anywhere in the reproduction, all defined on
token sets (any iterable of hashable tokens), and promotes them into
first-class :class:`Measure` objects that every layer (backends, engine,
exact algorithms, index, service) consumes:

* a **name** and a pairwise **score**;
* the **required-overlap bound** ``required_overlap(size_a, size_b, λ)`` —
  the smallest intersection (weight) under which the score can still reach
  ``λ`` — which drives verification, prefix filtering and the ScanCount
  index path;
* a **size-compatibility probe** (the length filter generalized per
  measure);
* optional **per-token weights** (tf-idf style): sizes become summed token
  weights and overlaps summed weights of shared tokens, in the same
  formulas;
* the **Jaccard floor** ``jaccard_floor(λ)`` translating a threshold on the
  measure into a lower bound on plain Jaccard similarity, which is how the
  randomized algorithms (MinHash embedding, 1-bit sketches, Chosen Path)
  carry a non-Jaccard threshold through the embedding of Section II-A.

Every classic function (``jaccard_similarity`` …) remains available and
unchanged; ``SIMILARITY_MEASURES`` now maps names to callable
:class:`Measure` instances (including ``containment``, which was
implemented but unreachable by name before).
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Measure",
    "JaccardMeasure",
    "CosineMeasure",
    "DiceMeasure",
    "OverlapCoefficientMeasure",
    "BraunBlanquetMeasure",
    "ContainmentMeasure",
    "get_measure",
    "overlap_size",
    "jaccard_similarity",
    "cosine_similarity",
    "dice_similarity",
    "overlap_coefficient",
    "braun_blanquet_similarity",
    "containment",
    "hamming_distance",
    "required_overlap_for_jaccard",
    "jaccard_to_braun_blanquet_threshold",
    "SIMILARITY_MEASURES",
    "MEASURE_NAMES",
]

_EPSILON = 1e-9
"""Slack subtracted before every ceil/comparison to absorb float noise."""


def _as_set(tokens: Iterable[int]) -> AbstractSet[int]:
    if isinstance(tokens, (set, frozenset)):
        return tokens
    return set(tokens)


def _overlap_of_sets(first_set: AbstractSet[int], second_set: AbstractSet[int]) -> int:
    """Intersection size of two *sets* — no re-conversion, no re-checks."""
    if len(first_set) > len(second_set):
        first_set, second_set = second_set, first_set
    return sum(1 for token in first_set if token in second_set)


def overlap_size(first: Iterable[int], second: Iterable[int]) -> int:
    """Size of the intersection of two token sets."""
    return _overlap_of_sets(_as_set(first), _as_set(second))


def jaccard_similarity(first: Iterable[int], second: Iterable[int]) -> float:
    """Jaccard similarity ``|x ∩ y| / |x ∪ y|``; 1.0 for two empty sets."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set and not second_set:
        return 1.0
    intersection = _overlap_of_sets(first_set, second_set)
    union = len(first_set) + len(second_set) - intersection
    return intersection / union


def cosine_similarity(first: Iterable[int], second: Iterable[int]) -> float:
    """Cosine similarity of the binary incidence vectors ``|x ∩ y| / sqrt(|x||y|)``."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set or not second_set:
        return 1.0 if not first_set and not second_set else 0.0
    intersection = _overlap_of_sets(first_set, second_set)
    return intersection / math.sqrt(len(first_set) * len(second_set))


def dice_similarity(first: Iterable[int], second: Iterable[int]) -> float:
    """Sørensen–Dice similarity ``2|x ∩ y| / (|x| + |y|)``."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set and not second_set:
        return 1.0
    intersection = _overlap_of_sets(first_set, second_set)
    return 2.0 * intersection / (len(first_set) + len(second_set))


def overlap_coefficient(first: Iterable[int], second: Iterable[int]) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient ``|x ∩ y| / min(|x|, |y|)``."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set or not second_set:
        return 1.0 if not first_set and not second_set else 0.0
    intersection = _overlap_of_sets(first_set, second_set)
    return intersection / min(len(first_set), len(second_set))


def braun_blanquet_similarity(first: Iterable[int], second: Iterable[int]) -> float:
    """Braun–Blanquet similarity ``|x ∩ y| / max(|x|, |y|)``.

    Equation (2) of the paper is the special case where both sets have the
    same fixed size ``t``; then ``B(x, y) = |x ∩ y| / t``.
    """
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set or not second_set:
        return 1.0 if not first_set and not second_set else 0.0
    intersection = _overlap_of_sets(first_set, second_set)
    return intersection / max(len(first_set), len(second_set))


def containment(first: Iterable[int], second: Iterable[int]) -> float:
    """Containment of ``first`` in ``second``: ``|x ∩ y| / |x|``."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    if not first_set:
        return 1.0
    return _overlap_of_sets(first_set, second_set) / len(first_set)


def hamming_distance(first: Iterable[int], second: Iterable[int]) -> int:
    """Hamming distance of the binary incidence vectors, i.e. ``|x Δ y|``."""
    first_set = _as_set(first)
    second_set = _as_set(second)
    intersection = _overlap_of_sets(first_set, second_set)
    return len(first_set) + len(second_set) - 2 * intersection


def required_overlap_for_jaccard(size_first: int, size_second: int, threshold: float) -> int:
    """Minimum intersection size for two sets of given sizes to reach a Jaccard threshold.

    ``J(x, y) ≥ λ`` is equivalent to ``|x ∩ y| ≥ ⌈λ (|x| + |y|) / (1 + λ)⌉``;
    prefix filtering and the verification kernels all rely on this bound.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if size_first < 0 or size_second < 0:
        raise ValueError("set sizes must be non-negative")
    return math.ceil(threshold / (1.0 + threshold) * (size_first + size_second) - 1e-9)


def jaccard_to_braun_blanquet_threshold(threshold: float) -> float:
    """Braun–Blanquet threshold equivalent to a Jaccard threshold on embedded sets.

    On the embedded size-``t`` sets the expected intersection is
    ``t * J(x, y)`` (Section II-A), so the same numeric threshold is used for
    the embedded Braun–Blanquet join.  The function exists to make that
    identity explicit at call sites.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    return threshold


def _validate_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")


# ---------------------------------------------------------------------------
# The Measure abstraction
# ---------------------------------------------------------------------------


class Measure:
    """A similarity measure as every layer of the system consumes it.

    Subclasses define the per-measure formulas (``_similarity``, the raw
    required-overlap bound, the size-compatibility probe, the Jaccard
    floor); this base class supplies the weighted/unweighted plumbing on
    top of them.

    Parameters
    ----------
    weights:
        Optional per-token weights (token → positive weight).  Unlisted
        tokens weigh ``1.0``.  With weights, every "size" becomes the sum
        of a record's token weights and every "overlap" the summed weight
        of the shared tokens — plugged into the same formulas, per the
        standard weighted variants of the prefix-filter literature.

    Contract for the bounds (relied on by the exact joins): the required
    overlap is non-decreasing in *both* sizes on the compatible range, so
    the tightest bound against any partner is attained at the smallest
    compatible partner size.
    """

    name = "measure"

    def __init__(self, weights: Optional[Mapping[int, float]] = None) -> None:
        if weights is not None:
            cleaned = {}
            for token, weight in weights.items():
                value = float(weight)
                if not math.isfinite(value) or value <= 0.0:
                    raise ValueError(
                        f"token weights must be positive finite numbers, got {weight!r} "
                        f"for token {token!r}"
                    )
                cleaned[int(token)] = value
            weights = cleaned if cleaned else None
        self.weights: Optional[Dict[int, float]] = weights
        if weights:
            # Unlisted tokens weigh 1.0, so the global bounds include it.
            self._min_weight = min(1.0, min(weights.values()))
            self._max_weight = max(1.0, max(weights.values()))
        else:
            self._min_weight = self._max_weight = 1.0

    # ------------------------------------------------------------------ identity
    @property
    def weighted(self) -> bool:
        return self.weights is not None

    @property
    def is_default(self) -> bool:
        """True for unweighted Jaccard — the measure legacy code paths assumed."""
        return self.name == "jaccard" and not self.weighted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f", weights={len(self.weights)} tokens" if self.weighted else ""
        return f"{type(self).__name__}(name={self.name!r}{suffix})"

    # ------------------------------------------------------------------ weights
    def token_weight(self, token: int) -> float:
        """Weight of one token (1.0 when unweighted or unlisted)."""
        if self.weights is None:
            return 1.0
        return self.weights.get(int(token), 1.0)

    def record_size(self, tokens: Sequence[int]) -> Union[int, float]:
        """Measure-size of a record: token count, or summed token weights."""
        if self.weights is None:
            return len(tokens)
        weights = self.weights
        return float(sum(weights.get(int(token), 1.0) for token in tokens))

    def value_weights(self, values: np.ndarray) -> np.ndarray:
        """Per-token weights aligned with a flat token array (float64)."""
        if self.weights is None:
            return np.ones(len(values), dtype=np.float64)
        weights = self.weights
        return np.fromiter(
            (weights.get(int(value), 1.0) for value in values),
            dtype=np.float64,
            count=len(values),
        )

    def set_overlap(self, first_set: AbstractSet[int], second_set: AbstractSet[int]) -> Union[int, float]:
        """Overlap of two sets: shared-token count, or summed shared weight."""
        if len(first_set) > len(second_set):
            first_set, second_set = second_set, first_set
        if self.weights is None:
            return sum(1 for token in first_set if token in second_set)
        weights = self.weights
        return float(sum(weights.get(int(token), 1.0) for token in first_set if token in second_set))

    # ------------------------------------------------------------------ scoring
    def score(self, first: Iterable[int], second: Iterable[int]) -> float:
        """Pairwise similarity score on raw token iterables."""
        first_set = _as_set(first)
        second_set = _as_set(second)
        overlap = self.set_overlap(first_set, second_set)
        return self.similarity_from_overlap(
            self.record_size(first_set), self.record_size(second_set), overlap
        )

    def __call__(self, first: Iterable[int], second: Iterable[int]) -> float:
        return self.score(first, second)

    def similarity_from_overlap(self, size_first, size_second, overlap) -> float:
        """Score of a pair from its sizes and overlap (scalar; empty-safe)."""
        if size_first == 0 and size_second == 0:
            return 1.0
        return self._similarity(size_first, size_second, overlap)

    def _similarity(self, size_first, size_second, overlap) -> float:
        raise NotImplementedError

    def similarities_from_overlaps(
        self, query_size, other_sizes: np.ndarray, overlaps: np.ndarray
    ) -> np.ndarray:
        """Vectorized scores against one query (all sizes positive)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ bounds
    def required_overlap(self, size_first, size_second, threshold: float):
        """Smallest overlap under which the score can still reach ``threshold``.

        Integer (via a guarded ceil) for unweighted measures — so the
        acceptance test ``overlap >= required`` is exact integer
        arithmetic — and a float with ``1e-9`` slack for weighted ones.
        """
        _validate_threshold(threshold)
        if size_first < 0 or size_second < 0:
            raise ValueError("set sizes must be non-negative")
        raw = self._required_raw(size_first, size_second, threshold)
        if self.weighted:
            return raw - _EPSILON
        return math.ceil(raw - _EPSILON)

    def required_overlaps(self, query_size, other_sizes: np.ndarray, threshold: float) -> np.ndarray:
        """Vectorized :meth:`required_overlap`: one query against many, or aligned pairs.

        ``query_size`` broadcasts against ``other_sizes``: a scalar (one
        query record) or an array of the same shape (the first records of
        a block of pairs).
        """
        raw = self._required_raw_vector(query_size, other_sizes, threshold)
        if self.weighted:
            return raw - _EPSILON
        return np.ceil(raw - _EPSILON).astype(np.int64)

    def _required_raw(self, size_first, size_second, threshold: float):
        raise NotImplementedError

    def _required_raw_vector(self, query_size, other_sizes: np.ndarray, threshold: float):
        raise NotImplementedError

    # ------------------------------------------------------------------ size probes
    def size_compatible(self, first_sizes, second_sizes, threshold: float):
        """Vectorized length filter: can records of these sizes qualify at all?"""
        raise NotImplementedError

    def min_compatible_size(self, size, threshold: float):
        """Smallest partner measure-size that passes the length filter."""
        raw = self._min_compatible_raw(size, threshold)
        if self.weighted:
            return max(0.0, raw - _EPSILON)
        return max(0, math.ceil(raw - _EPSILON))

    def _min_compatible_raw(self, size, threshold: float):
        raise NotImplementedError

    # ------------------------------------------------------------------ prefix-filter floors
    def probe_overlap_floor(self, size, threshold: float):
        """Lower bound on the required overlap against *any* compatible partner.

        The probing-prefix length of the exact joins is
        ``size - floor + 1`` (in suffix weight for weighted measures): a
        qualifying partner must share at least this much, so it must share
        a token inside that prefix.  The bound is attained at the smallest
        compatible partner size (monotonicity contract above).
        """
        return self.required_overlap(size, self.min_compatible_size(size, threshold), threshold)

    def index_overlap_floor(self, size, threshold: float):
        """Required-overlap floor against partners at least as large.

        Records are indexed in non-decreasing size order, so an indexed
        record is only ever probed by records of equal or larger size; the
        floor is attained at equality, giving the shorter "mid-prefix"
        the literature indexes (``size - floor + 1`` positions).
        """
        return self.required_overlap(size, size, threshold)

    # ------------------------------------------------------------------ embedding translation
    def jaccard_floor(self, threshold: float) -> float:
        """Lower bound on plain Jaccard similarity implied by ``score ≥ threshold``.

        This is how a non-Jaccard threshold travels through the Section
        II-A embedding: the MinHash signatures, 1-bit sketches and Chosen
        Path recursion all estimate (embedded) Jaccard similarity, so the
        randomized algorithms run at the translated threshold
        ``jaccard_floor(λ)`` and verify with the real measure at ``λ``.
        A floor of ``0.0`` means the measure gives no Jaccard guarantee
        (overlap/containment: a tiny set inside a huge one scores 1.0 at
        near-zero Jaccard) and the randomized algorithms must refuse it.

        With weights the floor is evaluated at ``λ · w_min / w_max``: a
        weighted score of ``λ`` bounds the unweighted one by that factor.
        """
        _validate_threshold(threshold)
        effective = threshold * (self._min_weight / self._max_weight)
        if effective <= 0.0:
            return 0.0
        return self._jaccard_floor(effective)

    def _jaccard_floor(self, threshold: float) -> float:
        raise NotImplementedError


class JaccardMeasure(Measure):
    """Jaccard similarity ``|x ∩ y| / |x ∪ y|`` (the system default).

    Every formula here reproduces the historical expressions
    character-for-character — the default-measure bit-parity guarantee
    across backends, executors and the served path rests on it.
    """

    name = "jaccard"

    def _similarity(self, size_first, size_second, overlap) -> float:
        union = size_first + size_second - overlap
        return overlap / union if union else 1.0

    def similarities_from_overlaps(self, query_size, other_sizes, overlaps):
        unions = query_size + other_sizes - overlaps
        if self.weighted:
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(unions > 0.0, overlaps / np.where(unions > 0.0, unions, 1.0), 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(unions > 0, overlaps / np.maximum(unions, 1.0), 1.0)

    def _required_raw(self, size_first, size_second, threshold):
        return threshold / (1.0 + threshold) * (size_first + size_second)

    def _required_raw_vector(self, query_size, other_sizes, threshold):
        return threshold / (1.0 + threshold) * (query_size + other_sizes)

    def size_compatible(self, first_sizes, second_sizes, threshold):
        return (second_sizes >= threshold * first_sizes) & (first_sizes >= threshold * second_sizes)

    def _min_compatible_raw(self, size, threshold):
        return threshold * size

    def probe_overlap_floor(self, size, threshold):
        # Legacy expression (kept verbatim): required overlap at the
        # smallest compatible partner collapses to ⌈λ·size⌉.
        _validate_threshold(threshold)
        raw = threshold * size
        return raw - _EPSILON if self.weighted else math.ceil(raw - _EPSILON)

    def index_overlap_floor(self, size, threshold):
        # Legacy expression (kept verbatim): ⌈2λ/(1+λ)·size⌉.
        _validate_threshold(threshold)
        raw = 2.0 * threshold / (1.0 + threshold) * size
        return raw - _EPSILON if self.weighted else math.ceil(raw - _EPSILON)

    def _jaccard_floor(self, threshold):
        return threshold


class CosineMeasure(Measure):
    """Cosine similarity of binary incidence vectors ``|x ∩ y| / √(|x||y|)``."""

    name = "cosine"

    def _similarity(self, size_first, size_second, overlap) -> float:
        if size_first == 0 or size_second == 0:
            return 0.0
        return overlap / math.sqrt(size_first * size_second)

    def similarities_from_overlaps(self, query_size, other_sizes, overlaps):
        return overlaps / np.sqrt(query_size * np.asarray(other_sizes, dtype=np.float64))

    def _required_raw(self, size_first, size_second, threshold):
        return threshold * math.sqrt(size_first * size_second)

    def _required_raw_vector(self, query_size, other_sizes, threshold):
        return threshold * np.sqrt(query_size * np.asarray(other_sizes, dtype=np.float64))

    def size_compatible(self, first_sizes, second_sizes, threshold):
        # score ≤ √(min/max), so qualifying needs min ≥ λ²·max.
        bound = threshold * threshold
        return (second_sizes >= bound * first_sizes) & (first_sizes >= bound * second_sizes)

    def _min_compatible_raw(self, size, threshold):
        return threshold * threshold * size

    def _jaccard_floor(self, threshold):
        # C ≥ λ with |y| up to |x|/λ² forces J ≥ λ² (tight at that ratio).
        return threshold * threshold


class DiceMeasure(Measure):
    """Sørensen–Dice similarity ``2|x ∩ y| / (|x| + |y|)``."""

    name = "dice"

    def _similarity(self, size_first, size_second, overlap) -> float:
        total = size_first + size_second
        return 2.0 * overlap / total if total else 1.0

    def similarities_from_overlaps(self, query_size, other_sizes, overlaps):
        return 2.0 * overlaps / (query_size + np.asarray(other_sizes, dtype=np.float64))

    def _required_raw(self, size_first, size_second, threshold):
        return threshold * (size_first + size_second) / 2.0

    def _required_raw_vector(self, query_size, other_sizes, threshold):
        return threshold * (query_size + other_sizes) / 2.0

    def size_compatible(self, first_sizes, second_sizes, threshold):
        # 2·min/(a+b) ≥ λ ⇔ min·(2-λ) ≥ λ·max.
        factor = 2.0 - threshold
        return (factor * second_sizes >= threshold * first_sizes) & (
            factor * first_sizes >= threshold * second_sizes
        )

    def _min_compatible_raw(self, size, threshold):
        return threshold / (2.0 - threshold) * size

    def _jaccard_floor(self, threshold):
        # D ≥ λ ⇒ J = o/(a+b-o) ≥ λ/(2-λ) (o ≥ λ(a+b)/2, J increasing in o).
        return threshold / (2.0 - threshold)


class OverlapCoefficientMeasure(Measure):
    """Overlap (Szymkiewicz–Simpson) coefficient ``|x ∩ y| / min(|x|, |y|)``.

    No length filter exists (any size ratio can score 1.0) and the Jaccard
    floor is 0, so only the exact algorithms and the exact index mode can
    serve it.
    """

    name = "overlap"

    def _similarity(self, size_first, size_second, overlap) -> float:
        smaller = min(size_first, size_second)
        return overlap / smaller if smaller else 0.0

    def similarities_from_overlaps(self, query_size, other_sizes, overlaps):
        return overlaps / np.minimum(query_size, np.asarray(other_sizes, dtype=np.float64))

    def _required_raw(self, size_first, size_second, threshold):
        return threshold * min(size_first, size_second)

    def _required_raw_vector(self, query_size, other_sizes, threshold):
        return threshold * np.minimum(query_size, other_sizes)

    def size_compatible(self, first_sizes, second_sizes, threshold):
        return np.ones(np.broadcast(np.asarray(first_sizes), np.asarray(second_sizes)).shape, dtype=bool)

    def _min_compatible_raw(self, size, threshold):
        return 0.0

    def _jaccard_floor(self, threshold):
        return 0.0


class BraunBlanquetMeasure(Measure):
    """Braun–Blanquet similarity ``|x ∩ y| / max(|x|, |y|)`` (equation (2))."""

    name = "braun_blanquet"

    def _similarity(self, size_first, size_second, overlap) -> float:
        larger = max(size_first, size_second)
        return overlap / larger if larger else 1.0

    def similarities_from_overlaps(self, query_size, other_sizes, overlaps):
        return overlaps / np.maximum(query_size, np.asarray(other_sizes, dtype=np.float64))

    def _required_raw(self, size_first, size_second, threshold):
        return threshold * max(size_first, size_second)

    def _required_raw_vector(self, query_size, other_sizes, threshold):
        return threshold * np.maximum(query_size, other_sizes)

    def size_compatible(self, first_sizes, second_sizes, threshold):
        # min ≥ λ·max — the same mask as Jaccard.
        return (second_sizes >= threshold * first_sizes) & (first_sizes >= threshold * second_sizes)

    def _min_compatible_raw(self, size, threshold):
        return threshold * size

    def _jaccard_floor(self, threshold):
        # B ≥ λ ⇒ o ≥ λ·max ⇒ J ≥ λ·max/(max+min-λ·max) ≥ λ/(2-λ).
        return threshold / (2.0 - threshold)


class ContainmentMeasure(OverlapCoefficientMeasure):
    """Symmetric containment: how fully the smaller set sits inside the larger.

    As a *join predicate* containment must be symmetric — candidate pairs
    reach verification in either orientation — so the registered measure
    scores ``max(containment(x, y), containment(y, x)) = |x ∩ y| /
    min(|x|, |y|)``, numerically identical to the overlap coefficient on
    sets (it differs under per-token weights only by which size the shared
    weight is divided by — still the smaller one).  The *directed*
    :func:`containment` function stays available for asymmetric scoring.
    Like the overlap coefficient it admits no length filter and no Jaccard
    floor, so it is exact-paths-only.
    """

    name = "containment"

    def _similarity(self, size_first, size_second, overlap) -> float:
        smaller = min(size_first, size_second)
        # An empty set is contained in anything.
        return overlap / smaller if smaller else 1.0


_DEFAULT_MEASURE = JaccardMeasure()

SIMILARITY_MEASURES: Dict[str, Measure] = {
    "jaccard": _DEFAULT_MEASURE,
    "cosine": CosineMeasure(),
    "dice": DiceMeasure(),
    "overlap": OverlapCoefficientMeasure(),
    "braun_blanquet": BraunBlanquetMeasure(),
    "containment": ContainmentMeasure(),
}
"""Registry of measures addressable by name in the public join API."""

MEASURE_NAMES = tuple(SIMILARITY_MEASURES)


def get_measure(
    measure: Union[str, Measure, None] = None,
    weights: Optional[Mapping[int, float]] = None,
) -> Measure:
    """Resolve a measure spec (name, instance or ``None``) to a :class:`Measure`.

    ``None`` means the default (unweighted Jaccard).  ``weights`` attaches
    per-token weights to the resolved measure (a new instance; registry
    entries are never mutated).
    """
    if measure is None:
        base = _DEFAULT_MEASURE
    elif isinstance(measure, Measure):
        base = measure
    else:
        name = str(measure).lower()
        if name not in SIMILARITY_MEASURES:
            raise ValueError(
                f"unknown similarity measure {measure!r}; expected one of "
                f"{sorted(SIMILARITY_MEASURES)}"
            )
        base = SIMILARITY_MEASURES[name]
    if weights is None:
        return base
    return type(base)(weights=weights)
