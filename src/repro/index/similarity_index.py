"""Build-once / query-many similarity index with incremental inserts.

The join engines materialize all similar pairs of a static collection in one
batch.  Production workloads are usually the other shape: a collection is
indexed once, then served point lookups (``query``) and incremental updates
(``insert``) for a long time.  :class:`SimilarityIndex` is that query-time
counterpart, made of three parts:

* **One record store.**  A growable :class:`repro.store.RecordStore` holds
  the index's only copy of each record: CSR tokens and sizes, plus — when
  the sketch filter is on — 1-bit minwise sketch words derived with the
  hashers and packing :func:`repro.hashing.sketch.build_sketches` uses for
  the join's store, so a grown index is bit for bit the index built in one
  shot.  Weighted measures add per-record measure sizes.
* **One candidate structure holding record ids.**  ``"exact"`` (the
  default) keeps token posting lists; every record sharing a token with the
  query is a candidate, so query results match an exact batch join
  *exactly*.  ``"chosenpath"`` and ``"lsh"`` keep the Chosen Path forest of
  :class:`repro.index.ChosenPathIndex` or the buckets of
  :class:`repro.index.MinHashLSHIndex` for sublinear approximate lookups.
* **One query pipeline.**  (1) Candidate generation, in exact mode with
  each candidate's exact overlap from ScanCount over the query's postings;
  (2) the filter: the size probe plus the optional sketch cut-off, off by
  default in exact mode because it is the one stage that can drop a true
  positive; (3) exact overlaps through the CSR ``searchsorted``
  intersection (:func:`repro.backend.kernels.csr_overlaps_one_to_many`)
  for the candidates that arrived without them; (4) one accept step against
  the measure's overlap bound.

Queries run serially, in chunks of :data:`QUERY_CHUNK_SIZE`.  Inserts append
to the store and the candidate structure with amortized O(1) growth, so no
insert rebuilds the index.  Per-stage query timings and counters accumulate
in :attr:`SimilarityIndex.stats` (``candidate_seconds`` /
``filter_seconds`` / ``verify_seconds``), with build time in
``index_build_seconds`` — the same fields the batch joins report.
"""

from __future__ import annotations

import pickle
import struct
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.backend.kernels import (
    csr_overlaps_one_to_many,
    csr_weighted_overlaps_one_to_many,
    sketch_estimates,
)
from repro.datasets.base import Record
from repro.hashing.minhash import MinHasher, check_hash_keys, pack_tokens
from repro.hashing.sketch import (
    pack_sketch_rows,
    sample_sketch_hashers,
    sketch_similarity_threshold,
)
from repro.obs.metrics import active_metrics
from repro.obs.tracing import span
from repro.result import JoinStats, canonical_pair
from repro.similarity.measures import Measure, get_measure
from repro.store.record_store import RecordStore, grow

__all__ = [
    "SimilarityIndex",
    "IndexPersistenceError",
    "normalized_tokens",
    "topk_from_matches",
]

Pair = Tuple[int, int]
Match = Tuple[int, float]

_WORD_BITS = 64

_SAVE_MAGIC = b"REPRO-SIMIDX\n"
"""File magic of :meth:`SimilarityIndex.save`; a bare pickle never starts with it."""

SAVE_FORMAT_VERSION = 4
"""On-disk format version written (and the only one read) by :meth:`SimilarityIndex.save`.

Version 4 indexes keep their records in one growable record store and carry
no parallel-query settings.  Files of any other version are refused with a
message asking for a rebuild (``repro-join index build``).
"""


class IndexPersistenceError(ValueError):
    """A saved index file could not be loaded (foreign, corrupt, or stale)."""


TOKEN_INT64_MIN = -(2**63)
TOKEN_INT64_MAX = 2**63 - 1
"""Token bounds of the index's int64 storage (shared with the wire protocol)."""


def normalized_tokens(record, action: str) -> Tuple[int, ...]:
    """Sorted, deduplicated int tokens, range-checked to fit int64 storage.

    The single normalization used by the index *and* the serving layer (so
    a WAL-replayed record can never normalize differently than the live
    insert did).  The range check must happen *before* any index structure
    is touched: an out-of-range token surfacing as an OverflowError halfway
    through an insert would leave the index half-applied (store grown,
    postings not), which the serving layer's durability contract cannot
    tolerate.
    """
    normalized = tuple(sorted({int(token) for token in record}))
    if not normalized:
        raise ValueError(f"cannot {action} an empty record")
    if normalized[0] < TOKEN_INT64_MIN or normalized[-1] > TOKEN_INT64_MAX:
        offender = normalized[0] if normalized[0] < TOKEN_INT64_MIN else normalized[-1]
        raise ValueError(
            f"token {offender} does not fit the index's 64-bit token storage"
        )
    return normalized


def topk_from_matches(
    matches: Sequence["Match"], k: int, floor: Optional[float] = None
) -> List["Match"]:
    """The top-``k`` prefix of a descending-sorted match list.

    The one truncation rule shared by :meth:`SimilarityIndex.query_topk` and
    the serving layer's ``query_topk`` operation, so a served top-k answer is
    by construction the prefix of the corresponding threshold query.
    ``floor`` optionally cuts the prefix at the first match below it (a
    per-query tightening of the index threshold; it can only shrink the
    result).  ``matches`` must already be sorted by decreasing similarity —
    exactly what the query methods return.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError("k must be a positive integer")
    if k < 1:
        raise ValueError("k must be a positive integer")
    top: List[Match] = []
    for record_id, similarity in matches:
        if floor is not None and similarity < floor:
            break
        top.append((record_id, similarity))
        if len(top) == k:
            break
    return top


_CANDIDATE_MODES = ("exact", "chosenpath", "lsh")

QUERY_CHUNK_SIZE = 1024
"""Queries per chunk of :meth:`SimilarityIndex.query_batch`.

With the sketch filter on, a chunk's sketches are derived as one block, so
the chunk size bounds those temporaries.
"""


class _PostingLists:
    """Token → ids of the records holding it, in id order.

    Each list is a buffer grown by :func:`repro.store.record_store.grow` plus
    its used length, so the exact candidate stage can merge a query's
    postings with one C-speed ``np.concatenate``.  A pickle carries the
    lists as three exact-length arrays (tokens, lengths, ids).
    """

    def __init__(self) -> None:
        # token -> [buffer, used length]
        self._lists: Dict[int, list] = {}

    def extend(self, first_id: int, values: np.ndarray, sizes: np.ndarray) -> None:
        """Append the postings of records ``first_id, first_id + 1, …``.

        ``values``/``sizes`` are their CSR tokens and set sizes; one stable
        sort of the tokens groups the block's ids by token.
        """
        ids = np.repeat(np.arange(first_id, first_id + sizes.shape[0], dtype=np.intp), sizes)
        order = np.argsort(values, kind="stable")
        values, ids = values[order], ids[order]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        self._add_runs(values[starts], np.diff(np.append(starts, values.size)), ids)

    def _add_runs(self, tokens: np.ndarray, lengths: np.ndarray, ids: np.ndarray) -> None:
        """Append ``ids`` grouped by token: the next ``lengths[i]`` ids go to ``tokens[i]``."""
        lists = self._lists
        end = 0
        for token, length in zip(tokens.tolist(), lengths.tolist()):
            start, end = end, end + length
            entry = lists.get(token)
            if entry is None:
                lists[token] = [ids[start:end], length]
                continue
            buffer, used = entry
            buffer = entry[0] = grow(buffer, used, length)
            buffer[used : used + length] = ids[start:end]
            entry[1] = used + length

    def get(self, token: int) -> Optional[np.ndarray]:
        entry = self._lists.get(token)
        if entry is None:
            return None
        return entry[0][: entry[1]]

    def __getstate__(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        entries = self._lists.values()
        tokens = np.fromiter(self._lists, dtype=np.int64, count=len(self._lists))
        lengths = np.fromiter((used for _, used in entries), dtype=np.int64, count=len(self._lists))
        ids = np.concatenate([buffer[:used] for buffer, used in entries] or [np.zeros(0, np.intp)])
        return tokens, lengths, ids

    def __setstate__(self, state: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self._lists = {}
        self._add_runs(*state)


class SimilarityIndex:
    """An incrementally updatable index answering similarity threshold queries.

    One growable :class:`~repro.store.RecordStore` holds every record once,
    one candidate structure holds record ids, and every query runs the one
    pipeline described in the module docstring.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` on the configured measure's own scale;
        queries report indexed records with ``score(query, record) ≥ λ``.
    measure:
        Similarity measure (name, :class:`~repro.similarity.measures.Measure`
        instance, or ``None`` for Jaccard — the historical behaviour,
        bit-for-bit).  The approximate candidate structures and the sketch
        filter run at the measure's *Jaccard floor* of the threshold (the
        Section II-A embedding), so they require a measure with a positive
        floor; the floorless overlap coefficient / containment measures are
        limited to ``candidates="exact"`` without sketches.
    candidates:
        Candidate structure: ``"exact"`` (token posting lists, recall 1 —
        query results equal an exact batch join), ``"chosenpath"`` (the
        Chosen Path forest of :class:`repro.index.ChosenPathIndex`) or
        ``"lsh"`` (the buckets of :class:`repro.index.MinHashLSHIndex`).
    backend:
        Verification backend; ``"numpy"`` (or ``None``) is the only one.
        Kept as an attribute because the serving layer reports it.
    use_sketches:
        Whether queries run the 1-bit sketch filter before exact
        verification.  Defaults to False in ``"exact"`` mode (the filter has
        a ``δ`` false-negative rate and would break exactness) and True for
        the approximate modes.  Without it the index computes no
        signatures or sketches at all.
    seed:
        Seed for all hashing (sketches and the approximate candidate
        structures).  Incremental growth is deterministic for a fixed seed.
    embedding_size / sketch_words / sketch_false_negative_rate:
        MinHash functions, 64-bit sketch words and target false-negative
        rate ``δ`` of the sketch filter.
    chosen_path_depth / chosen_path_repetitions / lsh_bands / lsh_rows:
        Parameters of the approximate candidate structures.
    """

    def __init__(
        self,
        threshold: float,
        candidates: str = "exact",
        backend: Optional[str] = None,
        use_sketches: Optional[bool] = None,
        seed: Optional[int] = None,
        embedding_size: int = 128,
        sketch_words: int = 8,
        sketch_false_negative_rate: float = 0.05,
        chosen_path_depth: int = 3,
        chosen_path_repetitions: int = 12,
        lsh_bands: int = 32,
        lsh_rows: int = 4,
        measure: Union[str, Measure, None] = None,
    ) -> None:
        from repro.backend import check_backend

        if not 0.0 < threshold <= 1.0:
            # (0, 1] like the batch joins; λ = 1.0 is exact-duplicate lookup.
            raise ValueError("threshold must be in (0, 1]")
        if candidates not in _CANDIDATE_MODES:
            raise ValueError(f"candidates must be one of {_CANDIDATE_MODES}")
        self.threshold = threshold
        self.candidates = candidates
        self.backend = check_backend(backend)
        self.seed = seed
        self.use_sketches = (candidates != "exact") if use_sketches is None else bool(use_sketches)
        self.measure = get_measure(measure)
        # The approximate structures and the sketch filter operate on plain
        # Jaccard, so a non-default threshold travels through the measure's
        # Jaccard-floor embedding (identity for the default measure).
        self._embedded_threshold = self.measure.jaccard_floor(threshold)
        if (candidates != "exact" or self.use_sketches) and self._embedded_threshold <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} provides no Jaccard floor at "
                f"threshold {threshold}, so the approximate candidate "
                "structures and the sketch filter cannot bound it; index "
                "with candidates='exact' and use_sketches=False"
            )
        self.stats = JoinStats(algorithm="SIMINDEX", threshold=threshold)

        # The sketch substrate, shared by every candidate mode when enabled.
        self._minhasher: Optional[MinHasher] = None
        self._sketch_hashers: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sketch_cutoff = 0.0
        if self.use_sketches:
            self._minhasher = MinHasher(num_functions=embedding_size, seed=seed)
            sketch_seed = None if seed is None else seed + 0x5EED
            self._sketch_hashers = sample_sketch_hashers(embedding_size, sketch_words, sketch_seed)
            self._sketch_cutoff = sketch_similarity_threshold(
                self._embedded_threshold, sketch_words * _WORD_BITS, sketch_false_negative_rate
            )

        self._store = RecordStore(
            token_values=np.zeros(0, dtype=np.int64),
            token_offsets=np.zeros(1, dtype=np.int64),
            signature_matrix=np.zeros((0, 0), dtype=np.uint64),
            sketch_words=np.zeros((0, sketch_words if self.use_sketches else 0), dtype=np.uint64),
            measure_sizes=np.zeros(0) if self.measure.weighted else None,
        )

        # The candidate structure: posting lists in exact mode, else the
        # Chosen Path forest or the LSH buckets.
        self._postings: Optional[_PostingLists] = None
        self._structure = None
        if candidates == "exact":
            self._postings = _PostingLists()
        elif candidates == "chosenpath":
            from repro.index.chosen_path import ChosenPathIndex

            self._structure = ChosenPathIndex(
                self._embedded_threshold,
                depth=chosen_path_depth,
                repetitions=chosen_path_repetitions,
                seed=seed,
            )
        else:
            from repro.index.minhash_lsh import MinHashLSHIndex

            self._structure = MinHashLSHIndex(
                self._embedded_threshold, bands=lsh_bands, rows=lsh_rows, seed=seed
            )

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        records: Sequence[Sequence[int]],
        threshold: float,
        **options: object,
    ) -> "SimilarityIndex":
        """Construct an index over a collection in one shot (timed build)."""
        index = cls(threshold, **options)  # type: ignore[arg-type]
        index.insert_all(records)
        return index

    def __len__(self) -> int:
        return self._store.num_records

    def record(self, record_id: int) -> Record:
        """The stored record with the given id."""
        if not 0 <= record_id < len(self):
            raise IndexError(f"record id {record_id} out of range")
        return tuple(self._store.record_tokens(record_id).tolist())

    def __iter__(self) -> Iterator[Record]:
        return iter(self._store.record_tuples())

    # ------------------------------------------------------------------ inserts
    def insert(self, record: Sequence[int]) -> int:
        """Insert a record incrementally; returns its id.

        Amortized O(|record|) plus the candidate-structure insertion; no part
        of the existing index is rebuilt.
        """
        started = time.perf_counter()
        with span("index.insert"):
            record_id = self._append([normalized_tokens(record, "index")])
        self._count_build(
            time.perf_counter() - started,
            "repro_index_insert_seconds",
            "Latency of single-record index inserts.",
        )
        return record_id

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records as one block; returns their ids.

        The whole block is normalized and validated first, so a bad record
        leaves the index untouched.  The block is then appended in one pass:
        its sketches (when enabled) as one vectorized block, its postings
        from one sort of its tokens.
        """
        started = time.perf_counter()
        with span("index.build", records=len(records)):
            block = [normalized_tokens(record, "index") for record in records]
            first = self._append(block)
        self._count_build(
            time.perf_counter() - started,
            "repro_index_build_seconds",
            "Latency of bulk index builds (insert_all).",
        )
        return list(range(first, first + len(block)))

    def _count_build(self, elapsed: float, metric: str, help_text: str) -> None:
        self.stats.index_build_seconds += elapsed
        self.stats.num_records = len(self)
        registry = active_metrics()
        if registry is not None:
            registry.histogram(metric, help_text).observe(elapsed)

    def _append(self, block: List[Record]) -> int:
        """Append normalized records to the store and the candidate structure.

        Returns the first new id.  Tokens the hashers cannot take are
        refused and the sketches derived before the first write, so a bad
        record leaves the index untouched.
        """
        first = len(self)
        if not block:
            return first
        values, offsets = pack_tokens(block)
        sketches = None
        if self.use_sketches:
            # The signature kernel refuses a token it cannot hash, naming its record.
            sketches = self._sketch_rows(values, offsets)
        elif self.candidates != "exact":
            check_hash_keys(values, offsets)
        store = self._store
        measure_sizes = None
        if store.measure_sizes is not None:
            measure_sizes = [self.measure.record_size(tokens) for tokens in block]
        start = int(store.token_offsets[-1])
        store.append(values, offsets, sketches, measure_sizes)
        # The store holds the tokens now: free the packed copy before the
        # postings sort allocates, so a bulk build's peak holds one copy.
        del values, offsets
        if self._postings is not None:
            self._postings.extend(first, store.token_values[start:], store.sizes[first:])
        else:
            for offset, tokens in enumerate(block):
                self._structure.insert(first + offset, tokens)
        return first

    def check_hash_keys(self, records: Sequence[Record], noun: str) -> None:
        """Refuse normalized records holding a token this index cannot hash.

        Every mode but exact without sketches hashes 32-bit keys (see
        :func:`repro.hashing.minhash.check_hash_keys`); the error names the
        offender as ``{noun} {position in records}``.
        """
        if self.candidates == "exact" and not self.use_sketches:
            return
        check_hash_keys(*pack_tokens(records), noun)

    def _sketch_rows(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Sketch words of CSR-packed normalized records, with ``build_sketches``' hashers and packing."""
        assert self._minhasher is not None and self._sketch_hashers is not None
        coordinates, multipliers = self._sketch_hashers
        signatures = self._minhasher.signature_matrix(values, offsets)
        return pack_sketch_rows(signatures, coordinates, multipliers, self._store.num_sketch_words)

    # ------------------------------------------------------------------ queries
    def query(self, record: Sequence[int], exclude: Optional[int] = None) -> List[Match]:
        """Indexed records with ``score(query, record) ≥ threshold``.

        Returns ``(record_id, similarity)`` pairs sorted by decreasing
        similarity (ties by id).  ``exclude`` omits one id — used when the
        query record is itself a member of the index.
        """
        return self.query_batch([record], exclude_ids=None if exclude is None else [exclude])[0]

    def query_topk(
        self,
        record: Sequence[int],
        k: int,
        floor: Optional[float] = None,
        exclude: Optional[int] = None,
    ) -> List[Match]:
        """The ``k`` most similar indexed records above the index threshold.

        Exactly the first ``k`` entries of :meth:`query` (which sorts by
        decreasing similarity, ties by id), optionally cut at a per-query
        similarity ``floor`` — a tightening of the index threshold, never a
        relaxation.  ``k`` must be a positive integer.
        """
        return topk_from_matches(self.query(record, exclude=exclude), k, floor)

    def query_batch(
        self,
        records: Sequence[Sequence[int]],
        exclude_ids: Optional[Sequence[Optional[int]]] = None,
    ) -> List[List[Match]]:
        """Point-lookup many queries; returns one match list per query, in input order.

        Queries run serially, :data:`QUERY_CHUNK_SIZE` at a time: with the
        sketch filter on, each chunk's sketches are derived as one
        vectorized block.  ``exclude_ids`` optionally gives one index id per
        query to omit from its result (e.g. the query's own id when querying
        the index with its own members).
        """
        if exclude_ids is not None and len(exclude_ids) != len(records):
            raise ValueError("exclude_ids must have one entry per query record")
        started = time.perf_counter()
        results: List[List[Match]] = []
        with span("index.query_batch", queries=len(records)):
            # Every query is checked before any is answered: one bad record
            # fails the call, never half of it.
            normalized = [normalized_tokens(record, "query with") for record in records]
            self.check_hash_keys(normalized, "query")
            for start in range(0, len(normalized), QUERY_CHUNK_SIZE):
                chunk = normalized[start : start + QUERY_CHUNK_SIZE]
                sketches = None
                if self.use_sketches:
                    # Filter-stage time: the sketches exist only to feed the filter.
                    began = time.perf_counter()
                    sketches = self._sketch_rows(*pack_tokens(chunk))
                    self.stats.filter_seconds += time.perf_counter() - began
                for offset, tokens in enumerate(chunk):
                    results.append(
                        self._query_one(
                            tokens,
                            None if exclude_ids is None else exclude_ids[start + offset],
                            None if sketches is None else sketches[offset],
                        )
                    )
        registry = active_metrics()
        if registry is not None:
            registry.counter(
                "repro_index_queries_total", "Point lookups served by the index."
            ).inc(len(records))
            registry.histogram(
                "repro_index_query_batch_seconds", "Latency of whole query_batch calls."
            ).observe(time.perf_counter() - started)
        return results

    def self_join_pairs(self) -> Set[Pair]:
        """All similar pairs among the indexed records, via point lookups.

        Equivalent to a batch self-join of the indexed collection: in
        ``"exact"`` mode the returned pairs equal
        ``similarity_join(records, threshold, algorithm="allpairs")`` exactly.
        """
        records = self._store.record_tuples()
        pairs: Set[Pair] = set()
        for query_id, found in enumerate(self.query_batch(records, range(len(records)))):
            for record_id, _ in found:
                pairs.add(canonical_pair(query_id, record_id))
        return pairs

    # ------------------------------------------------------------------ query pipeline
    def _query_one(
        self, tokens: Record, exclude: Optional[int], query_words: Optional[np.ndarray]
    ) -> List[Match]:
        """One normalized query: candidates → filter → overlaps → accept."""
        stats = self.stats
        store = self._store
        stats.extra["queries"] = stats.extra.get("queries", 0.0) + 1.0

        started = time.perf_counter()
        candidate_ids, overlaps = self._candidates(tokens)
        if exclude is not None and candidate_ids.size:
            keep = candidate_ids != exclude
            candidate_ids = candidate_ids[keep]
            if overlaps is not None:
                overlaps = overlaps[keep]
        stats.candidate_seconds += time.perf_counter() - started
        stats.pre_candidates += int(candidate_ids.size)
        if candidate_ids.size == 0:
            return []

        # The filter: the measure's size probe (the join's probe), then the
        # sketch cut-off through the sketch_estimates kernel.
        started = time.perf_counter()
        if store.measure_sizes is None:
            query_size, sizes = len(tokens), store.sizes
        else:
            query_size, sizes = self.measure.record_size(tokens), store.measure_sizes
        passing = self.measure.size_compatible(query_size, sizes[candidate_ids], self.threshold)
        if query_words is not None and passing.any():
            estimates = sketch_estimates(
                query_words,
                store.sketch_words[candidate_ids[passing]],
                store.num_sketch_words * _WORD_BITS,
            )
            passing[passing] = estimates >= self._sketch_cutoff
        candidate_ids = candidate_ids[passing]
        if overlaps is not None:
            overlaps = overlaps[passing]
        stats.filter_seconds += time.perf_counter() - started
        stats.candidates += int(candidate_ids.size)
        stats.verified += int(candidate_ids.size)
        if candidate_ids.size == 0:
            return []

        started = time.perf_counter()
        if overlaps is None:
            query_tokens = np.asarray(tokens, dtype=np.int64)
            if store.measure_sizes is not None:
                overlaps = csr_weighted_overlaps_one_to_many(
                    query_tokens,
                    self.measure.value_weights(query_tokens),
                    store.token_values,
                    store.token_offsets,
                    store.sizes,
                    candidate_ids,
                )
            else:
                overlaps = csr_overlaps_one_to_many(
                    query_tokens, store.token_values, store.token_offsets, store.sizes, candidate_ids
                )
        candidate_sizes = sizes[candidate_ids]
        accepted = overlaps >= self.measure.required_overlaps(
            query_size, candidate_sizes, self.threshold
        )
        similarities = self.measure.similarities_from_overlaps(
            query_size, candidate_sizes[accepted], overlaps[accepted]
        )
        matches = [
            (int(record_id), float(similarity))
            for record_id, similarity in zip(candidate_ids[accepted], similarities)
        ]
        stats.verify_seconds += time.perf_counter() - started
        return sorted(matches, key=lambda item: (-item[1], item[0]))

    def _candidates(self, tokens: Record) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Sorted candidate ids; in exact mode with their exact overlaps (else None).

        Exact mode is ScanCount: one pass over the query tokens' postings
        counts the intersection of the query with every record sharing a
        token, so no candidate needs a token merge later.
        """
        if self._postings is None:
            return np.array(sorted(self._structure.candidates(tokens)), dtype=np.intp), None
        hits = [(token, self._postings.get(token)) for token in tokens]
        hits = [(token, bucket) for token, bucket in hits if bucket is not None]
        if not hits:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        num_records = len(self)
        merged = np.concatenate([bucket for _, bucket in hits])
        if self._store.measure_sizes is not None:
            # Weighted ScanCount: every posting contributes its token's
            # weight instead of 1.  Candidates stay "records sharing at
            # least one token" (presence counts), even for zero-weight
            # tokens.
            token_weight = self.measure.token_weight
            hit_weights = np.concatenate(
                [np.full(bucket.shape[0], token_weight(token), dtype=np.float64) for token, bucket in hits]
            )
            if merged.size >= num_records:
                candidate_ids = np.flatnonzero(np.bincount(merged, minlength=num_records))
                weighted_counts = np.bincount(merged, weights=hit_weights, minlength=num_records)
                return candidate_ids, weighted_counts[candidate_ids]
            candidate_ids, inverse = np.unique(merged, return_inverse=True)
            overlaps = np.zeros(candidate_ids.shape[0], dtype=np.float64)
            np.add.at(overlaps, inverse, hit_weights)
            return candidate_ids, overlaps
        if merged.size >= num_records:
            # Dense query (postings dominate the index size): an O(L + n)
            # bincount beats sorting the merge.
            counts = np.bincount(merged, minlength=num_records)
            candidate_ids = np.flatnonzero(counts)
            return candidate_ids, counts[candidate_ids]
        # Selective query: stay O(L log L) with no index-sized temporary.
        return np.unique(merged, return_counts=True)

    # ------------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Write the index to ``path`` in the versioned on-disk format.

        The file starts with a magic header plus a format version, so
        :meth:`load` can tell a saved index from an arbitrary pickle before
        unpickling anything, and refuses files written at another format
        version with a clear error instead of failing somewhere inside
        pickle.

        The write is atomic (staging file + rename, flushed to stable
        storage first): a crash mid-save can never destroy an existing file
        at ``path`` — which is exactly the situation of ``index query
        --insert`` rewriting the only copy, and of the server's snapshots.
        """
        import os

        path = Path(path)
        staging = path.with_name(path.name + ".tmp")
        with open(staging, "wb") as handle:
            handle.write(_SAVE_MAGIC)
            handle.write(struct.pack(">I", SAVE_FORMAT_VERSION))
            pickle.dump(self, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SimilarityIndex":
        """Load an index written by :meth:`save` at the current format version.

        Anything else — a file without the magic header, a truncated header,
        a format version other than :data:`SAVE_FORMAT_VERSION`, a pickle of
        some other object — raises :class:`IndexPersistenceError` naming the
        problem.  Files of an older version name the rebuild command.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            if handle.read(len(_SAVE_MAGIC)) != _SAVE_MAGIC:
                raise IndexPersistenceError(
                    f"{path}: not a saved SimilarityIndex (missing file header; "
                    "files written before the versioned format must be rebuilt "
                    "with `repro-join index build`)"
                )
            version_bytes = handle.read(4)
            if len(version_bytes) != 4:
                raise IndexPersistenceError(
                    f"{path}: truncated index header (missing format version)"
                )
            version = struct.unpack(">I", version_bytes)[0]
            if version > SAVE_FORMAT_VERSION:
                raise IndexPersistenceError(
                    f"{path}: index format version {version} is newer than the "
                    f"supported version {SAVE_FORMAT_VERSION}; "
                    "load it with a matching release of this library"
                )
            if version < SAVE_FORMAT_VERSION:
                raise IndexPersistenceError(
                    f"{path}: index format version {version} is no longer supported "
                    f"(current version {SAVE_FORMAT_VERSION}); rebuild the index from "
                    "its dataset with `repro-join index build`"
                )
            try:
                index = pickle.load(handle)
            except Exception as error:
                raise IndexPersistenceError(
                    f"{path}: corrupt index payload ({error})"
                ) from error
        if not isinstance(index, cls):
            raise IndexPersistenceError(
                f"{path}: contains {type(index).__name__}, not a SimilarityIndex"
            )
        return index

    # ------------------------------------------------------------------ introspection
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimilarityIndex(threshold={self.threshold}, candidates={self.candidates!r}, "
            f"backend={self.backend!r}, records={len(self)})"
        )
