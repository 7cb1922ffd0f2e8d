"""Preprocessing shared by CPSJOIN and the MinHash LSH baseline.

Section V-A.1 of the paper: before running the join, every record is mapped
to a length-``t`` MinHash signature (the embedding of Section II-A) and to a
1-bit minwise sketch of ``64 · ℓ`` bits.  The paper notes that this
preprocessing is reusable across joins with different thresholds and
therefore not counted in the reported join times; we follow the same
convention — the artefacts are built once per dataset and passed to the join
engines, with construction time reported separately in
:class:`repro.result.JoinStats.preprocessing_seconds`.

Since the shared-memory refactor, the artefacts themselves live in a
:class:`repro.store.RecordStore` — flat numpy arrays (CSR token values and
offsets, the signature matrix, packed sketches, record sizes, optional
R ⋈ S side labels) that can be placed in a shared-memory segment and
attached zero-copy by worker processes.  :class:`PreprocessedCollection` is
a thin view over a store: it adds the lazily cached conveniences the scalar
code paths want (record tuples, big-integer sketches) but owns no data of
its own, so handing a collection to the process executor ships only the
store's tiny :class:`repro.store.StoreHandle` — never pickled record
objects.

Every kernel of the preprocessing works in blocks whose temporaries do not
grow with the collection: signatures are tabulated
:data:`~repro.hashing.minhash.SIGNATURE_BLOCK_TOKENS` tokens at a time,
sketches packed :data:`~repro.hashing.sketch.SKETCH_BLOCK_ROWS` rows at a
time and the rank matrix built :data:`RANK_BLOCK_COLUMNS` columns at a time.
Peak memory is therefore the kept arrays plus a few MiB of block
temporaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Record
from repro.hashing.minhash import MinHashSignatures
from repro.hashing.sketch import OneBitMinHashSketches
from repro.store import RecordStore, SharedStoreLease
from repro.store.record_store import normalize_records, validate_sides

__all__ = ["PreprocessedCollection", "RANK_BLOCK_COLUMNS", "preprocess_collection"]

RANK_BLOCK_COLUMNS = 8
"""Signature columns ranked per pass of :meth:`PreprocessedCollection.signature_rank_matrix`."""


class PreprocessedCollection:
    """A collection of records plus the hashing artefacts the joins need.

    A thin view over a :class:`repro.store.RecordStore`: ``signatures``,
    ``sketches``, ``sides`` and the CSR token arrays are zero-copy views of
    the store's flat arrays, while ``records`` (Python tuples, used by the
    scalar reference backend and exact verification) and the other derived
    artefacts below are materialized lazily and cached — at most once per
    process, never per repetition.

    Attributes
    ----------
    store:
        The backing :class:`repro.store.RecordStore` (possibly attached to a
        shared-memory segment inside a worker process).
    """

    def __init__(self, store: RecordStore, records: Optional[List[Record]] = None) -> None:
        self.store = store
        self._records = records
        self._signatures: Optional[MinHashSignatures] = None
        self._sketches: Optional[OneBitMinHashSketches] = None
        self._sketch_bigints: Optional[List[int]] = None
        self._sketch_bits: Optional[np.ndarray] = None
        self._sketch_bits_built = False
        self._signature_ranks: Optional[np.ndarray] = None

    @classmethod
    def from_store(cls, store: RecordStore) -> "PreprocessedCollection":
        """Wrap a store (typically one attached inside a worker process)."""
        return cls(store)

    # ------------------------------------------------------------------ store views
    @property
    def records(self) -> List[Record]:
        """The records as sorted token tuples (lazy view for the scalar paths).

        The vectorized backend never touches this — it reads the CSR arrays
        through :meth:`packed_tokens`.  The scalar reference backend (and the
        exact algorithms) get the tuples materialized from the CSR arrays on
        first access, cached for the life of the process.
        """
        if self._records is None:
            self._records = self.store.record_tuples()
        return self._records

    @property
    def signatures(self) -> MinHashSignatures:
        """MinHash signatures of shape ``(n, t)`` (view of the store matrix)."""
        if self._signatures is None:
            self._signatures = MinHashSignatures(matrix=self.store.signature_matrix)
        return self._signatures

    @property
    def sketches(self) -> OneBitMinHashSketches:
        """Packed 1-bit minwise sketches of shape ``(n, ℓ)`` (store view)."""
        if self._sketches is None:
            self._sketches = OneBitMinHashSketches(words=self.store.sketch_words)
        return self._sketches

    @property
    def sides(self) -> Optional[np.ndarray]:
        """Optional per-record R ⋈ S side labels (0 = R, 1 = S); None = self-join."""
        return self.store.sides

    @property
    def preprocessing_seconds(self) -> float:
        """Wall-clock time spent building the signatures and sketches."""
        return self.store.preprocessing_seconds

    @property
    def num_records(self) -> int:
        return self.store.num_records

    @property
    def embedding_size(self) -> int:
        return self.store.embedding_size

    def record_sizes(self) -> np.ndarray:
        """Sizes of all records as an int array (used by size filters)."""
        return self.store.sizes

    def packed_tokens(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style packed token arrays ``(values, offsets)``.

        ``values`` concatenates every record's sorted tokens as ``int64``;
        record ``i`` occupies ``values[offsets[i]:offsets[i + 1]]``.  These
        are the store's own arrays — no packing happens here anymore, so the
        call is free in every process, including shared-memory workers.
        """
        return self.store.token_values, self.store.token_offsets

    def sketch_bigints(self) -> List[int]:
        """Each record's 1-bit sketch as one Python integer, built lazily.

        No join reads it: the test suite's scalar oracles compare sketches
        with ``int.bit_count()`` on these integers, and the benchmark
        (``perfbench``) builds them during its set-up.  Cached per process.
        Concurrent first calls from several threads are a benign race: both
        compute the same list and the last assignment wins.
        """
        if self._sketch_bigints is None:
            words = np.ascontiguousarray(self.store.sketch_words)
            row_bytes = words.shape[1] * words.dtype.itemsize
            raw = words.tobytes()
            self._sketch_bigints = [
                int.from_bytes(raw[index * row_bytes : (index + 1) * row_bytes], "little")
                for index in range(words.shape[0])
            ]
        return self._sketch_bigints

    def signature_rank_matrix(self) -> np.ndarray:
        """Per-column dense ranks of the MinHash signature matrix, cached.

        ``ranks[x, i]`` is the rank of record ``x``'s MinHash value among the
        distinct values of coordinate ``i`` — equal ranks within a column iff
        equal MinHash values, so grouping by rank partitions a subproblem
        exactly like grouping by value.  The frontier candidate walk packs
        ``(node-slot, rank)`` into one small integer sort key per row, which
        is cheaper than lexsorting the raw 64-bit values.  Ranked
        :data:`RANK_BLOCK_COLUMNS` columns at a time, each block copied to
        contiguous rows first, with int32 group counters, so the
        temporaries stay a small fraction of the result.  Built once per
        collection (same benign first-call race as :meth:`sketch_bigints`).
        """
        if self._signature_ranks is None:
            matrix = self.signatures.matrix
            ranks = np.empty(matrix.shape, dtype=np.int32)
            for start in range(0, matrix.shape[1], RANK_BLOCK_COLUMNS):
                columns = slice(start, start + RANK_BLOCK_COLUMNS)
                block = np.ascontiguousarray(matrix[:, columns].T)
                # Equal values share a rank whatever their order: no stable sort needed.
                order = np.argsort(block, axis=1)
                sorted_values = np.take_along_axis(block, order, axis=1)
                dense = np.zeros(sorted_values.shape, dtype=np.int32)
                np.not_equal(sorted_values[:, 1:], sorted_values[:, :-1], out=dense[:, 1:])
                np.cumsum(dense, axis=1, out=dense)
                block_ranks = np.empty_like(dense)
                np.put_along_axis(block_ranks, order, dense, axis=1)
                ranks[:, columns] = block_ranks.T
            self._signature_ranks = ranks
        return self._signature_ranks

    _SKETCH_BITS_BUDGET_BYTES = 1 << 27
    """Memory budget for the unpacked sketch-bit matrix (128 MB)."""

    def sketch_bit_matrix(self) -> Optional[np.ndarray]:
        """Sketch bits unpacked to a float32 ``(n, num_bits)`` matrix, cached.

        No join reads it: the sampled average-similarity estimator works on
        the packed sketch bytes with integer tables (see
        :meth:`repro.backend.ExecutionBackend.average_similarity_sampled`).
        It is kept for the benchmark's set-up, which still builds it.
        Returns ``None`` for collections whose matrix would exceed the
        budget; the benign concurrent-first-call race matches
        :meth:`sketch_bigints`.
        """
        if not self._sketch_bits_built:
            words = self.store.sketch_words
            num_bits = words.shape[1] * words.dtype.itemsize * 8
            if words.size and words.shape[0] * num_bits * 4 <= self._SKETCH_BITS_BUDGET_BYTES:
                self._sketch_bits = np.unpackbits(
                    np.ascontiguousarray(words).view(np.uint8), axis=1
                ).astype(np.float32)
            self._sketch_bits_built = True
        return self._sketch_bits

    # ------------------------------------------------------------------ shared memory
    def to_shared(self) -> SharedStoreLease:
        """Place the backing store in shared memory (see :meth:`RecordStore.to_shared`)."""
        return self.store.to_shared()


def preprocess_collection(
    records: Sequence[Sequence[int]],
    embedding_size: int = 128,
    sketch_words: int = 8,
    seed: Optional[int] = None,
    sides: Optional[Sequence[int]] = None,
) -> PreprocessedCollection:
    """Build MinHash signatures and 1-bit minwise sketches for a collection.

    Parameters
    ----------
    records:
        The collection; every record must be non-empty.
    embedding_size:
        Number of MinHash functions ``t``.
    sketch_words:
        Sketch length ``ℓ`` in 64-bit words.
    seed:
        Seed for all hash functions (signatures and sketches derive
        independent streams from it).
    sides:
        Optional per-record side labels (0 = R, 1 = S) for R ⋈ S joins; must
        have one entry per record.  ``None`` means a plain self-join.
    """
    normalized = normalize_records(records)
    side_array = validate_sides(sides, len(normalized))
    store = RecordStore.from_records(
        normalized,
        embedding_size=embedding_size,
        sketch_words=sketch_words,
        seed=seed,
        sides=side_array,
    )
    return PreprocessedCollection(store, records=normalized)
