"""Flat, shareable storage of every preprocessing artefact.

The join engines never need the original Python record objects — every hot
kernel (size probe, sketch filter, exact verification, bucketing) reads flat
numpy arrays.  :class:`RecordStore` owns exactly those arrays:

* ``token_values`` / ``token_offsets`` — the CSR-packed sorted token sets
  (record ``i`` occupies ``token_values[token_offsets[i]:token_offsets[i+1]]``);
* ``signature_matrix`` — the ``(n, t)`` MinHash signatures of Section V-A.1;
* ``sketch_words`` — the packed ``(n, ℓ)`` 1-bit minwise sketches;
* ``sizes`` — per-record set sizes (redundant with the offsets, stored so
  filters never re-derive them);
* ``sides`` — optional R ⋈ S side labels;
* ``measure_sizes`` — optional per-record measure sizes of a weighted
  measure (only the index keeps them).

A store also grows: :meth:`RecordStore.append` adds records at the end with
amortized doubling behind the same array attributes, which always have
exactly one row per record.  This is how
:class:`repro.index.SimilarityIndex` keeps its one copy of every record; the
joins build their stores once and never grow them.

Because the store is nothing but contiguous buffers, it can be placed in a
:mod:`multiprocessing.shared_memory` segment and *attached* by worker
processes with zero copying and zero pickling of record objects:

    lease = store.to_shared()          # parent: one copy into the segment
    handle = lease.handle              # tiny picklable description
    ...
    worker_store = RecordStore.attach(handle)   # worker: zero-copy views

The parent keeps only the :class:`SharedStoreLease` (segment + handle, no
array views), so closing and unlinking the segment never has to fight
exported numpy buffers.  Workers call :meth:`RecordStore.close` when done;
all lifecycle methods are idempotent and double-close safe.

An attached store is read-only: its arrays view the shared buffer, and
:meth:`RecordStore.append` refuses it.

Segment cleanup is explicit: the lease unlinks the segment on ``close()``.
Attached stores deliberately *unregister* the segment from the
``resource_tracker`` (``track=False`` on Python ≥ 3.13), because the tracker
would otherwise unlink the parent's segment when the first worker exits and
warn about "leaked" shared memory it never owned.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Record
from repro.hashing.minhash import MinHasher, pack_tokens
from repro.hashing.sketch import build_sketches
from repro.result import Timer

__all__ = [
    "RecordStore",
    "SharedStoreLease",
    "StoreHandle",
    "grow",
    "normalize_records",
    "validate_sides",
]

_ALIGNMENT = 64
"""Byte alignment of each array inside a shared segment (cache-line sized)."""

_SHM_TRACK_KWARG = sys.version_info >= (3, 13)
"""Whether ``SharedMemory`` natively supports ``track=False`` (Python 3.13+)."""


def grow(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buffer``, or a copy of its first ``used`` rows with room for ``extra`` more.

    The one growth rule of the package's append-only arrays (store columns,
    index posting lists): a full buffer is replaced by one of at least
    double the capacity, so appending costs amortized O(1) per row.
    """
    needed = used + extra
    if needed <= buffer.shape[0]:
        return buffer
    grown = np.empty((max(2 * buffer.shape[0], needed),) + buffer.shape[1:], dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def normalize_records(records: Sequence[Sequence[int]]) -> List[Record]:
    """Normalize records to sorted distinct-token tuples, rejecting empty ones.

    The single normalization/validation rule for every preprocessing entry
    point (:meth:`RecordStore.build` and
    :func:`repro.core.preprocess.preprocess_collection` share it), so all
    joins raise the same error for the same bad input.
    """
    normalized: List[Record] = [
        tuple(sorted(set(int(token) for token in record))) for record in records
    ]
    for index, record in enumerate(normalized):
        if not record:
            raise ValueError(f"record {index} is empty; empty records cannot be joined")
    return normalized


def validate_sides(sides: Optional[Sequence[int]], num_records: int) -> Optional[np.ndarray]:
    """Validate optional R ⋈ S side labels into an ``int8`` array (or None)."""
    if sides is None:
        return None
    side_array = np.asarray(list(sides), dtype=np.int8)
    if side_array.ndim != 1 or side_array.shape[0] != num_records:
        raise ValueError(
            f"sides must have one entry per record: got {side_array.shape[0]} sides "
            f"for {num_records} records"
        )
    if side_array.size and not np.isin(side_array, (0, 1)).all():
        raise ValueError("sides entries must be 0 (record in R) or 1 (record in S)")
    return side_array


def _open_segment(name: str, create: bool = False, size: int = 0):
    """Open a shared-memory segment, keeping the resource tracker honest.

    Creating processes stay registered (the tracker is their crash net).
    Attachments must not add a tracker registration of their own: on
    spawn-only platforms each worker runs its *own* tracker, which would
    unlink the parent's segment when the worker exits and then warn about a
    leak it caused itself (bpo-38119).  Python 3.13+ solves this with
    ``track=False``; earlier versions get the explicit unregister — but only
    where fork is unavailable, because fork children share the parent's
    tracker and an unregister there would strip the parent's own
    registration (the duplicate register from an attach is harmless: the
    tracker keeps a set).
    """
    from multiprocessing import shared_memory

    if _SHM_TRACK_KWARG and not create:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    segment = shared_memory.SharedMemory(name=name, create=create, size=size)
    if not create and "fork" not in __import__("multiprocessing").get_all_start_methods():
        try:  # pragma: no cover - spawn-only platforms
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    return segment


@dataclass(frozen=True)
class StoreHandle:
    """Picklable description of a :class:`RecordStore` living in shared memory.

    Carries everything a worker needs to rebuild zero-copy array views: the
    segment name plus, per array, its dtype string, shape, and byte offset.
    A handle is a few hundred bytes regardless of collection size — it is the
    *only* thing shipped to worker processes.
    """

    segment_name: str
    fields: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    preprocessing_seconds: float = 0.0


@dataclass
class SharedStoreLease:
    """Parent-side ownership of a shared-memory copy of a store.

    Holds the segment and its :class:`StoreHandle` but *no* numpy views, so
    ``close()`` can always release and unlink the segment without tripping
    over exported buffers.  ``close()`` is idempotent; the lease is also a
    context manager.
    """

    handle: StoreHandle
    _segment: object = field(repr=False, default=None)

    @property
    def closed(self) -> bool:
        return self._segment is None

    def close(self) -> None:
        """Release the parent's mapping and unlink the segment (idempotent)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "SharedStoreLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class RecordStore:
    """Every preprocessing artefact of a collection as flat numpy arrays.

    Built once per dataset (:meth:`build`), attached zero-copy to a shared
    segment created by another process (:meth:`attach`), or grown record by
    record (:meth:`append`).  The join engines read the arrays directly;
    :class:`repro.core.preprocess.PreprocessedCollection` is a thin
    compatibility view over a store.
    """

    _ARRAY_FIELDS = (
        "token_values",
        "token_offsets",
        "signature_matrix",
        "sketch_words",
        "sizes",
        "sides",
        "measure_sizes",
    )

    def __init__(
        self,
        token_values: np.ndarray,
        token_offsets: np.ndarray,
        signature_matrix: np.ndarray,
        sketch_words: np.ndarray,
        sizes: Optional[np.ndarray] = None,
        sides: Optional[np.ndarray] = None,
        preprocessing_seconds: float = 0.0,
        measure_sizes: Optional[np.ndarray] = None,
        _segment: object = None,
    ) -> None:
        self.token_values = np.asarray(token_values, dtype=np.int64)
        self.token_offsets = np.asarray(token_offsets, dtype=np.int64)
        self.signature_matrix = np.asarray(signature_matrix, dtype=np.uint64)
        self.sketch_words = np.asarray(sketch_words, dtype=np.uint64)
        if sizes is None:
            sizes = np.diff(self.token_offsets)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.sides = None if sides is None else np.asarray(sides, dtype=np.int8)
        self.measure_sizes = None if measure_sizes is None else np.asarray(measure_sizes, dtype=np.float64)
        self.preprocessing_seconds = float(preprocessing_seconds)
        self._segment = _segment
        self._closed = False
        # Capacity buffers behind the grown columns (see append); never pickled.
        self._capacity: dict = {}

        n = self.num_records
        if self.token_offsets.shape != (n + 1,):
            raise ValueError("token_offsets must have num_records + 1 entries")
        if self.sketch_words.shape[0] != n or self.sizes.shape[0] != n:
            raise ValueError("all per-record arrays must have one row per record")
        if self.sides is not None and self.sides.shape != (n,):
            raise ValueError("sides must have one entry per record")
        if self.measure_sizes is not None and self.measure_sizes.shape != (n,):
            raise ValueError("measure_sizes must have one entry per record")

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        records: Sequence[Sequence[int]],
        embedding_size: int = 128,
        sketch_words: int = 8,
        seed: Optional[int] = None,
        sides: Optional[Sequence[int]] = None,
    ) -> "RecordStore":
        """Preprocess a collection into a store (normalize, hash, sketch, pack).

        Equivalent to the historical ``preprocess_collection`` but producing
        flat arrays only; the hashing wall-clock lands in
        :attr:`preprocessing_seconds` exactly as before.
        """
        normalized = normalize_records(records)
        side_array = validate_sides(sides, len(normalized))
        return cls.from_records(
            normalized,
            embedding_size=embedding_size,
            sketch_words=sketch_words,
            seed=seed,
            sides=side_array,
        )

    @classmethod
    def from_records(
        cls,
        normalized: Sequence[Record],
        embedding_size: int = 128,
        sketch_words: int = 8,
        seed: Optional[int] = None,
        sides: Optional[np.ndarray] = None,
    ) -> "RecordStore":
        """Build a store from already normalized (sorted, distinct) records.

        The signatures are hashed from the store's own CSR arrays; a token
        outside ``[0, 2**32)`` is refused first, naming its record
        (:func:`repro.hashing.minhash.check_hash_keys`).
        """
        values, offsets = pack_tokens(normalized)
        with Timer() as timer:
            minhasher = MinHasher(num_functions=embedding_size, seed=seed)
            signature_matrix = minhasher.signature_matrix(values, offsets)
            sketch_seed = None if seed is None else seed + 0x5EED
            sketches = build_sketches(signature_matrix, num_words=sketch_words, seed=sketch_seed)
        return cls(
            token_values=values,
            token_offsets=offsets,
            signature_matrix=signature_matrix,
            sketch_words=sketches.words,
            sides=sides,
            preprocessing_seconds=timer.elapsed,
        )

    # ------------------------------------------------------------------ basic accessors
    @property
    def num_records(self) -> int:
        return int(self.token_offsets.shape[0] - 1)

    @property
    def embedding_size(self) -> int:
        return int(self.signature_matrix.shape[1])

    @property
    def num_sketch_words(self) -> int:
        return int(self.sketch_words.shape[1])

    @property
    def is_shared(self) -> bool:
        """Whether this store's arrays view a shared-memory segment."""
        return self._segment is not None

    def record_tokens(self, record_id: int) -> np.ndarray:
        """Zero-copy view of one record's sorted tokens."""
        start = self.token_offsets[record_id]
        return self.token_values[start : self.token_offsets[record_id + 1]]

    def record_tuples(self) -> List[Record]:
        """Materialize the records as Python tuples (compatibility path only).

        The engines never call this; it exists for the scalar reference
        backend and for callers that want the original record objects back.
        """
        values = self.token_values.tolist()
        offsets = self.token_offsets.tolist()
        return [
            tuple(values[offsets[index] : offsets[index + 1]])
            for index in range(self.num_records)
        ]

    # ------------------------------------------------------------------ growth
    def append(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        sketch_words: Optional[np.ndarray] = None,
        measure_sizes: Optional[Sequence[float]] = None,
    ) -> None:
        """Append CSR-packed normalized records; they get ids ``num_records`` onward.

        ``values`` / ``offsets`` are the block as
        :func:`repro.hashing.minhash.pack_tokens` packs it (its record ``i``
        is ``values[offsets[i] : offsets[i + 1]]``).  Every column grows by
        amortized doubling behind its attribute, which stays an exact-length
        array: views taken before the append keep their contents.  The
        caller supplies the rows of the derived columns the store keeps
        (sketch words when it has any, measure sizes when present); the
        signature column must be empty, as in every store that grows.
        Attached shared-memory stores and R ⋈ S stores are read-only.
        """
        if self._segment is not None or self.sides is not None:
            raise ValueError("shared-memory and R ⋈ S stores are read-only")
        if self.embedding_size:
            raise ValueError("a store with MinHash signatures cannot grow")
        kept = (self.sketch_words.shape[1] > 0, self.measure_sizes is not None)
        if kept != (sketch_words is not None, measure_sizes is not None):
            raise ValueError("append needs rows for exactly the derived columns this store keeps")
        grown = [
            ("token_values", values),
            ("token_offsets", offsets[1:] + self.token_offsets[-1]),
            ("sizes", offsets[1:] - offsets[:-1]),
            ("sketch_words", sketch_words),
            ("measure_sizes", measure_sizes),
        ]
        for name, rows in grown:
            if rows is None:
                continue
            current = getattr(self, name)
            used = current.shape[0]
            buffer = grow(self._capacity.get(name, current), used, len(rows))
            buffer[used : used + len(rows)] = rows
            self._capacity[name] = buffer
            setattr(self, name, buffer[: used + len(rows)])
        # Zero-width columns (signatures always, sketches when off) hold no data to grow.
        empty = np.empty((self.num_records, 0), dtype=np.uint64)
        self.signature_matrix = empty
        if sketch_words is None:
            self.sketch_words = empty

    def __getstate__(self) -> dict:
        # Pickles carry the exact-length columns only, never the capacity slack.
        state = dict(self.__dict__)
        state["_capacity"] = {}
        return state

    # ------------------------------------------------------------------ shared memory
    def _layout(self) -> Tuple[Tuple[Tuple[str, str, Tuple[int, ...], int], ...], int]:
        """Aligned (field, dtype, shape, byte offset) layout plus total size."""
        fields: List[Tuple[str, str, Tuple[int, ...], int]] = []
        cursor = 0
        for name in self._ARRAY_FIELDS:
            array = getattr(self, name)
            if array is None:
                continue
            cursor = (cursor + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
            fields.append((name, array.dtype.str, tuple(array.shape), cursor))
            cursor += array.nbytes
        return tuple(fields), max(cursor, 1)

    def to_shared(self) -> SharedStoreLease:
        """Copy every array into one shared-memory segment.

        Returns a :class:`SharedStoreLease`; ship ``lease.handle`` to worker
        processes and have them call :meth:`attach`.  The lease owns the
        segment: its ``close()`` unlinks it for good.
        """
        fields, total = self._layout()
        segment = _open_segment(self._unique_name(), create=True, size=total)
        try:
            for name, dtype, shape, offset in fields:
                source = np.ascontiguousarray(getattr(self, name))
                view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
                view[...] = source
                del view
            handle = StoreHandle(
                segment_name=segment.name,
                fields=fields,
                preprocessing_seconds=self.preprocessing_seconds,
            )
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        return SharedStoreLease(handle=handle, _segment=segment)

    @staticmethod
    def _unique_name() -> str:
        """A segment name unique across processes and calls."""
        import os
        import secrets

        return f"repro_store_{os.getpid():x}_{secrets.token_hex(4)}"

    @classmethod
    def attach(cls, handle: StoreHandle) -> "RecordStore":
        """Attach zero-copy to a segment created by :meth:`to_shared`.

        The returned store's arrays are read-only views of the shared buffer;
        call :meth:`close` (idempotent) when the worker is done with them.
        """
        segment = _open_segment(handle.segment_name, create=False)
        arrays = {}
        for name, dtype, shape, offset in handle.fields:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
            view.setflags(write=False)
            arrays[name] = view
        store = cls(
            token_values=arrays["token_values"],
            token_offsets=arrays["token_offsets"],
            signature_matrix=arrays["signature_matrix"],
            sketch_words=arrays["sketch_words"],
            sizes=arrays.get("sizes"),
            sides=arrays.get("sides"),
            preprocessing_seconds=handle.preprocessing_seconds,
            measure_sizes=arrays.get("measure_sizes"),
            _segment=segment,
        )
        return store

    def close(self) -> None:
        """Release an attached segment mapping (idempotent, double-close safe).

        Drops this store's array views first so the mapping can actually be
        released; a no-op for in-process (non-shared) stores.
        """
        if self._closed:
            return
        self._closed = True
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        for name in self._ARRAY_FIELDS:
            setattr(self, name, None)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
