"""Tests for the flat RecordStore and its shared-memory lifecycle."""

from __future__ import annotations

import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.preprocess import preprocess_collection
from repro.hashing.minhash import pack_tokens
from repro.store import RecordStore, StoreHandle


@pytest.fixture
def store() -> RecordStore:
    return RecordStore.build(
        [[3, 1, 2], [4, 5], [1, 2, 3, 9]], embedding_size=16, sketch_words=2, seed=7
    )


class TestBuild:
    def test_csr_layout(self, store: RecordStore) -> None:
        assert store.num_records == 3
        assert store.token_offsets.tolist() == [0, 3, 5, 9]
        assert store.token_values[:3].tolist() == [1, 2, 3]
        assert store.record_tokens(1).tolist() == [4, 5]
        assert store.sizes.tolist() == [3, 2, 4]

    def test_artifact_shapes(self, store: RecordStore) -> None:
        assert store.signature_matrix.shape == (3, 16)
        assert store.sketch_words.shape == (3, 2)
        assert store.embedding_size == 16
        assert store.num_sketch_words == 2

    def test_matches_preprocess_collection(self) -> None:
        records = [[5, 1, 1, 3], [2, 8], [9, 9, 9]]
        store = RecordStore.build(records, embedding_size=32, sketch_words=2, seed=11)
        collection = preprocess_collection(records, embedding_size=32, sketch_words=2, seed=11)
        assert np.array_equal(store.signature_matrix, collection.signatures.matrix)
        assert np.array_equal(store.sketch_words, collection.sketches.words)
        values, offsets = collection.packed_tokens()
        assert np.array_equal(store.token_values, values)
        assert np.array_equal(store.token_offsets, offsets)

    def test_record_tuples_roundtrip(self, store: RecordStore) -> None:
        assert store.record_tuples() == [(1, 2, 3), (4, 5), (1, 2, 3, 9)]

    def test_empty_record_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            RecordStore.build([[1], []])

    def test_sides_validation(self) -> None:
        with pytest.raises(ValueError, match="one entry per record"):
            RecordStore.build([[1], [2]], sides=[0])
        with pytest.raises(ValueError, match="0 .*or 1"):
            RecordStore.build([[1], [2]], sides=[0, 7])
        store = RecordStore.build([[1], [2]], sides=[0, 1])
        assert store.sides.dtype == np.int8


class TestSharedMemory:
    def test_roundtrip_equality(self, store: RecordStore) -> None:
        lease = store.to_shared()
        try:
            attached = RecordStore.attach(lease.handle)
            try:
                assert np.array_equal(attached.token_values, store.token_values)
                assert np.array_equal(attached.token_offsets, store.token_offsets)
                assert np.array_equal(attached.signature_matrix, store.signature_matrix)
                assert np.array_equal(attached.sketch_words, store.sketch_words)
                assert np.array_equal(attached.sizes, store.sizes)
                assert attached.sides is None
                assert attached.preprocessing_seconds == store.preprocessing_seconds
            finally:
                attached.close()
        finally:
            lease.close()

    def test_attached_views_are_zero_copy_and_read_only(self, store: RecordStore) -> None:
        with store.to_shared() as lease:
            attached = RecordStore.attach(lease.handle)
            try:
                assert attached.is_shared
                assert not attached.token_values.flags.owndata
                assert not attached.token_values.flags.writeable
            finally:
                attached.close()

    def test_sides_travel_through_shared_memory(self) -> None:
        store = RecordStore.build([[1, 2], [2, 3], [4]], seed=1, sides=[0, 1, 1])
        with store.to_shared() as lease:
            attached = RecordStore.attach(lease.handle)
            try:
                assert attached.sides.tolist() == [0, 1, 1]
            finally:
                attached.close()

    def test_handle_is_small_and_picklable(self, store: RecordStore) -> None:
        with store.to_shared() as lease:
            blob = pickle.dumps(lease.handle)
            assert len(blob) < 2048
            handle = pickle.loads(blob)
            assert isinstance(handle, StoreHandle)
            attached = RecordStore.attach(handle)
            try:
                assert attached.num_records == store.num_records
            finally:
                attached.close()

    def test_segment_unlinked_on_lease_close(self, store: RecordStore) -> None:
        lease = store.to_shared()
        handle = lease.handle
        lease.close()
        assert lease.closed
        with pytest.raises(FileNotFoundError):
            RecordStore.attach(handle)

    def test_lease_double_close_safe(self, store: RecordStore) -> None:
        lease = store.to_shared()
        lease.close()
        lease.close()  # must not raise

    def test_attached_store_double_close_safe(self, store: RecordStore) -> None:
        with store.to_shared() as lease:
            attached = RecordStore.attach(lease.handle)
            attached.close()
            attached.close()  # must not raise

    def test_close_is_noop_for_in_process_store(self, store: RecordStore) -> None:
        store.close()
        store.close()
        # the in-process arrays stay usable after close()
        assert store.record_tokens(0).tolist() == [1, 2, 3]

    def test_no_resource_tracker_warnings(self) -> None:
        """A full shared-store + process-executor run leaves no tracker noise.

        The resource tracker prints its complaints (leaked segments,
        double-unregister KeyErrors) to stderr at interpreter shutdown, so a
        subprocess run with clean stderr is the real assertion.
        """
        script = textwrap.dedent(
            """
            from repro.core.config import CPSJoinConfig
            from repro.core.cpsjoin import cpsjoin
            from repro.store import RecordStore

            records = [[i, i + 1, i + 2] for i in range(0, 120, 2)]
            store = RecordStore.build(records, seed=3)
            lease = store.to_shared()
            attached = RecordStore.attach(lease.handle)
            attached.close()
            lease.close()
            result = cpsjoin(
                records, 0.5,
                CPSJoinConfig(seed=3, repetitions=4, workers=2, executor="processes"),
            )
            print(len(result.pairs))
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr, completed.stderr
        assert "leaked" not in completed.stderr, completed.stderr
        assert completed.stdout.strip().isdigit()


def empty_store(sketch_words: int = 0, weighted: bool = False) -> RecordStore:
    return RecordStore(
        token_values=np.zeros(0, dtype=np.int64),
        token_offsets=np.zeros(1, dtype=np.int64),
        signature_matrix=np.zeros((0, 0), dtype=np.uint64),
        sketch_words=np.zeros((0, sketch_words), dtype=np.uint64),
        measure_sizes=np.zeros(0) if weighted else None,
    )


class TestGrowth:
    RECORDS = [(1, 2, 3), (4, 5), (1, 2, 3, 9), (7,), (2, 8, 11, 12, 13)]

    def test_block_and_single_appends_equal_a_build(self) -> None:
        store = empty_store()
        store.append(*pack_tokens(self.RECORDS[:2]))
        for record in self.RECORDS[2:]:
            store.append(*pack_tokens([record]))
        built = RecordStore.build(self.RECORDS, seed=1)
        assert store.num_records == len(self.RECORDS)
        assert np.array_equal(store.token_values, built.token_values)
        assert np.array_equal(store.token_offsets, built.token_offsets)
        assert np.array_equal(store.sizes, built.sizes)
        assert store.record_tuples() == built.record_tuples()
        assert store.signature_matrix.shape == store.sketch_words.shape == (len(self.RECORDS), 0)

    def test_earlier_views_keep_their_contents(self) -> None:
        store = empty_store(sketch_words=1)
        store.append(*pack_tokens(self.RECORDS[:2]), np.array([[5], [6]], dtype=np.uint64))
        values, sketches = store.token_values, store.sketch_words
        for position, record in enumerate(self.RECORDS[2:]):
            store.append(*pack_tokens([record]), np.array([[position]], dtype=np.uint64))
        assert values.tolist() == [1, 2, 3, 4, 5]
        assert sketches.tolist() == [[5], [6]]
        assert store.sketch_words[:, 0].tolist() == [5, 6, 0, 1, 2]

    def test_capacity_doubles_and_never_pickles(self) -> None:
        store = empty_store(weighted=True)
        for record in self.RECORDS * 20:
            store.append(*pack_tokens([record]), measure_sizes=[float(len(record))])
        capacity = store._capacity["token_values"].shape[0]
        assert store.token_values.shape[0] < capacity < 2 * store.token_values.shape[0]
        restored = pickle.loads(pickle.dumps(store))
        assert restored._capacity == {}
        for name in ("token_values", "token_offsets", "sizes", "measure_sizes"):
            assert np.array_equal(getattr(restored, name), getattr(store, name))
        restored.append(*pack_tokens([(99,)]), measure_sizes=[1.0])
        assert restored.record_tuples()[-1] == (99,)

    def test_rows_required_for_exactly_the_kept_columns(self) -> None:
        with pytest.raises(ValueError, match="derived columns"):
            empty_store(sketch_words=2).append(*pack_tokens([(1, 2)]))
        with pytest.raises(ValueError, match="derived columns"):
            empty_store().append(*pack_tokens([(1, 2)]), measure_sizes=[2.0])
        with pytest.raises(ValueError, match="derived columns"):
            empty_store(weighted=True).append(*pack_tokens([(1, 2)]))

    def test_join_and_attached_stores_do_not_grow(self, store: RecordStore) -> None:
        with pytest.raises(ValueError, match="signatures"):
            store.append(*pack_tokens([(1, 2)]), np.zeros((1, 2), dtype=np.uint64))
        grown = empty_store()
        grown.append(*pack_tokens(self.RECORDS))
        with grown.to_shared() as lease:
            attached = RecordStore.attach(lease.handle)
            try:
                with pytest.raises(ValueError, match="read-only"):
                    attached.append(*pack_tokens([(1, 2)]))
                assert attached.record_tuples() == grown.record_tuples()
            finally:
                attached.close()


class TestCollectionView:
    def test_collection_is_view_over_store(self) -> None:
        records = [[2, 1], [3, 4, 5]]
        collection = preprocess_collection(records, seed=5)
        assert collection.store.num_records == 2
        values, offsets = collection.packed_tokens()
        assert values is collection.store.token_values
        assert offsets is collection.store.token_offsets
        assert collection.signatures.matrix is collection.store.signature_matrix
        assert collection.sketches.words is collection.store.sketch_words

    def test_records_materialized_lazily_from_store(self) -> None:
        from repro.core.preprocess import PreprocessedCollection

        store = RecordStore.build([[7, 2], [9]], seed=5)
        collection = PreprocessedCollection.from_store(store)
        assert collection._records is None
        assert collection.records == [(2, 7), (9,)]
        assert collection._records is not None  # cached after first access
