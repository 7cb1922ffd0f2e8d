"""Tests for the versioned SimilarityIndex.save()/load() persistence."""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.index import IndexPersistenceError, SimilarityIndex
from repro.index.similarity_index import _SAVE_MAGIC, SAVE_FORMAT_VERSION

RECORDS = [(1, 2, 3, 4), (2, 3, 4, 5), (10, 11, 12, 13), (1, 2, 3, 4, 5)]


def make_index(**options) -> SimilarityIndex:
    options.setdefault("backend", "numpy")
    options.setdefault("seed", 23)
    return SimilarityIndex.build(RECORDS, 0.5, **options)


class TestRoundtrip:
    def test_save_load_serves_identical_answers(self, tmp_path) -> None:
        index = make_index()
        path = index.save(tmp_path / "index.idx")
        loaded = SimilarityIndex.load(path)
        assert isinstance(loaded, SimilarityIndex)
        assert len(loaded) == len(index)
        assert loaded.query_batch(RECORDS) == index.query_batch(RECORDS)

    def test_saved_file_carries_magic_and_version(self, tmp_path) -> None:
        path = make_index().save(tmp_path / "index.idx")
        header = path.read_bytes()[: len(_SAVE_MAGIC) + 4]
        assert header[: len(_SAVE_MAGIC)] == _SAVE_MAGIC
        assert struct.unpack(">I", header[len(_SAVE_MAGIC) :])[0] == SAVE_FORMAT_VERSION

    def test_save_is_atomic_and_leaves_no_staging_file(self, tmp_path) -> None:
        path = tmp_path / "index.idx"
        make_index().save(path)
        first = path.read_bytes()
        make_index().save(path)  # overwrite in place (the --insert rewrite shape)
        assert not list(tmp_path.glob("*.tmp"))
        assert path.read_bytes()[: len(_SAVE_MAGIC)] == first[: len(_SAVE_MAGIC)]
        SimilarityIndex.load(path)  # still a valid file after the overwrite

    def test_loaded_index_accepts_inserts(self, tmp_path) -> None:
        path = make_index().save(tmp_path / "index.idx")
        loaded = SimilarityIndex.load(path)
        record_id = loaded.insert((100, 101, 102))
        assert loaded.query((100, 101, 102))[0][0] == record_id

    def test_approximate_mode_roundtrip(self, tmp_path) -> None:
        index = make_index(candidates="chosenpath")
        path = index.save(tmp_path / "cp.idx")
        loaded = SimilarityIndex.load(path)
        assert loaded.query_batch(RECORDS) == index.query_batch(RECORDS)


def write_versioned(path, version: int, payload) -> None:
    with open(path, "wb") as handle:
        handle.write(_SAVE_MAGIC)
        handle.write(struct.pack(">I", version))
        pickle.dump(payload, handle)


class TestOlderFormatsRefused:
    def test_bare_pickle_refused_with_rebuild_command(self, tmp_path) -> None:
        # What `repro-join index build` wrote before the versioned format.
        path = tmp_path / "legacy.pkl"
        with open(path, "wb") as handle:
            pickle.dump(make_index(), handle)
        with pytest.raises(IndexPersistenceError, match="repro-join index build"):
            SimilarityIndex.load(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_refused_naming_version_and_rebuild(self, tmp_path, version) -> None:
        path = tmp_path / "old.idx"
        write_versioned(path, version, make_index())
        with pytest.raises(
            IndexPersistenceError, match=rf"version {version} .*`repro-join index build`"
        ):
            SimilarityIndex.load(path)


class TestClearErrors:
    def test_foreign_pickle_named_in_error(self, tmp_path) -> None:
        path = tmp_path / "foreign.pkl"
        write_versioned(path, SAVE_FORMAT_VERSION, {"not": "an index"})
        with pytest.raises(IndexPersistenceError, match="dict, not a SimilarityIndex"):
            SimilarityIndex.load(path)

    def test_newer_format_version_refused(self, tmp_path) -> None:
        path = tmp_path / "future.idx"
        write_versioned(path, SAVE_FORMAT_VERSION + 1, make_index())
        with pytest.raises(IndexPersistenceError, match="newer than the supported"):
            SimilarityIndex.load(path)

    def test_truncated_header_refused(self, tmp_path) -> None:
        path = tmp_path / "truncated.idx"
        path.write_bytes(_SAVE_MAGIC + b"\x00")
        with pytest.raises(IndexPersistenceError, match="truncated"):
            SimilarityIndex.load(path)

    def test_corrupt_payload_refused(self, tmp_path) -> None:
        path = tmp_path / "corrupt.idx"
        path.write_bytes(_SAVE_MAGIC + struct.pack(">I", SAVE_FORMAT_VERSION) + b"garbage")
        with pytest.raises(IndexPersistenceError, match="corrupt"):
            SimilarityIndex.load(path)

    def test_arbitrary_bytes_refused(self, tmp_path) -> None:
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not an index file")
        with pytest.raises(IndexPersistenceError, match="not a saved SimilarityIndex"):
            SimilarityIndex.load(path)

    def test_versioned_error_is_a_value_error(self) -> None:
        # Callers catching ValueError (the repo's validation idiom) keep working.
        assert issubclass(IndexPersistenceError, ValueError)
