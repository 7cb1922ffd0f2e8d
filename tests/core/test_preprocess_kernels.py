"""The blocked preprocessing kernels: bit-identical outputs in bounded memory.

Signatures are tabulated over the CSR tokens in blocks of
:data:`~repro.hashing.minhash.SIGNATURE_BLOCK_TOKENS` tokens, sketches are
packed :data:`~repro.hashing.sketch.SKETCH_BLOCK_ROWS` rows at a time and
the signature rank matrix is ranked in column blocks.  The golden hashes
below were recorded with the unblocked kernels these replaced (a
per-record signature loop, unblocked sketch packing, a one-pass rank
matrix), so they prove the outputs did not move by a single bit.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from typing import List, Tuple

import numpy as np
import pytest

from repro import similarity_join
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.datasets.profiles import generate_profile_dataset

BLOCK = 1 << 10
"""The token block the golden collection is cut for."""


def _distinct_tokens(rng: np.random.Generator, size: int) -> Tuple[int, ...]:
    tokens = np.unique(rng.integers(0, 2**32, size=size + 8, dtype=np.uint64))[:size]
    assert tokens.size == size
    return tuple(int(token) for token in tokens)


def _records_totalling(rng: np.random.Generator, total: int, largest: int) -> List[Tuple[int, ...]]:
    """Random records of 1 to ``largest`` tokens whose sizes sum to exactly ``total``."""
    records: List[Tuple[int, ...]] = []
    remaining = total
    while remaining:
        size = min(int(rng.integers(1, largest + 1)), remaining)
        records.append(_distinct_tokens(rng, size))
        remaining -= size
    return records


def golden_records() -> List[Tuple[int, ...]]:
    """A fixed collection that hits every block edge of the kernels.

    * the first records hold exactly one token block, so the first block
      ends on a record boundary;
    * then a record of exactly one block and one longer than a block;
    * 1-token records at both ends of the key range, and duplicates;
    * 24 token blocks in all, an exact multiple of the block;
    * more than two sketch row blocks of records, the last one partial.
    """
    rng = np.random.default_rng(20261020)
    five = _distinct_tokens(rng, 5)
    first_block = _records_totalling(rng, BLOCK - 12, 60)
    first_block[3:3] = [(0,), five, (2**32 - 1,), five]
    exact_block = _distinct_tokens(rng, BLOCK)
    oversized = _distinct_tokens(rng, BLOCK + 101)
    tail = _records_totalling(rng, 21 * BLOCK - 101 - 8, 20)
    tail[5:5] = [five, (7,), oversized[:2]]
    return first_block + [exact_block, oversized] + tail


def test_golden_collection_hits_the_block_edges() -> None:
    # If a block size changes, re-cut the collection for it; the hashes
    # below stay valid, as they do not depend on how the kernels block.
    from repro.hashing.minhash import SIGNATURE_BLOCK_TOKENS
    from repro.hashing.sketch import SKETCH_BLOCK_ROWS

    assert SIGNATURE_BLOCK_TOKENS == BLOCK
    records = golden_records()
    sizes = np.array([len(record) for record in records])
    ends = np.cumsum(sizes)
    assert BLOCK in ends  # the first block ends on a record boundary
    assert BLOCK in sizes and sizes.max() > BLOCK
    assert ends[-1] == 24 * BLOCK
    assert 2 * SKETCH_BLOCK_ROWS < len(records) < 3 * SKETCH_BLOCK_ROWS
    assert (0,) in records and (2**32 - 1,) in records and len(set(records)) < len(records)


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


GOLDEN = {
    (128, 8, 7): (
        "5f425b14ccf4ec11f5970b01bc8dfb300177537e85a60321653eb15ffa369200",
        "5dc418114525d2836f268055e47981a8092863b55d6c0bf8b79b117816f63ff5",
        "8c4c3c952b766eb0f415f335e040c2cfbc1e5cb647bf666285abf5f7c1b147b6",
    ),
    (64, 1, 3): (
        "d10da519009431b125032e8bcf7d7b95bc58d52548e6a4c60068126b45e6cff9",
        "0cc4135d317021aa83925e29ecf887a84e222e6326b03ea42877c76520168006",
        "c4b94f8c4ea15177e962ba818b3579336b634fd6271403bad015c5f38680be0a",
    ),
}
"""(embedding size, sketch words, seed) → sha256 of the signature matrix,
the sketch words and the signature rank matrix of :func:`golden_records`."""


@pytest.mark.parametrize("embedding_size, sketch_words, seed", sorted(GOLDEN))
def test_outputs_match_golden_hashes(embedding_size, sketch_words, seed) -> None:
    collection = preprocess_collection(
        golden_records(), embedding_size=embedding_size, sketch_words=sketch_words, seed=seed
    )
    observed = (
        _digest(collection.store.signature_matrix),
        _digest(collection.store.sketch_words),
        _digest(collection.signature_rank_matrix()),
    )
    assert observed == GOLDEN[(embedding_size, sketch_words, seed)]


def test_preprocessing_peak_memory_is_the_kept_arrays_plus_blocks() -> None:
    # 20,078 UNIFORM005 records.  The unblocked kernels peaked at 336 MiB
    # here, for 32.5 MiB of arrays kept.
    records = generate_profile_dataset("UNIFORM005", scale=8.0, seed=0).records
    tracemalloc.start()
    try:
        collection = preprocess_collection(records, seed=1)
        ranks = collection.signature_rank_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store = collection.store
    kept = ranks.nbytes + sum(
        array.nbytes
        for array in (
            store.token_values,
            store.token_offsets,
            store.signature_matrix,
            store.sketch_words,
            store.sizes,
        )
    )
    assert len(records) > 20_000
    assert peak <= kept + 32 * 2**20


@pytest.mark.parametrize("algorithm", ["cpsjoin", "minhash", "bayeslsh"])
def test_joins_build_no_float_copy_of_the_sketches(uniform_dataset, monkeypatch, algorithm) -> None:
    collections = []
    original = PreprocessedCollection.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        collections.append(self)

    monkeypatch.setattr(PreprocessedCollection, "__init__", tracking)
    result = similarity_join(uniform_dataset.records, 0.5, algorithm=algorithm, seed=3)
    assert result.stats.pre_candidates > 0
    assert collections
    assert not any(collection._sketch_bits_built for collection in collections)
