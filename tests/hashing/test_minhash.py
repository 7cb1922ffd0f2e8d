"""Tests for MinHash signatures."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.hashing.minhash import MinHasher, MinHashSignatures
from repro.hashing.tabulation import TabulationHashFamily
from repro.similarity.measures import jaccard_similarity


class TestMinHasher:
    def test_signature_length(self) -> None:
        hasher = MinHasher(num_functions=32, seed=1)
        signature = hasher.signature([1, 5, 9])
        assert signature.shape == (32,)

    def test_identical_records_identical_signatures(self) -> None:
        hasher = MinHasher(num_functions=64, seed=2)
        assert hasher.signature([3, 6, 9]).tolist() == hasher.signature([9, 6, 3]).tolist()

    def test_empty_record_raises(self) -> None:
        hasher = MinHasher(num_functions=8, seed=3)
        with pytest.raises(ValueError):
            hasher.signature([])

    def test_invalid_num_functions(self) -> None:
        with pytest.raises(ValueError):
            MinHasher(num_functions=0)

    def test_same_seed_reproducible(self) -> None:
        first = MinHasher(num_functions=16, seed=7).signature([1, 2, 3, 4])
        second = MinHasher(num_functions=16, seed=7).signature([1, 2, 3, 4])
        assert first.tolist() == second.tolist()

    def test_different_seed_differs(self) -> None:
        first = MinHasher(num_functions=16, seed=7).signature([1, 2, 3, 4])
        second = MinHasher(num_functions=16, seed=8).signature([1, 2, 3, 4])
        assert first.tolist() != second.tolist()

    def test_signature_value_comes_from_record_tokens(self) -> None:
        # The MinHash value is the minimum hash over the record's tokens, so a
        # superset can only have an equal or smaller value coordinate-wise.
        hasher = MinHasher(num_functions=64, seed=9)
        small = hasher.signature([1, 2, 3])
        large = hasher.signature([1, 2, 3, 4, 5, 6])
        assert np.all(large <= small)

    def test_collision_probability_identity(self) -> None:
        hasher = MinHasher(num_functions=4, seed=1)
        assert hasher.collision_probability(0.3) == 0.3
        with pytest.raises(ValueError):
            hasher.collision_probability(1.5)

    def test_estimator_is_close_to_jaccard(self) -> None:
        # Two records with Jaccard similarity 0.5: the fraction of agreeing
        # signature coordinates should concentrate around 0.5.
        first = list(range(0, 100))
        second = list(range(50, 150))
        expected = jaccard_similarity(first, second)
        hasher = MinHasher(num_functions=512, seed=5)
        signatures = hasher.signatures([first, second])
        estimate = signatures.estimate_jaccard(0, 1)
        assert abs(estimate - expected) < 0.08


class TestSignatureKernel:
    def test_matches_scalar_tabulation(self) -> None:
        # Coordinate i is min over the tokens of the XOR of function i's
        # four character-table words; the hasher draws its tables from
        # TabulationHashFamily(seed).sample_tables(t).
        records = [[3], [99, 12345, 2**32 - 1], [0, 7, 7, 255, 256, 65536]]
        matrix = MinHasher(num_functions=6, seed=21).signatures(records).matrix
        tables = TabulationHashFamily(21).sample_tables(6)
        for row, record in zip(matrix.tolist(), records):
            expected = [
                min(
                    int(
                        tables[i, 0, token & 0xFF]
                        ^ tables[i, 1, (token >> 8) & 0xFF]
                        ^ tables[i, 2, (token >> 16) & 0xFF]
                        ^ tables[i, 3, token >> 24]
                    )
                    for token in record
                )
                for i in range(6)
            ]
            assert row == expected

    def test_signatures_equal_one_row_signatures(self) -> None:
        hasher = MinHasher(num_functions=16, seed=4)
        records = [[5], [1, 2, 3], list(range(3000)), [9, 8]]
        matrix = hasher.signatures(records).matrix
        for row, record in zip(matrix, records):
            assert row.tolist() == hasher.signature(record).tolist()

    def test_pickles_keep_the_sampled_table_layout(self) -> None:
        # Saved indexes pickle their hashers: the state keeps the
        # (t, 4, 256) layout of sample_tables whatever layout the kernel uses.
        hasher = MinHasher(num_functions=6, seed=21)
        state = hasher.__getstate__()
        assert np.array_equal(state["_tables"], TabulationHashFamily(21).sample_tables(6))
        restored = pickle.loads(pickle.dumps(hasher))
        assert restored.signature([1, 2, 3]).tolist() == hasher.signature([1, 2, 3]).tolist()

    def test_no_records_give_an_empty_matrix(self) -> None:
        assert MinHasher(num_functions=8, seed=1).signatures([]).matrix.shape == (0, 8)

    def test_empty_record_named(self) -> None:
        with pytest.raises(ValueError, match="record 1 is empty"):
            MinHasher(num_functions=8, seed=1).signatures([[1], []])

    @pytest.mark.parametrize(
        "records, message",
        [
            ([[1, 2**32]], r"^record 0 has token 4294967296, outside \[0, 2\*\*32\)"),
            ([[5], [-1, 3]], r"^record 1 has token -1, outside \[0, 2\*\*32\)"),
            ([[5], [1, 2**70]], r"^record 1 has token 1180591620717411303424, outside"),
        ],
    )
    def test_signatures_refuse_unhashable_tokens(self, records, message) -> None:
        # Cast to 32-bit keys, these tokens would wrap silently.
        with pytest.raises(ValueError, match=message):
            MinHasher(num_functions=8, seed=1).signatures(records)

    @pytest.mark.parametrize("token", [2**32, -1])
    def test_signature_refuses_unhashable_token(self, token) -> None:
        with pytest.raises(ValueError, match=rf"^record 0 has token {token}, outside"):
            MinHasher(num_functions=8, seed=1).signature([token, 3])


class TestMinHashSignatures:
    def make(self) -> MinHashSignatures:
        hasher = MinHasher(num_functions=16, seed=11)
        return hasher.signatures([[1, 2, 3], [2, 3, 4], [100, 200]])

    def test_shape_properties(self) -> None:
        signatures = self.make()
        assert signatures.num_records == 3
        assert signatures.num_functions == 16

    def test_coordinate_and_signature_accessors(self) -> None:
        signatures = self.make()
        assert signatures.coordinate(0).shape == (3,)
        assert signatures.signature(1).shape == (16,)
        assert signatures.coordinate(5)[1] == signatures.signature(1)[5]

    def test_braun_blanquet_tokens_structure(self) -> None:
        signatures = self.make()
        tokens = signatures.braun_blanquet_tokens(0)
        assert len(tokens) == 16
        assert all(isinstance(index, int) and isinstance(value, int) for index, value in tokens)
        assert [index for index, _ in tokens] == list(range(16))

    def test_estimate_jaccard_bounds(self) -> None:
        signatures = self.make()
        assert signatures.estimate_jaccard(0, 0) == 1.0
        assert 0.0 <= signatures.estimate_jaccard(0, 2) <= 1.0

    def test_disjoint_records_low_estimate(self) -> None:
        hasher = MinHasher(num_functions=128, seed=13)
        signatures = hasher.signatures([list(range(0, 50)), list(range(1000, 1050))])
        assert signatures.estimate_jaccard(0, 1) < 0.15
