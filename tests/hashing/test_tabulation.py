"""Tests for Zobrist / simple tabulation hashing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.tabulation import TabulationHash, TabulationHashFamily


class TestTabulationHash:
    def test_deterministic_for_same_instance(self) -> None:
        hasher = TabulationHash(np.random.default_rng(0))
        assert hasher.hash_one(12345) == hasher.hash_one(12345)

    def test_different_instances_differ(self) -> None:
        first = TabulationHash(np.random.default_rng(1))
        second = TabulationHash(np.random.default_rng(2))
        values_first = [first.hash_one(key) for key in range(100)]
        values_second = [second.hash_one(key) for key in range(100)]
        assert values_first != values_second

    def test_output_fits_in_64_bits(self) -> None:
        hasher = TabulationHash(np.random.default_rng(3))
        for key in (0, 1, 255, 256, 2**16, 2**31, 2**32 - 1):
            value = hasher.hash_one(key)
            assert 0 <= value < 2**64

    def test_rejects_negative_key(self) -> None:
        hasher = TabulationHash(np.random.default_rng(4))
        with pytest.raises(ValueError):
            hasher.hash_one(-1)

    def test_rejects_key_above_32_bits(self) -> None:
        hasher = TabulationHash(np.random.default_rng(4))
        with pytest.raises(ValueError):
            hasher.hash_one(2**32)

    def test_hash_many_matches_hash_one(self) -> None:
        hasher = TabulationHash(np.random.default_rng(5))
        keys = np.array([0, 1, 17, 255, 65536, 2**32 - 1], dtype=np.uint32)
        vectorized = hasher.hash_many(keys)
        scalar = [hasher.hash_one(int(key)) for key in keys]
        assert vectorized.tolist() == scalar

    def test_callable_interface(self) -> None:
        hasher = TabulationHash(np.random.default_rng(6))
        assert hasher(42) == hasher.hash_one(42)

    def test_distribution_roughly_uniform_in_top_bit(self) -> None:
        hasher = TabulationHash(np.random.default_rng(7))
        keys = np.arange(2000, dtype=np.uint32)
        top_bits = hasher.hash_many(keys) >> np.uint64(63)
        fraction = top_bits.mean()
        assert 0.4 < fraction < 0.6


class TestTabulationHashFamily:
    def test_same_seed_same_functions(self) -> None:
        first = TabulationHashFamily(99).sample()
        second = TabulationHashFamily(99).sample()
        assert [first.hash_one(key) for key in range(50)] == [second.hash_one(key) for key in range(50)]

    def test_sampled_functions_are_independent_instances(self) -> None:
        family = TabulationHashFamily(5)
        functions = family.sample_many(3)
        outputs = [tuple(function.hash_one(key) for key in range(20)) for function in functions]
        assert len(set(outputs)) == 3

    def test_sample_many_negative_raises(self) -> None:
        with pytest.raises(ValueError):
            TabulationHashFamily(5).sample_many(-1)

    def test_sample_tables_shape(self) -> None:
        tables = TabulationHashFamily(5).sample_tables(7)
        assert tables.shape == (7, 4, 256)
        assert tables.dtype == np.uint64

    def test_sample_tables_negative_raises(self) -> None:
        with pytest.raises(ValueError):
            TabulationHashFamily(5).sample_tables(-2)

