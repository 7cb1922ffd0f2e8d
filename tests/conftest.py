"""Shared fixtures for the test suite.

``tests/`` is put on ``sys.path`` so every test module can import the
scalar reference implementations as ``oracles`` (see ``tests/oracles``);
that package holds no ``test_*`` modules, so nothing in it is collected.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

from repro.datasets.base import Dataset
from repro.datasets.synthetic import generate_skewed_dataset, generate_uniform_dataset


@pytest.fixture
def tiny_records() -> List[Tuple[int, ...]]:
    """A handful of hand-crafted records with known pairwise similarities.

    Jaccard similarities:
      (0, 1) = 3/5 = 0.6   (overlap {2,3,4})
      (0, 4) = 4/5 = 0.8   (record 4 adds token 5)
      (1, 4) = 4/5 = 0.8
      (2, 3) = 3/5 = 0.6
      all other pairs       = 0.0
    """
    return [
        (1, 2, 3, 4),
        (2, 3, 4, 5),
        (10, 11, 12, 13),
        (10, 11, 12, 14),
        (1, 2, 3, 4, 5),
    ]


@pytest.fixture
def tiny_truth_05() -> set:
    """Exact join result of ``tiny_records`` at threshold 0.5."""
    return {(0, 1), (0, 4), (1, 4), (2, 3)}


@pytest.fixture
def tiny_truth_07() -> set:
    """Exact join result of ``tiny_records`` at threshold 0.7."""
    return {(0, 4), (1, 4)}


@pytest.fixture(scope="session")
def uniform_dataset() -> Dataset:
    """A small UNIFORM-style dataset with planted similar pairs (session-scoped)."""
    return generate_uniform_dataset(
        num_records=400,
        universe_size=150,
        average_set_size=12,
        planted_pairs_per_similarity=8,
        seed=11,
    )


@pytest.fixture(scope="session")
def skewed_dataset() -> Dataset:
    """A small Zipf-skewed dataset with planted similar pairs (session-scoped)."""
    return generate_skewed_dataset(
        num_records=400,
        universe_size=2000,
        average_set_size=15,
        skew=0.9,
        planted_pairs_per_similarity=8,
        seed=13,
        name="ZIPF-TEST",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded numpy random generator."""
    return np.random.default_rng(1234)
