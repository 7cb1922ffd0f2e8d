"""Preprocess about 100,000 records and check the process's peak memory.

Generates UNIFORM005 at scale :data:`SCALE` (about 100,000 records and 1.0M
tokens), builds the collection with ``preprocess_collection`` and its
signature rank matrix, prints the seconds of each step, and exits 1 unless
the peak resident set size (``ru_maxrss``) stays under :data:`MAX_RSS_MIB`.
The blocked kernels keep it near 280 MiB; the unblocked ones peaked at
about 1,750 MiB.

Usage::

    PYTHONPATH=src python scripts/preprocess_smoke.py
"""

from __future__ import annotations

import resource
import sys
import time

from repro.core.preprocess import preprocess_collection
from repro.datasets.profiles import generate_profile_dataset

SCALE = 40.0
"""UNIFORM005 scale: about 100,000 records."""

MAX_RSS_MIB = 512.0
"""Bound on the peak resident set size."""


def main() -> int:
    started = time.perf_counter()
    records = generate_profile_dataset("UNIFORM005", scale=SCALE, seed=0).records
    generated = time.perf_counter()
    collection = preprocess_collection(records, embedding_size=128, sketch_words=8, seed=1)
    preprocessed = time.perf_counter()
    collection.signature_rank_matrix()
    ranked = time.perf_counter()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB
    tokens = int(collection.store.token_offsets[-1])
    print(
        f"{collection.num_records} records, {tokens} tokens: generate {generated - started:.2f} s, "
        f"preprocess {preprocessed - generated:.2f} s, rank matrix {ranked - preprocessed:.2f} s, "
        f"peak RSS {peak_mib:.0f} MiB (bound {MAX_RSS_MIB:.0f} MiB)"
    )
    if peak_mib >= MAX_RSS_MIB:
        print(f"peak RSS {peak_mib:.0f} MiB is over the {MAX_RSS_MIB:.0f} MiB bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
