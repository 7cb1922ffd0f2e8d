"""Streaming deduplication — offline index or live similarity-search server.

The join algorithms in this repository materialize all similar pairs of a
static collection.  A common production variant is *streaming*: records
arrive in batches and each new record must be checked against everything
seen so far before being admitted.  :class:`repro.index.SimilarityIndex`
turns that into point lookups (``query``) plus incremental updates
(``insert``) — and :mod:`repro.service` puts the same index behind an
asyncio server, so the deduplicator can live in a different process than
the index.

The example simulates a stream of "user profiles" (token sets) in which
roughly one record in five is a near-duplicate of an earlier one, and
deduplicates the stream in one of three ways:

* **default** — three in-process index configurations (``exact``: nothing
  above the threshold slips through; ``chosenpath``: the Chosen Path forest
  CPSJOIN was derived from; ``lsh``: classic MinHash LSH banding);
* ``--serve`` — the same ``exact`` configuration behind a live in-process
  :class:`repro.service.SimilarityServer`, talked to through the blocking
  client.  Because the server's coalescer only *reschedules* queries, the
  flagged set is identical to the offline run — which the example asserts;
* ``--connect HOST:PORT`` — run the stream against an external server
  started with ``repro-join serve`` (whatever threshold/configuration it
  was started with).

Per batch it reports the query latency (milliseconds per record), so the
build-once/query-many advantage is visible directly: latency stays flat as
the index grows instead of the per-batch cost of a re-join growing with the
history.

Run with::

    python examples/streaming_dedup.py [--stream-size 800] [--batch-size 100]
    python examples/streaming_dedup.py --serve
    repro-join serve --threshold 0.5 --port 7777 &
    python examples/streaming_dedup.py --connect 127.0.0.1:7777
"""

from __future__ import annotations

import argparse
import time
from typing import List, Set, Tuple

import numpy as np

from repro.datasets.synthetic import make_near_duplicate
from repro.index import SimilarityIndex


def build_stream(stream_size: int, seed: int) -> Tuple[List[Tuple[int, ...]], Set[int]]:
    """A stream of token sets in which ~20 % are near-duplicates of earlier records."""
    rng = np.random.default_rng(seed)
    universe_size = 5000
    stream: List[Tuple[int, ...]] = []
    duplicate_positions: Set[int] = set()
    for position in range(stream_size):
        if stream and rng.random() < 0.2:
            base = stream[int(rng.integers(0, len(stream)))]
            record = make_near_duplicate(base, target_jaccard=0.75, universe_size=universe_size, rng=rng)
            duplicate_positions.add(position)
        else:
            size = int(rng.integers(10, 25))
            record = tuple(sorted(rng.choice(universe_size, size=size, replace=False).tolist()))
        stream.append(record)
    return stream, duplicate_positions


def deduplicate(
    backend,
    stream: List[Tuple[int, ...]],
    batch_size: int,
    verbose: bool = True,
) -> Set[int]:
    """Stream records through query + insert; returns the flagged positions.

    ``backend`` is anything with ``query(record)`` / ``insert(record)`` —
    a :class:`SimilarityIndex` or a :class:`repro.service.ServiceClient`
    speak the identical duck type, so the same loop runs in-process or over
    the wire.  Each record is queried against everything inserted so far —
    including earlier records of the same batch — then inserted.
    """
    flagged: Set[int] = set()
    indexed = 0
    for start in range(0, len(stream), batch_size):
        batch = stream[start : start + batch_size]
        began = time.perf_counter()
        for offset, record in enumerate(batch):
            if backend.query(record):
                flagged.add(start + offset)
            backend.insert(record)
            indexed += 1
        elapsed = time.perf_counter() - began
        if verbose:
            print(
                f"  batch {start // batch_size + 1:>3}: {len(batch):>4} records, "
                f"index size {indexed:>5}, "
                f"{1000.0 * elapsed / len(batch):6.3f} ms/record"
            )
    return flagged


def report(flagged: Set[int], true_duplicates: Set[int], total: float) -> None:
    caught = len(flagged & true_duplicates)
    extra = len(flagged - true_duplicates)
    print(f"  duplicates caught:        {caught} / {len(true_duplicates)}")
    print(f"  additional pairs flagged: {extra} (records genuinely above the threshold by chance)")
    print(f"  total wall clock:         {total:.3f}s")
    print()


def run_in_process(args, stream, true_duplicates) -> None:
    configurations = (
        ("exact", dict(candidates="exact", backend="numpy")),
        ("chosenpath", dict(candidates="chosenpath", chosen_path_depth=3, chosen_path_repetitions=12)),
        ("lsh", dict(candidates="lsh", lsh_bands=32, lsh_rows=4)),
    )
    for name, options in configurations:
        index = SimilarityIndex(args.threshold, seed=args.seed, **options)
        print(f"SimilarityIndex(candidates={name!r}):")
        began = time.perf_counter()
        flagged = deduplicate(index, stream, args.batch_size)
        total = time.perf_counter() - began
        report(flagged, true_duplicates, total)
        stats = index.stats
        print(
            f"  candidate verifications:  {stats.verified} "
            f"({stats.verified / (len(stream) * (len(stream) - 1) // 2):.2%} of a naive all-pairs scan)"
        )
        print(
            f"  stage split:              candidate {stats.candidate_seconds:.3f}s / "
            f"filter {stats.filter_seconds:.3f}s / verify {stats.verify_seconds:.3f}s "
            f"(inserts {stats.index_build_seconds:.3f}s)\n"
        )


def run_against_live_server(args, stream, true_duplicates) -> None:
    from repro.service import ServiceClient, SimilarityServer, serve_in_thread

    # Offline reference first: the server must flag the exact same records.
    offline = SimilarityIndex(args.threshold, seed=args.seed, candidates="exact", backend="numpy")
    offline_flagged = deduplicate(offline, stream, args.batch_size, verbose=False)

    server = SimilarityServer(
        index_factory=lambda: SimilarityIndex(
            args.threshold, seed=args.seed, candidates="exact", backend="numpy"
        )
    )
    handle = serve_in_thread(server)
    print(f"SimilarityServer on {handle.address[0]}:{handle.address[1]} (candidates='exact'):")
    try:
        with ServiceClient.connect(*handle.address) as client:
            began = time.perf_counter()
            flagged = deduplicate(client, stream, args.batch_size)
            total = time.perf_counter() - began
            report(flagged, true_duplicates, total)
            session = client.stats()["session"]
            print(f"  server-side verifications: {int(session['verified'])}")
    finally:
        handle.stop()
    assert flagged == offline_flagged, "server run diverged from the offline index"
    print("  parity: the server flagged exactly the records the offline exact index flags.\n")


def run_against_external_server(args, stream, true_duplicates) -> None:
    from repro.service import ServiceClient

    host, _, port = args.connect.rpartition(":")
    print(f"External server at {host}:{port}:")
    with ServiceClient.connect(host or "127.0.0.1", int(port)) as client:
        print(f"  serving {client.health()['records']} pre-existing records")
        began = time.perf_counter()
        flagged = deduplicate(client, stream, args.batch_size)
        total = time.perf_counter() - began
    report(flagged, true_duplicates, total)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stream-size", type=int, default=800)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the stream against a live in-process SimilarityServer and "
        "assert parity with the offline exact index",
    )
    parser.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="run the stream against an external `repro-join serve` instance",
    )
    args = parser.parse_args()

    stream, true_duplicates = build_stream(args.stream_size, args.seed)
    print(
        f"Stream of {len(stream)} records in batches of {args.batch_size}, "
        f"{len(true_duplicates)} planted near-duplicates, threshold {args.threshold}\n"
    )

    if args.connect:
        run_against_external_server(args, stream, true_duplicates)
        return
    if args.serve:
        run_against_live_server(args, stream, true_duplicates)
        return
    run_in_process(args, stream, true_duplicates)
    print("Every flagged record was verified exactly against the matching earlier record,")
    print("so anything flagged truly exceeds the similarity threshold.  The exact mode")
    print("misses nothing by construction; the approximate modes trade a bounded miss")
    print("probability for sublinear candidate generation.")


if __name__ == "__main__":
    main()
