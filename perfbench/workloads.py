"""The benchmark's workloads: one dataset each, joined in batch and then served.

Every workload runs both public paths over the same generated collection,
so each reports every end-to-end metric:

* **join phase** — ``preprocess_collection`` once per set-up, then
  ``CPSJoin.join_preprocessed`` at λ = 0.5 with the paper's Table III
  parameters (10 repetitions), passed explicitly as ``backend="numpy"``,
  ``workers=1``, ``executor="serial"``, over a fixed list of algorithm seeds;
* **serve phase** — a ``repro-join serve`` process (exact candidates, numpy
  backend, every other flag at its default) driven by an open loop of seeded
  Poisson arrivals: 90% ``query`` of an indexed record, 10% ``insert`` of a
  held-out record, stepping through a ladder of offered rates.

The collection is the same on every run of a workload (``DATA_SEED``): the
join's work differs by up to 2x between collections, more than any change
worth measuring.  ``--seed`` draws everything the serve phase sends — the
insert pool, the arrival times and the query targets.

The two datasets sit on opposite sides of the paper's robustness argument:
UNIFORM005 has only frequent tokens (prefix filtering has nothing to prune,
the sketch filter dominates the join), AOL has rare tokens (verify and
dedup weigh in, recall sits below 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

THRESHOLD = 0.5
"""λ: the paper's hardest threshold."""

DATA_SEED = 1
"""Seed of the collection every run of a workload joins and serves."""

PIN_SEED = 1
"""Seed whose insert pool and op schedule every run regenerates and checks
against ``pins.json``, whatever its own ``--seed``."""

ALGORITHM_SEEDS: Tuple[int, ...] = (12, 14)
"""Join seeds, fixed for every run: per-seed work varies by up to 2x, so a
varying list would move ``join_s`` by more than any change worth measuring.
The join phase cycles through them; each seed's fastest repeat counts.  Two
seeds of median work leave each enough repeats in a run for its fastest one
to miss the slowdowns other processes on a shared machine cause."""

NOMINAL_RATE = 400
"""The step whose latencies are the end-to-end query/insert metrics."""

CAPACITY_RATE = 6000
"""Schedule size (requests/s) of the capacity step, above any rate it reaches."""

CAPACITY_INFLIGHT = 32
"""The last step is a closed loop of queries keeping this many outstanding: it
saturates the server, and as it is the server's per-connection cap, nothing is
shed.  The rate answered there is the capacity."""

LADDER: Tuple[Tuple[int, float], ...] = (
    (100, 1.5),
    (NOMINAL_RATE, 13.0),
    (CAPACITY_RATE, 2.5),
)
"""Offered rates (requests/s) with their step length in seconds at ``--seconds 40``.

The first step warms the server up; the last is the closed-loop capacity
step.  The nominal step is long enough for its inserts to trigger a snapshot
(every 512 by default), so the write path runs beside the measured reads.
"""

INSERT_SHARE = 0.1

GENERATOR_LAG_LIMIT_MS = 250.0
"""A serve run whose generator sent a nominal-step request later than this has
no result: it would be about a hundred requests behind, and the offered load
no longer the schedule's.  Latency is timed from the due time, so a smaller
lag cannot hide a delay (50 ms was the largest seen on a shared two-core
machine)."""

JOIN_SHARE = 0.6
"""Share of ``--seconds`` spent joining: half before the serve phase, half after."""

LADDER_SECONDS = 40.0
"""``--seconds`` at which the ladder's step lengths apply as written; they scale with it."""

HELD_OUT_SHARE = 0.4
"""Size of the insert pool, as a share of the collection (a second draw, other seed)."""

SETUP_REPEATS = 3
"""Set-ups per run (preprocessing, server spawn); ``setup_s`` reports the median."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    why: str


WORKLOADS = {
    "uniform": Workload(
        "uniform",
        "UNIFORM005",
        4.0,
        "frequent tokens only: the sketch filter is most of join time, and every "
        "served query scans long posting lists",
    ),
    "aol": Workload(
        "aol",
        "AOL",
        2.5,
        "rare tokens: verify and dedup weigh in, recall is below 1, and served "
        "queries touch short posting lists",
    ),
}

SMOKE_SCALE = 0.05
"""Smoke runs shrink each dataset to this share (a few hundred records)."""

SMOKE_LADDER: Tuple[Tuple[int, float], ...] = ((NOMINAL_RATE, 1.0), (CAPACITY_RATE, 0.5))
