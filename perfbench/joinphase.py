"""Join phase: preprocess + CPSJOIN over the fixed seed list, checked against the exact pair set."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from common import BenchError, median, peak_rss_mb
from workloads import DATA_SEED, THRESHOLD

Pair = Tuple[int, int]

RECALL_FLOOR = 0.90
"""Per-seed recall the paper's 10 repetitions must reach (Section V-A.5)."""


def _preprocess(records: Sequence[Tuple[int, ...]], seed: int):
    """One set-up: the collection plus every lazily built per-collection artefact.

    ``seed`` fixes the hash functions; like the collection, they are the same
    on every run, so every run does the same join work.

    The artefacts (big-integer sketches, sketch bit matrix, signature rank
    matrix) would otherwise be built inside the first join; building them
    here keeps work moved between set-up and join visible in one of the two.
    """
    from repro.core.preprocess import preprocess_collection

    collection = preprocess_collection(records, embedding_size=128, sketch_words=8, seed=seed)
    collection.sketch_bigints()
    collection.sketch_bit_matrix()
    collection.signature_rank_matrix()
    return collection


def _counters(stats) -> Dict[str, int]:
    """The deterministic work counters of one join: identical on every run of a seed."""
    extra = stats.extra
    return {
        "tree_nodes": int(extra.get("tree_nodes", 0)),
        "tasks": int(extra.get("bruteforce_pairs_calls", 0) + extra.get("bruteforce_point_calls", 0)),
        "pre_candidates": int(stats.pre_candidates),
        "candidates": int(stats.candidates),
        "verified": int(stats.verified),
        "results": int(stats.results),
    }


class JoinPhase:
    """Runs and checks the batch joins of one workload."""

    def __init__(self, records: List[Tuple[int, ...]], seeds: Sequence[int], repeats: int) -> None:
        self.records = records
        self.seeds = tuple(seeds)
        self.repeats = repeats
        self.collection = None
        self.setup_seconds: List[float] = []

    # ------------------------------------------------------------------ set-up
    def set_up(self) -> None:
        from repro.obs import span

        for _ in range(self.repeats):
            self.collection = None  # release the previous copy before building the next
            started = time.perf_counter()
            with span("bench.preprocess", records=len(self.records)):
                self.collection = _preprocess(self.records, DATA_SEED)
            self.setup_seconds.append(time.perf_counter() - started)

    # ------------------------------------------------------------------ joins
    def _join(self, seed: int):
        from repro.core.config import CPSJoinConfig
        from repro.core.cpsjoin import CPSJoin

        # Table III parameters are CPSJoinConfig's defaults; the execution
        # choices are spelled out so a change of defaults cannot move the run.
        config = CPSJoinConfig(seed=seed, backend="numpy", workers=1, executor="serial")
        return CPSJoin(THRESHOLD, config).join_preprocessed(self.collection)

    def run(
        self, budget_seconds: float, spans: Optional[list] = None, outcome: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Join over the seed list until ``budget_seconds`` pass (at least one full pass).

        With ``spans`` (a list the installed tracer appends to), each join's
        span records are cut out per join for the layer split.  With
        ``outcome`` (an earlier call's result), adds more repeats to it: the
        machine's speed drifts over tens of seconds, and repeats spread over
        a run are likelier to include a quiet stretch.
        """
        from repro.obs import span

        if outcome is None:
            self._join(self.seeds[0])  # warm-up: first-call imports and allocator growth
            outcome = {
                "walls": {seed: [] for seed in self.seeds},
                "cpus": {seed: [] for seed in self.seeds},
                "counters": {},
                "pairs": {},
                "layers": [],
                "peak_rss_mb": 0.0,
            }
        walls: Dict[int, List[float]] = outcome["walls"]
        cpus: Dict[int, List[float]] = outcome["cpus"]
        counters: Dict[int, Dict[str, int]] = outcome["counters"]
        pairs: Dict[int, Set[Pair]] = outcome["pairs"]
        layers: List[Dict[str, float]] = outcome["layers"]
        deadline = time.perf_counter() + budget_seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for seed in self.seeds:
                if passes and time.perf_counter() >= deadline:
                    break
                mark = len(spans) if spans is not None else 0
                wall_started = time.perf_counter()
                cpu_started = time.process_time()
                with span("bench.join", seed=seed):
                    result = self._join(seed)
                cpu = time.process_time() - cpu_started
                wall = time.perf_counter() - wall_started
                walls[seed].append(wall)
                cpus[seed].append(cpu)
                observed = _counters(result.stats)
                if seed in counters and counters[seed] != observed:
                    raise BenchError(
                        f"join seed {seed}: work counters changed between repeats "
                        f"({counters[seed]} then {observed}); the join is not deterministic"
                    )
                counters[seed] = observed
                pairs.setdefault(seed, set(result.pairs))
                if spans is not None:
                    layers.append(_layer_split(spans[mark:], result.stats, wall))
            passes += 1
        outcome["joins"] = sum(len(values) for values in walls.values())
        # The first call's peak: preprocessing and joining, not the checks after it.
        outcome["peak_rss_mb"] = outcome["peak_rss_mb"] or peak_rss_mb()
        return outcome

    # ------------------------------------------------------------------ checks
    def exact_pairs(self, cross_check: bool) -> Set[Pair]:
        """The exact pair set from the exact-mode index self-join.

        ``cross_check`` (smoke scale) also runs ALLPAIRS and requires equality.
        """
        from repro import similarity_join
        from repro.index import SimilarityIndex

        truth = SimilarityIndex.build(
            self.records, THRESHOLD, candidates="exact", backend="numpy"
        ).self_join_pairs()
        if cross_check:
            allpairs = similarity_join(self.records, THRESHOLD, algorithm="allpairs").pairs
            if allpairs != truth:
                raise BenchError(
                    f"exact index self-join ({len(truth)} pairs) differs from ALLPAIRS "
                    f"({len(allpairs)} pairs)"
                )
        return truth

    def check(self, outcome: Dict[str, Any], truth: Set[Pair]) -> Dict[int, float]:
        """Every reported pair meets λ under exact Jaccard; recall ≥ 0.90 per seed."""
        records = self.records
        recalls: Dict[int, float] = {}
        for seed, found in outcome["pairs"].items():
            for first, second in found:
                a, b = set(records[first]), set(records[second])
                overlap = len(a & b)
                if overlap < THRESHOLD * (len(a) + len(b) - overlap):
                    raise BenchError(f"join seed {seed}: pair {(first, second)} is below λ")
            if not found <= truth:
                raise BenchError(f"join seed {seed}: {len(found - truth)} pairs missing from the exact set")
            recall = len(found) / len(truth) if truth else 1.0
            if recall < RECALL_FLOOR:
                raise BenchError(f"join seed {seed}: recall {recall:.4f} below {RECALL_FLOOR}")
            recalls[seed] = recall
        return recalls


def _layer_split(spans: List[Dict[str, Any]], stats, wall: float) -> Dict[str, float]:
    """One join's layer split, from the spans the program emitted under it."""
    filter_seconds = sum(r["duration_seconds"] for r in spans if r["name"] == "engine.filter")
    verify_seconds = sum(r["duration_seconds"] for r in spans if r["name"] == "engine.verify")
    filter_tasks = sum(r.get("extra", {}).get("tasks", 0) for r in spans if r["name"] == "engine.filter")
    candidate_seconds = float(stats.candidate_seconds)
    return {
        "wall": wall,
        "candidate": candidate_seconds,
        "filter": filter_seconds,
        "verify": verify_seconds,
        "filter_tasks": float(filter_tasks),
        "other": wall - candidate_seconds - filter_seconds - verify_seconds,
    }


def join_metrics(phase: JoinPhase, outcome: Dict[str, Any], recalls: Dict[int, float]) -> Dict[str, Any]:
    """End-to-end join metrics: the median over seeds of each seed's fastest repeat.

    The fastest repeat drops the slowdowns other processes on the machine
    add; the seed's work itself is identical on every repeat.
    """
    per_seed_wall = [min(values) for values in outcome["walls"].values()]
    per_seed_cpu = [min(values) for values in outcome["cpus"].values()]
    return {
        "setup": median(phase.setup_seconds),
        "join_s": median(per_seed_wall),
        "join_cpu_s": median(per_seed_cpu),
        "recall": sum(recalls.values()) / len(recalls),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def join_layers(phase: JoinPhase, untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer join metrics of a traced run (see BENCHMARK.json ``per_layer``)."""
    layers = traced["layers"]
    totals = {key: sum(c[key] for c in traced["counters"].values()) for key in next(iter(traced["counters"].values()))}
    if traced["counters"] != untraced["counters"]:
        raise BenchError("work counters differ with tracing on and off")
    preprocess = median(phase.setup_seconds)
    traced_join = median([min(v) for v in traced["walls"].values()])
    untraced_join = median([min(v) for v in untraced["walls"].values()])
    filter_seconds = median([layer["filter"] for layer in layers])
    return {
        "preprocess.s": preprocess,
        "preprocess.records_per_s": len(phase.records) / preprocess,
        "candidate.s": median([layer["candidate"] for layer in layers]),
        "candidate.tree_nodes": totals["tree_nodes"],
        "candidate.tasks": totals["tasks"],
        "filter.s": filter_seconds,
        "filter.share": median([layer["filter"] / layer["wall"] for layer in layers]),
        "filter.pre_candidates": totals["pre_candidates"],
        "filter.us_per_task": 1e6 * median([layer["filter"] / max(1.0, layer["filter_tasks"]) for layer in layers]),
        "filter.pass_ratio": totals["candidates"] / max(1, totals["pre_candidates"]),
        "verify.s": median([layer["verify"] for layer in layers]),
        "verify.candidates": totals["verified"],
        "verify.results": totals["results"],
        "verify.yield": totals["results"] / max(1, totals["verified"]),
        "engine.other_s": median([layer["other"] for layer in layers]),
        "obs.trace_overhead": traced_join / untraced_join - 1.0,
    }
