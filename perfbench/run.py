"""The repository's benchmark: CPSJOIN batch joins plus a served read/write mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 40 --trace 0

Each workload joins its collection through ``preprocess_collection`` +
``CPSJoin.join_preprocessed``, then serves it from a ``repro-join serve``
process under an open-loop read/write mix drawn from ``--seed`` (see
``workloads.py``).  Every output is checked: join pairs against the exact
pair set, served answers against offline ``query_batch``.  The inputs are
hashed and must equal ``pins.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs an
in-memory span sink, starts the server with ``--trace-file`` and prints the
per-layer metrics instead.  ``--smoke`` shrinks everything to a few seconds
(the benchmark's own check, see ``smoke.py``).  The last line of standard
output is always the result object; details go to standard error and to
``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from typing import Any, Dict

from common import RUN_ROOT, BenchError, check_pins, content_hash, environment, load_pins, require_program

END_TO_END_UNITS = {
    "setup_s": "s",
    "join_s": "s",
    "join_cpu_s": "s",
    "recall": "ratio",
    "query_p50_ms": "ms",
    "insert_p50_ms": "ms",
    "capacity_qps": "1/s",
    "peak_rss_mb": "MiB",
    "server_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "preprocess.s": "s",
    "preprocess.records_per_s": "1/s",
    "candidate.s": "s",
    "candidate.tree_nodes": "count",
    "candidate.tasks": "count",
    "filter.s": "s",
    "filter.share": "ratio",
    "filter.pre_candidates": "count",
    "filter.us_per_task": "us",
    "filter.pass_ratio": "ratio",
    "verify.s": "s",
    "verify.candidates": "count",
    "verify.results": "count",
    "verify.yield": "ratio",
    "engine.other_s": "s",
    "service.spawn_s": "s",
    "client.query_p99_ms": "ms",
    "client.insert_p95_ms": "ms",
    "service.request_ms.p50": "ms",
    "service.request_ms.p99": "ms",
    "service.client_overhead_ms": "ms",
    "service.admission_wait_ms.p99": "ms",
    "service.coalesce_wait_ms.p50": "ms",
    "service.coalesce_wait_ms.p99": "ms",
    "service.coalesce_batch_mean": "count",
    "service.write_ms.p99": "ms",
    "service.writer_wait_ms.p50": "ms",
    "service.writer_wait_ms.p95": "ms",
    "service.shed": "count",
    "service.queue_peak": "count",
    "wal.snapshots": "count",
    "index.query_us": "us",
    "index.pre_candidates_per_query": "count",
    "index.candidate_us": "us",
    "index.verify_us": "us",
    "index.insert_us": "us",
    "index.engine_busy_ratio": "ratio",
    "obs.trace_overhead": "ratio",
    "gen.lag_ms.max": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one short rate step")
    parser.add_argument(
        "--pin", action="store_true",
        help="record the input hashes of --workload (and --smoke) in pins.json instead of running",
    )
    return parser.parse_args(argv)


def _generate(workload, scale_share: float, seed: int, smoke: bool):
    from repro.datasets.profiles import generate_profile_dataset
    from workloads import SMOKE_SCALE

    scale = workload.scale * scale_share * (SMOKE_SCALE if smoke else 1.0)
    return [tuple(r) for r in generate_profile_dataset(workload.dataset, scale=scale, seed=seed).records]


def generate(workload, seed: int, smoke: bool):
    """The collection (``DATA_SEED``), and the insert pool drawn from ``seed``.

    The pool is a held-out sample of the same distribution; the server
    indexes exactly the collection the joins run on.
    """
    from workloads import DATA_SEED, HELD_OUT_SHARE

    records = _generate(workload, 1.0, DATA_SEED, smoke)
    held_out = _generate(workload, HELD_OUT_SHARE, seed + 1_000_003, smoke)
    return records, held_out


def input_hashes(workload, smoke: bool, seed: int, records, held_out, ladder) -> Dict[str, str]:
    """Hashes of the collection, and of the insert pool and op schedule of ``PIN_SEED``.

    Every run checks them, whatever its own seed: they cover all the code
    that turns a seed into inputs.
    """
    from servephase import build_schedule, schedule_hash
    from workloads import HELD_OUT_SHARE, PIN_SEED

    if seed != PIN_SEED:
        held_out = _generate(workload, HELD_OUT_SHARE, PIN_SEED + 1_000_003, smoke)
    return {
        "records": content_hash(records),
        "held_out": content_hash(held_out),
        "schedule": schedule_hash(build_schedule(PIN_SEED, len(records), ladder, 1.0)),
    }


def run(args: argparse.Namespace, run_dir) -> Dict[str, Any]:
    import workloads
    from joinphase import JoinPhase, join_layers, join_metrics
    from servephase import ServePhase

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    ladder = workloads.SMOKE_LADDER if args.smoke else workloads.LADDER
    join_seconds = args.seconds * workloads.JOIN_SHARE

    records, held_out = generate(workload, args.seed, args.smoke)
    key = f"{workload.name}{'-smoke' if args.smoke else ''}"
    inputs = input_hashes(workload, args.smoke, args.seed, records, held_out, ladder)
    if args.pin:
        from common import PINS_PATH

        pins = load_pins()
        pins[key] = inputs
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return {"pinned": key}
    check_pins(key, inputs)
    serve = ServePhase(run_dir, records, held_out, args.seed, ladder, args.seconds / workloads.LADDER_SECONDS)

    from repro.obs import disable_tracing, enable_tracing

    joins = JoinPhase(records, workloads.ALGORITHM_SEEDS, workloads.SETUP_REPEATS)
    spans = []
    joins.set_up()
    if args.trace:
        outcome = joins.run(0.0)
        enable_tracing(spans.append)
        try:
            traced = joins.run(0.0, spans=spans)
        finally:
            disable_tracing()
    else:
        outcome = joins.run(join_seconds / 2)
    truth = joins.exact_pairs(cross_check=args.smoke)

    served = serve.run(trace=bool(args.trace))
    if not args.trace:
        outcome = joins.run(join_seconds / 2, outcome=outcome)
    recalls = joins.check(outcome, truth)
    if args.trace:
        joins.check(traced, truth)
    joined = join_metrics(joins, outcome, recalls)
    nominal = served["nominal"]
    metrics = {
        "setup_s": joined["setup"] + served["setup"],
        "join_s": joined["join_s"],
        "join_cpu_s": joined["join_cpu_s"],
        "recall": joined["recall"],
        "query_p50_ms": nominal["query_p50_ms"],
        "insert_p50_ms": nominal["insert_p50_ms"],
        "capacity_qps": served["capacity_qps"],
        "peak_rss_mb": joined["peak_rss_mb"],
        "server_rss_mb": served["server_rss_mb"],
    }
    attempted = outcome["joins"] + sum(s["attempted"] for s in served["steps"])
    failed = sum(s["failed"] for s in served["steps"])
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": inputs,
        "generator_lag_limit_ms": workloads.GENERATOR_LAG_LIMIT_MS,
        "join_samples": outcome["joins"],
        "join_walls": {str(seed): values for seed, values in outcome["walls"].items()},
        "counters": {str(seed): values for seed, values in outcome["counters"].items()},
        "recalls": {str(seed): value for seed, value in recalls.items()},
        "setup_samples": {"preprocess": joins.setup_seconds, "spawn": served["setup_samples"]},
        "ladder": served["steps"],
        "checks": served["checks"],
        "end_to_end": metrics,
    }
    if args.trace:
        layers = join_layers(joins, outcome, traced)
        layers.update(served["layers"])
        layers["service.spawn_s"] = served["setup"]
        detail["per_layer"] = layers
        RUN_ROOT.mkdir(exist_ok=True)
        spans_path = RUN_ROOT / f"spans-{workload.name}-{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for request in served["requests"]:
                handle.write(json.dumps(request.as_span(), sort_keys=True) + "\n")
        reported = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    return {"detail": detail, "result": {"correct": True, "attempted": attempted, "failed": failed, "metrics": reported}}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    RUN_ROOT.mkdir(exist_ok=True)
    run_dir = RUN_ROOT / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir()
    try:
        outcome = run(args, run_dir)
    except BenchError as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if "pinned" in outcome:
        print(f"perfbench: pinned {outcome['pinned']}", file=sys.stderr)
        return 0
    with open(RUN_ROOT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(outcome["detail"], sort_keys=True, default=str) + "\n")
    summary = {k: v for k, v in outcome["detail"].items() if k not in ("ladder", "counters", "join_walls")}
    print(json.dumps(summary, sort_keys=True, default=str), file=sys.stderr)
    for step in outcome["detail"]["ladder"]:
        print(
            "perfbench: step {rate:>5} q/s  p50 {query_p50_ms:7.2f} ms  p99 {query_p99_ms:8.2f} ms  "
            "failed {failed:>5}  answered {answered_per_s:7.1f}/s  lag {lag_ms_max:6.1f} ms".format(**step),
            file=sys.stderr,
        )
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
