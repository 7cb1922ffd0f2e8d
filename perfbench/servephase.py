"""Serve phase: a ``repro-join serve`` process under an open loop of seeded Poisson arrivals.

One generator thread multiplexes two connections.  Each request is timed
from the moment it was due, so a stall also charges the requests queued
behind it; how late the generator itself sent is recorded as lag.  Between
ladder steps the generator waits for every answer and scrapes ``stats`` and
``metrics`` over a separate control connection.
"""

from __future__ import annotations

import gc
import json
import math
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import ROOT, BenchError, content_hash, median, percentile
from workloads import (
    CAPACITY_INFLIGHT,
    GENERATOR_LAG_LIMIT_MS,
    INSERT_SHARE,
    NOMINAL_RATE,
    SETUP_REPEATS,
    THRESHOLD,
)

Record = Tuple[int, ...]

CONNECTIONS = 2
DRAIN_SECONDS = 10.0
"""How long a step waits for its last answers before counting them unanswered."""

SPAWN_TIMEOUT = 120.0


@dataclass
class Step:
    rate: int
    duration: float
    due: List[float]
    inserts: List[bool]
    targets: List[int]
    capacity: bool


def build_schedule(seed: int, base_count: int, ladder: Sequence[Tuple[int, float]], scale: float) -> List[Step]:
    """The op schedule: per step, arrival times, op kinds and query targets.

    Arrivals are a Poisson process conditioned on its count (sorted uniform
    times), and exactly one request in ten is an insert, so every seed puts
    the same number of inserts in each step and snapshots land in the same
    step on every run.  The last step is the capacity step: queries only, as
    inserts there would wait on the disk (fsync, snapshots) and hold slots
    of the closed loop.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x5E12])
    steps = []
    for index, (rate, seconds) in enumerate(ladder):
        capacity = index == len(ladder) - 1
        duration = seconds * scale
        count = max(1, round(rate * duration))
        due = np.sort(rng.uniform(0.0, duration, count))
        inserts = np.zeros(count, dtype=bool)
        if not capacity:
            inserts[rng.choice(count, size=round(INSERT_SHARE * count), replace=False)] = True
        targets = rng.integers(0, base_count, count)
        steps.append(Step(rate, duration, due.tolist(), inserts.tolist(), targets.tolist(), capacity))
    return steps


def schedule_hash(steps: Sequence[Step]) -> str:
    return content_hash([[s.rate, s.duration, s.due, s.inserts, s.targets] for s in steps])


def insert_count(steps: Sequence[Step]) -> int:
    return sum(sum(step.inserts) for step in steps)


class Request:
    __slots__ = ("id", "kind", "payload", "step", "due", "sent", "received", "status", "result")

    def __init__(self, request_id: int, kind: str, payload: int, step: int, due: float) -> None:
        self.id = request_id
        self.kind = kind
        self.payload = payload  # base index (query) or held-out index (insert)
        self.step = step
        self.due = due
        self.sent = 0.0
        self.received = 0.0
        self.status = "unanswered"
        self.result: Any = None

    def latency_ms(self) -> float:
        return 1000.0 * (self.received - self.due) if self.status == "ok" else math.inf

    def as_span(self) -> Dict[str, Any]:
        """The benchmark's own span for this request (written out at the end of a run)."""
        return {
            "name": f"bench.{self.kind}",
            "id": self.id,
            "step": self.step,
            "due": self.due,
            "lag_seconds": self.sent - self.due,
            "duration_seconds": self.received - self.due if self.received else None,
            "status": self.status,
        }


class ServerProcess:
    """One ``repro-join serve`` child process and its control connection."""

    def __init__(self, run_dir: Path, tag: str, base_file: Path, trace_file: Optional[Path]) -> None:
        from repro.service import ServiceClient

        data_dir = run_dir / f"data-{tag}"
        port_file = run_dir / f"port-{tag}"
        command = [
            sys.executable, "-m", "repro.cli", "serve", str(base_file),
            "--threshold", str(THRESHOLD), "--candidates", "exact", "--backend", "numpy",
            "--data-dir", str(data_dir), "--port-file", str(port_file),
        ]
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.log_path = run_dir / f"server-{tag}.log"
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            self.address = self._await_port(port_file)
            self.control = ServiceClient.connect(*self.address, timeout=60.0, retry_for=10.0)
            self.records = int(self.control.health()["records"])
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _await_port(self, port_file: Path) -> Tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"server exited with {self.process.returncode}; see {self.log_path}")
            if port_file.is_file():
                text = port_file.read_text(encoding="utf-8")
                if text.endswith("\n"):
                    host, port = text.split()
                    return host, int(port)
            time.sleep(0.002)
        raise BenchError(f"server did not write its port file within {SPAWN_TIMEOUT:.0f} s")

    def peak_rss_mb(self) -> float:
        """The server's own peak RSS (``VmHWM``), read from outside the process.

        Not the ``stats`` op's ``rss_bytes``: that is ``ru_maxrss``, which
        Linux carries over from the forking parent across ``exec``.
        """
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM line for the server process")

    def scrape(self) -> Dict[str, Any]:
        return {"stats": self.control.stats(), "metrics": self.control.metrics()["values"], "unix": time.time()}

    def stop(self) -> None:
        """Clean shutdown (SIGTERM: final snapshot), then wait for the process."""
        self.control.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.kill()
        if self.process.returncode not in (0, None):
            raise BenchError(f"server exited with {self.process.returncode}; see {self.log_path}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class LoadGenerator:
    """Sends the schedule on its due times over two connections; one thread."""

    def __init__(self, address: Tuple[str, int], base: Sequence[Record], pool: Sequence[Record]) -> None:
        self.base = base
        self.pool = pool
        self.selector = selectors.DefaultSelector()
        self.sockets = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address, timeout=60.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(sock, selectors.EVENT_READ, data=[sock, b""])
            self.sockets.append(sock)
        self.requests: Dict[int, Request] = {}
        self.pending: Dict[int, Request] = {}
        self.next_insert = 0

    def close(self) -> None:
        self.selector.close()
        for sock in self.sockets:
            sock.close()

    def _send(self, step_index: int, step: Step, position: int, due: float) -> None:
        request_id = len(self.requests)
        if step.inserts[position]:
            payload = self.next_insert
            self.next_insert += 1
            kind, record = "insert", self.pool[payload]
        else:
            payload = step.targets[position]
            kind, record = "query", self.base[payload]
        request = Request(request_id, kind, payload, step_index, due)
        line = json.dumps({"id": request_id, "op": kind, "record": list(record)}, separators=(",", ":"))
        request.sent = time.perf_counter()
        self.sockets[request_id % CONNECTIONS].sendall(line.encode("utf-8") + b"\n")
        self.requests[request_id] = request
        self.pending[request_id] = request

    def _receive(self, state: list) -> None:
        sock = state[0]
        data = sock.recv(1 << 20)
        if not data:
            raise BenchError("the server closed a load connection")
        received = time.perf_counter()
        *lines, state[1] = (state[1] + data).split(b"\n")
        for line in lines:
            message = json.loads(line)
            request = self.pending.pop(message.get("id"), None)
            if request is None:
                continue
            request.received = received
            if message.get("ok"):
                request.status, request.result = "ok", message["result"]
            else:
                request.status = "busy" if message.get("busy") else "error"
                request.result = message.get("error")

    def _pump(self, timeout: float) -> None:
        for key, _ in self.selector.select(max(0.0, timeout)):
            self._receive(key.data)

    def run_step(self, step_index: int, step: Step, inflight: int = 0) -> List[Request]:
        """Send one step and wait for its answers.

        Open loop: each request on its due time.  With ``inflight``, a closed
        loop instead: that many requests outstanding for the step's duration,
        each due when sent.
        """
        first = len(self.requests)
        # No collector pauses while sending: they would show up as generator lag.
        gc.disable()
        try:
            if inflight:
                self._closed_loop(step_index, step, inflight)
            else:
                self._open_loop(step_index, step)
            self.drain(DRAIN_SECONDS)
        finally:
            gc.enable()
        return [self.requests[i] for i in range(first, len(self.requests))]

    def _open_loop(self, step_index: int, step: Step) -> None:
        origin = time.perf_counter() + 0.002
        position = 0
        count = len(step.due)
        while position < count:
            now = time.perf_counter()
            while position < count and origin + step.due[position] <= now:
                self._send(step_index, step, position, origin + step.due[position])
                position += 1
            if position < count:
                self._pump(origin + step.due[position] - time.perf_counter())

    def _closed_loop(self, step_index: int, step: Step, inflight: int) -> None:
        deadline = time.perf_counter() + step.duration
        position = 0
        count = len(step.due)
        while position < count and time.perf_counter() < deadline:
            while len(self.pending) < inflight and position < count:
                self._send(step_index, step, position, time.perf_counter())
                position += 1
            self._pump(deadline - time.perf_counter())

    def drain(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.pending and time.perf_counter() < deadline:
            self._pump(deadline - time.perf_counter())


def evaluate_step(step: Step, requests: Sequence[Request]) -> Dict[str, Any]:
    """Latencies and answered rate at one offered rate.

    Every latency is timed from the due time, and a failed or shed request
    counts as an infinite one.
    """
    queries = [r for r in requests if r.kind == "query"]
    inserts = [r for r in requests if r.kind == "insert"]
    latencies = [r.latency_ms() for r in queries]
    insert_latencies = [r.latency_ms() for r in inserts]
    answered = [r for r in requests if r.status == "ok"]
    span = max((r.received for r in answered), default=0.0) - min((r.due for r in requests), default=0.0)
    return {
        "rate": step.rate,
        "duration_s": step.duration,
        "answered_per_s": len(answered) / span if span > 0 else 0.0,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if r.status != "ok"),
        "busy": sum(1 for r in requests if r.status == "busy"),
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p99_ms": percentile(latencies, 0.99),
        "insert_p50_ms": percentile(insert_latencies, 0.50),
        "insert_p95_ms": percentile(insert_latencies, 0.95),
        "queries": len(queries),
        "inserts": len(inserts),
        "lag_ms_max": max((1000.0 * (r.sent - r.due) for r in requests), default=0.0),
    }


def check_answers(
    base: Sequence[Record], pool: Sequence[Record], requests: Sequence[Request], health_records: int
) -> Dict[str, int]:
    """Every served answer lies between the offline answers over base-only and final data.

    The final collection is the base plus every acknowledged insert in id
    order; a served answer must contain every base-only match and only
    final-collection matches, with identical similarities.
    """
    from repro.index import SimilarityIndex

    acked = sorted((int(r.result["record_id"]), r.payload) for r in requests if r.kind == "insert" and r.status == "ok")
    expected_ids = list(range(len(base), len(base) + len(acked)))
    if [record_id for record_id, _ in acked] != expected_ids:
        raise BenchError("acknowledged insert ids are not consecutive after the base collection")
    if health_records != len(base) + len(acked):
        raise BenchError(
            f"server holds {health_records} records, expected {len(base)} base + {len(acked)} inserted"
        )
    answered = [r for r in requests if r.kind == "query" and r.status == "ok"]
    targets = sorted({r.payload for r in answered})
    index = SimilarityIndex.build(list(base), THRESHOLD, candidates="exact", backend="numpy")
    before = dict(zip(targets, index.query_batch([base[t] for t in targets])))
    for _, payload in acked:
        index.insert(pool[payload])
    after = dict(zip(targets, index.query_batch([base[t] for t in targets])))
    for request in answered:
        served = {int(record_id): float(similarity) for record_id, similarity in request.result["matches"]}
        final = dict(after[request.payload])
        for record_id, similarity in before[request.payload]:
            if served.get(record_id) != similarity:
                raise BenchError(f"query {request.id}: base match {record_id} missing or rescored")
        for record_id, similarity in served.items():
            if final.get(record_id) != similarity:
                raise BenchError(f"query {request.id}: match {record_id} not in the final answer")
    return {"checked_queries": len(answered), "acked_inserts": len(acked)}


def _histogram_delta(before: Dict[str, Any], after: Dict[str, Any], family: str, **labels: str):
    """The part of a server histogram recorded between two scrapes."""
    from repro.obs import Histogram

    def series(values: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        for entry in values.get(family, {}).get("series", ()):
            if all(entry.get("labels", {}).get(key) == value for key, value in labels.items()):
                return entry
        return None

    late, early = series(after), series(before)
    if late is None:
        return None
    counts = list(late["counts"])
    total = float(late["sum"])
    if early is not None:
        counts = [a - b for a, b in zip(counts, early["counts"])]
        total -= float(early["sum"])
    histogram = Histogram(family, boundaries=tuple(late["boundaries"]))
    histogram.merge_counts(counts, total)
    return histogram


def serve_layers(
    nominal: Dict[str, Any],
    before: Dict[str, Any],
    after: Dict[str, Any],
    trace_file: Path,
) -> Dict[str, float]:
    """Per-layer serve metrics for the nominal step (traced run only)."""
    window = (before["unix"], after["unix"])
    spans = []
    with open(trace_file, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if window[0] <= record["start_unix"] <= window[1]:
                spans.append(record)
    roots = {r["span"]: r.get("extra", {}).get("op") for r in spans if r["name"] == "request"}

    def durations_ms(name: str, op: Optional[str] = None) -> List[float]:
        return [
            1000.0 * r["duration_seconds"]
            for r in spans
            if r["name"] == name and (op is None or roots.get(r.get("parent")) == op)
        ]

    request_hist = _histogram_delta(before["metrics"], after["metrics"], "repro_service_request_seconds", op="query")
    server_p50 = 1000.0 * request_hist.quantile(0.50) if request_hist else 0.0
    session_before, session_after = before["stats"]["session"], after["stats"]["session"]
    delta = {key: session_after.get(key, 0) - session_before.get(key, 0) for key in session_after if isinstance(session_after.get(key), (int, float))}
    queries = max(1.0, delta.get("queries", 0.0))
    coalescer_before = before["stats"]["server"]["coalescer"]
    coalescer_after = after["stats"]["server"]["coalescer"]
    batches = coalescer_after["batches"] - coalescer_before["batches"]
    index_seconds = sum(r["duration_seconds"] for r in spans if r["name"].startswith("index."))
    query_batch_seconds = sum(r["duration_seconds"] for r in spans if r["name"] == "index.query_batch")
    server_before, server_after = before["stats"]["server"], after["stats"]["server"]
    return {
        "client.query_p99_ms": nominal["query_p99_ms"],
        "client.insert_p95_ms": nominal["insert_p95_ms"],
        "service.request_ms.p50": server_p50,
        "service.request_ms.p99": 1000.0 * request_hist.quantile(0.99) if request_hist else 0.0,
        "service.client_overhead_ms": nominal["query_p50_ms"] - server_p50,
        "service.admission_wait_ms.p99": percentile(durations_ms("admission.wait", "query"), 0.99),
        "service.coalesce_wait_ms.p50": percentile(durations_ms("coalesce.wait", "query"), 0.50),
        "service.coalesce_wait_ms.p99": percentile(durations_ms("coalesce.wait", "query"), 0.99),
        "service.coalesce_batch_mean": (coalescer_after["queries"] - coalescer_before["queries"]) / max(1, batches),
        "service.write_ms.p99": percentile(durations_ms("write", "query") + durations_ms("write", "insert"), 0.99),
        "service.writer_wait_ms.p50": percentile(durations_ms("writer.wait", "insert"), 0.50),
        "service.writer_wait_ms.p95": percentile(durations_ms("writer.wait", "insert"), 0.95),
        "service.shed": float(server_after["shed_total"] - server_before["shed_total"]),
        # A running peak: up to the end of the nominal step, the steps after it excluded.
        "service.queue_peak": float(server_after["queue_peak"]),
        "wal.snapshots": float(server_after["snapshots"] - server_before["snapshots"]),
        "index.query_us": 1e6 * query_batch_seconds / queries,
        "index.pre_candidates_per_query": delta.get("pre_candidates", 0.0) / queries,
        "index.candidate_us": 1e6 * delta.get("candidate_seconds", 0.0) / queries,
        "index.verify_us": 1e6 * delta.get("verify_seconds", 0.0) / queries,
        "index.insert_us": 1000.0 * median(durations_ms("index.insert")),
        "index.engine_busy_ratio": index_seconds / max(1e-9, window[1] - window[0]),
        "gen.lag_ms.max": nominal["lag_ms_max"],
    }


class ServePhase:
    """Spawns the server, drives the ladder, checks every answer."""

    def __init__(
        self, run_dir: Path, base: Sequence[Record], held_out: Sequence[Record], seed: int, ladder, scale: float
    ) -> None:
        self.run_dir = run_dir
        self.base = list(base)
        self.steps = build_schedule(seed, len(self.base), ladder, scale)
        if insert_count(self.steps) > len(held_out):
            raise BenchError(f"{len(held_out)} held-out records cannot feed {insert_count(self.steps)} inserts")
        self.pool = list(held_out)

    def _write_base(self) -> Path:
        path = self.run_dir / "base.txt"
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.base:
                handle.write(" ".join(map(str, record)) + "\n")
        return path

    def run(self, trace: bool) -> Dict[str, Any]:
        base_file = self._write_base()
        setups = []
        for tag in range(SETUP_REPEATS - 1):
            server = ServerProcess(self.run_dir, f"setup{tag}", base_file, None)
            setups.append(server.setup_seconds)
            server.control.close()
            server.kill()
        trace_file = self.run_dir / "server-spans.jsonl" if trace else None
        server = ServerProcess(self.run_dir, "main", base_file, trace_file)
        setups.append(server.setup_seconds)
        if server.records != len(self.base):
            server.kill()
            raise BenchError(f"server indexed {server.records} records, expected {len(self.base)}")
        generator = None
        try:
            generator = LoadGenerator(server.address, self.base, self.pool)
            scrapes = [server.scrape()]
            steps = []
            for index, step in enumerate(self.steps):
                inflight = CAPACITY_INFLIGHT if step.capacity else 0
                outcome = evaluate_step(step, generator.run_step(index, step, inflight))
                scrapes.append(server.scrape())
                steps.append(outcome)
            generator.drain(DRAIN_SECONDS)
            health = server.control.health()
            server_rss_mb = server.peak_rss_mb()
        finally:
            if generator is not None:
                generator.close()
            try:
                server.stop()
            finally:
                server.kill()
        requests = list(generator.requests.values())
        checks = check_answers(self.base, self.pool, requests, int(health["records"]))
        nominal_index = next(i for i, s in enumerate(steps) if s["rate"] == NOMINAL_RATE)
        nominal = steps[nominal_index]
        if nominal["lag_ms_max"] > GENERATOR_LAG_LIMIT_MS:
            raise BenchError(
                f"serve run invalid: the generator sent a nominal-step request "
                f"{nominal['lag_ms_max']:.1f} ms late (limit {GENERATOR_LAG_LIMIT_MS:g} ms)"
            )
        result = {
            "setup": median(setups),
            "setup_samples": setups,
            "steps": steps,
            "nominal": nominal,
            "capacity_qps": steps[-1]["answered_per_s"],
            "server_rss_mb": server_rss_mb,
            "checks": checks,
            "requests": requests,
        }
        if trace:
            result["layers"] = serve_layers(
                nominal, scrapes[nominal_index], scrapes[nominal_index + 1], trace_file
            )
        return result
