"""Shared helpers: run directory, statistics, input pins, environment record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence

ROOT = Path.cwd()
"""The checkout the benchmark runs in (the command is run from its root)."""

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
RUN_ROOT = ROOT / ".perfbench"
"""Scratch space for server data dirs, port files, span files and results."""


class BenchError(RuntimeError):
    """A check failed or the program misbehaved: the run has no valid result."""


def require_program() -> None:
    """Put the checkout's ``src/`` on the path, or stop: there is nothing to measure."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchError(
            f"no program source at {package.relative_to(ROOT)}; run the benchmark "
            "from the root of a repository checkout"
        )
    sys.path.insert(0, str(ROOT / "src"))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile (the same rule as ``repro.obs.percentile``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[rank])


def content_hash(payload: Any) -> str:
    """sha256 of a canonical JSON encoding (tuples and lists hash alike)."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def load_pins() -> Dict[str, Any]:
    if PINS_PATH.is_file():
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))
    return {}


def check_pins(key: str, hashes: Dict[str, str]) -> None:
    """Every input hash of ``key`` must equal its pinned value.

    A missing pin is an error as well as a different one: a changed
    generator must not silently move a workload.
    """
    pinned = load_pins().get(key, {})
    for name, digest in hashes.items():
        if pinned.get(name) != digest:
            raise BenchError(
                f"input {name} of {key} hashes to {digest[:16]}, pinned {str(pinned.get(name))[:16]}: "
                "the workload generator changed; re-pin (run.py --pin) only on purpose"
            )


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git_dir = ROOT / ".git"
    head_path = git_dir / "HEAD"
    if not head_path.is_file():
        return "unknown"
    head = head_path.read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = git_dir / ref
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return "unknown"


def _blas_threads() -> Any:
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if os.environ.get(name):
                return f"{name}={os.environ[name]}"
        return "library default"
    return {
        entry.get("internal_api", "?"): entry.get("num_threads") for entry in threadpool_info()
    }


def environment() -> Dict[str, Any]:
    """What a result depends on besides the code: recorded with every run."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "platform": platform.platform(),
        "wal_flush": "fsync per append (the server's default)",
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux ru_maxrss is KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
