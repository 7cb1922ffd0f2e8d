"""Scalar reference implementations the production paths are tested against.

Each production hot path in ``src/repro`` has exactly one implementation; the
straightforward scalar versions they replaced live here, used only as test
oracles:

* :mod:`oracles.backend` — :class:`~oracles.backend.ScalarBackend`, the
  execution backend with per-pair merge verification and the row-walk
  all-pairs filter at every subset size;
* :mod:`oracles.walk` — :func:`~oracles.walk.recursive_tasks`, the
  depth-first Chosen Path recursion the array frontier must reproduce task
  for task;
* :mod:`oracles.minhash` — dict-based MinHash LSH bucketing;
* :mod:`oracles.bayeslsh` — BayesLSH's word-by-word posterior check.

:func:`install` swaps them into every join, so a whole join (counters
included) can be compared against the reference.  Oracle runs use
``executor="serial"``: the patches live in this process only.

The package is imported as ``oracles`` (``tests/`` is on ``sys.path``, see
``tests/conftest.py``); none of its modules is a test module.
"""

from __future__ import annotations

import importlib

from oracles.backend import ScalarBackend, make_scalar_backend
from oracles.bayeslsh import scalar_filter_pairs
from oracles.minhash import dict_bucketize
from oracles.walk import recursive_tasks

from repro.approximate.bayeslsh import BayesianFilterStage
from repro.approximate.minhash_lsh import MinHashLSHJoin

__all__ = ["ScalarBackend", "install", "make_scalar_backend", "recursive_tasks"]


def install(monkeypatch, backend: bool = True) -> None:
    """Route every join through the scalar oracles.

    ``repro.engine.engine.make_backend`` is the one factory every staged
    join calls; ``repro.core.cpsjoin.frontier_tasks`` is the walk
    :meth:`~repro.core.cpsjoin.ChosenPathCandidateStage.tasks` yields from
    after drawing the repetition's root entropy, so the recursive walk runs
    on the same stage object with the same ``root_entropy``.
    ``backend=False`` keeps the production backend, isolating the others.
    """
    # Module objects, not dotted strings: ``repro.core.cpsjoin`` as an
    # attribute path resolves to the ``cpsjoin`` function re-exported by
    # ``repro.core``.
    if backend:
        engine_module = importlib.import_module("repro.engine.engine")
        monkeypatch.setattr(engine_module, "make_backend", make_scalar_backend)
    cpsjoin_module = importlib.import_module("repro.core.cpsjoin")
    monkeypatch.setattr(cpsjoin_module, "frontier_tasks", recursive_tasks)
    monkeypatch.setattr(MinHashLSHJoin, "_bucketize", staticmethod(dict_bucketize))
    monkeypatch.setattr(BayesianFilterStage, "filter_pairs", scalar_filter_pairs)
