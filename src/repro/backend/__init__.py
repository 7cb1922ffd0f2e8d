"""The execution backend of the verification hot paths.

``make_backend`` binds :class:`~repro.backend.execution.ExecutionBackend` to
a collection; it is the one factory every join (through
:class:`repro.engine.JoinEngine`) and :class:`repro.core.bruteforce.BruteForcer`
call::

    backend = make_backend("numpy", collection, threshold)

``"numpy"`` is the only backend name.  The ``backend=`` arguments of the
public API accept it (or ``None``) and reject anything else.  The scalar
reference kernels the backend is tested against live in ``tests/oracles``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backend.execution import ExecutionBackend
from repro.core.preprocess import PreprocessedCollection
from repro.similarity.measures import Measure

__all__ = ["ExecutionBackend", "check_backend", "make_backend"]


def check_backend(backend: Optional[str]) -> str:
    """Validate a ``backend=`` argument; returns the backend name.

    ``None`` and ``"numpy"`` (any case) are accepted; anything else raises
    :class:`ValueError` naming the one choice.
    """
    if backend is None or str(backend).lower() == ExecutionBackend.name:
        return ExecutionBackend.name
    raise ValueError(f"unknown backend {backend!r}; the only backend is {ExecutionBackend.name!r}")


def make_backend(
    backend: Union[str, ExecutionBackend, None],
    collection: PreprocessedCollection,
    threshold: float,
    measure: Optional[Union[str, Measure]] = None,
) -> ExecutionBackend:
    """Bind the execution backend to a collection (or pass an instance through).

    Parameters
    ----------
    backend:
        ``"numpy"`` or ``None`` for a new backend over ``collection``, or an
        already constructed :class:`ExecutionBackend` (returned as-is).
    collection, threshold:
        The preprocessed collection and similarity threshold the kernels
        bind to.
    measure:
        Similarity measure (name, :class:`~repro.similarity.measures.Measure`
        or ``None`` for Jaccard) the verification kernels score under.
        Ignored when ``backend`` is an already constructed instance.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    check_backend(backend)
    return ExecutionBackend(collection, threshold, measure)
