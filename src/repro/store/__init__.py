"""Flat, process-shareable storage of preprocessing artefacts.

:class:`RecordStore` owns every artefact the join engines read (CSR tokens,
MinHash signatures, 1-bit sketches, sizes, R ⋈ S sides) as flat numpy
arrays, and can place them in a :mod:`multiprocessing.shared_memory` segment
(:meth:`RecordStore.to_shared`) that worker processes attach to zero-copy
(:meth:`RecordStore.attach`).  A store can also grow
(:meth:`RecordStore.append`), which is how
:class:`repro.index.SimilarityIndex` keeps its records; attached stores
stay read-only.  See :mod:`repro.store.record_store`.
"""

from repro.store.record_store import RecordStore, SharedStoreLease, StoreHandle

__all__ = ["RecordStore", "SharedStoreLease", "StoreHandle"]
