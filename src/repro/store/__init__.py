"""``repro.store``: a content-addressed artifact store with tiered sharing.

Every artifact the platform memoizes -- evaluation results, trained-weight
archives -- is addressed by the SHA-256 of its bytes, so equal content is
stored once and a read can always verify what it got.  The package has
three layers:

* :class:`LocalStore` -- one directory of sharded ``objects/ab/cdef...``
  files with atomic writes, hash-verified reads (a corrupt object is
  deleted, never returned), a small named ``refs/`` namespace mapping cache
  fingerprints to content keys, and ref-count-aware LRU eviction under a
  configurable byte budget.
* :class:`RemoteStore` -- the same operations spoken over a
  ``repro-search serve`` daemon's ``/store/*`` endpoints through the one
  HTTP path in :mod:`repro.transport` (deterministic jitter-free
  :class:`~repro.transport.RetryPolicy`).  Transport faults raise
  :class:`StoreUnavailable`.
* :class:`TieredStore` -- local-first reads with read-through population
  from the remote tier and write-through publication to it.  The first
  unreachable remote call flips the tier into *degraded* (local-only) mode
  for the rest of the process: a dead daemon costs one failed round trip
  and a typed ``store-degraded`` event, never a failed run.

:mod:`repro.store.freeze` is the fingerprint side of the story: a recursive
deterministic freezer that hashes arbitrary object graphs (dicts and sets in
canonical order, ndarrays by content, functions by qualified name + closure)
so evaluation contexts with custom datasets or injected callables can join
the cache key without bespoke ``cache_key()`` code.
"""

from repro.store.core import (
    KEY_PATTERN,
    LocalStore,
    StoreCorruptWrite,
    StoreError,
    StoreUnavailable,
    object_key,
)
from repro.store.freeze import (
    FREEZE_EXEMPT_ATTR,
    UnfreezableError,
    fingerprint_payload,
    freeze,
    freeze_fingerprint,
)
from repro.store.remote import RemoteStore
from repro.store.tiered import TieredStore

__all__ = [
    "KEY_PATTERN",
    "LocalStore",
    "RemoteStore",
    "TieredStore",
    "StoreError",
    "StoreCorruptWrite",
    "StoreUnavailable",
    "object_key",
    "freeze",
    "freeze_fingerprint",
    "fingerprint_payload",
    "FREEZE_EXEMPT_ATTR",
    "UnfreezableError",
]
