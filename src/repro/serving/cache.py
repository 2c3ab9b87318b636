"""LRU result cache keyed by canonicalised query rectangles.

Selectivity workloads are heavily repetitive — the paper's biased
query model (Section 5.2) draws query centers from data centers, so
popular regions are asked about again and again.  Because every
estimator is deterministic, a repeated query can be answered from a
small LRU map without changing a single bit of output, which is what
the cache-on-equals-cache-off differential test asserts.

Keys are *canonicalised* coordinate tuples: ``-0.0`` is folded onto
``0.0`` (the two compare equal as rectangles, so they must hit the
same cache line).  Hit, miss, and eviction counts are exposed both as
attributes and as ``serving.cache.*`` counters in
:data:`repro.obs.OBS`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from ..obs import OBS

__all__ = ["QueryCache", "canonical_key"]

CacheKey = Tuple[float, float, float, float]


def canonical_key(
    x1: float, y1: float, x2: float, y2: float
) -> CacheKey:
    """The cache key of a query rectangle.

    Adding ``0.0`` folds ``-0.0`` onto ``+0.0`` so the two (equal)
    rectangles share one entry; all other finite floats are unchanged.
    """
    return (x1 + 0.0, y1 + 0.0, x2 + 0.0, y2 + 0.0)


class QueryCache:
    """A bounded LRU map from canonical query keys to estimates.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries (must be positive; a
        serving engine that wants no cache simply does not build one).
    """

    __slots__ = (
        "capacity", "_entries", "hits", "misses", "evictions",
        "flushes",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey) -> "float | None":
        """The cached estimate for ``key``, refreshing its recency,
        with hit/miss accounting."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            OBS.add("serving.cache.misses")
        else:
            self._entries.move_to_end(key)
            self.hits += 1
            OBS.add("serving.cache.hits")
        return value

    def put(self, key: CacheKey, value: float) -> None:
        """Insert (or refresh) one entry, evicting the oldest on
        overflow."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            OBS.add("serving.cache.evictions")

    def clear(self) -> None:
        """Drop every entry (the statistics are kept)."""
        self._entries.clear()

    def flush(self) -> None:
        """:meth:`clear` plus invalidation accounting — the serving
        engine calls this when cached answers became *wrong* (source
        epoch moved, fallback chain transitioned), as opposed to a
        caller merely resetting a cache it owns."""
        self.clear()
        self.flushes += 1
        OBS.add("serving.cache.flushes")

    def __repr__(self) -> str:
        return (
            f"QueryCache(capacity={self.capacity}, "
            f"size={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
