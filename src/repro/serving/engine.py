"""The batch serving engine: scalar: cache → kernel → chain; batch:
kernel → chain.

:class:`BatchServingEngine` wraps any
:class:`~repro.estimators.SelectivityEstimator` behind the same
interface and serves it through one path per entry point, neither of
which is allowed to change a single answer:

* **scalar** (:meth:`~BatchServingEngine.estimate`) — an LRU **cache**
  keyed by the canonical query rectangle answers repeats; a miss runs
  the inner estimator, whose vectorised kernel evaluates the query as
  a batch of one, and because every estimator is deterministic the
  cached answer is bit-identical to a fresh one;
* **batch** (:meth:`~BatchServingEngine.estimate_batch`) — the inner
  estimator's own ``estimate_batch`` runs the same kernel over the
  whole batch.  The batch path neither reads nor fills the cache: its
  callers (the front door and the router) send distinct queries, so a
  per-row lookup would cost more than the kernel it saves.

When the inner estimator is a guarded fallback chain, faults degrade
along the chain on both paths exactly as they do without the engine.

The cache holds *derived* state, and derived state can go stale two
ways, each handled by the engine's **revalidation** step that runs
before every serve:

* **data staleness** — a live summary
  (:class:`~repro.estimators.MaintainedEstimator`) moved its epoch
  under maintenance.  The engine remembers the epoch it last observed
  for every reachable bucket estimator; on movement it flushes the
  cache and forces the estimator's kernel snapshot to re-sync.
  Counted as ``serving.epoch.stale`` and ``serving.cache.flushes``.
* **chain staleness** — a guarded chain degraded to a fallback link or
  recovered from one since the previous serve.  Cached answers from
  the old link would silently mix qualities, so the cache is flushed
  on every serving-link transition (``serving.epoch.transitions``);
  additionally, answers produced while the chain is degraded are
  *never* cached, so a recovered chain re-computes popular queries at
  full quality instead of replaying Uniform-quality numbers.

A scalar miss pins the epoch-read point before its lookup and stores
its answer only if no epoch moved before the estimate returned, so a
store can never race the flush that a mid-serve mutation triggers.

The engine reports under the ``serving.*`` metric namespace
(``serving.requests``, ``serving.queries``, the ``serving.batch``
timer, the cache's ``serving.cache.*`` counters, and the
``serving.epoch.*`` revalidation counters); the wrapped estimator
keeps its own ``estimator.*`` accounting for the queries that actually
reach it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from ..estimators import BucketEstimator, SelectivityEstimator
from ..geometry import Rect, RectSet, validate_coords_array, validate_extent
from ..obs import OBS
from ..resilience import GuardedEstimator
from ..tuning import FeedbackCollector
from .cache import QueryCache, canonical_key

__all__ = ["BatchServingEngine"]

#: Default cache capacity: comfortably larger than the paper's
#: 10 000-query workloads' working set of *distinct* rectangles under
#: the biased query model.
DEFAULT_CACHE_SIZE = 4096


def _bucket_estimators(
    estimator: SelectivityEstimator,
) -> List[BucketEstimator]:
    """Every :class:`BucketEstimator` reachable inside ``estimator``.

    Looks through a guarded fallback chain's already-built links;
    unbuilt links are left lazy (watching them would force — and pay
    for — their construction up front).  The engine re-runs this
    discovery on every serve, so a link built lazily mid-degradation
    has its epoch watched from the next call on.
    """
    if isinstance(estimator, BucketEstimator):
        return [estimator]
    found: List[BucketEstimator] = []
    if isinstance(estimator, GuardedEstimator):
        for link in estimator.links:
            built = link.built_estimator
            if isinstance(built, BucketEstimator):
                found.append(built)
    return found


class BatchServingEngine(SelectivityEstimator):
    """Serves single queries through a cache and batches through the
    kernel.

    Parameters
    ----------
    estimator:
        The wrapped estimator; the engine adopts its ``name`` so
        downstream error tables key identically.
    cache_size:
        LRU capacity of the scalar path's cache; ``0`` disables it.
    feedback:
        Optional :class:`~repro.tuning.FeedbackCollector`.  Every
        served (query, answer) pair is offered to it *after* the
        answer is produced — a deterministic O(1) sampling append
        that cannot change any answer or any cache/epoch decision.
        The tuner drains the collector off the hot path.
    """

    def __init__(
        self,
        estimator: SelectivityEstimator,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        feedback: Optional[FeedbackCollector] = None,
    ) -> None:
        self.inner = estimator
        self.name = estimator.name
        self.feedback = feedback
        self.cache: Optional[QueryCache] = (
            QueryCache(cache_size) if cache_size > 0 else None
        )
        #: last observed epoch per reachable bucket estimator, keyed by
        #: identity (the value tuple keeps the estimator alive so ids
        #: cannot be recycled under us).
        self._observed: Dict[int, Tuple[BucketEstimator, int]] = {}
        #: last observed serving link of a guarded chain (None until
        #: the chain has served once).
        self._chain_state: Optional[str] = None
        self._revalidate()

    # ------------------------------------------------------------------
    # revalidation: epochs and chain transitions
    # ------------------------------------------------------------------
    def _flush_cache(self) -> None:
        # unconditional: ``flushes`` counts invalidation *events*, and
        # an event against an empty cache is still an event (degraded
        # answers are never cached, so a recovery transition usually
        # finds the cache already empty).
        if self.cache is not None:
            self.cache.flush()

    def _revalidate(self) -> None:
        """Bring every piece of derived state up to date.

        Runs before every serve.  Two responsibilities:

        * compare each reachable bucket estimator's epoch against the
          last observed value (recording it for estimators seen for
          the first time, such as lazily built guarded links); on
          movement, re-sync its kernel snapshot and flush the cache;
        * compare the guarded chain's serving link against the last
          observed one; on a transition, flush the cache.
        """
        stale = False
        for est in _bucket_estimators(self.inner):
            known = self._observed.get(id(est))
            if known is not None and est.epoch == known[1]:
                continue
            if known is not None:
                stale = True
                est.sync()
            self._observed[id(est)] = (est, est.epoch)
        if stale:
            if OBS.enabled:
                OBS.add("serving.epoch.stale")
            self._flush_cache()
        self._observe_chain()

    def _observe_chain(self) -> None:
        """Flush the cache when the chain's serving link has moved.

        The first observed link (``None`` → name) is not a transition:
        flushing there would penalise every engine's very first serve.
        """
        chain = self.inner
        if not isinstance(chain, GuardedEstimator):
            return
        current = chain.last_served
        if current is None:
            return
        if self._chain_state is not None \
                and current != self._chain_state:
            if OBS.enabled:
                OBS.add("serving.epoch.transitions")
            self._flush_cache()
        self._chain_state = current

    def _epoch_point(self) -> Tuple[Tuple[int, int], ...]:
        """The pinned epoch-read point of one scalar serve.

        Captured before the cache is consulted and compared after the
        estimate: if any reachable estimator's epoch moved in between
        (a mutation landed mid-serve), the answer is not stored, so
        the store cannot race the flush that mutation triggers.  The
        tuple covers every observed estimator, so a mutation on any
        link of a guarded chain moves the point too.
        """
        return tuple(
            (key, est.epoch)
            for key, (est, _seen) in self._observed.items()
        )

    def _cacheable(self) -> bool:
        """Whether answers from this serve may enter the cache.

        Degraded-chain answers are excluded: caching them would keep
        fallback-quality numbers alive after the chain recovers.
        """
        chain = self.inner
        if isinstance(chain, GuardedEstimator):
            return not chain.is_degraded
        return True

    # ------------------------------------------------------------------
    def estimate(self, query: Rect) -> float:
        """Scalar serve: cache lookup, then the inner estimator.

        Validates exactly like the batch path — a NaN/inf or inverted
        query raises :class:`~repro.errors.GeometryError` before it
        can touch the cache or the inner estimator.
        """
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        self._revalidate()
        if self.cache is None:
            value = self.inner.estimate(query)
            if self.feedback is not None:
                self.feedback.observe(query, value)
            return value
        point = self._epoch_point()
        key = canonical_key(query.x1, query.y1, query.x2, query.y2)
        cached = self.cache.lookup(key)
        if cached is not None:
            if self.feedback is not None:
                self.feedback.observe(query, cached)
            return cached
        value = self.inner.estimate(query)
        self._observe_chain()
        # the epoch-read point is pinned at the pre-lookup epochs: a
        # mutation that landed between the lookup and the estimate
        # keeps this (post-mutation) answer out of the cache, so the
        # next revalidation's flush cannot race a fresh store
        if self._cacheable() and self._epoch_point() == point:
            self.cache.put(key, value)
        if self.feedback is not None:
            self.feedback.observe(query, value)
        return value

    def estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        """Batch serve under ``serving.*`` accounting: one kernel
        dispatch of the inner estimator over the whole batch.

        Validation runs first, exactly as the base contract requires.
        The cache is neither read nor filled; revalidation still runs,
        so an epoch move or chain transition seen here flushes the
        scalar path's cache before its next lookup.
        """
        validate_coords_array(queries.coords, what="query")
        if OBS.enabled:
            OBS.add("serving.requests")
            OBS.add("serving.queries", len(queries))
        with OBS.timer("serving.batch"):
            self._revalidate()
            values = self.inner.estimate_batch(queries)
        if self.feedback is not None:
            self.feedback.observe_batch(queries, values)
        return values

    # ------------------------------------------------------------------
    # pickling: epoch bookkeeping must survive a process boundary
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Serialise ``_observed`` as (estimator, epoch) pairs.

        The dict is keyed by ``id(est)``, and object ids do not
        survive pickling: an engine unpickled into a pool worker with
        the id-keyed dict intact would treat every estimator as newly
        discovered, record its *current* epoch without flushing, and
        happily serve whatever the pickled cache held — answers from
        before any mutation that happened between cache population
        and the pickle.  Shipping the pairs and re-keying on load
        keeps epoch-movement detection (and the cache flush it
        triggers) intact across the boundary.
        """
        state = self.__dict__.copy()
        state["_observed"] = list(self._observed.values())
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        observed = state.pop("_observed")
        self.__dict__.update(state)
        # pickle's memo preserves object identity within one payload,
        # so these are the same estimator objects reachable through
        # ``inner`` — re-keying by their new ids reconnects them.
        self._observed = {
            id(est): (est, epoch) for est, epoch in observed
        }

    # ------------------------------------------------------------------
    def size_words(self) -> int:
        """Summary footprint of the wrapped estimator (the cache is
        serving-time overhead, not summary state)."""
        return self.inner.size_words()

    def __repr__(self) -> str:
        cache = (
            f"cache={self.cache.capacity}"
            if self.cache is not None else "no-cache"
        )
        return f"BatchServingEngine({self.name!r}, {cache})"
