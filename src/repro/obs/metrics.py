"""Lightweight metrics: named counters, wall-clock timers, histograms.

The estimator service's hot paths (Min-Skew construction, R*-tree
builds, batched estimation, the exact-count oracle) are instrumented
against one process-wide :class:`MetricsRegistry` (:data:`OBS`).  The
registry is **disabled by default** and every instrumentation point is
written so that the disabled path costs a single attribute check:

* ``OBS.add(name)`` returns immediately when disabled;
* ``OBS.timer(name)`` returns a shared no-op context manager when
  disabled (no allocation, no clock read);
* inner loops never call the registry per element — call sites
  accumulate plain local integers and report one ``add`` per batch.

Enable collection around a region of interest with::

    from repro.obs import OBS

    with OBS.scope():                  # enable, restore on exit
        est = build_estimator("Min-Skew", data, 100)
        est.estimate_many(queries)
    print(OBS.to_json(indent=2))

Metric names are dotted strings (``"minskew.splits"``,
``"estimate.Min-Skew"``); :meth:`MetricsRegistry.snapshot` returns a
plain JSON-serialisable dict grouped by kind, which is what the
``repro-spatial bench`` harness embeds in ``BENCH_<name>.json``.

The registry is not thread-safe; shard per worker and merge snapshots
when parallelising.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "CounterStat",
    "TimerStat",
    "HistogramStat",
    "MetricsRegistry",
    "OBS",
    "get_registry",
    "snapshot_from_json",
]

#: Histogram sample retention cap.  The moments (count, total, min,
#: max) are always exact; percentiles come from an evenly thinned
#: sample — whenever the buffer fills, every second sample is dropped
#: and only every ``stride``-th later observation is kept, with the
#: stride doubled — so they describe the whole stream, not its start.
MAX_HISTOGRAM_SAMPLES = 4096


class CounterStat:
    """A monotonically accumulated numeric value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def add(self, delta: float) -> None:
        self.value += delta


class TimerStat:
    """Aggregated wall-clock durations of one named code region."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed < self.min:
            self.min = elapsed
        if elapsed > self.max:
            self.max = elapsed

    def as_dict(self) -> Dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "mean_s": mean,
        }


class HistogramStat:
    """Distribution of observed values (exact moments, thinned samples)."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Keeps observations 0, stride, 2*stride, ... (0-based).
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= MAX_HISTOGRAM_SAMPLES:
                del self._samples[1::2]
                self._stride *= 2

    def _percentile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = int(round(q * (len(ordered) - 1)))
        return ordered[idx]

    def as_dict(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self._percentile(0.50),
            "p95": self._percentile(0.95),
        }


class _NullTimer:
    """Shared no-op context manager returned while metrics are off."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timing:
    """One live timing of a :class:`TimerStat` region (reentrant-safe:
    every ``with`` block gets its own instance, so a timer name may be
    nested and each level records its full elapsed time)."""

    __slots__ = ("_stat", "_start")

    def __init__(self, stat: TimerStat) -> None:
        self._stat = stat
        self._start = 0.0

    def __enter__(self) -> "_Timing":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._stat.record(time.perf_counter() - self._start)
        return False


class _Scope:
    """Context manager flipping a registry's enabled flag, restoring
    the previous state (and optionally the collected metrics) on exit."""

    __slots__ = ("_registry", "_on", "_previous")

    def __init__(self, registry: "MetricsRegistry", on: bool) -> None:
        self._registry = registry
        self._on = on
        self._previous = False

    def __enter__(self) -> "MetricsRegistry":
        self._previous = self._registry.enabled
        self._registry.enable(self._on)
        return self._registry

    def __exit__(self, *exc: object) -> bool:
        self._registry.enable(self._previous)
        return False


class MetricsRegistry:
    """Named counters, timers, and histograms behind one on/off switch.

    Parameters
    ----------
    enabled:
        Start collecting immediately (default off — the library-wide
        :data:`OBS` instance stays dormant until a harness opts in).
    """

    __slots__ = ("_enabled", "_counters", "_timers", "_histograms")

    def __init__(self, *, enabled: bool = False) -> None:
        self._enabled = enabled
        self._counters: Dict[str, CounterStat] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._histograms: Dict[str, HistogramStat] = {}

    # ------------------------------------------------------------------
    # switch
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, on: bool = True) -> None:
        self._enabled = on

    def disable(self) -> None:
        self._enabled = False

    def scope(self, on: bool = True) -> _Scope:
        """``with registry.scope():`` — enable within the block only."""
        return _Scope(self, on)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` into counter ``name`` (no-op when off)."""
        if not self._enabled:
            return
        stat = self._counters.get(name)
        if stat is None:
            stat = self._counters[name] = CounterStat()
        stat.add(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op when off)."""
        if not self._enabled:
            return
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = HistogramStat()
        stat.observe(value)

    def timer(self, name: str) -> Union[_NullTimer, _Timing]:
        """Context manager timing a region into timer ``name``.

        Disabled registries return one shared no-op object, so call
        sites never pay for allocation or a clock read.
        """
        if not self._enabled:
            return _NULL_TIMER
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        return _Timing(stat)

    def timed(
        self, name: str
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator timing every call of the wrapped function."""

        def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self._enabled:
                    return func(*args, **kwargs)
                with self.timer(name):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        stat = self._counters.get(name)
        return stat.value if stat is not None else 0

    def timer_stats(self, name: str) -> Optional[TimerStat]:
        return self._timers.get(name)

    def histogram_stats(self, name: str) -> Optional[HistogramStat]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """All collected metrics as a JSON-serialisable dict."""
        return {
            "counters": {
                name: stat.value
                for name, stat in sorted(self._counters.items())
            },
            "timers": {
                name: stat.as_dict()
                for name, stat in sorted(self._timers.items())
            },
            "histograms": {
                name: stat.as_dict()
                for name, stat in sorted(self._histograms.items())
            },
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The snapshot serialised as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The merge path for parallel sweeps: each worker process runs
        its own registry, ships :meth:`snapshot` home with its results,
        and the parent merges.  Counters and timer count/total/min/max
        merge exactly; histograms merge by moments only (count, total,
        min, max — the raw samples stay in the worker, so percentiles
        of a merged histogram describe just the locally observed
        values).  Merging is unconditional — an empty snapshot is a
        no-op, and the enabled flag gates *collection*, not accounting.
        """
        for name, value in snapshot.get("counters", {}).items():
            stat = self._counters.get(name)
            if stat is None:
                stat = self._counters[name] = CounterStat()
            stat.add(value)
        for name, tdict in snapshot.get("timers", {}).items():
            if not tdict.get("count"):
                continue
            tstat = self._timers.get(name)
            if tstat is None:
                tstat = self._timers[name] = TimerStat()
            tstat.count += int(tdict["count"])
            tstat.total += float(tdict["total_s"])
            tstat.min = min(tstat.min, float(tdict["min_s"]))
            tstat.max = max(tstat.max, float(tdict["max_s"]))
        for name, hdict in snapshot.get("histograms", {}).items():
            if not hdict.get("count"):
                continue
            hstat = self._histograms.get(name)
            if hstat is None:
                hstat = self._histograms[name] = HistogramStat()
            hstat.count += int(hdict["count"])
            hstat.total += float(hdict["total"])
            hstat.min = min(hstat.min, float(hdict["min"]))
            hstat.max = max(hstat.max, float(hdict["max"]))

    def reset(self) -> None:
        """Drop all collected metrics (the enabled flag is unchanged)."""
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return (
            f"MetricsRegistry({state}, counters={len(self._counters)}, "
            f"timers={len(self._timers)}, "
            f"histograms={len(self._histograms)})"
        )


def snapshot_from_json(text: str) -> Dict[str, Any]:
    """Parse a snapshot produced by :meth:`MetricsRegistry.to_json`.

    Validates the top-level shape so corrupted artifacts fail loudly
    instead of flowing into regression comparisons.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("metrics snapshot must be a JSON object")
    for section in ("counters", "timers", "histograms"):
        if section not in doc or not isinstance(doc[section], dict):
            raise ValueError(
                f"metrics snapshot is missing the {section!r} section"
            )
    return doc


#: The process-wide registry every instrumented module reports to.
OBS = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` (:data:`OBS`)."""
    return OBS
