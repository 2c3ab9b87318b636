"""Span tracing from outside the program, by patching class attributes.

The traced run wraps the public functions named in :data:`LAYERS` with
a span recorder.  A span has a name, start and end (``perf_counter_ns``),
the span that was open when it started (its parent), and the request id
the caller set, if any.  Self time is a span's duration minus the time
covered by its child spans; it is folded into per-function totals as
each span closes, so memory stays flat however long a run is.  The first
:data:`SPAN_CAP` raw spans are kept in memory and written out at the end.

A function that no longer exists is reported as absent and skipped.
Pool workers are forked copies of the serving process: the wrappers they
inherit call straight through, so worker internals show up only as the
parent's wait time in the pool layer (and in the program's own counters,
:data:`OBS_COUNTERS`, which the pool merges from its workers).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from common import percentile

#: Raw spans kept for the trace file; later spans are only aggregated.
SPAN_CAP = 20_000

#: ``(layer, "module:Class.method")`` for every wrapped function.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("build", "repro.core.minskew:MinSkewPartitioner.partition_full"),
    ("batcher", "repro.serving.batcher:MicroBatcher.submit"),
    ("router", "repro.serving.router:ShardRouter.estimate_batch"),
    ("router", "repro.serving.router:ShardRouter.estimate"),
    ("router", "repro.serving.router:ShardRouter.insert"),
    ("router", "repro.serving.router:ShardRouter.delete"),
    ("tuning", "repro.serving.router:ShardRouter.tune"),
    ("shard", "repro.serving.shard:HistogramShard.estimate_batch_coords"),
    ("shard", "repro.serving.shard:HistogramShard.estimate_one"),
    ("engine", "repro.serving.engine:BatchServingEngine.estimate"),
    ("engine", "repro.serving.engine:BatchServingEngine.estimate_batch"),
    ("index", "repro.serving.index:BucketIndex.candidates"),
    ("kernel", "repro.core.bucket:BucketArrays.estimate_block"),
    ("kernel", "repro.core.bucket:BucketArrays.estimate_terms"),
    ("estimator", "repro.estimators.maintained:MaintainedEstimator.sync"),
    ("maintenance", "repro.core.maintenance:MaintainedHistogram.insert"),
    ("maintenance", "repro.core.maintenance:MaintainedHistogram.delete"),
    ("maintenance", "repro.core.maintenance:MaintainedHistogram.refresh"),
    ("wal", "repro.serving.wal:ShardWAL.record"),
    ("wal", "repro.serving.wal:ShardWAL.checkpoint"),
    ("pool", "repro.serving.parallel:ShardWorkerPool.try_call_many"),
    ("pool", "repro.serving.parallel:ShardWorkerPool.call_many"),
    ("pool", "repro.serving.parallel:ShardWorkerPool.cast"),
)

#: Counters of the program's own metric registry read in traced runs.
#: The pool merges them from its workers with every reply, so they
#: cover the shard engines wherever those run (work a pool worker
#: repeats on its replica, such as a refresh, counts once per copy).
OBS_COUNTERS = (
    "serving.cache.hits",
    "serving.cache.misses",
    "serving.cache.flushes",
    "serving.epoch.estimator_rebuilds",
    "serving.index.probes",
    "serving.index.candidates",
    "serving.shard.subqueries",
    "serving.wal.checkpoints",
    "maintenance.refreshes",
    "tuning.passes",
)


def _registry() -> Any:
    """The program's metric registry, or None if it is gone."""
    try:
        from repro.obs import OBS
    except ImportError:
        return None
    return OBS


def _short(target: str) -> str:
    return target.split(":", 1)[1]


def _resolve(target: str) -> Optional[Tuple[type, str]]:
    module_name, qualname = target.split(":", 1)
    cls_name, attr = qualname.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    cls = getattr(module, cls_name, None)
    if not isinstance(cls, type) or not callable(getattr(cls, attr, None)):
        return None
    return cls, attr


def _dir_files(path: Any) -> Dict[str, Tuple[int, int]]:
    """``name -> (inode, size)`` of the regular files in ``path``."""
    out: Dict[str, Tuple[int, int]] = {}
    try:
        with os.scandir(path) as entries:
            for entry in entries:
                if entry.is_file(follow_symlinks=False):
                    st = entry.stat(follow_symlinks=False)
                    out[entry.name] = (st.st_ino, st.st_size)
    except OSError:
        pass
    return out


def _bytes_written(
    before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]
) -> int:
    """Bytes a call added: new or replaced files whole, grown files by
    their growth."""
    total = 0
    for name, (ino, size) in after.items():
        old = before.get(name)
        if old is None or old[0] != ino:
            total += size
        elif size > old[1]:
            total += size - old[1]
    return total


class Tracer:
    """Span recorder over :data:`LAYERS`; one per serving process."""

    def __init__(self) -> None:
        self.active = True
        self.rid: Any = None
        self.absent: List[str] = []
        self.unobserved: Set[str] = set()
        self._layer_of: Dict[str, str] = {}
        self._patched: List[Tuple[type, str, Any, bool]] = []
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self.reset()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # a pool worker: its spans would never reach the report
        self.active = False

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.agg: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.spans: List[Tuple[Any, ...]] = []
        self._submits: deque = deque()

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            return
        self.absent = []
        for layer, target in LAYERS:
            resolved = _resolve(target)
            name = _short(target)
            if resolved is None:
                self.absent.append(name)
                continue
            cls, attr = resolved
            original = getattr(cls, attr)
            own = attr in cls.__dict__
            setattr(cls, attr, self._wrap(name, layer, original))
            self._patched.append((cls, attr, original, own))
            self._layer_of[name] = layer

    def uninstall(self) -> None:
        for cls, attr, original, own in reversed(self._patched):
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._patched = []

    def start(self) -> None:
        """Clear, install the wrappers and turn the program's own
        metric registry on (its counters are :data:`OBS_COUNTERS`)."""
        self.reset()
        self.install()
        obs = _registry()
        if obs is not None:
            obs.reset()
            obs.enable(True)

    def stop(self) -> None:
        """Remove the wrappers; keep the registry counters."""
        self.uninstall()
        obs = _registry()
        if obs is not None:
            for name in OBS_COUNTERS:
                self.counts[name] = float(obs.counter_value(name))
            obs.enable(False)
            obs.reset()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing (spans or registry counters) inside."""
        obs = _registry()
        was = obs.enabled if obs is not None else False
        self.active = False
        if obs is not None:
            obs.enable(False)
        try:
            yield
        finally:
            self.active = True
            if obs is not None:
                obs.enable(was)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------------
    def _wrap(
        self, name: str, layer: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0, span_id, layer]
            before = _pre_observe(tracer, name, args)
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _on_failure(tracer, name)
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                duration = t1 - t0
                agg = tracer.agg.get(name)
                if agg is None:
                    agg = tracer.agg[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((
                        span_id, name, t0, t1,
                        parent[1] if parent is not None else None,
                        tracer.rid,
                    ))
            if observe is not None:
                try:
                    observe(tracer, args, result, t0, parent, before)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function changed shape: keep the span, report
                    # that its counts are missing
                    tracer.unobserved.add(name)
            return result

        return traced

    # ------------------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, summed over its functions."""
        out: Dict[str, int] = {}
        for name, (_calls, _total, self_ns) in self.agg.items():
            layer = self._layer_of[name]
            out[layer] = out.get(layer, 0) + self_ns
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-ready aggregates (what a serving process hands back)."""
        return {
            "agg": self.agg,
            "layer_self_ns": self.layer_self_ns(),
            "counts": self.counts,
            "samples": {
                key: {
                    "n": len(values),
                    "p50": percentile(values, 50),
                    "p99": percentile(values, 99),
                }
                for key, values in self.samples.items()
            },
            "absent": self.absent,
            "unobserved": sorted(self.unobserved),
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, rid in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": t0,
                    "end_ns": t1, "parent": parent, "rid": rid,
                }) + "\n")


# ----------------------------------------------------------------------
# observers: counts taken at the boundary where the work happens
# ----------------------------------------------------------------------
def _pre_observe(tr: Tracer, name: str, args: Tuple[Any, ...]) -> Any:
    """State captured before the call."""
    if name == "MicroBatcher.submit":
        # queued before the call: a size trigger dispatches inside it
        tr._submits.append(time.perf_counter_ns())
    elif name in ("ShardWAL.record", "ShardWAL.checkpoint"):
        return _dir_files(getattr(args[0], "directory", ""))
    return None


def _on_failure(tr: Tracer, name: str) -> None:
    if name == "MicroBatcher.submit" and tr._submits:
        # refused at admission (shed): it never entered the queue
        tr._submits.pop()


def _rows(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None and len(shape) >= 1:
        return int(shape[0])
    try:
        return len(value)
    except TypeError:
        return 1


def _obs_router_batch(tr: Tracer, args, result, t0, parent, before):
    n = _rows(args[1])
    tr.count("router.queries", n)
    # the batcher is FIFO, so this batch holds the n oldest submits
    submits = tr._submits
    if len(submits) >= n:
        for _ in range(n):
            tr.sample("batcher.wait_ns", t0 - submits.popleft())


def _obs_router_one(tr: Tracer, args, result, t0, parent, before):
    tr.count("router.queries")


def _obs_kernel(tr: Tracer, args, result, t0, parent, before):
    # count each evaluation once, at its outermost kernel span
    if parent is not None and parent[2] == "kernel":
        return
    n_buckets = int(getattr(args[0], "n", 0))
    tr.count("kernel.bucket_rows", _rows(args[1]) * n_buckets)


def _obs_tune(tr: Tracer, args, result, t0, parent, before):
    tr.count(
        "tuning.applied",
        sum(1 for r in result or () if r is not None and r.applied),
    )


def _obs_wal(tr: Tracer, args, result, t0, parent, before):
    after = _dir_files(getattr(args[0], "directory", ""))
    tr.count("wal.bytes", _bytes_written(before or {}, after))


def _obs_cast(tr: Tracer, args, result, t0, parent, before):
    tr.count("pool.casts")


_OBSERVERS: Dict[str, Callable[..., None]] = {
    "ShardRouter.estimate_batch": _obs_router_batch,
    "ShardRouter.estimate": _obs_router_one,
    "ShardRouter.tune": _obs_tune,
    "BucketArrays.estimate_block": _obs_kernel,
    "BucketArrays.estimate_terms": _obs_kernel,
    "ShardWAL.record": _obs_wal,
    "ShardWAL.checkpoint": _obs_wal,
    "ShardWorkerPool.cast": _obs_cast,
}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def per_layer(
    summary: Dict[str, Any], *, ops: int, mutations: int, build_ns: int
) -> Dict[str, float]:
    """The per-layer metrics every workload reports from a traced
    window of ``ops`` workload operations (``mutations`` of them
    writes).  A layer the window never entered reads 0."""
    agg = summary["agg"]
    counts = summary["counts"]
    layer_ns = summary["layer_self_ns"]

    def calls(*names: str) -> int:
        return sum(agg.get(name, (0, 0, 0))[0] for name in names)

    def per_op_us(*layers: str) -> float:
        ns = sum(layer_ns.get(layer, 0) for layer in layers)
        return ns / 1e3 / ops if ops else 0.0

    def mean(name: str, scale: float, column: int = 2) -> float:
        row = agg.get(name)
        return row[column] / scale / row[0] if row and row[0] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = counts.get("serving.cache.hits", 0.0)
    lookups = hits + counts.get("serving.cache.misses", 0.0)
    wait = summary["samples"].get("batcher.wait_ns", {})
    pool_wait_ns = sum(
        agg.get(name, (0, 0, 0))[2]
        for name in ("ShardWorkerPool.try_call_many",
                     "ShardWorkerPool.call_many")
    )
    return {
        "build.ms": build_ns / 1e6,
        # workload-specific layers; the workloads that have them fill
        # these in
        "frontdoor.self_us_per_op": 0.0,
        "frontdoor.bytes_per_op": 0.0,
        "batcher.avg_batch": 0.0,
        "batcher.shed": 0.0,
        "query_p99_ms": 0.0,
        "mutation_p50_ms": 0.0,
        "mutation_p99_ms": 0.0,
        "trace.overhead_frac": 0.0,
        "loadgen.late_ms_max": 0.0,
        "batcher.wait_ms_p50": wait.get("p50", 0.0) / 1e6,
        "batcher.wait_ms_p99": wait.get("p99", 0.0) / 1e6,
        "router.self_us_per_op": per_op_us("router"),
        "router.fanout": ratio(
            counts.get("serving.shard.subqueries", 0.0),
            counts.get("router.queries", 0.0),
        ),
        "shard.self_us_per_op": per_op_us("shard"),
        "shard.calls_per_op": ratio(
            calls("HistogramShard.estimate_batch_coords",
                  "HistogramShard.estimate_one"),
            ops,
        ),
        "engine.self_us_per_op": per_op_us("engine"),
        "cache.hit_ratio": ratio(hits, lookups),
        "cache.lookups": lookups,
        "cache.flushes": counts.get("serving.cache.flushes", 0.0),
        "index.self_us_per_op": per_op_us("index"),
        "index.candidates_per_probe": ratio(
            counts.get("serving.index.candidates", 0.0),
            counts.get("serving.index.probes", 0.0),
        ),
        "kernel.self_us_per_op": per_op_us("kernel"),
        "kernel.bucket_rows_per_op": ratio(
            counts.get("kernel.bucket_rows", 0.0), ops
        ),
        "estimator.rebuilds": counts.get(
            "serving.epoch.estimator_rebuilds", 0.0
        ),
        "estimator.self_us_per_op": per_op_us("estimator"),
        "maintenance.insert_us": mean("MaintainedHistogram.insert", 1e3),
        "maintenance.delete_us": mean("MaintainedHistogram.delete", 1e3),
        "maintenance.refreshes": counts.get("maintenance.refreshes", 0.0),
        "maintenance.refresh_ms": mean("MaintainedHistogram.refresh", 1e6),
        "wal.record_us": mean("ShardWAL.record", 1e3),
        "wal.checkpoints": counts.get("serving.wal.checkpoints", 0.0),
        "wal.checkpoint_ms": mean("ShardWAL.checkpoint", 1e6),
        "wal.bytes_per_mutation": ratio(
            counts.get("wal.bytes", 0.0), mutations
        ),
        "pool.wait_us_per_op": ratio(pool_wait_ns / 1e3, ops),
        "pool.casts": counts.get("pool.casts", 0.0),
        # shard tuner passes (a router pass runs one per shard)
        "tuning.passes": counts.get("tuning.passes", 0.0),
        "tuning.applied": counts.get("tuning.applied", 0.0),
        # a pass as its caller waits for it, casts to replicas included
        "tuning.ms": mean("ShardRouter.tune", 1e6, column=1),
    }
