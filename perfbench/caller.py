"""The serving process of ``scalar-hot`` and ``live-mixed``.

Run by ``inproc.py``, not by hand::

    python3 perfbench/caller.py --workload scalar-hot --seed 1 \\
        --seconds 25 --trace 0 --n-rects 40000 --out DIR

It draws the workload's inputs from the seed, sets the tier up, runs
one caller against it through :class:`ShardRouter`, and writes the
answers the benchmark process checks to ``DIR`` as ``.npy`` files.  Its
last line of standard output is one JSON object with the measurements.
The caller's bookkeeping is small and, on ``scalar-hot``, about the
same however many calls a run makes (at most :data:`LATENCY_KEEP`
latencies, and the answers to the one-off queries), so the process's
peak memory is the program's and does not follow the host's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
import inproc
from common import BenchError


def _setup_inline(data: Any, workdir: Path) -> Tuple[Any, Any]:
    from repro.serving import ShardRouter

    sharded = common.build_tier(data)
    router = ShardRouter(sharded)
    router.estimate(common.full_extent(data))
    return sharded, router


def _setup_pooled(data: Any, workdir: Path) -> Tuple[Any, Any]:
    from repro.serving import ShardRouter, attach_wals, wal_recovery

    sharded = common.build_tier(data)
    wals = attach_wals(sharded, workdir)
    router = ShardRouter(
        sharded, workers=inproc.LIVE_WORKERS,
        recover=wal_recovery(sharded, wals),
    )
    router.estimate(common.full_extent(data))
    return sharded, router


def _setups(
    args: Any, data: Any, build: Callable[[Any, Path], Tuple[Any, Any]],
    tracer: Optional[Any], speed: common.HostSpeed,
) -> Tuple[List[float], int, Any, Any]:
    """Set the tier up in each of :func:`common.setup_rounds` (once
    when traced), with ``speed`` sampled right after each; keep the
    last.  Each time runs from the first build step until every shard
    has answered once."""
    times: List[float] = []
    build_ns = 0
    router = sharded = None
    for k in common.setup_rounds(once=tracer is not None):
        if router is not None:
            router.close()
            router = sharded = None
            gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        sharded, router = build(data, Path(args.out) / f"wal{k}")
        times.append(time.perf_counter() - t0)
        for _ in range(common.SPEED_SETUP_SAMPLES):
            speed.sample()
        if tracer is not None:
            build_ns = tracer.layer_self_ns().get("build", 0)
            tracer.uninstall()
            tracer.reset()
    return times, build_ns, sharded, router


def _serving_rss_mb() -> float:
    """Peak memory of this process plus its live pool workers."""
    total = common.peak_rss_mb()
    for child in multiprocessing.active_children():
        if child.pid is not None:
            total += common.peak_rss_mb(child.pid)
    return total


def _at_reference_speed(
    raw: Dict[str, float], times: List[float],
    setup_speed: common.HostSpeed, run_speed: common.HostSpeed,
    result: Dict[str, Any],
) -> Dict[str, float]:
    """The end-to-end figures at the reference speed; the wall-clock
    ones and the slowdowns go to ``result``."""
    result["wall_clock"] = raw
    result["host_speed"] = {
        "run": run_speed.report(),
        "setups": common.setup_slowdowns(times, setup_speed),
    }
    return common.at_reference_speed(
        raw, times, setup_speed, run_speed, run_speed
    )


def _ms(latency_ns: Any) -> Any:
    import numpy as np

    return np.frombuffer(latency_ns, dtype=np.int64) / 1e6


# ----------------------------------------------------------------------
# scalar-hot
# ----------------------------------------------------------------------
#: Latencies kept on ``scalar-hot``: beyond this many, every other
#: one is dropped and only every second call after is kept, so the kept
#: ones stay evenly spread over the run and the caller's memory does
#: not grow with the host's speed.
LATENCY_KEEP = 1 << 17


class _HotCalls:
    """The call stream and what the caller keeps of it: each query's
    first answer, the latency of every ``stride``-th call since
    :meth:`restart_latencies`, and how many repeats answered
    differently from their query's first answer."""

    def __init__(self, slices: Any) -> None:
        self.slices = slices
        self.calls = 0
        self.pool_first = [float("nan")] * inproc.HOT_POOL
        self.one_off = array("d")
        self.repeat_mismatches = 0
        self.restart_latencies()

    def restart_latencies(self) -> None:
        self.latency = array("q")
        self.latency_from = self.calls
        self.stride = 1

    def thin_latencies(self) -> None:
        del self.latency[1::2]
        self.stride *= 2


def _hot_loop(
    estimate: Callable[[Any], float], book: _HotCalls, seconds: float,
    tracer: Optional[Any] = None, min_calls: int = 0,
    speed: Optional[common.HostSpeed] = None,
) -> Tuple[int, float]:
    """Back-to-back calls until ``seconds`` pass (and at least
    ``min_calls`` were made), with ``speed`` sampled (and the calls
    marked) between slices; returns the calls made and the time spent
    in them, without the time spent drawing the next slice or
    sampling."""
    clock = time.perf_counter_ns
    first = book.pool_first
    one_off = book.one_off
    start = book.calls
    bad = 0
    busy = 0
    deadline = time.perf_counter() + seconds
    while True:
        rects, keys = next(book.slices)
        i = book.calls
        latency = book.latency
        stride = book.stride
        since = book.latency_from
        t_slice = clock()
        for rect, key in zip(rects, keys):
            if tracer is not None:
                tracer.rid = i
            t0 = clock()
            value = estimate(rect)
            t1 = clock()
            if (i - since) % stride == 0:
                latency.append(t1 - t0)
            i += 1
            if key < 0:
                one_off.append(value)
            else:
                seen = first[key]
                if seen != seen:  # NaN: the query's first answer
                    first[key] = value
                elif value != seen:
                    bad += 1
        busy += clock() - t_slice
        book.calls = i
        if len(latency) >= LATENCY_KEEP:
            book.thin_latencies()
        if speed is not None:
            speed.maybe_sample(book.calls - start, busy / 1e9)
        if time.perf_counter() >= deadline and book.calls >= min_calls:
            book.repeat_mismatches += bad
            return book.calls - start, busy / 1e9


def _cache_lookups(router: Any) -> Optional[Tuple[int, int]]:
    """Hits and misses so far over every shard's query cache, or None
    where the tier has no such caches."""
    try:
        caches = [shard.engine.cache for shard in router.sharded.shards]
        return (
            sum(int(c.hits) for c in caches),
            sum(int(c.misses) for c in caches),
        )
    except AttributeError:
        return None


def scalar_hot(args: Any, tracer: Optional[Any]) -> Dict[str, Any]:
    import numpy as np

    data = common.load_data(args.n_rects)
    _pool, slices = inproc.hot_pool_and_slices(data, args.seed)
    book = _HotCalls(slices)
    setup_speed, run_speed = common.HostSpeed(), common.HostSpeed()
    times, build_ns, _sharded, router = _setups(
        args, data, _setup_inline, tracer, setup_speed
    )
    seconds = float(args.seconds)
    try:
        _hot_loop(
            router.estimate, book, inproc.HOT_WARMUP_S,
            min_calls=inproc.HOT_POOL,
        )
        untraced_rate = 0.0
        if tracer is not None:
            calls, took = _hot_loop(router.estimate, book, 0.3 * seconds)
            untraced_rate = calls / took
            book.restart_latencies()
            tracer.start()
            calls, took = _hot_loop(
                router.estimate, book, 0.7 * seconds, tracer
            )
            tracer.stop()
            tracer.write_spans(str(
                common.WORK / "traces" / f"scalar-hot-{args.seed}.jsonl.gz"
            ))
        else:
            book.restart_latencies()
            before = _cache_lookups(router)
            calls, took = _hot_loop(
                router.estimate, book, seconds, speed=run_speed
            )
            after = _cache_lookups(router)
        rss = common.peak_rss_mb()
    finally:
        router.close()
    out = Path(args.out)
    np.save(out / "pool.npy", np.asarray(book.pool_first))
    np.save(out / "one_off.npy", np.frombuffer(book.one_off))
    lat_ms = _ms(book.latency)
    result: Dict[str, Any] = {
        "calls": book.calls,
        "repeat_mismatches": book.repeat_mismatches,
        "samples": {"query": calls, "latency": len(lat_ms)},
    }
    if tracer is None:
        if before is not None and after is not None:
            hits, misses = after[0] - before[0], after[1] - before[1]
            lookups = hits + misses
            result["cache_hit_share"] = hits / lookups if lookups else None
        result["setup_times_s"] = times
        result["query_p99_ms"] = common.percentile(lat_ms, 99)
        result["e2e"] = _at_reference_speed(
            {
                "setup_s": statistics.median(times),
                "throughput_ops_s": calls / took,
                "query_p50_ms": common.percentile(lat_ms, 50),
                "rss_mb": rss,
            },
            times, setup_speed, run_speed, result,
        )
        return result
    from tracer import per_layer

    summary = tracer.summary()
    layers = per_layer(summary, ops=calls, mutations=0, build_ns=build_ns)
    layers["trace.overhead_frac"] = untraced_rate / (calls / took) - 1.0
    layers["query_p99_ms"] = common.percentile(lat_ms, 99)
    result["layers"] = layers
    result["absent"] = summary["absent"]
    result["unobserved"] = summary["unobserved"]
    return result


# ----------------------------------------------------------------------
# live-mixed
# ----------------------------------------------------------------------
class _Gate:
    """Router answers on the probe set against the union reference;
    the answers and the live rows go to the run directory, where the
    benchmark process scores them against exact counts."""

    def __init__(
        self, sharded: Any, router: Any, probes: Any, out: Path
    ) -> None:
        self.sharded = sharded
        self.router = router
        self.probes = probes
        self.out = out
        self.mismatched = 0
        self.checks = 0
        self.scored: List[str] = []

    def check(self, label: str, perturb: bool, score: bool) -> None:
        import numpy as np

        served = np.asarray(self.router.estimate_batch(self.probes))
        reference = self.sharded.union_estimator().estimate_batch(
            self.probes
        )
        compared = served.copy()
        if perturb:
            compared[0] += 1.0
        self.mismatched += int(np.count_nonzero(compared != reference))
        self.checks += 1
        if score:
            np.save(self.out / f"gate-{label}-served.npy", served)
            np.save(
                self.out / f"gate-{label}-data.npy",
                self.sharded.current_data().coords,
            )
            self.scored.append(label)


def live_mixed(args: Any, tracer: Optional[Any]) -> Dict[str, Any]:
    import numpy as np

    from repro.geometry import RectSet

    data = common.load_data(args.n_rects)
    seconds = float(args.seconds)
    out = Path(args.out)
    router = None
    setup_speed, run_speed = common.HostSpeed(), common.HostSpeed()
    try:
        times, build_ns, sharded, router = _setups(
            args, data, _setup_pooled, tracer, setup_speed
        )
        # drawn after the pool workers fork, so they do not copy them
        ops, probes = inproc.live_inputs(data, args.seed)
        gate = _Gate(sharded, router, probes, out)
        lat_query = array("q")
        lat_mutation = array("q")
        recent: List[Tuple[float, float, float, float]] = []
        failed = 0
        paused = 0.0
        mutations = 0
        traced_from: Optional[Tuple[int, int, int, float]] = None
        untraced_rate = 0.0
        clock = time.perf_counter_ns
        t_start = time.perf_counter()
        done = 0
        # the stream's rate goes by tuning periods, each a window of
        # TUNE_EVERY operations and the tuning pass that ends it
        run_speed.mark(0, 0.0)
        for done, op in enumerate(ops, 1):
            if tracer is not None:
                tracer.rid = done
            t0 = clock()
            if op.kind == "query":
                router.estimate(op.rect)
                t1 = clock()
                lat_query.append(t1 - t0)
                recent.append(op.rect.as_tuple())
            else:
                if op.kind == "insert":
                    router.insert(op.rect)
                elif not router.delete(op.rect)[1]:
                    failed += 1  # the stream only deletes live rows
                t1 = clock()
                lat_mutation.append(t1 - t0)
                mutations += 1
            if done % inproc.TUNE_EVERY == 0:
                del recent[:-inproc.TUNE_WINDOW]
                router.tune(RectSet(
                    np.asarray(recent), copy=False, validate=False,
                ))
                run_speed.mark(done, time.perf_counter() - t_start - paused)
            if done in inproc.ARE_AT_OPS:
                p0 = time.perf_counter()
                with tracer.paused() if tracer else contextlib.nullcontext():
                    gate.check(str(done), args.perturb, score=True)
                paused += time.perf_counter() - p0
            if tracer is None:
                paused += run_speed.maybe_sample()
            elapsed = time.perf_counter() - t_start - paused
            if (
                tracer is not None and traced_from is None
                and elapsed >= 0.3 * seconds
            ):
                untraced_rate = done / elapsed
                traced_from = (done, len(lat_query), mutations, elapsed)
                tracer.start()
            if elapsed >= seconds * inproc.MAX_STRETCH or (
                elapsed >= seconds and done >= inproc.ARE_AT_OPS[-1]
                and mutations >= inproc.MIN_MUTATIONS
            ):
                break
        if tracer is not None:
            tracer.stop()
            tracer.write_spans(str(
                common.WORK / "traces" / f"live-mixed-{args.seed}.jsonl.gz"
            ))
        gate.check("end", args.perturb, score=not gate.scored)
        rss = _serving_rss_mb()
    finally:
        if router is not None:
            router.close()
    result: Dict[str, Any] = {
        "done": done,
        "failed_deletes": failed,
        "gate_mismatches": gate.mismatched,
        "gate_probes": gate.checks * len(probes),
        "scored_gates": gate.scored,
        "samples": {"query": len(lat_query), "mutation": mutations},
    }
    q_ms = _ms(lat_query)
    m_ms = _ms(lat_mutation)
    if tracer is None:
        result["setup_times_s"] = times
        result["query_p99_ms"] = common.percentile(q_ms, 99)
        result["mutation_p50_ms"] = common.percentile(m_ms, 50)
        result["mutation_p99_ms"] = common.percentile(m_ms, 99)
        result["e2e"] = _at_reference_speed(
            {
                "setup_s": statistics.median(times),
                "throughput_ops_s": done / elapsed,
                "query_p50_ms": common.percentile(q_ms, 50),
                "rss_mb": rss,
            },
            times, setup_speed, run_speed, result,
        )
        return result
    from tracer import per_layer

    assert traced_from is not None
    first_op, first_query, first_mutation, t_traced = traced_from
    traced_ops = done - first_op
    summary = tracer.summary()
    layers = per_layer(
        summary, ops=traced_ops, mutations=mutations - first_mutation,
        build_ns=build_ns,
    )
    layers["trace.overhead_frac"] = untraced_rate / (
        traced_ops / (elapsed - t_traced)
    ) - 1.0
    layers["query_p99_ms"] = common.percentile(q_ms[first_query:], 99)
    layers["mutation_p50_ms"] = common.percentile(m_ms[first_mutation:], 50)
    layers["mutation_p99_ms"] = common.percentile(m_ms[first_mutation:], 99)
    result["layers"] = layers
    result["absent"] = summary["absent"]
    result["unobserved"] = summary["unobserved"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workload", required=True, choices=("scalar-hot", "live-mixed")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-rects", type=int, default=common.N_RECTS)
    parser.add_argument("--out", required=True)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    try:
        common.use_source_tree()
    except BenchError as exc:
        print(f"perfbench caller: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    run = scalar_hot if args.workload == "scalar-hot" else live_mixed
    print(json.dumps(run(args, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
