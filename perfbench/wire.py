"""``wire-read``: read-only estimates over TCP against a server process.

The load generator speaks the front door's public protocol itself:
frames are a 4-byte big-endian length and a JSON body.  Floats travel
as their shortest round-trip repr, so the answers that come back are
the exact float64 values the server computed.
"""

from __future__ import annotations

import json
import select
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import BenchError, InvalidRun

HERE = Path(__file__).resolve().parent

#: Offered rate of the open-loop phase (queries per second): a quarter
#: or so of what the server sustains in batches of one, so the phase
#: measures latency rather than a queue even while a shared host slows
#: the server down (on a shared 2-core virtual machine, 2000 q/s let
#: the median rise from 0.8 ms to 1.1-2.3 ms in such a stretch).
OFFERED_RATE = 1_000
#: Pipelining window per connection in the closed-loop phase.
WINDOW = 64
#: Closed-loop connections (at most the machine's 2 cores).
CONNECTIONS = 2
#: A run whose generator sends a request later than this after its
#: due time is invalid: its latencies would describe the generator.
#: Latencies run from the due time, so shorter stalls of the generator
#: (a shared virtual machine preempts it for up to ~35 ms) only make
#: them worse.
LATE_BOUND_MS = 100.0
#: Unanswered requests are given up on (and count as failed) this
#: long after their phase ends.
REPLY_GRACE_S = 20.0
#: Each phase runs in segments of this length, with the connections
#: idle in between while both processes sample the host's speed
#: (:class:`common.HostSpeed`) ...
SEGMENT_S = 0.5
#: ... this many times each.
SPEED_SAMPLES = 3


def frame(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def estimate_frame(rid: int, row: Sequence[float]) -> bytes:
    return frame({
        "id": rid, "op": "estimate",
        "rect": [float(row[0]), float(row[1]), float(row[2]),
                 float(row[3])],
    })


class Replies:
    """Buffers one connection's bytes and yields decoded replies."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self.buffer.extend(data)
        out = []
        buf = self.buffer
        while len(buf) >= 4:
            length = int.from_bytes(buf[:4], "big")
            if len(buf) < 4 + length:
                break
            out.append(json.loads(bytes(buf[4:4 + length])))
            del buf[:4 + length]
        return out


class Server:
    """The server process and its stdin/stdout control channel."""

    def __init__(self, n_rects: int, trace: bool, spans: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--n-rects", str(n_rects), "--trace", str(int(trace)),
             "--spans", spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.info: Dict[str, Any] = {}
        while "port" not in self.info:
            self.info.update(self._read())
        self.port = int(self.info["port"])

    def _read(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the server process exited early")
        return json.loads(line)

    def _send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def command(self, command: str) -> Dict[str, Any]:
        self._send(command)
        return self._read()

    def sample_speed(self, speed: common.HostSpeed) -> None:
        """Sample the host's speed here and in the server at once."""
        self._send(f"speed {SPEED_SAMPLES}")
        for _ in range(SPEED_SAMPLES):
            speed.sample()
        speed.samples_ns.extend(self._read()["speed_ns"])

    def stop(self) -> Dict[str, Any]:
        """Stop the server; returns its final report (peak memory)."""
        try:
            report = self.command("stop")
            self.proc.wait(timeout=30)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def call(sock: socket.socket, obj: Dict[str, Any]) -> Dict[str, Any]:
    """One blocking round trip on an idle connection."""
    sock.sendall(frame(obj))
    replies = Replies()
    while True:
        data = sock.recv(1 << 16)
        if not data:
            raise BenchError("the server closed the connection")
        got = replies.feed(data)
        if got:
            return got[0]


class Tally:
    """Answers by request id, plus failures and bytes on the wire."""

    def __init__(self, n: int) -> None:
        import numpy as np

        self.values = np.full(n, np.nan)
        self.answered = np.zeros(n, dtype=bool)
        self.attempted = 0
        self.failed = 0
        self.bytes = 0

    def take(self, reply: Dict[str, Any]) -> int:
        rid = int(reply["id"])
        if reply.get("ok"):
            self.values[rid] = float(reply["value"])
            self.answered[rid] = True
        else:
            self.failed += 1
        return rid


def open_loop(
    sock: socket.socket, coords: Any, first: int, n: int, rate: float,
    tally: Tally,
) -> Tuple[List[int], int]:
    """Send ``n`` queries at ``rate``/s regardless of replies.

    Each latency runs from the request's due time to its reply, so a
    stall also charges the requests it delayed.  Returns the latencies
    (ns, in id order; unanswered ones omitted) and how late the
    generator sent its latest request (ns).
    """
    period = 1e9 / rate
    sock.setblocking(False)
    start = time.perf_counter_ns() + 1_000_000
    latency: Dict[int, int] = {}
    replies = Replies()
    out = bytearray()
    sent = 0
    late_max = 0
    done = 0
    give_up = start + int(n * period) + int(REPLY_GRACE_S * 1e9)
    try:
        while done < n:
            now = time.perf_counter_ns()
            if now > give_up:
                break
            while sent < n and start + sent * period <= now:
                out += estimate_frame(first + sent, coords[first + sent])
                late_max = max(late_max, now - int(start + sent * period))
                sent += 1
            if out:
                try:
                    k = sock.send(out)
                except BlockingIOError:
                    k = 0
                tally.bytes += k
                del out[:k]
            # sleep until the next request is due: a generator that
            # spins holds one of the two cores the server needs
            wait = 0.05
            if sent < n:
                wait = max(0.0, (start + sent * period - now) / 1e9)
            readable, _, _ = select.select(
                [sock], [sock] if out else [], [], wait
            )
            if not readable:
                continue
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("the server closed the connection")
            tally.bytes += len(data)
            arrived = time.perf_counter_ns()
            for reply in replies.feed(data):
                k = tally.take(reply) - first
                latency[k] = arrived - int(start + k * period)
                done += 1
    finally:
        sock.setblocking(True)
    tally.attempted += n
    tally.failed += n - done
    return [latency[k] for k in sorted(latency)], late_max


def closed_loop(
    socks: List[socket.socket], coords: Any, first: int, limit: int,
    seconds: float, tally: Tally,
) -> Tuple[int, float, int]:
    """Pipelined windows on each connection until ``seconds`` pass.

    A connection sends :data:`WINDOW` frames back to back, waits for
    all their replies, then sends the next window.  Returns the number
    of queries answered, the wall time (s) and the first unused id.
    """
    state = {}
    replies = {}
    next_id = first
    start = time.perf_counter()
    deadline = start + seconds

    def send_window(sock: socket.socket) -> None:
        nonlocal next_id
        if time.perf_counter() >= deadline or next_id >= limit:
            state[sock] = 0
            return
        end = min(next_id + WINDOW, limit)
        payload = b"".join(
            estimate_frame(i, coords[i]) for i in range(next_id, end)
        )
        sock.sendall(payload)
        tally.bytes += len(payload)
        tally.attempted += end - next_id
        state[sock] = end - next_id
        next_id = end

    for sock in socks:
        replies[sock] = Replies()
        send_window(sock)
    done = 0
    while any(state.values()):
        waiting = [s for s in socks if state[s]]
        readable, _, _ = select.select(waiting, [], [], REPLY_GRACE_S)
        if not readable:
            tally.failed += sum(state.values())
            break
        for sock in readable:
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("the server closed the connection")
            tally.bytes += len(data)
            for reply in replies[sock].feed(data):
                tally.take(reply)
                state[sock] -= 1
                done += 1
            if state[sock] == 0:
                send_window(sock)
    return done, time.perf_counter() - start, next_id


def segmented_closed_loop(
    socks: List[socket.socket], coords: Any, first: int, limit: int,
    seconds: float, tally: Tally, between: Callable[[int, float], None],
) -> Tuple[int, float, int]:
    """:func:`closed_loop` in segments of :data:`SEGMENT_S`, calling
    ``between`` with the queries answered and the time taken so far
    before the first and after each; the same returns, the time summed
    over the segments."""
    done = 0
    took = 0.0
    between(done, took)
    while took < seconds and first < limit:
        k, t, first = closed_loop(
            socks, coords, first, limit, min(SEGMENT_S, seconds - took),
            tally,
        )
        done += k
        took += t
        between(done, took)
    return done, took, first


def segmented_open_loop(
    sock: socket.socket, coords: Any, first: int, n: int, rate: float,
    tally: Tally, between: Callable[[int, float], None],
) -> Tuple[List[int], int]:
    """:func:`open_loop` in segments of :data:`SEGMENT_S`, each on a
    schedule of its own, calling ``between`` with the latencies taken
    and the time taken so far before the first and after each."""
    per_segment = max(1, int(rate * SEGMENT_S))
    latencies: List[int] = []
    late_max = 0
    took = 0.0
    between(0, took)
    for at in range(first, first + n, per_segment):
        t0 = time.perf_counter()
        got, late = open_loop(
            sock, coords, at, min(per_segment, first + n - at), rate, tally
        )
        took += time.perf_counter() - t0
        latencies.extend(got)
        late_max = max(late_max, late)
        between(len(latencies), took)
    return latencies, late_max


def make_queries(data: Any, seed: int, n: int) -> Any:
    """``n`` queries of the paper's biased model, each with a QSize
    drawn from the paper's 2-25 % set.  Extents are continuous draws,
    so no query repeats."""
    import numpy as np

    from repro.workload import PAPER_QSIZES, range_queries

    rng = np.random.default_rng([seed, 1])
    sizes = rng.choice(len(PAPER_QSIZES), size=n)
    coords = np.empty((n, 4), dtype=np.float64)
    for k, qsize in enumerate(PAPER_QSIZES):
        rows = np.flatnonzero(sizes == k)
        if rows.size:
            coords[rows] = range_queries(
                data, qsize, int(rows.size), seed=rng
            ).coords
    return coords


def setup_server(
    data: Any, n_rects: int, trace: bool, spans: str
) -> Tuple[float, Server, socket.socket]:
    """Start a server; time until every shard has answered once."""
    t0 = time.perf_counter()
    server = Server(n_rects, trace, spans)
    try:
        box = common.full_extent(data)
        sock = connect(server.port)
        reply = call(sock, {
            "id": -1, "op": "estimate",
            "rect": [box.x1, box.y1, box.x2, box.y2],
        })
    except BaseException:
        server.kill()
        raise
    if not reply.get("ok"):
        server.kill()
        raise BenchError(f"set-up query failed: {reply}")
    return time.perf_counter() - t0, server, sock


def run(args: Any) -> Dict[str, Any]:
    import numpy as np

    from repro.geometry import RectSet
    from repro.serving import ShardRouter

    seconds = float(args.seconds)
    trace = bool(args.trace)
    data = common.load_data(args.n_rects)
    # the open-loop phase, then the closed loop; a traced run first
    # runs an untraced closed-loop slice to measure tracing overhead
    if trace:
        t_untraced, t_open, t_closed = (
            0.3 * seconds, 0.3 * seconds, 0.4 * seconds
        )
    else:
        t_untraced, t_open, t_closed = 0.0, 0.5 * seconds, 0.5 * seconds
    n_warm = WINDOW * CONNECTIONS * 40
    n_open = int(OFFERED_RATE * t_open)
    # room for 60k q/s; a faster server ends the closed loop early
    n_total = n_warm + n_open + int(60_000 * (t_untraced + t_closed))
    coords = make_queries(data, args.seed, n_total)
    open_ids = np.arange(n_warm, n_warm + n_open)
    truth = common.exact_counts(data, coords[open_ids])
    spans = str(common.WORK / "traces" / f"wire-read-{args.seed}.jsonl.gz")

    setup_times = []
    setup_speed = common.HostSpeed()
    open_speed, closed_speed = common.HostSpeed(), common.HostSpeed()
    server: Optional[Server] = None
    try:
        for _ in common.setup_rounds(once=trace):
            if server is not None:
                server.stop()
                server = None
            elapsed, server, probe = setup_server(
                data, args.n_rects, trace, spans
            )
            setup_times.append(elapsed)
            probe.close()
            server.sample_speed(setup_speed)
        assert server is not None
        socks = [connect(server.port) for _ in range(CONNECTIONS)]
        # warm-up on queries of their own, outside every measurement
        # (but inside the correctness gate)
        tally = Tally(n_total)
        closed_loop(socks, coords, 0, n_warm, 1e9, tally)

        # the traced run reports no end-to-end metric, so it samples
        # nothing
        def sample_open(done: int, took: float) -> None:
            if not trace and server is not None:
                open_speed.mark(done, took)
                server.sample_speed(open_speed)

        def sample_closed(done: int, took: float) -> None:
            if not trace and server is not None:
                closed_speed.mark(done, took)
                server.sample_speed(closed_speed)

        next_free = n_warm + n_open
        untraced_rate = 0.0
        if trace:
            done, took, next_free = segmented_closed_loop(
                socks, coords, next_free, n_total, t_untraced, tally,
                sample_closed,
            )
            untraced_rate = done / took
            server.command("on")
            stats0 = call(socks[0], {"id": -2, "op": "stats"})["value"]
            bytes0 = tally.bytes
        latencies, late_ns = segmented_open_loop(
            socks[0], coords, n_warm, n_open, OFFERED_RATE, tally,
            sample_open,
        )
        done, took, _ = segmented_closed_loop(
            socks, coords, next_free, n_total, t_closed, tally,
            sample_closed,
        )
        closed_rate = done / took
        if trace:
            stats1 = call(socks[0], {"id": -3, "op": "stats"})["value"]
            wire_bytes = tally.bytes - bytes0
            traced = server.command("off")
        for sock in socks:
            sock.close()
        build_ns = int(server.info.get("build_ns", 0))
        final = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    # the gate: every answer equals a direct in-process batch serve
    checked = np.flatnonzero(tally.answered)
    expected = ShardRouter(common.build_tier(data)).estimate_batch(
        RectSet(coords[checked], copy=False, validate=False)
    )
    got = tally.values[checked]
    if args.perturb:
        got[len(got) // 2] += 1.0
    mismatched = int(np.count_nonzero(got != expected))
    late_ms = late_ns / 1e6
    if late_ms > LATE_BOUND_MS:
        raise InvalidRun(
            f"invalid run: the load generator sent a request "
            f"{late_ms:.1f} ms after its due time "
            f"(bound {LATE_BOUND_MS:g} ms)"
        )
    result: Dict[str, Any] = {
        "attempted": tally.attempted,
        "failed": tally.failed + mismatched,
        "mismatched": mismatched,
        "offered_rate_qps": OFFERED_RATE,
        "late_ms_max": late_ms,
        "samples": {"query": len(latencies), "closed": int(done)},
    }
    lat_ms = [v / 1e6 for v in latencies]
    if not trace:
        result["setup_times_s"] = setup_times
        result["query_p99_ms"] = common.percentile(lat_ms, 99)
        wall_clock = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_s": closed_rate,
            "query_p50_ms": common.percentile(lat_ms, 50),
            "are": common.are(truth, np.nan_to_num(tally.values[open_ids])),
            "rss_mb": float(final["rss_mb"]),
        }
        result["wall_clock"] = wall_clock
        result["host_speed"] = {
            "open": open_speed.report(),
            "closed": closed_speed.report(),
            "setups": common.setup_slowdowns(setup_times, setup_speed),
        }
        result["metrics"] = common.at_reference_speed(
            wall_clock, setup_times, setup_speed, closed_speed, open_speed,
            lat_ms,
        )
        return result

    from tracer import per_layer

    summary = traced["summary"]
    ops = len(latencies) + int(done)
    layers = per_layer(summary, ops=ops, mutations=0, build_ns=build_ns)
    batch_ns = summary["agg"].get("ShardRouter.estimate_batch", [0, 0, 0])[1]

    def delta(key: str) -> float:
        return float(stats1.get(key, 0.0)) - float(stats0.get(key, 0.0))

    layers.update({
        "frontdoor.self_us_per_op": (traced["cpu_ns"] - batch_ns) / 1e3 / ops,
        "frontdoor.bytes_per_op": wire_bytes / ops,
        "batcher.avg_batch": (
            delta("batched") / delta("batches") if delta("batches") else 0.0
        ),
        "batcher.shed": delta("shed"),
        "trace.overhead_frac": untraced_rate / closed_rate - 1.0,
        "query_p99_ms": common.percentile(lat_ms, 99),
        "loadgen.late_ms_max": late_ms,
    })
    result["metrics"] = layers
    result["absent"] = summary["absent"]
    result["unobserved"] = summary["unobserved"]
    return result
