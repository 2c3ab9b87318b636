"""What every workload shares: the program's source, the tier, inputs,
statistics and provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for WAL directories and trace files; removed or
#: overwritten by every run.
WORK = ROOT / ".perfbench_work"

# The tier ``repro-spatial serve --shards 4`` builds with its default
# flags, over the paper's Charminar dataset at paper scale.
N_RECTS = 40_000
N_SHARDS = 4
N_BUCKETS = 50
N_REGIONS = 10_000
MAX_BATCH = 64
WAIT_STEPS = 4

#: ``setup_s`` is the median of the set-ups that fit in a span of
#: ``SETUP_SPAN_S`` (at least ``SETUP_MIN`` of them), each started at
#: least ``SETUP_GAP_S`` after the previous one: the host's speed
#: drifts over seconds, so the set-ups are spread over several, and a
#: quick set-up is sampled more often.
SETUP_SPAN_S = 5.0
SETUP_MIN = 5
SETUP_GAP_S = 0.25

#: Host speed.  A shared host runs the same code up to twice as slow
#: for minutes at a time, and a slow phase slows a fixed piece of
#: interpreter and numpy work about as much as it slows the program.
#: So a run times the reference kernel below right after each set-up
#: and every :data:`SPEED_EVERY_S` of its measured windows, and gives
#: each timing at the reference speed: divided by (a rate multiplied
#: by) the slowdown, the median kernel time over
#: :data:`REFERENCE_KERNEL_NS`.  That constant is about the kernel's
#: median time in the measured windows on the 2-core x86-64 virtual
#: machine (Xeon, 2.0 GHz, Python 3.11, numpy 2.4) the README's
#: figures come from, so there the figures read about as the wall
#: clock does.
REFERENCE_KERNEL_NS = 1_300_000
SPEED_EVERY_S = 0.1
#: A marked figure goes by windows of at least this much measured
#: time, each at its own speed (:meth:`HostSpeed.windows`).
SPEED_WINDOW_S = 1.0
#: Kernel samples taken (in each process sampled) right after each
#: set-up.
SPEED_SETUP_SAMPLES = 3
_KERNEL_ROWS: List[Any] = []


def reference_kernel() -> float:
    """A fixed mix of interpreter work and numpy operations, the shape
    of the program's own work; it calls no program code, so no change
    to the program changes its time.

    It has two parts because a slow phase of the host slows them by
    different factors, as it does the program's two query paths: small
    arrays and interpreter work (like a cache hit) and 4096-element
    arrays (like a cache miss through the bucket kernel).  On a
    200-second trace on the machine named above, whose speed moved by
    up to 1.8 times, the small-array part alone left a 9 % variation
    (CV over 10-s blocks) in the scaled throughput of ``scalar-hot``,
    the two parts 7 %, from 17 % unscaled."""
    import numpy as np

    if not _KERNEL_ROWS:
        _KERNEL_ROWS.extend(
            np.linspace(0.0, 1.0, size) for size in (64, 4096)
        )
    acc = 0.0
    seen: Dict[Tuple[int, int], float] = {}
    for row, rounds in zip(_KERNEL_ROWS, (50, 20)):
        for i in range(rounds):
            lo = np.maximum(row, i * 0.001)
            hi = np.minimum(row + 0.5, 0.9)
            acc += float(np.clip(hi - lo, 0.0, None).sum())
            seen[(i, i & 7)] = acc
    return acc


class HostSpeed:
    """Times :func:`reference_kernel` now and then; the median gives
    the host's slowdown against the reference machine.  A caller that
    measures a rate marks, before each sample, how much work it has
    done in how much time."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []
        #: (work done, seconds spent, samples taken before, then
        #: :func:`cpu_ticks`) per mark
        self.marks: List[Tuple[float, float, int, int, int]] = []
        self.due = 0.0

    def mark(self, done: float, spent: float) -> None:
        self.marks.append((done, spent, len(self.samples_ns), *cpu_ticks()))

    def sample(self) -> int:
        """Time one run of the kernel, after an untimed one: the time
        of a warm run depends least on what ran before it."""
        reference_kernel()
        t0 = time.perf_counter_ns()
        reference_kernel()
        took = time.perf_counter_ns() - t0
        self.samples_ns.append(took)
        return took

    def maybe_sample(
        self, done: Optional[float] = None, spent: float = 0.0
    ) -> float:
        """Sample (and mark ``done`` and ``spent``, if given) if
        :data:`SPEED_EVERY_S` has passed since the last sample taken
        here; returns the seconds that took (to leave out of the
        caller's own timing), or 0."""
        now = time.perf_counter()
        if now < self.due:
            return 0.0
        if done is not None:
            self.mark(done, spent)
        self.sample()
        self.due = time.perf_counter() + SPEED_EVERY_S
        return self.due - SPEED_EVERY_S - now

    def slowdown(self) -> float:
        if not self.samples_ns:
            raise BenchError("the host's speed was never sampled")
        return statistics.median(self.samples_ns) / REFERENCE_KERNEL_NS

    def windows(self) -> List[Tuple[float, float, float, float, float]]:
        """The marked stretch cut, at marks, into windows of at least
        :data:`SPEED_WINDOW_S`: for each, the work done at its start and
        at its end, its time, the slowdown of the samples taken in it,
        and the share of the CPU time the machine wanted that the
        hypervisor withheld (:func:`stolen_share`).  Taking the median
        of a figure over the windows, each at its own speed, counts a
        speed that moves within a run where it held, and a stretch of a
        few seconds in which the host all but stops (as it does) does
        not count.  Empty if the marks span less than one window."""
        out = []
        start = 0
        for end in range(1, len(self.marks)):
            done0, spent0, at0, *ticks0 = self.marks[start]
            done1, spent1, at1, *ticks1 = self.marks[end]
            if spent1 - spent0 >= SPEED_WINDOW_S:
                slow = statistics.median(self.samples_ns[at0:at1])
                out.append((
                    done0, done1, spent1 - spent0,
                    slow / REFERENCE_KERNEL_NS,
                    stolen_share(ticks0, ticks1),
                ))
                start = end
        return out

    def report(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "samples": len(self.samples_ns), "slowdown": self.slowdown(),
        }
        if len(self.marks) > 1:
            out["stolen_share"] = stolen_share(
                self.marks[0][3:], self.marks[-1][3:]
            )
        return out


def cpu_ticks() -> Tuple[int, int]:
    """CPU time this machine spent busy, and the CPU time it wanted
    but the hypervisor ran something else ("steal"), so far, in ticks
    (the ``cpu`` line of ``/proc/stat``); zeros where there is no such
    file."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        ticks + [0] * 8
    )[:8]
    return user + nice + system + irq + softirq, steal


def stolen_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Of the CPU time the machine wanted between two
    :func:`cpu_ticks`, the share the hypervisor withheld.  The
    kernel's samples mostly miss such time, since a sample is shorter
    than the stretches the hypervisor takes, so a rate is corrected
    for it apart (:func:`at_reference_speed`)."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def setup_slowdowns(
    setup_times: Sequence[float], setup_speed: HostSpeed
) -> List[float]:
    """The slowdown of each set-up: of the samples taken right after
    it, an equal share of ``setup_speed``'s samples per set-up."""
    n = len(setup_speed.samples_ns) // len(setup_times)
    got = setup_speed.samples_ns
    return [
        statistics.median(got[k * n:(k + 1) * n]) / REFERENCE_KERNEL_NS
        for k in range(len(setup_times))
    ]


def at_reference_speed(
    wall_clock: Dict[str, float], setup_times: Sequence[float],
    setup_speed: HostSpeed, rate_speed: HostSpeed,
    latency_speed: HostSpeed, latencies_ms: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """The end-to-end metrics with their times at the reference speed:
    ``setup_s`` is the median set-up, each divided by its own slowdown
    (:func:`setup_slowdowns`); ``throughput_ops_s`` is the median over
    ``rate_speed``'s :meth:`HostSpeed.windows` of their rate times
    their slowdown, over the share of the wanted CPU time the
    hypervisor left the machine; ``query_p50_ms`` the median over
    ``latency_speed``'s windows of the median of their
    ``latencies_ms`` (marked by count) over their slowdown.  Without
    windows (a short run, or latencies not marked), the wall-clock
    figure goes by the slowdown of all the samples."""
    out = dict(wall_clock)
    out["setup_s"] = statistics.median(
        took / slow for took, slow in zip(
            setup_times, setup_slowdowns(setup_times, setup_speed)
        )
    )
    windows = rate_speed.windows()
    if windows:
        out["throughput_ops_s"] = statistics.median(
            (done1 - done0) / spent * slow / (1.0 - stolen)
            for done0, done1, spent, slow, stolen in windows
        )
    else:
        out["throughput_ops_s"] = (
            wall_clock["throughput_ops_s"] * rate_speed.slowdown()
        )
    windows = latency_speed.windows()
    if windows and latencies_ms is not None:
        out["query_p50_ms"] = statistics.median(
            percentile(latencies_ms[int(done0):int(done1)], 50) / slow
            for done0, done1, _, slow, _ in windows
        )
    else:
        out["query_p50_ms"] = (
            wall_clock["query_p50_ms"] / latency_speed.slowdown()
        )
    return out


class BenchError(Exception):
    """The run could not finish (exit code 2, no result)."""


class InvalidRun(BenchError):
    """The run finished but its numbers would mislead (exit code 3)."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup_rounds(once: bool) -> Iterator[int]:
    """The set-up rounds of a run: one if ``once``, else as many as
    :data:`SETUP_SPAN_S` holds (at least :data:`SETUP_MIN`), each
    starting at least :data:`SETUP_GAP_S` after the previous one."""
    first = time.perf_counter()
    started = first
    k = 0
    while True:
        yield k
        k += 1
        now = time.perf_counter()
        if once or (k >= SETUP_MIN and now - first >= SETUP_SPAN_S):
            return
        time.sleep(max(0.0, started + SETUP_GAP_S - now))
        started = time.perf_counter()


def load_data(n_rects: int) -> Any:
    from repro.data import charminar

    return charminar(n_rects)


def build_tier(data: Any) -> Any:
    from repro.serving import ShardedHistogram

    return ShardedHistogram.build(
        data, n_shards=N_SHARDS, n_buckets=N_BUCKETS, n_regions=N_REGIONS
    )


def full_extent(data: Any) -> Any:
    """A query over the whole data MBR: every shard must answer it."""
    return data.mbr()


def exact_counts(data: Any, coords: Any) -> Any:
    from repro.counting import ExactCountOracle
    from repro.geometry import RectSet

    return ExactCountOracle(data).counts(
        RectSet(coords, copy=False, validate=False)
    )


def are(truth: Any, estimates: Any) -> float:
    """The paper's average relative error, sum|r - e| / sum r."""
    import numpy as np

    r = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    return float(np.abs(r - e).sum() / r.sum())


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of a process (this one by default)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }
