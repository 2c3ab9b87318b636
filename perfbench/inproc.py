"""The in-process workloads: ``scalar-hot`` and ``live-mixed``.

One caller drives the tier through :class:`ShardRouter` inside the
serving process, the way an embedded optimizer does.  That process is
``caller.py``, a child of the benchmark process: it holds the tier, its
inputs and the caller's bookkeeping, so its peak memory describes the
program and not the harness.  It writes the answers it served to the
run directory; the benchmark process then builds the references (a
second tier, the exact counts) and checks them.

Both sides draw the inputs from the seed with the functions below.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import common
from common import BenchError

HERE = Path(__file__).resolve().parent

#: The serving process is given up on (and the run fails) after this.
CALLER_TIMEOUT_S = 150.0

QSIZE = 0.05

# scalar-hot.  No measured caller fixes the two traffic constants below
# (the repository's optimizer example asks only distinct queries); they
# are assumptions, and the report prints the cache hit share they give.
#: Distinct hot queries the caller repeats (they fit every shard's
#: cache) ...
HOT_POOL = 1_000
#: ... with this Zipf exponent ...
HOT_ZIPF = 0.8
#: ... while this share of calls asks a one-off query, so the scalar
#: path's index and kernel run as well as its cache.
FRESH_SHARE = 0.1
#: Calls drawn at a time; the caller checks its deadline between slices.
HOT_SLICE = 256
#: Untimed calls before the measured window, so the caches are warm
#: (and never fewer than one pass over the pool).
HOT_WARMUP_S = 1.0

# live-mixed
#: Operation mix and drift of the repository's drifting self-tuning
#: preset (``TUNING_CONFIG`` in ``repro.obs.bench``): 50 % queries,
#: 35 % inserts, 15 % deletes, and its tuning cadence.
LIVE_QUERY_FRAC = 0.5
LIVE_INSERT_FRAC = 0.35
LIVE_DRIFT = (0.08, 0.06)
TUNE_EVERY = 300
#: Length of the pre-generated operation stream.
LIVE_OPS = 10_000
#: The recent served queries a tuning pass scores.
TUNE_WINDOW = 2_000
#: Pool workers behind the router.
LIVE_WORKERS = 2
#: ``are`` (their mean) and the correctness gate are taken after these
#: operations -- each right after a tuning pass -- so they describe the
#: same data states however fast the stream runs.  Each stream drifts
#: and tunes its own way, so the more states the mean covers, the less
#: it depends on the seed; a run that holds :data:`MIN_MUTATIONS`
#: holds about 2000 operations.
ARE_AT_OPS = (300, 600, 900, 1_200, 1_500, 1_800)
#: The stream runs past ``--seconds`` until it holds this many
#: mutations (so mutation p99 has ten samples beyond it) ...
MIN_MUTATIONS = 1_000
#: ... but never longer than this multiple of ``--seconds``.
MAX_STRETCH = 2.0
#: Fixed probe set for ``are`` and the union-estimator gate.
PROBES = 5_000


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def hot_pool_and_slices(
    data: Any, seed: int
) -> Tuple[List[Any], Iterator[Tuple[List[Any], List[int]]]]:
    """The hot pool (Rects) and an endless stream of call slices.

    A slice is ``(rects, keys)``: the rects to ask, and for each its
    pool index, or -1 for a one-off query.  The pool comes first, each
    query once in seeded order; then Zipf-skewed repeats mixed with
    one-off queries.  Slices are drawn as they are needed, so memory
    does not grow with the length of a run.
    """
    import numpy as np

    from repro.workload import range_queries

    rng = np.random.default_rng([seed, 2])
    pool = list(range_queries(data, QSIZE, HOT_POOL, seed=rng))
    ranks = rng.permutation(HOT_POOL)
    weights = 1.0 / np.arange(1, HOT_POOL + 1) ** HOT_ZIPF
    weights /= weights.sum()
    first = rng.permutation(HOT_POOL).tolist()

    def slices() -> Iterator[Tuple[List[Any], List[int]]]:
        for at in range(0, HOT_POOL, HOT_SLICE):
            keys = first[at:at + HOT_SLICE]
            yield [pool[k] for k in keys], keys
        while True:
            keys_arr = ranks[rng.choice(HOT_POOL, size=HOT_SLICE, p=weights)]
            fresh = rng.random(HOT_SLICE) < FRESH_SHARE
            keys_arr[fresh] = -1
            n_fresh = int(fresh.sum())
            one_off = iter(
                range_queries(data, QSIZE, n_fresh, seed=rng)
                if n_fresh else ()
            )
            keys = keys_arr.tolist()
            yield [pool[k] if k >= 0 else next(one_off) for k in keys], keys

    return pool, slices()


def one_off_coords(data: Any, seed: int, n: int) -> Any:
    """Coordinates of the first ``n`` one-off queries of the stream."""
    import numpy as np

    _pool, slices = hot_pool_and_slices(data, seed)
    rows: List[Tuple[float, float, float, float]] = []
    for rects, keys in slices:
        if len(rows) >= n:
            break
        rows.extend(r.as_tuple() for r, k in zip(rects, keys) if k < 0)
    return np.asarray(rows[:n], dtype=np.float64).reshape(-1, 4)


def live_inputs(data: Any, seed: int) -> Tuple[List[Any], Any]:
    """The live operation stream and the fixed probe set."""
    import numpy as np

    from repro.workload import live_workload, range_queries

    rng = np.random.default_rng([seed, 3])
    ops = live_workload(
        data, QSIZE, LIVE_OPS, seed=rng, drift=LIVE_DRIFT,
        query_frac=LIVE_QUERY_FRAC, insert_frac=LIVE_INSERT_FRAC,
    )
    return ops, range_queries(data, QSIZE, PROBES, seed=rng)


# ----------------------------------------------------------------------
# the benchmark side
# ----------------------------------------------------------------------
def _run_caller(args: Any, out: Path) -> Dict[str, Any]:
    """Run the serving process; returns its result line."""
    command = [
        sys.executable, str(HERE / "caller.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--n-rects", str(args.n_rects), "--out", str(out),
    ]
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=CALLER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"the serving process ran over {CALLER_TIMEOUT_S:g} s"
        ) from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"the serving process exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def _common_result(child: Dict[str, Any]) -> Dict[str, Any]:
    """What both workloads report from the serving process."""
    result = {
        key: child[key] for key in child
        if key not in ("metrics", "e2e", "layers")
    }
    if "layers" in child:
        result["metrics"] = child["layers"]
    return result


def scalar_hot(args: Any) -> Dict[str, Any]:
    import numpy as np

    from repro.geometry import RectSet
    from repro.serving import ShardRouter

    out = common.WORK / args.run_id
    try:
        out.mkdir(parents=True, exist_ok=True)
        child = _run_caller(args, out)
        pool_served = np.load(out / "pool.npy")
        one_off_served = np.load(out / "one_off.npy")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    data = common.load_data(args.n_rects)
    pool, _slices = hot_pool_and_slices(data, args.seed)
    pool_coords = np.array([r.as_tuple() for r in pool], dtype=np.float64)
    coords = np.vstack([
        pool_coords, one_off_coords(data, args.seed, len(one_off_served)),
    ])
    # the gate: the first answer to every query equals the batch path's
    # answer from a second, identically built tier (the caller checked
    # every repeat against that first answer)
    expected = ShardRouter(common.build_tier(data)).estimate_batch(
        RectSet(coords, copy=False, validate=False)
    )
    got = np.concatenate([pool_served, one_off_served])
    if args.perturb:
        got[0] += 1.0
    mismatched = int(np.count_nonzero(got != expected))
    mismatched += int(child["repeat_mismatches"])
    result = _common_result(child)
    result.update({
        "attempted": child["calls"],
        "failed": mismatched,
        "mismatched": mismatched,
    })
    if not args.trace:
        truth = common.exact_counts(data, pool_coords)
        result["metrics"] = {
            **child["e2e"], "are": common.are(truth, pool_served),
        }
    return result


def live_mixed(args: Any) -> Dict[str, Any]:
    import numpy as np

    from repro.geometry import RectSet

    out = common.WORK / args.run_id
    try:
        out.mkdir(parents=True, exist_ok=True)
        child = _run_caller(args, out)
        gates = {
            label: (
                np.load(out / f"gate-{label}-served.npy"),
                np.load(out / f"gate-{label}-data.npy"),
            )
            for label in child["scored_gates"]
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    data = common.load_data(args.n_rects)
    _ops, probes = live_inputs(data, args.seed)
    ares = [
        common.are(
            common.exact_counts(
                RectSet(rows, copy=False, validate=False), probes.coords
            ),
            served,
        )
        for served, rows in gates.values()
    ]
    mismatched = int(child["gate_mismatches"])
    result = _common_result(child)
    result.update({
        "attempted": child["done"] + child["gate_probes"],
        "failed": mismatched + int(child["failed_deletes"]),
        "mismatched": mismatched,
    })
    if not args.trace:
        result["are_at_ops"] = dict(zip(gates, ares))
        result["metrics"] = {**child["e2e"], "are": sum(ares) / len(ares)}
    return result
