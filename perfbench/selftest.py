"""The benchmark's own check, at small scale (about two minutes).

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` on a 4000-rect tier for a few
seconds and checks that:

* an untraced and a traced run each report exactly the metrics
  ``BENCHMARK.json`` declares, with their units, and exit 0;
* every end-to-end metric is non-zero;
* the layers the workload skips read 0 and the ones it exercises don't;
* the correctness gate trips (exit 1, ``"correct": false``) when one
  answer is deliberately perturbed.

It also checks that a directory holding only ``BENCHMARK.json`` and
``perfbench/`` (no program) makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = ["--n-rects", "4000", "--seconds", "2", "--seed", "7"]

#: Per-layer metrics each workload must leave at 0 ...
SKIPPED = {
    "wire-read": (
        "index.", "maintenance.", "wal.", "pool.", "tuning.",
        "estimator.rebuilds", "cache.flushes", "mutation_",
    ),
    "scalar-hot": (
        "frontdoor.", "batcher.", "maintenance.", "wal.", "pool.",
        "tuning.", "estimator.rebuilds", "cache.flushes", "mutation_",
        "loadgen.",
    ),
    "live-mixed": ("frontdoor.", "batcher.", "loadgen."),
}
#: ... and some it must exercise.
EXERCISED = {
    "wire-read": (
        "frontdoor.self_us_per_op", "frontdoor.bytes_per_op",
        "batcher.avg_batch", "batcher.wait_ms_p99",
        "router.self_us_per_op", "router.fanout", "shard.calls_per_op",
        "kernel.bucket_rows_per_op", "cache.lookups", "query_p99_ms",
        "build.ms",
    ),
    "scalar-hot": (
        "router.self_us_per_op", "engine.self_us_per_op",
        "cache.hit_ratio", "index.self_us_per_op",
        "index.candidates_per_probe", "kernel.self_us_per_op",
        "query_p99_ms", "build.ms",
    ),
    "live-mixed": (
        "router.self_us_per_op", "maintenance.insert_us",
        "maintenance.delete_us", "wal.record_us", "wal.checkpoints",
        "wal.bytes_per_mutation", "pool.wait_us_per_op", "pool.casts",
        "tuning.passes", "estimator.rebuilds", "cache.flushes",
        "query_p99_ms", "mutation_p99_ms", "build.ms",
    ),
}


def run(
    workload: str, *extra: str, cwd: Path = ROOT
) -> Tuple[int, List[str], str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         *SMALL, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_metrics(
    problems: List[str], label: str, result: Dict[str, Any],
    declared: List[Dict[str, Any]],
) -> None:
    names = [spec["name"] for spec in declared]
    if list(result["metrics"]) != names:
        problems.append(f"{label}: metrics {list(result['metrics'])}")
        return
    for spec in declared:
        got = result["metrics"][spec["name"]]
        if got["unit"] != spec["unit"]:
            problems.append(f"{label}: {spec['name']} unit {got['unit']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    for workload in ("wire-read", "scalar-hot", "live-mixed"):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            code, out, err = run(workload, "--trace", trace)
            if code != 0 or not out:
                problems.append(f"{label}: exit {code}: {err[-500:]}")
                continue
            result = json.loads(out[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {out[-1]}")
            declared = spec["per_layer" if trace == "1" else "end_to_end"]
            check_metrics(problems, label, result, declared)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == "0":
                for name, value in metrics.items():
                    if not value > 0:
                        problems.append(f"{label}: {name} = {value}")
                continue
            for name, value in metrics.items():
                if name.startswith(SKIPPED[workload]) and value != 0:
                    problems.append(f"{label}: skipped {name} = {value}")
            for name in EXERCISED[workload]:
                if not metrics.get(name, 0) > 0:
                    problems.append(f"{label}: {name} reads 0")
        code, out, _err = run(workload, "--trace", "0", "--perturb")
        result = json.loads(out[-1]) if out else {}
        if code != 1 or result.get("correct") is not False:
            problems.append(f"{workload}: a perturbed answer passed")
        print(f"checked {workload}", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out, _err = run("scalar-hot", "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith('{"correct"') for line in out):
        problems.append("without the program the benchmark still reported")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
