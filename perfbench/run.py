"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload wire-read --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
workload again with span tracing and reports the per-layer metrics.
The last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report with the seed, the machine fingerprint and every other
figure the run took.

Exit codes: 0 correct, 1 an answer mismatched its reference, 2 the run
could not finish (no program source here, or a serving process
failed), 3 the run is invalid (its load generator fell behind).  Codes
2 and 3 print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

import common
from common import BenchError, InvalidRun

WORKLOADS = ("wire-read", "scalar-hot", "live-mixed")


def declared_metrics(trace: bool) -> List[Dict[str, Any]]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-test: a smaller tier, and a deliberately wrong answer
    parser.add_argument("--n-rects", type=int, default=common.N_RECTS)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)
    args.run_id = f"run-{os.getpid()}"
    return args


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    if args.workload == "wire-read":
        import wire

        return wire.run(args)
    import inproc

    if args.workload == "scalar-hot":
        return inproc.scalar_hot(args)
    return inproc.live_mixed(args)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        common.use_source_tree()
        declared = declared_metrics(bool(args.trace))
        outcome = run_workload(args)
        measured = outcome.pop("metrics")
        missing = [s["name"] for s in declared if s["name"] not in measured]
        if missing:
            raise BenchError(f"{args.workload} did not measure {missing}")
    except (BenchError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InvalidRun) else 2
    metrics = {
        spec["name"]: {
            "value": float(measured[spec["name"]]), "unit": spec["unit"],
        }
        for spec in declared
    }
    correct = outcome["mismatched"] == 0
    attempted = int(outcome.pop("attempted"))
    failed = int(outcome.pop("failed"))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_rects": args.n_rects,
        "machine": common.fingerprint(),
        "failed_frac": failed / attempted,
        **outcome,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
