"""The serving side of ``wire-read``: the 4-shard tier behind the
micro-batching front door, in its own process.

Run by ``run.py``, not by hand::

    python3 perfbench/server.py --n-rects 40000 --trace 0

It builds the tier, binds the front door on a free localhost port and
prints one JSON line per event on stdout: ``{"port": ...}`` once it
serves, then one reply per command read from stdin:

* ``on``   -- start tracing (traced runs only); replies ``{"on": true}``
* ``off``  -- stop tracing; replies with the span summary and the
  process CPU time spent while tracing was on
* ``speed N`` -- time the reference kernel N times; replies with the
  times (``common.HostSpeed``)
* ``stop`` (or end of stdin) -- close the door; replies with the peak
  resident memory, then exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from typing import Any, Dict, Optional

import common
from common import BenchError


def _emit(obj: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def _serve(door: Any, tracer: Optional[Any], spans_path: str) -> None:
    await door.start()
    loop = asyncio.get_running_loop()
    commands: "asyncio.Queue[str]" = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_stdin, daemon=True).start()
    _emit({"port": door.port})
    cpu0 = 0
    while True:
        command = await commands.get()
        if command == "on" and tracer is not None:
            tracer.start()
            cpu0 = time.process_time_ns()
            _emit({"on": True})
        elif command == "off" and tracer is not None:
            cpu_ns = time.process_time_ns() - cpu0
            tracer.stop()
            tracer.write_spans(spans_path)
            _emit({"summary": tracer.summary(), "cpu_ns": cpu_ns})
        elif command.startswith("speed "):
            speed = common.HostSpeed()
            for _ in range(int(command.split()[1])):
                speed.sample()
            _emit({"speed_ns": speed.samples_ns})
        elif command == "stop":
            break
    await door.aclose()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-rects", type=int, default=common.N_RECTS)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    try:
        common.use_source_tree()
    except BenchError as exc:
        print(f"perfbench server: {exc}", file=sys.stderr)
        return 2
    from repro.serving import FrontDoor, ShardRouter

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    router = ShardRouter(common.build_tier(common.load_data(args.n_rects)))
    if tracer is not None:
        build_ns = tracer.layer_self_ns().get("build", 0)
        tracer.uninstall()
        _emit({"build_ns": build_ns})
    door = FrontDoor(
        router,
        host="127.0.0.1",
        port=0,
        max_batch=common.MAX_BATCH,
        max_wait_steps=common.WAIT_STEPS,
    )
    try:
        asyncio.run(_serve(door, tracer, args.spans))
    finally:
        router.close()
    _emit({"rss_mb": common.peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
